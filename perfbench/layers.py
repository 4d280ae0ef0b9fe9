"""Per-layer cost: each module's public functions timed on fixed sets.

The sets come from the oracle once per run: all members of L_20, A_16 and
D_20 (and, for the oracle's own timings, n = 17). Every figure is measured
with tracing off. Each name below says which end-to-end metric it should
move and on which workload:

- core.* (not format_sequence): wall_s on stream-lex and certify, step_p50_us
  on point-query; not stream-an. core.format_sequence_us: wall_s on stream-an.
- cells.successor_an_us / predecessor_an_us: wall_s on stream-an.
  cells.*_candidate_us and candidate_probes_mean: stream-lex.
- adjacency.*: wall_s on stream-lex (mostly its descending leg) and
  step_p99_us on point-query.
- enumeration.walk_*_per_s: elements_per_s on stream-lex and stream-an;
  dn_desc_first_ms: first_output_ms and peak_rss_mb on stream-lex.
- oracle.*: wall_s and peak_rss_mb on certify.
- cli.list_overhead_us_per_line: wall_s on stream-an.
"""

from __future__ import annotations

import io
import time
from statistics import median


L_N, A_N, D_N, ORACLE_N = 20, 16, 20, 17


class Sink(io.TextIOBase):
    """A text stream that discards what is written to it."""

    def write(self, s: str) -> int:
        return len(s)


def per_call_us(fn, args: list[tuple], min_s: float = 0.1) -> float:
    """Mean µs per call over whole passes of ``args``, repeated until ``min_s`` has passed."""
    calls, t0 = 0, time.perf_counter()
    while True:
        for a in args:
            fn(*a)
        calls += len(args)
        elapsed = time.perf_counter() - t0
        if elapsed >= min_s:
            return elapsed / calls * 1e6


def seconds_of(fn, repeats: int = 1) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return median(times)


def oracle_sets(l_n: int, d_n: int) -> tuple[list, list]:
    """The oracle's L_l_n and D_d_n; at n = 20 the lists point-query keeps."""
    from . import pointquery, refs

    if l_n == d_n == pointquery.N:
        codes = pointquery.references()
        return [refs.decode(c) for c in codes["ln"]], [refs.decode(c) for c in codes["dn"]]
    return refs.oracle_list("ln", l_n), refs.oracle_list("dn", d_n)


def measure(l_n: int = L_N, a_n: int = A_N, d_n: int = D_N, oracle_n: int = ORACLE_N) -> dict[str, tuple[float, str]]:
    from contextlib import redirect_stdout

    from alphaseq import adjacency, cells, cli, core, enumeration, oracle
    from alphaseq.errors import NoCandidate

    L, D = oracle_sets(l_n, d_n)
    A = oracle.oracle_an(a_n)
    lexical = set(L)
    non_lexical = [a for a in oracle.all_compositions(l_n - 1) if a not in lexical]
    steps = list(zip(L, L[1:]))
    candidates = [cells.lexical_successor_candidate(a) for a, _ in steps]
    resonant = [a for (a, b), (cand, _) in zip(steps, candidates) if cand != b]
    direct = [a for (a, b), (cand, _) in zip(steps, candidates) if cand == b]
    star_members = {b for (a, b), (cand, _) in zip(steps, candidates) if cand != b}
    probes = [(len(a) - len(a) % 2 - i) // 2 + 1 for (a, _), (_, i) in zip(steps, candidates)]
    pred_plain, pred_star, pred_cand = [], [], []
    for a in L[1:]:
        (pred_star if a in star_members else pred_plain).append((a, l_n))
        try:
            cells.lexical_predecessor_candidate(a)
            pred_cand.append((a,))
        except NoCandidate:
            pass
    t0 = time.perf_counter()
    factorizations = [adjacency.star_factorize(a, l_n) for a in L]
    star_factorize_us = (time.perf_counter() - t0) / len(L) * 1e6
    hits = [f for f in factorizations if f is not None and not f.trivial]
    ctx = core.SetContext("L", l_n)

    out = {
        "core.compare_us": (per_call_us(core.compare, steps), "us"),
        "core.is_lexical_member_us": (per_call_us(core.is_lexical, [(a,) for a in L]), "us"),
        "core.is_lexical_reject_us": (per_call_us(core.is_lexical, [(a,) for a in non_lexical]), "us"),
        "core.contains_ln_us": (per_call_us(ctx.contains, [(a,) for a in L]), "us"),
        "core.star_us": (per_call_us(core.star, [(f.g, f.lam) for f in hits]), "us"),
        "core.least_element_us": (per_call_us(core.least_element, [(n,) for n in range(1, l_n + 1)]), "us"),
        "core.format_sequence_us": (per_call_us(core.format_sequence, [(a,) for a in A]), "us"),
        "cells.successor_an_us": (per_call_us(cells.successor_an, [(a,) for a in A[:-1]]), "us"),
        "cells.predecessor_an_us": (per_call_us(cells.predecessor_an, [(a,) for a in A[1:]]), "us"),
        "cells.successor_candidate_us": (
            per_call_us(cells.lexical_successor_candidate, [(a,) for a, _ in steps]), "us"),
        "cells.predecessor_candidate_us": (per_call_us(cells.lexical_predecessor_candidate, pred_cand), "us"),
        "cells.candidate_probes_mean": (sum(probes) / len(probes), "probes/step"),
        "adjacency.successor_ln_direct_us": (per_call_us(adjacency.successor_ln, [(a, l_n) for a in direct]), "us"),
        "adjacency.successor_ln_resonant_us": (
            per_call_us(adjacency.successor_ln, [(a, l_n) for a in resonant]), "us"),
        "adjacency.successor_dn_burst_us": (per_call_us(adjacency.successor_dn, [(a, l_n) for a in resonant]), "us"),
        "adjacency.predecessor_ln_us": (per_call_us(adjacency.predecessor_ln, pred_plain), "us"),
        "adjacency.predecessor_ln_star_us": (per_call_us(adjacency.predecessor_ln, pred_star), "us"),
        "adjacency.star_factorize_us": (star_factorize_us, "us"),
        "adjacency.star_factorize_hit_ratio": (len(hits) / len(L), "ratio"),
        "adjacency.resonant_step_ratio": (len(resonant) / len(steps), "ratio"),
    }

    walks = {
        "enumeration.walk_ln_per_s": (lambda: enumeration.enumerate_ln(l_n), len(L)),
        "enumeration.walk_ln_desc_per_s": (lambda: enumeration.enumerate_ln_descending(l_n), len(L)),
        "enumeration.walk_an_per_s": (lambda: enumeration.enumerate_an(a_n), len(A)),
        "enumeration.walk_dn_per_s": (lambda: enumeration.enumerate_dn(d_n), len(D)),
    }
    for name, (walk, size) in walks.items():
        out[name] = (size / seconds_of(lambda: sum(1 for _ in walk())), "1/s")
    # the CLI's dn --desc has no reverse walk: its first element waits for all of D_n
    out["enumeration.dn_desc_first_ms"] = (
        seconds_of(lambda: next(reversed(list(enumeration.enumerate_dn(d_n))))) * 1e3, "ms")

    n = oracle_n
    out["oracle.all_compositions_s"] = (seconds_of(lambda: oracle.all_compositions(n), repeats=3), "s")
    out["oracle.oracle_an_s"] = (seconds_of(lambda: oracle.oracle_an(n)), "s")
    ln_s = seconds_of(lambda: oracle.oracle_ln(n), repeats=3)
    out["oracle.oracle_ln_s"] = (ln_s, "s")
    out["oracle.oracle_dn_s"] = (seconds_of(lambda: oracle.oracle_dn(n)), "s")
    out["oracle.verify_range_s"] = (seconds_of(lambda: oracle.verify_range(1, n)), "s")
    walk_s = seconds_of(lambda: sum(1 for _ in enumeration.enumerate_ln(n)), repeats=3)
    out["oracle.ln_oracle_over_walk"] = (ln_s / walk_s, "ratio")

    argv = ["list", "--set", "an", str(a_n)]
    with redirect_stdout(Sink()):
        listed = seconds_of(lambda: cli.run(argv), repeats=3)
    bare = seconds_of(lambda: sum(1 for _ in enumeration.enumerate_an(a_n)), repeats=3)
    out["cli.list_overhead_us_per_line"] = ((listed - bare) / len(A) * 1e6, "us")
    return out
