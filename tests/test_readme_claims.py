"""Every count the README marks as a claim, recomputed.

A claim is an HTML comment just before the number it names, as in
``<!-- claim: l18_down_tables -->1 428``; the number is written with a space
between each group of three digits. CLAIMS holds one recount per claim name.
The suite fails when a marked number differs from its recount, when a marker
has no recount and when a recount has no marker.

The benchmark table is recomputed too: the README names a ``BENCH_*.json``
file and the commit whose runs it summarizes, and each ``wall_s`` and
``step_p50_us`` cell is the median of those runs, printed to three
significant figures.
"""

import contextlib
import io
import json
import re
import statistics
from argparse import Namespace
from collections import Counter
from pathlib import Path

import pytest

from alphaseq import adjacency, cli, enumeration, oracle
from alphaseq.core import ZERO
from alphaseq.enumeration import enumerate_ln, enumerate_ln_descending
from alphaseq.errors import AlphaSequenceError
from alphaseq.oracle import oracle_ln

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
MARKER = re.compile(r"<!-- claim: (\S*) -->(\d{1,3}(?: \d{3})*(?!\d))?")
BENCH_SOURCE = re.compile(r"runs recorded as commit `([0-9a-f]{7,40})`\s+in\s+`(BENCH_\d+\.json)`")
BENCH_ROW = re.compile(r"^\| ([a-z-]+) \| [^|]* \| ([\d.]+) (s|ms) \| ([\d.]+) µs \|$", re.MULTILINE)


def readme_claims():
    """[(name, number)] for each marker in the README, in order."""
    claims = MARKER.findall(README.read_text(encoding="utf-8"))
    assert all(number for _, number in claims), f"a marker without its number: {claims}"
    return [(name, int(number.replace(" ", ""))) for name, number in claims]


def _walk_events(walk, n, event):
    """The recount of ``event`` in the step events of one whole ``walk(n)``."""

    def recount(step_events, monkeypatch):
        for _ in walk(n):
            pass
        return step_events.count(event)

    return recount


def _l18_steps(step_events, monkeypatch):
    return sum(1 for _ in enumerate_ln_descending(18)) - 1


def _l20_star_factors(step_events, monkeypatch):
    found = []
    search = adjacency._star_factorize

    def counted(*args):
        fac = search(*args)
        found.append(fac is not None)
        return fac

    monkeypatch.setattr(adjacency, "_star_factorize", counted)
    for _ in enumerate_ln_descending(20):
        pass
    return sum(found)


def _an_list_steps(step_events, monkeypatch):
    # the A_n step calls of one `list --set an` in each direction, at two n >= 8:
    # the README says the count is the same for all of them
    calls = []
    for name in ("successor_an", "predecessor_an"):
        step = getattr(enumeration, name)
        monkeypatch.setattr(enumeration, name, lambda a, step=step: calls.append(a) or step(a))
    counts = set()
    for n in (8, 17):
        for desc in ([], ["--desc"]):
            calls.clear()
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.run(["list", "--set", "an", str(n), *desc]) == 0
            counts.add(len(calls))
    assert len(counts) == 1, counts
    return counts.pop()


def _verify_14_compares(step_events, monkeypatch):
    calls = []
    compare = oracle.compare
    monkeypatch.setattr(oracle, "compare", lambda a, b: calls.append(a) or compare(a, b))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.run(["verify", "14", "14"]) == 0
    return len(calls)


def _least_first_rejected(step_events, monkeypatch):
    # `least n` checks the length of its output before building it. With the build
    # stubbed out, the check alone decides each n. Write n = 2**l * (2s + 1): for a
    # fixed l the length grows with s, so the first rejected n of each l is found by
    # bisection over s, and the first rejected n overall is the least of those
    monkeypatch.setattr(cli, "least_element", lambda n: ZERO)

    def rejected(n):
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                cli._cmd_least(Namespace(n=n))
            except AlphaSequenceError:
                return True
        return False

    bound = 2 * cli.MAX_CELLS
    firsts = [2**l for l in range(bound.bit_length()) if rejected(2**l)]
    for l in range(bound.bit_length()):
        lo, hi = 1, (bound >> l) // 2
        if hi < lo or not rejected(2**l * (2 * hi + 1)):
            continue
        while lo < hi:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if rejected(2**l * (2 * mid + 1)) else (mid + 1, hi)
        firsts.append(2**l * (2 * lo + 1))
    first = min(firsts)
    assert cli.run(["least", str(first)]) == 2
    return first


def _ln_equal_parity_pairs(step_events, monkeypatch):
    return sum(
        len(a) % 2 == len(b) % 2
        for n in range(1, 17)
        for members in [oracle_ln(n)]
        for a, b in zip(members, members[1:])
    )


# claim name -> its recount, given the step_events list and monkeypatch
CLAIMS = {
    "l18_up_probe_tests": _walk_events(enumerate_ln, 18, "probe"),
    "l18_up_suffix_tests": _walk_events(enumerate_ln, 18, "test"),
    "l18_up_tables": _walk_events(enumerate_ln, 18, "table"),
    "l18_down_probe_tests": _walk_events(enumerate_ln_descending, 18, "probe"),
    "l18_down_suffix_tests": _walk_events(enumerate_ln_descending, 18, "test"),
    "l18_down_tables": _walk_events(enumerate_ln_descending, 18, "table"),
    "l18_down_star_searches": _walk_events(enumerate_ln_descending, 18, "star"),
    "l18_down_steps": _l18_steps,
    "l20_down_star_searches": _walk_events(enumerate_ln_descending, 20, "star"),
    "l20_down_star_factors": _l20_star_factors,
    "an_list_steps": _an_list_steps,
    "verify_14_compares": _verify_14_compares,
    "least_first_rejected": _least_first_rejected,
    "ln_equal_parity_pairs": _ln_equal_parity_pairs,
}


def test_every_claim_has_one_marker_and_one_recount():
    names = Counter(name for name, _ in readme_claims())
    assert [name for name, k in names.items() if k > 1] == []
    assert sorted(names) == sorted(CLAIMS)


@pytest.mark.parametrize("name", sorted(CLAIMS))
def test_readme_claim_is_recounted(name, step_events, monkeypatch):
    stated = dict(readme_claims())
    assert name in stated, f"README has no marker for {name}"
    assert CLAIMS[name](step_events, monkeypatch) == stated[name]


def _bench_cell(records, metric, scale, printed):
    """The median of ``metric`` over ``records``, divided by ``scale`` and printed as ``printed`` is."""
    median = statistics.median(r["result"]["metrics"][metric]["value"] for r in records) / scale
    decimals = len(printed.partition(".")[2])
    return f"{median:.{decimals}f}"


def test_readme_benchmark_table_is_the_medians_of_its_runs():
    text = README.read_text(encoding="utf-8")
    sources = BENCH_SOURCE.findall(text)
    assert len(sources) == 1, sources
    commit, name = sources[0]
    with open(ROOT / name, encoding="utf-8") as f:
        runs = [json.loads(line) for line in f]
    rows = BENCH_ROW.findall(text)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert sorted(row[0] for row in rows) == sorted(w["name"] for w in spec["workloads"])
    for workload, wall, wall_unit, p50 in rows:
        records = [r for r in runs if r["workload"] == workload and r["env"]["commit"].startswith(commit)]
        assert records, f"{name} has no {workload} run of {commit}"
        for printed in (wall, p50):
            assert len(printed.replace(".", "").lstrip("0")) == 3, f"{workload}: {printed} is not 3 figures"
        scale = {"s": 1, "ms": 1e-3}[wall_unit]
        assert _bench_cell(records, "wall_s", scale, wall) == wall, workload
        assert _bench_cell(records, "step_p50_us", 1, p50) == p50, workload
