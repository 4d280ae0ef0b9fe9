"""The four workloads, each runnable timed (CLI children) and traced (in process).

Load is a closed loop from one spawner process: one child at a time, the
next only after the previous one has been reaped.

- stream-lex: L_18 up and down and D_18 down, the lexical walk.
  ``core.compare`` and ``is_lexical`` take most of its time; the descending
  leg is mostly ``star_factorize``; ``dn --desc`` materializes all of D_18
  before its first line.
- stream-an: A_17 both ways. It never calls ``compare`` or ``is_lexical``
  and most of its time is ``cli`` formatting and printing: the bypass
  workload for lexicality changes, and where a ``cli`` output change shows.
- certify: ``verify`` over n = 1..14, in two commands so that neither runs
  long; mostly the oracle's filter and sort, the second consumer of
  ``core.compare``.
- point-query: single steps on seeded members of L_20, D_20 and A_20 plus
  non-members of L_20 that must be rejected: every input is validated on
  each call, the reverse use of the ``adjacency`` layer.

Sizes are chosen so that each command takes well under a second and runs
many times in a run; every time is scaled by the child's paired control
(see ``measure``) and reported as the median over those runs.

A step is one element: a listed sequence, a certified sequence or a point
query. Its latency is read at the granularity the output arrives in: per
8 KiB block of a listing's stdout (the first block, which waits for
interpreter start-up, is left to first_output_ms), per call for point
queries, and per command for ``verify``, which prints its report only once
every set is checked.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from statistics import median

from . import pointquery, refs
from .layers import Sink
from .measure import BLOCK, NOMINAL_CONTROL_S, Child, Spawner, cli_argv, quantile


@dataclass
class CliWorkload:
    name: str
    commands: list[list[str]]

    def references(self) -> dict[str, dict]:
        return refs.cached(self.name, lambda: {" ".join(c): refs.command_reference(c) for c in self.commands})


WORKLOADS = {
    "stream-lex": CliWorkload("stream-lex", [
        ["list", "--set", "ln", "18"],
        ["list", "--set", "ln", "18", "--desc"],
        ["list", "--set", "dn", "18", "--desc"],
    ]),
    "stream-an": CliWorkload("stream-an", [
        ["list", "--set", "an", "17"],
        ["list", "--set", "an", "17", "--desc"],
    ]),
    "certify": CliWorkload("certify", [["verify", "1", "13"], ["verify", "14", "14"]]),
}
NAMES = (*WORKLOADS, "point-query")


@dataclass
class Run:
    """One timed run of one command, or of one batch of point queries.

    ``segments`` cut its time into short pieces that every run of the same
    command shares: per block of output for a listing, per call for point
    queries, one piece for a ``verify`` (which prints only at the end).
    ``counts`` says how many elements each piece delivered; 0 marks a piece
    that is not a step (interpreter start-up with the first block, and exit).
    """

    segments: list[float]
    counts: list[float]
    elements: int


def listing_run(c: Child, elements: int) -> Run:
    """The child's pieces, scaled by its control."""
    if len(c.segments) <= 2:  # no block after the first: the whole command is one step
        return Run([c.wall_s * c.scale], [elements], elements)
    per_block = c.lines * BLOCK / c.bytes
    return Run([s * c.scale for s in c.segments], [0.0] + [per_block] * (len(c.segments) - 2) + [0.0], elements)


@dataclass
class Tally:
    """What the timed iterations of one run produced, keyed by command.

    Every time in it is already scaled by its child's control. A
    command's time is its median over the runs (wall time, elements per
    second), each piece of it is its median over the runs (step latencies),
    first output is the median of each command's first line and set-up the
    median import.
    """

    runs: dict[str, list[Run]] = field(default_factory=dict)
    firsts: dict[str, list[float]] = field(default_factory=dict)
    setups: list[float] = field(default_factory=list)
    controls: list[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0

    def child(self, c: Child) -> None:
        self.peak_rss_mb = max(self.peak_rss_mb, c.maxrss_mb)
        self.controls.append(NOMINAL_CONTROL_S / c.scale)

    def add(self, key: str, run: Run) -> None:
        self.runs.setdefault(key, []).append(run)

    def first(self, key: str, c: Child) -> None:
        self.firsts.setdefault(key, []).append((c.first_line_s if c.first_line_s is not None else c.wall_s) * c.scale)

    def typical(self) -> list[Run]:
        """Per command, each piece at its median over the runs cut the same way."""
        out = []
        for runs in self.runs.values():
            same = [r for r in runs if len(r.segments) == len(runs[0].segments)]
            out.append(Run([median(p) for p in zip(*(r.segments for r in same))], runs[0].counts, runs[0].elements))
        return out

    def steps(self) -> list[float]:
        return [s / n for r in self.typical() for s, n in zip(r.segments, r.counts) if n]

    def metrics(self) -> dict[str, tuple[float, str]]:
        wall = sum(median(sum(r.segments) for r in runs) for runs in self.runs.values())
        steps = self.steps()
        return {
            "wall_s": (wall, "s"),
            "elements_per_s": (sum(runs[0].elements for runs in self.runs.values()) / wall, "1/s"),
            "first_output_ms": (max(median(v) for v in self.firsts.values()) * 1e3, "ms"),
            "peak_rss_mb": (self.peak_rss_mb, "MB"),
            "step_p50_us": (quantile(steps, 0.5) * 1e6, "us"),
            "step_p99_us": (quantile(steps, 0.99) * 1e6, "us"),
            "setup_s": (median(self.setups), "s"),
        }


IMPORT = [sys.executable, "-c", "import alphaseq.cli"]


def until(spawner: Spawner, tally: Tally, seconds: float, iterate) -> None:
    """Run whole iterations while the next one, at the median pace so far, still fits.

    Each iteration starts with one set-up: a fresh interpreter importing
    ``alphaseq.cli``, so that set-up time is sampled across the whole run.
    One untimed import first compiles the byte code, which users pay once
    per install, not per command.
    """
    spawner.run(IMPORT)
    t0, took = time.perf_counter(), []
    while True:
        s = time.perf_counter()
        c = spawner.run(IMPORT)
        tally.setups.append(c.wall_s * c.scale)
        iterate()
        took.append(time.perf_counter() - s)
        if time.perf_counter() - t0 + median(took) > seconds:
            return


def timed_cli(spawner: Spawner, w: CliWorkload, seconds: float, rng: random.Random) -> Tally:
    expected = w.references()
    tally = Tally()

    def iterate():
        for cmd in rng.sample(w.commands, len(w.commands)):
            key = " ".join(cmd)
            c = spawner.run(cli_argv(cmd))
            ref = expected[key]
            tally.attempted += 1
            tally.failed += c.code != 0 or c.sha256 != ref["sha256"] or c.lines != ref["lines"]
            tally.child(c)
            tally.add(key, listing_run(c, ref["elements"]))
            tally.first(key, c)

    until(spawner, tally, seconds, iterate)
    return tally


PER_SHARE = 400


def timed_point_query(spawner: Spawner, seconds: float, rng: random.Random) -> Tally:
    """One batch run again and again by the library child, and two CLI point queries."""
    draw = pointquery.Draw(pointquery.references(), rng)
    calls, expected = draw.batch(PER_SHARE)
    batch, answers = refs.CACHE / "batch.json", refs.CACHE / "answers.json"
    batch.write_text(json.dumps(calls))
    cli_queries = []
    for op, offset in (("succ", 1), ("pred", -1)):
        a, b = draw.member("ln", offset)
        argv = [op, "--set", "ln", str(pointquery.N), refs.text_form(refs.decode(a))]
        cli_queries.append((op, argv, refs.text_form(refs.decode(b)) + "\n"))
    tally = Tally()

    def iterate():
        answers.unlink(missing_ok=True)
        c = spawner.run([sys.executable, "-m", "perfbench.pointquery", str(batch), str(answers)])
        tally.child(c)
        tally.attempted += len(calls)
        if c.code != 0:
            tally.failed += len(calls)
            return
        out = json.loads(answers.read_text())
        tally.failed += pointquery.count_failures(out["answers"], expected)
        tally.add("batch", Run([ns / 1e9 * c.scale for ns in out["latency_ns"]], [1] * len(calls), len(calls)))
        for op, argv, want in cli_queries:
            c = spawner.run(cli_argv(argv), keep=True)
            tally.child(c)
            tally.attempted += 1
            tally.failed += c.code != 0 or c.stdout.decode() != want
            tally.first(op, c)

    until(spawner, tally, seconds, iterate)
    return tally


def timed(spawner: Spawner, name: str, seconds: float, seed: int) -> Tally:
    rng = random.Random(seed)
    if name == "point-query":
        return timed_point_query(spawner, seconds, rng)
    return timed_cli(spawner, WORKLOADS[name], seconds, rng)


# ---------------------------------------------------------------- in process


class HashSink(Sink):
    """Discarding stdout that still keeps the digest and line count of what passed."""

    def __init__(self):
        self.h = hashlib.sha256()
        self.lines = 0

    def write(self, s: str) -> int:
        self.h.update(s.encode())
        self.lines += s.count("\n")
        return len(s)


def in_process(name: str, seed: int):
    """One iteration of a workload in this process, inputs and references ready.

    Returns ``go(entry)``, which runs it and returns (attempted, failed,
    elements). ``entry(layer_function_name, fn)`` gives the callable to use
    for each function the benchmark calls, so the traced run can put a span
    around each of those calls.
    """
    from alphaseq import cli

    rng = random.Random(seed)
    if name == "point-query":
        calls, expected = pointquery.Draw(pointquery.references(), rng).batch(PER_SHARE)

        def go(entry):
            functions = {k: entry(f"{fn.__module__.rpartition('.')[2]}.{k}", fn)
                         for k, fn in pointquery.public_functions().items()}
            answers, _ = pointquery.run_queries(calls, functions)
            return len(calls), pointquery.count_failures(answers, expected), len(calls)

        return go
    commands = rng.sample(WORKLOADS[name].commands, len(WORKLOADS[name].commands))
    expected = WORKLOADS[name].references()

    def go(entry):
        run = entry("cli.run", cli.run)
        attempted = failed = elements = 0
        for cmd in commands:
            sink = HashSink()
            with redirect_stdout(sink):
                code = run(list(cmd))
            ref = expected[" ".join(cmd)]
            attempted += 1
            failed += code != 0 or sink.h.hexdigest() != ref["sha256"] or sink.lines != ref["lines"]
            elements += ref["elements"]
        return attempted, failed, elements

    return go
