"""Tests of the benchmark itself, at small n so they run in seconds."""

import json
import random
import re
import shutil
import subprocess
import sys
from contextlib import redirect_stdout

import pytest

from perfbench import layers, measure, pointquery, refs, run, tracing, workloads
from perfbench.measure import Spawner

SPEC = json.loads(run.SPEC.read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture
def cache(monkeypatch, tmp_path):
    monkeypatch.setattr(refs, "CACHE", tmp_path)
    return tmp_path


def small_listing():
    return workloads.CliWorkload("small", [["list", "--set", "ln", "7"], ["list", "--set", "dn", "8", "--desc"]])


def fake_cli(corrupt: bool, code: int):
    """A stand-in for ``python -m alphaseq`` printing the oracle's listing, optionally altered."""

    def argv(cmd):
        lines = refs.list_lines(cmd)
        if corrupt:
            lines[3] += ",1"
        text = "".join(line + "\n" for line in lines)
        return [sys.executable, "-c", f"import sys; sys.stdout.write({text!r}); sys.exit({code})"]

    return argv


def timed_once(w):
    with Spawner() as spawner:
        return workloads.timed_cli(spawner, w, 0, random.Random(1))


def test_cli_outputs_match_the_oracle(cache):
    tally = timed_once(small_listing())
    assert (tally.attempted, tally.failed) == (2, 0)


@pytest.mark.parametrize("corrupt, code", [(False, 0), (True, 0), (False, 1)])
def test_corrupted_cli_output_or_exit_code_counts_as_failed(cache, monkeypatch, corrupt, code):
    monkeypatch.setattr(workloads, "cli_argv", fake_cli(corrupt, code))
    tally = timed_once(small_listing())
    assert tally.attempted == 2
    assert tally.failed == (2 if corrupt or code else 0)


def small_batch(monkeypatch):
    monkeypatch.setattr(pointquery, "N", 9)
    draw = pointquery.Draw(pointquery.references(), random.Random(3))
    return draw.batch(10)


def test_point_queries_match_the_oracle(cache, monkeypatch):
    calls, expected = small_batch(monkeypatch)
    answers, latency = pointquery.run_queries(calls, pointquery.public_functions())
    assert len(latency) == len(calls) == 80
    assert pointquery.count_failures(answers, expected) == 0


def test_accepted_non_member_counts_as_failed(cache, monkeypatch):
    from alphaseq.errors import NotInSet

    calls, expected = small_batch(monkeypatch)
    functions = pointquery.public_functions()
    strict = functions["successor_ln"]

    def lax(a, n):
        try:
            return strict(a, n)
        except NotInSet:
            return a

    functions["successor_ln"] = lax
    answers, _ = pointquery.run_queries(calls, functions)
    accepted = sum(exp == pointquery.ERROR and name == "successor_ln" for (name, _), exp in zip(calls, expected))
    assert accepted > 0
    assert pointquery.count_failures(answers, expected) == accepted


def bindings():
    return {name: dict(vars(mod)) for name, mod in tracing.modules().items()}


def traced_cli(argv):
    from alphaseq import cli

    tracer = tracing.Tracer()
    with tracer, redirect_stdout(layers.Sink()):
        assert tracer.span("bench.workload", cli.run)(argv) == 0
    return tracer


def test_traced_run_restores_every_binding():
    from alphaseq import enumeration

    before = bindings()
    original = enumeration.successor_ln
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer:
            assert enumeration.successor_ln is not original
            raise RuntimeError("stop mid-run")
    traced_cli(["verify", "1", "6"])
    after = bindings()
    assert before.keys() == after.keys()
    for name in before:
        assert before[name].keys() == after[name].keys()
        changed = [k for k in before[name] if before[name][k] is not after[name][k]]
        assert changed == [], name


def test_traced_counts_show_the_lexicality_bypass():
    listing_an = traced_cli(["list", "--set", "an", "8"])
    listing_ln = traced_cli(["list", "--set", "ln", "12"])
    assert listing_an.counts["core.compare"] == listing_an.counts["core.is_lexical"] == 0
    assert listing_ln.counts["core.compare"] > 0 and listing_ln.counts["core.is_lexical"] > 0
    shares = listing_ln.self_times()
    total = (listing_ln.end[0] - listing_ln.start[0]) / 1e9
    assert sum(shares.values()) == pytest.approx(total, rel=1e-6)


def test_times_are_scaled_by_the_paired_control(cache):
    with Spawner() as spawner:
        c = spawner.run(workloads.cli_argv(["list", "--set", "ln", "7"]))
    assert c.code == 0 and c.scale > 0
    tally = workloads.Tally()
    tally.child(c)
    tally.first("c", c)
    run_ = workloads.listing_run(c, c.lines)
    assert sum(run_.segments) == pytest.approx(c.wall_s * c.scale)
    assert tally.firsts["c"] == [pytest.approx(c.first_line_s * c.scale)]
    assert tally.controls == [pytest.approx(measure.NOMINAL_CONTROL_S / c.scale)]


def test_every_emitted_metric_is_listed():
    tally = workloads.Tally(runs={"c": [workloads.Run([1.0], [1], 1)]}, firsts={"c": [1.0]}, setups=[1.0])
    end_to_end = set(tally.metrics())
    tracer = traced_cli(["list", "--set", "ln", "10"])
    per_layer = {*layers.measure(l_n=12, a_n=6, d_n=12, oracle_n=6), *run.traced_metrics(tracer, 1, 1.0)}
    assert end_to_end == {m["name"] for m in SPEC["end_to_end"]}
    assert per_layer == {m["name"] for m in SPEC["per_layer"]}
    for name in end_to_end | per_layer:
        assert NAME.fullmatch(name), name


@pytest.mark.parametrize("old, new, verdict", [
    ([1.0, 1.01, 0.99, 1.0], [1.2, 1.21, 1.19, 1.2], "worse"),
    ([1.0, 1.01, 0.99, 1.0], [0.8, 0.81, 0.79, 0.8], "improved"),
    ([1.0, 1.01, 0.99, 1.0], [1.02, 1.0, 1.01, 0.99], "unchanged"),
    ([1.0, 1.5, 0.7, 1.2], [1.1, 0.8, 1.4, 1.0], "unresolved"),
])
def test_compare_verdicts(old, new, verdict):
    assert run.verdict(old, new, "lower", 0.1)[1] == verdict


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.SPEC, tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
