#!/usr/bin/env python3
"""alphaseq benchmark: four workloads, checked against the brute-force oracle.

Run from the root of a checkout:

    python3 perfbench/run.py --workload stream-lex --seed 1 --seconds 30 --trace 0

``--trace 0`` times the workload from outside (CLI children, or the library
child for point-query), each child paired with a control program that
scales its times (see ``perfbench/measure.py``), and prints the end-to-end
metrics; ``--trace 1``
prints the per-layer metrics: µs/op of each module on fixed sets, and one
in-process iteration of the workload run untraced and then traced, for
self time per module, exact call counts and the tracing overhead.
``--record FILE`` appends the run, with its environment, to a JSON-lines
file; ``--compare OLD NEW`` prints per-workload, per-metric verdicts between
two such files.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics. Workloads and metrics are listed in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench import measure, workloads  # noqa: E402  (needs ROOT on the path)

SPEC = ROOT / "BENCHMARK.json"
LAYERS = ("core", "cells", "adjacency", "enumeration", "oracle", "cli")


def environment(seed: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = dirty = None
    if (ROOT / ".git").exists():
        git = ["git", "-C", str(ROOT)]
        commit = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True).stdout.strip()
        status = subprocess.run(git + ["status", "--porcelain"], capture_output=True, text=True).stdout
        dirty = bool(status.strip())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "platform": platform.platform(),
        "commit": commit,
        "dirty": dirty,
        "seed": seed,
    }


def end_to_end(name: str, seconds: float, seed: int):
    with measure.Spawner() as spawner:  # first, while this process is still small
        tally = workloads.timed(spawner, name, seconds, seed)
    metrics = tally.metrics()
    steps = len(tally.steps())
    runs = ", ".join(f"{key!r} x{len(v)}" for key, v in tally.runs.items())
    notes = [
        f"timings: each piece's median over the runs ({runs}), each run scaled to a control time of"
        f" {measure.NOMINAL_CONTROL_S * 1e3:g} ms; the controls took {statistics.median(tally.controls) * 1e3:.2f} ms"
        f" (median of {len(tally.controls)})",
        f"steps: {steps} samples (8 KiB output blocks, calls, or verify commands);"
        f" highest percentile with ten samples beyond it: {measure.tail_level(steps)}",
        f"failed_ratio: {tally.failed}/{tally.attempted} = {tally.failed / tally.attempted:g}",
    ]
    return tally.attempted, tally.failed, metrics, notes


def traced_metrics(tracer, elements: int, untraced_s: float) -> dict[str, tuple[float, str]]:
    """Self share per layer, exact counts and tracing overhead of one traced run.

    The first span is the whole run; ``untraced_s`` is the same run untraced
    (the median of three).
    """
    traced_s = (tracer.end[0] - tracer.start[0]) / 1e9
    self_s = tracer.self_times()
    metrics = {f"{layer}.self_share": (self_s.get(layer, 0.0) / traced_s, "ratio") for layer in LAYERS}
    metrics["core.compare_calls_per_element"] = (tracer.counts["core.compare"] / elements, "calls/element")
    metrics["core.is_lexical_calls_per_element"] = (tracer.counts["core.is_lexical"] / elements, "calls/element")
    metrics["adjacency.star_factorize_calls"] = (tracer.span_count("adjacency.star_factorize"), "count")
    metrics["trace.untraced_s"] = (untraced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    return metrics


def per_layer(name: str, seed: int):
    from perfbench import layers, refs, tracing

    metrics = layers.measure()
    go = workloads.in_process(name, seed)
    attempted = failed = 0
    untraced = []
    for _ in range(3):
        t0 = time.perf_counter()
        a, f, elements = go(lambda _, fn: fn)
        untraced.append(time.perf_counter() - t0)
        attempted, failed = attempted + a, failed + f
    untraced_s = statistics.median(untraced)

    tracer = tracing.Tracer()
    with tracer:
        a, f, _ = tracer.span("bench.workload", go)(tracer.span)
    attempted, failed = attempted + a, failed + f
    metrics.update(traced_metrics(tracer, elements, untraced_s))
    spans = refs.CACHE / f"spans-{name}.bin"
    tracer.write(spans)
    notes = [
        f"traced run: {len(tracer.start)} spans written to {spans.relative_to(ROOT)}; {elements} elements;"
        " compare and is_lexical are counted only, so their time is in the calling layer's share;"
        " the rest of the run is the benchmark's own (stdout sink included in cli)",
        f"failed_ratio: {failed}/{attempted} = {failed / attempted:g}",
    ]
    return attempted, failed, metrics, notes


def run(args) -> int:
    if not (ROOT / "src" / "alphaseq" / "__init__.py").is_file():
        print(f"run.py: no alphaseq sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    for var in [v for v in os.environ if v.startswith("ALPHASEQ_")]:
        del os.environ[var]  # in-process runs use the default caps, as the children do
    env = environment(args.seed)
    print("env:", json.dumps(env))
    if args.trace:
        attempted, failed, metrics, notes = per_layer(args.workload, args.seed)
    else:
        attempted, failed, metrics, notes = end_to_end(args.workload, args.seconds, args.seed)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:12s} {name:40s} {value:14.6g} {unit}")
    for note in notes:
        print(f"{args.workload:12s} {note}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    if args.record:
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "env": env, "result": result}
        with open(args.record, "a") as f:
            f.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------- compare


def iqr_share(values: list[float]) -> float | None:
    if len(values) < 2:
        return None
    q1, mid, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(mid) if mid else None


def verdict(old: list[float], new: list[float], better: str, bound: float | None) -> tuple[float, str]:
    """Relative change of the median (positive is worse) and its verdict.

    A metric whose run-to-run spread exceeds its bound (or, with no bound,
    whose spread is unknown) is unresolved unless every new run reads
    better, or every one worse, than every old run.
    """
    sign = 1 if better == "lower" else -1
    mo, mn = statistics.median(old), statistics.median(new)
    if mo == mn:
        return 0.0, "unchanged"
    worse_by = sign * (mn - mo) / abs(mo) if mo else sign * (mn - mo) * float("inf")
    if all(sign * n < sign * o for n in new for o in old):
        separated = "improved"
    elif all(sign * n > sign * o for n in new for o in old):
        separated = "worse"
    else:
        separated = None
    spreads = [iqr_share(old), iqr_share(new)]
    spread = None if None in spreads else max(spreads)
    limit = bound if bound is not None else spread
    if limit is None or (spread is not None and spread > limit):
        return worse_by, separated or "unresolved"
    if worse_by > limit:
        return worse_by, "worse"
    if -worse_by > limit:
        return worse_by, "improved"
    return worse_by, "unchanged"


def compare(old_path: str, new_path: str) -> int:
    spec = json.loads(SPEC.read_text())
    kinds = {m["name"]: (m["better"], m.get("bound")) for m in spec["end_to_end"] + spec["per_layer"]}

    def load(path):
        values: dict[tuple[str, str], list[float]] = {}
        for line in Path(path).read_text().splitlines():
            rec = json.loads(line)
            for metric, v in rec["result"]["metrics"].items():
                values.setdefault((rec["workload"], metric), []).append(v["value"])
        return values

    old, new = load(old_path), load(new_path)
    print(f"{'workload':12s} {'metric':40s} {'old':>12s} {'new':>12s} {'worse by':>9s}  verdict")
    for key in sorted(old.keys() & new.keys()):
        better, bound = kinds.get(key[1], ("lower", None))
        worse_by, word = verdict(old[key], new[key], better, bound)
        print(f"{key[0]:12s} {key[1]:40s} {statistics.median(old[key]):12.6g}"
              f" {statistics.median(new[key]):12.6g} {worse_by:+9.1%}  {word}")
    for side, keys in (("old", old.keys() - new.keys()), ("new", new.keys() - old.keys())):
        if keys:
            print(f"{len(keys)} workload/metric pairs only in {side}, not compared")
    return 0


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=workloads.NAMES)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", metavar="FILE", help="append this run, with its environment, as a JSON line")
    p.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"), help="compare two --record files")
    args = p.parse_args()
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        p.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
