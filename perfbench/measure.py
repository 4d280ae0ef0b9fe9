"""Child processes timed from outside, and the statistics the metrics use.

The machine is shared, and its speed drifts by tens of percent within
minutes with its neighbours' load; a fixed piece of work slows with it.
So every timed child is paired with a control, a fixed program that runs
nothing of this checkout: a fresh interpreter (``python -I -S``) doing a
few milliseconds of the tuple and dict work the listings do, started just
before the child and again just after. A child's ``scale`` is
``NOMINAL_CONTROL_S`` over the mean time of its two controls, and the
metrics report each time multiplied by its scale: the time the command
would take on this machine when the control takes ``NOMINAL_CONTROL_S``.
On a shared 2-core VM, over 30 s windows in which the median raw time of
``list --set ln 18 --desc`` moved by 24%, the median of its time over its
controls' moved by 4% (7% with a bare ``python -I -S -c pass`` as control).

A child's max-RSS, as wait4 reports it, is never below the peak RSS of the
process that spawned it: Linux carries the spawner's high-water mark across
fork and exec. The benchmark's main process holds the oracle's reference
lists, so every timed child is spawned by ``Spawner``, a small helper
process started before those lists are loaded (``python -m
perfbench.measure`` is that helper).
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field

from .refs import ROOT, SRC


def child_env() -> dict[str, str]:
    """The caller's environment without PYTHON* and ALPHASEQ_* settings.

    Children run as a user's would: block-buffered stdout to a pipe, byte code
    cached, default caps, and only this checkout on the import path.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "ALPHASEQ_"))}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    return env


def cli_argv(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "alphaseq", *argv]


BLOCK = 8192  # the size of the buffer a child's stdout is flushed in
CONTROL = [sys.executable, "-I", "-S", "-c", "d = {}\nfor i in range(60000): d[i % 97] = (i, i + 1) < (i, i + 2)"]
NOMINAL_CONTROL_S = 0.030  # the control's time the reported times are scaled to


@dataclass
class Child:
    """One finished child: what it printed and how long it took to print it."""

    code: int
    wall_s: float
    first_line_s: float | None
    maxrss_mb: float
    sha256: str
    lines: int
    bytes: int
    # the wall time cut where each full BLOCK of output arrived: start-up and
    # the first block, then one segment per block, then the rest until exit
    segments: list[float] = field(default_factory=list)
    stdout: bytes = b""
    # NOMINAL_CONTROL_S over the mean time of the controls around it
    scale: float = 1.0


def run_child(argv: list[str], env: dict[str, str], keep: bool = False) -> Child:
    """Spawn ``argv``, read its stdout as it arrives, reap it with wait4.

    Within a read that brought several blocks, their arrival is interpolated
    by bytes. ``keep`` keeps the output.
    """
    h = hashlib.sha256()
    kept: list[bytes] = []
    marks = [(0, 0.0)]  # (bytes received, seconds since spawn) after each read
    first, lines = None, 0
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE)
    try:
        fd = proc.stdout.fileno()
        while chunk := os.read(fd, 1 << 16):
            now = time.perf_counter() - t0
            marks.append((marks[-1][0] + len(chunk), now))
            h.update(chunk)
            if keep:
                kept.append(chunk)
            n = chunk.count(b"\n")
            if n and first is None:
                first = now
            lines += n
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    wall = time.perf_counter() - t0
    offsets = [o for o, _ in marks]

    def arrival(b: int) -> float:
        i = bisect.bisect_left(offsets, b)
        (o0, s0), (o1, s1) = marks[i - 1], marks[i]
        return s0 + (s1 - s0) * (b - o0) / (o1 - o0)

    cuts = [0.0, *(arrival(b) for b in range(BLOCK, offsets[-1] + 1, BLOCK)), wall]
    return Child(
        code=proc.returncode,
        wall_s=wall,
        first_line_s=first,
        maxrss_mb=usage.ru_maxrss / 1024,
        sha256=h.hexdigest(),
        lines=lines,
        bytes=offsets[-1],
        segments=[b - a for a, b in zip(cuts, cuts[1:])],
        stdout=b"".join(kept),
    )


class Spawner:
    """Runs ``run_child`` in the small helper process; one request at a time.

    Each child runs between its two controls, which set the child's ``scale``.
    """

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "perfbench.measure"], cwd=ROOT, env=child_env(),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, argv: list[str], keep: bool = False) -> Child:
        self.proc.stdin.write(json.dumps([argv, keep]) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the spawner helper exited")
        fields = json.loads(reply)
        fields["stdout"] = fields["stdout"].encode("latin-1")
        return Child(**fields)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait(timeout=60)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def serve() -> None:
    env = child_env()
    for line in sys.stdin:
        argv, keep = json.loads(line)
        before = run_child(CONTROL, env)
        fields = asdict(run_child(argv, env, keep))
        after = run_child(CONTROL, env)
        fields["scale"] = NOMINAL_CONTROL_S / ((before.wall_s + after.wall_s) / 2)
        fields["stdout"] = fields["stdout"].decode("latin-1")
        sys.stdout.write(json.dumps(fields) + "\n")
        sys.stdout.flush()


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile: the smallest value with a share ``q`` of the values at or below it."""
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def tail_level(count: int) -> str:
    """Highest percentile with at least ten samples beyond it."""
    for per_mille in (999, 990, 950, 900, 500):
        if count * (1000 - per_mille) >= 10000:
            return f"p{per_mille / 10:g}"
    return "none"


if __name__ == "__main__":
    serve()
