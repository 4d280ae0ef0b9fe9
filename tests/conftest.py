import os
import subprocess
import sys
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import settings

import alphaseq
from alphaseq.oracle import all_compositions

settings.register_profile("suite", deadline=None, max_examples=150)
settings.load_profile("suite")

elements = st.integers(min_value=1, max_value=7)
sequences = st.lists(elements, max_size=8).map(tuple)
nonempty_sequences = st.lists(elements, min_size=1, max_size=8).map(tuple)


def sequences_up_to_degree(k):
    """The zero sequence plus every composition of 1..k, 2**k sequences total."""
    out = [()]
    for n in range(1, k + 1):
        out.extend(all_compositions(n))
    return out


# Reads the peak RSS of one child, which it spawns with stdout on /dev/null. Linux
# carries the spawner's RSS high-water mark into an exec'd child, so the child is
# spawned from this small process and not from the test process.
PEAK_RSS_KB = (
    "import os, sys\n"
    "pid = os.posix_spawn(sys.executable, [sys.executable, *sys.argv[1:]], os.environ,"
    " file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])\n"
    "_, status, usage = os.wait4(pid, 0)\n"
    "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n"
)


@pytest.fixture
def peak_rss_kb():
    """``measure(*argv)`` runs ``python *argv`` as a child that must exit 0 with nothing
    on stderr, and returns the child's peak RSS in KiB."""
    src = str(Path(alphaseq.__file__).resolve().parents[1])

    def measure(*argv):
        done = subprocess.run(
            [sys.executable, "-c", PEAK_RSS_KB, *argv],
            capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": src},
        )
        code, kb = map(int, done.stdout.split())
        assert (code, done.stderr) == (0, ""), argv
        return kb

    return measure
