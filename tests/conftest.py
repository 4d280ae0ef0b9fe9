import os
import subprocess
import sys
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import assume, settings

import alphaseq
from alphaseq import adjacency, cells, core
from alphaseq.core import degree, extend_even, is_member, power, star
from alphaseq.oracle import all_compositions, oracle_ln

settings.register_profile("suite", deadline=None, max_examples=150)
settings.load_profile("suite")

elements = st.integers(min_value=1, max_value=7)
sequences = st.lists(elements, max_size=8).map(tuple)
nonempty_sequences = st.lists(elements, min_size=1, max_size=8).map(tuple)


# the members of L_2 ... L_10, ascending, that head_repeating_members builds from
_SMALL_LN = {m: oracle_ln(m) for m in range(2, 11)}


@st.composite
def head_repeating_members(draw):
    """(a, n) with a member a of L_n whose first cell recurs: star(f, b) with f in L_m
    and b in L_d, or power(extend_even(f), k) + t with t below f in L_m. The plain
    strategies above almost never draw such a member, and there a step's scan must
    compare a with its suffixes."""
    m = draw(st.integers(min_value=4, max_value=10))
    members = _SMALL_LN[m]
    i = draw(st.integers(min_value=1, max_value=len(members) - 1))
    f = members[i]
    if draw(st.booleans()):
        a = star(f, draw(st.sampled_from(_SMALL_LN[draw(st.integers(min_value=2, max_value=6))])))
    else:
        a = power(extend_even(f), draw(st.integers(min_value=1, max_value=4)))
        a += draw(st.sampled_from(members[:i]))
    n = 1 + degree(a)
    assume(is_member(a, "L", n) and a.count(a[0]) > 1)
    return a, n


@pytest.fixture
def step_events(monkeypatch):
    """The list to which the steps' lexicality work is appended, in order, through the
    module globals they read: "test" for each suffix test (``_above_suffix``, in core
    where ``is_lexical`` calls it and in cells, and the compare in cells), "table" for
    each head table, "probe" for each probe's test (``is_lexical``, ``_above_heads`` or
    the compare in cells) and "star" for each star search. The public entries' input
    check calls ``is_lexical`` too, so its suffix tests are recorded."""
    events = []

    def recorded(names, fn):
        def wrapper(*args):
            events.extend(names)
            return fn(*args)

        return wrapper

    for module, attr, names in (
        (core, "_above_suffix", ("test",)),
        (cells, "_above_suffix", ("test",)),
        (cells, "compare", ("probe", "test")),
        (cells, "is_lexical", ("probe",)),
        (cells, "_above_heads", ("probe",)),
        (cells, "_head_windows", ("table",)),
        (adjacency, "_star_factorize", ("star",)),
    ):
        monkeypatch.setattr(module, attr, recorded(names, getattr(module, attr)))
    return events


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
