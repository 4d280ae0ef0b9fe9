"""The CLI's exit contract over generated command lines.

Every command line either succeeds or exits with its documented code, and
exits 1 (usage) and 2 (domain) write exactly one line to stderr. The
arguments come from a small grammar: every subcommand, n at and around the
edges, sequences that are members, near-misses or malformed, and each cap
variable unset or malformed. ``--limit`` stays at most 3 and ``verify``
ranges at most 8, so no draw walks far.
"""

import io
import os
import re
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import hypothesis.strategies as st
from hypothesis import given, settings

from alphaseq import cli
from alphaseq.core import format_sequence, least_element

SMALL_N = (1, 2, 30, 31)
HUGE_N = (2**63, 10**30)
NS = [str(n) for n in (-1, 0, *SMALL_N, *HUGE_N)]
MEMBERS = [format_sequence(least_element(n)) for n in SMALL_N] + [str(n - 1) for n in SMALL_N + HUGE_N]
NEAR_MISSES = ["2,3", "3,1,3", "1,1", "4,2", "2,1,1,2,2"]
MALFORMED = ["", "1,,2", "1_0", "\u0661\u0662", "3, 1", "+3", "-1", "0,1", "x"]
HUGE_CELLS = [str(2**63), str(10**30), "9" * 4300]
SEQS = ["0", *MEMBERS, *NEAR_MISSES, *MALFORMED, *HUGE_CELLS]
CAPS = (None, "abc", "-1", "0", "1")

n = st.sampled_from(NS)
seq = st.sampled_from(SEQS)
set_name = st.sampled_from(["an", "ln", "dn", "xn"])
bound = st.sampled_from(["-1", "0", "1", "2", "8", "31", str(2**63)])

argvs = st.one_of(
    st.tuples(
        st.just("list"), st.just("--set"), set_name, n,
        st.sampled_from([[], ["--desc"]]),
        st.sampled_from(["-1", "0", "1", "3", "x"]).map(lambda k: ["--limit", k]),
        st.sampled_from([[], ["--format", "json"], ["--format", "csv"], ["--format", "xml"]]),
    ),
    st.tuples(st.sampled_from(["succ", "pred"]), st.just("--set"), set_name, n, seq),
    st.tuples(st.just("lexical"), seq),
    st.tuples(st.sampled_from(["compare", "meet", "star"]), seq, seq),
    st.tuples(st.just("harmonic"), n, seq),
    st.tuples(st.just("least"), n),
    st.tuples(st.just("verify"), bound, bound),
    st.tuples(st.sampled_from(["nonsense", "--set"])),
    st.just(()),
).map(lambda parts: [a for p in parts for a in ([p] if isinstance(p, str) else p)])

USAGE = re.compile(r"alphaseq( \w+)?: error: [^\n]+\n")
DOMAIN = re.compile(r"alphaseq: [^\n]+\n")


@settings(max_examples=400)
@given(argvs, st.sampled_from(CAPS), st.sampled_from(CAPS))
def test_every_command_line_keeps_the_exit_contract(argv, enum_cap, oracle_cap):
    env = {"ALPHASEQ_ENUM_CAP": enum_cap, "ALPHASEQ_ORACLE_CAP": oracle_cap}
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ):
        for variable, value in env.items():
            if value is None:
                os.environ.pop(variable, None)
            else:
                os.environ[variable] = value
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.run(argv)
    err = err.getvalue()
    assert code in (0, 1, 2, 3), code
    assert "Traceback" not in out.getvalue() + err
    if code in (0, 3):
        assert err == ""
    else:
        assert (USAGE if code == 1 else DOMAIN).fullmatch(err), err
