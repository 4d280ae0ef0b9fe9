import os
import random
import select
import subprocess
import sys
from collections import Counter
from functools import cmp_to_key
from pathlib import Path

import pytest

import alphaseq
from alphaseq import cli, enumeration, oracle
from alphaseq.core import compare
from alphaseq.errors import NotInSet
from alphaseq.oracle import OracleReport, cardinality, diff_ordered, oracle_adjacent, oracle_ln, verify_range

L9 = oracle_ln(9)


def diff_by_index(expected, actual):
    # positional reference on two lists, the comparison diff_ordered makes in one pass
    out = []
    for i in range(max(len(expected), len(actual))):
        e = expected[i] if i < len(expected) else None
        g = actual[i] if i < len(actual) else None
        if e != g:
            out.append((i, e, g))
    return out


@pytest.mark.parametrize("actual", [
    pytest.param(L9, id="equal"),
    pytest.param(L9[:3] + L9[4:], id="dropped"),
    pytest.param(L9[:4] + L9[3:], id="repeated"),
    pytest.param(L9[:2] + [L9[3], L9[2]] + L9[4:], id="swapped"),
    pytest.param(L9 + [(9,)], id="extra-at-end"),
    pytest.param(L9[:-1], id="missing-at-end"),
    pytest.param([], id="empty"),
])
def test_diff_ordered_streams_as_it_diffs_lists(actual):
    want = diff_by_index(L9, actual)
    assert diff_ordered(L9, actual) == want
    assert diff_ordered(L9, iter(actual)) == want
    assert diff_ordered(L9, (a for a in actual)) == want
    assert (want == []) == (actual == L9)


def test_oracle_adjacent_names_a_non_member_in_its_message():
    # the oracle raises NotInSet with a plain message, not the (a, kind, n) form
    with pytest.raises(NotInSet) as exc:
        oracle_adjacent(oracle_ln(8), (9, 9))
    assert str(exc.value) == "(9, 9) is not a member of the given set"


def test_report_counts_are_the_closed_forms():
    assert OracleReport._fields == ("n", "set_kind", "count", "mismatches")
    reports = verify_range(1, 12)
    assert [(r.n, r.set_kind) for r in reports] == [(n, k) for n in range(1, 13) for k in "ALD"]
    for r in reports:
        assert r.ok, r
        assert r.count == cardinality(r.set_kind.lower() + "n", r.n), r


def test_a_broken_walk_is_reported_against_the_oracle(monkeypatch, capsys):
    walk = enumeration.enumerate_ln

    def drops_the_third(n):
        return (a for i, a in enumerate(walk(n)) if i != 2)

    monkeypatch.setattr(enumeration, "enumerate_ln", drops_the_third)
    [_, bad, _] = verify_range(9, 9)
    assert (bad.set_kind, bad.count) == ("L", len(L9))
    assert bad.mismatches == diff_by_index(L9, L9[:2] + L9[3:])
    assert cli.run(["verify", "9", "9"]) == cli.EXIT_MISMATCH
    out = capsys.readouterr().out.splitlines()
    assert out[0] == f"A_9: ok ({2 ** 8} elements)"
    assert out[1].startswith("L_9: MISMATCH at position 2: expected ")
    assert out[1].endswith(f" ({len(L9) - 2} total)")


def test_verify_holds_one_set_at_a_time(peak_rss_kb):
    # A_18 is the largest set of `verify 1 18`; keeping every list peaked about 34 MB higher
    alone = peak_rss_kb("-c", "from alphaseq.oracle import oracle_an; oracle_an(18)")
    verify = peak_rss_kb("-m", "alphaseq", "verify", "1", "18")
    assert verify <= alone + 8 * 1024, (verify, alone)


@pytest.mark.parametrize("n", range(1, 15))
def test_compositions_come_in_comparator_order(n):
    compositions = oracle.all_compositions(n)
    assert compositions == sorted(compositions, key=cmp_to_key(compare))


@pytest.mark.parametrize("reorder", [
    pytest.param(lambda items: items[::-1], id="reversed"),
    pytest.param(lambda items: random.Random(1401).sample(items, len(items)), id="shuffled"),
])
def test_the_sort_decides_the_order_not_the_generation(monkeypatch, reorder):
    builds = (oracle.oracle_an, oracle.oracle_ln, oracle.oracle_dn)
    want = [build(n) for build in builds for n in range(1, 13)]
    generate = oracle.all_compositions
    monkeypatch.setattr(oracle, "all_compositions", lambda n: reorder(generate(n)))
    assert [build(n) for build in builds for n in range(1, 13)] == want


@pytest.mark.parametrize("n", range(2, 15))
def test_sorting_a_n_compares_each_neighbouring_pair_once(monkeypatch, n):
    calls = []

    def counted(a, b):
        calls.append((a, b))
        return compare(a, b)

    monkeypatch.setattr(oracle, "compare", counted)
    oracle.oracle_an(n)
    assert len(calls) == 2 ** (n - 1) - 1


@pytest.mark.parametrize("reorder", [
    pytest.param(lambda items: items[::-1], id="reversed"),
    pytest.param(lambda items: random.Random(1401).sample(items, len(items)), id="shuffled"),
])
def test_verify_does_not_rest_on_the_generation_order(monkeypatch, reorder):
    # L_n's candidates are read off the sorted A_n and sorted again, so verify
    # certifies every set whatever order the compositions come in
    generate = oracle.all_compositions
    monkeypatch.setattr(oracle, "all_compositions", lambda n: reorder(generate(n)))
    reports = verify_range(1, 12)
    assert len(reports) == 36
    assert [r for r in reports if not r.ok] == []


def test_verify_builds_each_l_n_once(monkeypatch):
    # each n generates the compositions of n once, for A_n, and reads L_n's
    # candidates off that list, never generating those of n - 1 for L_n's own
    # report; only oracle_ln(d), for each proper divisor d >= 2 of a D_n, generates
    # those of d - 1 again (L_1 needs none)
    built = Counter()
    generate = oracle.all_compositions

    def counted(k):
        built[k] += 1
        return generate(k)

    monkeypatch.setattr(oracle, "all_compositions", counted)
    verify_range(1, 12)
    divisors = Counter(d - 1 for n in range(1, 13) for d in range(2, n) if n % d == 0)
    assert built == Counter(range(1, 13)) + divisors


def test_verify_flushes_each_set_before_building_the_next():
    # the child blocks at its first lexicality test, the start of L_4's work, until
    # its stdin closes, so A_4's line can only reach the pipe by then if verify
    # printed and flushed it
    src = str(Path(alphaseq.__file__).resolve().parents[1])
    script = (
        "import sys\n"
        "from alphaseq import cli, oracle\n"
        "test = oracle._lexical\n"
        "oracle._lexical = lambda a: (sys.stdin.read(), test(a))[1]\n"
        "sys.exit(cli.run(['verify', '4', '4']))\n"
    )
    with subprocess.Popen(
        [sys.executable, "-c", script],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": src},
    ) as child:
        ready, _, _ = select.select([child.stdout], [], [], 60)
        first = child.stdout.readline() if ready else b""
        child.stdin.close()
        rest = child.stdout.read()
        assert child.wait(timeout=60) == 0
    assert first == b"A_4: ok (8 elements)\n"
    assert rest.decode().splitlines() == ["L_4: ok (2 elements)", "D_4: ok (4 elements)"]
