import timeit
from itertools import islice

import pytest

from alphaseq import adjacency
from alphaseq.core import ZERO, order_key
from alphaseq.enumeration import (
    enumerate_an,
    enumerate_an_descending,
    enumerate_dn,
    enumerate_dn_descending,
    enumerate_ln,
    enumerate_ln_descending,
)
from alphaseq.errors import CapExceeded, InvalidN
from alphaseq.oracle import all_compositions, cardinality, oracle_an, oracle_dn, oracle_ln

A4 = [(1, 3), (1, 2, 1), (1, 1, 1, 1), (1, 1, 2), (2, 2), (2, 1, 1), (3, 1), (4,)]

L7 = [
    (2, 1, 1, 1, 1),
    (2, 1, 2, 1),
    (3, 2, 1),
    (3, 1, 1, 1),
    (3, 1, 2),
    (4, 2),
    (4, 1, 1),
    (5, 1),
    (6,),
]

D8 = [
    ZERO,
    (1,),
    (2, 1),
    (2, 1, 1, 2, 1),
    (2, 1, 1, 1, 1, 1),
    (2, 1, 2, 1, 1),
    (3, 2, 1, 1),
    (3, 2, 2),
    (3, 1, 1, 2),
    (3, 1, 1, 1, 1),
    (3, 1, 2, 1),
    (3,),
    (4, 3),
    (4, 2, 1),
    (4, 1, 1, 1),
    (4, 1, 2),
    (5, 2),
    (5, 1, 1),
    (6, 1),
    (7,),
]


def test_golden_a4():
    assert list(enumerate_an(4)) == A4
    assert list(enumerate_an(1)) == [(1,)]


def test_golden_l7():
    assert list(enumerate_ln(7)) == L7


def test_golden_d8():
    assert list(enumerate_dn(8)) == D8


def test_small_ln():
    assert list(enumerate_ln(1)) == [ZERO]
    assert list(enumerate_ln(2)) == [(1,)]
    assert list(enumerate_ln(4)) == [(2, 1), (3,)]


def test_small_dn():
    assert list(enumerate_dn(1)) == [ZERO]
    assert list(enumerate_dn(2)) == [ZERO, (1,)]
    # prime index: only the zero sequence joins L_p
    assert list(enumerate_dn(7)) == [ZERO] + L7


def test_matches_oracle_everywhere():
    for n in range(1, 17):
        assert list(enumerate_an(n)) == oracle_an(n)
        assert list(enumerate_ln(n)) == oracle_ln(n)
        assert list(enumerate_dn(n)) == oracle_dn(n)


def test_cardinalities():
    for n in range(1, 17):
        count = sum(1 for _ in enumerate_an(n))
        assert count == 2 ** (n - 1)
        dn = sum(1 for _ in enumerate_dn(n))
        ln_sizes = sum(
            sum(1 for _ in enumerate_ln(d)) for d in range(1, n + 1) if n % d == 0
        )
        assert dn == ln_sizes


# A_n is counted unsorted: its size needs no comparator sort
@pytest.mark.parametrize("set_name, walk, oracle_set", [
    ("an", enumerate_an, all_compositions),
    ("ln", enumerate_ln, oracle_ln),
    ("dn", enumerate_dn, oracle_dn),
])
def test_closed_form_cardinality(set_name, walk, oracle_set):
    for n in range(1, 21):
        assert cardinality(set_name, n) == len(oracle_set(n)), n
    for n in (21, 22):
        assert cardinality(set_name, n) == sum(1 for _ in walk(n)), n
    with pytest.raises(InvalidN):
        cardinality(set_name, 0)
    with pytest.raises(ValueError, match="unknown set"):
        cardinality(set_name.upper(), 1)


def _moebius(e):
    # 0 when a square divides e, else -1 to the number of its prime factors
    sign, p = 1, 2
    while p * p <= e:
        if e % p == 0:
            e //= p
            if e % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if e > 1 else sign


def test_cardinality_is_the_closed_form_to_64():
    # the sums written out term by term: |L_d| = (1/2d) sum over odd e | d of mu(e) 2^(d/e)
    ln = {d: sum(_moebius(e) << (d // e) for e in range(1, d + 1, 2) if d % e == 0) // (2 * d)
          for d in range(1, 65)}
    assert [ln[d] for d in range(1, 11)] == [1, 1, 1, 2, 3, 5, 9, 16, 28, 51]  # OEIS A000048
    for n in range(1, 65):
        assert cardinality("ln", n) == ln[n], n
        assert cardinality("dn", n) == sum(ln[d] for d in range(1, n + 1) if n % d == 0), n
        assert cardinality("an", n) == 2 ** (n - 1), n


def test_cardinality_reads_only_the_divisors():
    # 10**6 has 49 divisors; scanning every d <= n with an unmemoized recursion took 0.2 s
    best = min(timeit.repeat(lambda: cardinality("dn", 10**6), number=1, repeat=3))
    assert best < 0.05, best


def test_streams_strictly_ascend():
    for n in (6, 8, 12):
        for stream in (enumerate_an(n), enumerate_ln(n), enumerate_dn(n)):
            items = list(stream)
            keys = [order_key(a) for a in items]
            assert keys == sorted(keys)
            assert len(set(items)) == len(items)


def test_dn_parity_alternates():
    # consecutive elements of the divisor-closed walk always flip length parity
    for n in range(1, 17):
        items = list(enumerate_dn(n))
        for a, b in zip(items, items[1:]):
            assert (len(a) - len(b)) % 2 == 1, (n, a, b)


def test_descending_walks():
    for n in range(1, 11):
        assert list(enumerate_an_descending(n)) == list(reversed(oracle_an(n)))
        assert list(enumerate_ln_descending(n)) == list(reversed(oracle_ln(n)))
    for n in range(1, 17):
        assert list(enumerate_dn_descending(n)) == oracle_dn(n)[::-1]


def test_walks_do_not_revalidate(monkeypatch):
    # a walk's start is the least element or the maximum and every later
    # input is its own output, so only the public step entries validate
    calls = []
    require_ln = adjacency._require_ln
    monkeypatch.setattr(adjacency, "_require_ln", lambda a, n: calls.append(a) or require_ln(a, n))
    assert list(enumerate_ln(12)) == oracle_ln(12)
    assert list(enumerate_ln_descending(12)) == oracle_ln(12)[::-1]
    assert list(enumerate_dn(12)) == oracle_dn(12)
    assert list(enumerate_dn_descending(12)) == oracle_dn(12)[::-1]
    assert calls == []
    for entry in (
        adjacency.successor_ln,
        adjacency.successor_is_direct,
        adjacency.successor_dn,
        adjacency.star_factorize,
        adjacency.predecessor_tail,
        adjacency.predecessor_ln,
        adjacency.predecessor_dn,
    ):
        entry((4, 2, 1), 8)
        assert calls == [(4, 2, 1)], entry.__name__
        calls.clear()


# Lexicality work per element of the walk's output: (the probes' suffix tests, head
# tables, star searches), each the larger of the figures measured for n = 16 and n = 20,
# rounded up. A walk may spend up to a quarter more before the gate fails; ascending L_n
# never searches for a star factorization.
WALK_COSTS = {
    enumerate_ln: (0.240, 0.206, 0),
    enumerate_ln_descending: (0.247, 0.207, 0.090),
    enumerate_dn_descending: (0.244, 0.206, 0.089),
}
HEADROOM = 1.25
# The probes' suffix tests per element at n = 20, with no headroom: each walk makes
# 0.186, rounded up here. A probe that tests whole every head past its rewrite index r,
# and not only, from r, those whose window reaches r, makes 0.223 to 0.226.
SUFFIX_TESTS_AT_20 = 0.187


@pytest.mark.parametrize("n", [16, 20])
@pytest.mark.parametrize("walk", list(WALK_COSTS), ids=lambda walk: walk.__name__)
def test_walks_keep_their_counted_cost(step_events, walk, n):
    # the work is counted through the module globals the walks read, as the steps
    # make it: each suffix test a probe's head check or compare makes, and each table
    elements = sum(1 for _ in walk(n))
    spent = tuple(step_events.count(event) / elements for event in ("test", "table", "star"))
    bounds = tuple(HEADROOM * cost for cost in WALK_COSTS[walk])
    assert all(s <= b for s, b in zip(spent, bounds)), (spent, bounds)
    assert n != 20 or spent[0] <= SUFFIX_TESTS_AT_20, spent


def test_streams_are_lazy():
    # pulling a prefix of a huge set must not enumerate it
    head = list(islice(enumerate_an(26), 4))
    assert head == [(1, 25), (1, 24, 1), (1, 23, 1, 1), (1, 23, 2)]
    head_ln = list(islice(enumerate_ln(26), 1))
    assert head_ln == [(2, 1, 1, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 1)]


def test_prefix_property():
    full = list(enumerate_dn(8))
    for k in (0, 1, 5, 20, 25):
        assert list(islice(enumerate_dn(8), k)) == full[:k]


def test_caps(monkeypatch):
    with pytest.raises(InvalidN):
        enumerate_ln(0)
    with pytest.raises(CapExceeded):
        enumerate_an(31)
    monkeypatch.setenv("ALPHASEQ_ENUM_CAP", "10")
    with pytest.raises(CapExceeded):
        enumerate_dn(11)
    assert list(enumerate_ln(2)) == [(1,)]
