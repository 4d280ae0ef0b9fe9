import itertools

import pytest
from hypothesis import given
import hypothesis.strategies as st

from alphaseq import cells
from alphaseq.adjacency import _star_factorize
from alphaseq.cells import (
    _first_lexical_rewrite,
    apply_at,
    conjugate,
    lexical_predecessor_candidate,
    lexical_successor_candidate,
    predecessor_an,
    split,
    successor_an,
)
from alphaseq.core import (
    GREATER,
    LESS,
    compare,
    degree,
    extend_even,
    extend_odd,
    format_sequence,
    is_fundamental,
    is_member,
    least_element,
    star,
)
from alphaseq.enumeration import enumerate_an, enumerate_an_descending
from alphaseq.errors import Maximal, Minimal, NoCandidate, NotConjugatable, NotSplittable
from alphaseq.oracle import oracle_an, oracle_ln

from conftest import nonempty_sequences, sequences_up_to_degree


def test_split_examples():
    assert split((3, 2, 3, 2), 2) == (3, 1, 1, 3, 2)
    assert split((4, 3), 2) == (4, 2, 1)
    assert split((2,), 1) == (1, 1)


def test_split_errors():
    with pytest.raises(NotSplittable):
        split((3, 1), 2)
    with pytest.raises(IndexError):
        split((3, 1), 3)


def test_conjugate_examples():
    assert conjugate((3, 1, 2, 1), 2) == (4, 2, 1)
    assert conjugate((2, 1, 1, 1, 1), 4) == (2, 1, 2, 1)


def test_conjugate_errors():
    with pytest.raises(NotConjugatable):
        conjugate((1, 1), 1)  # no left neighbour
    with pytest.raises(NotConjugatable):
        conjugate((3, 2), 2)  # value is not 1
    with pytest.raises(IndexError):
        conjugate((3, 1), 0)


def test_apply_at_dispatch():
    assert apply_at((4, 3), 2) == (4, 2, 1)  # split branch
    assert apply_at((3, 1, 2, 1), 2) == (4, 2, 1)  # conjugation branch
    with pytest.raises(NotConjugatable):
        apply_at((1, 3), 1)


@pytest.mark.parametrize("a, i", [
    ((3, 1, 2), 0),
    ((3, 1, 2), -1),
    ((3, 1, 2), 4),
    ((), 1),
])
def test_apply_at_rejects_out_of_range_positions(a, i):
    with pytest.raises(IndexError, match=f"^position {i} out of range for length {len(a)}$"):
        apply_at(a, i)


# The dispatch through split and conjugate alone, and the A_n steps built on it:
# successor_an and predecessor_an build their rewrite inline, and must agree with
# these on every input.
def _dispatch(a, i):
    return split(a, i) if a[i - 1] >= 2 else conjugate(a, i)


def _successor_an(a):
    if len(a) < 2:
        raise Maximal(f"{format_sequence(a)} is the maximal element of its A_n")
    return _dispatch(a, len(a) - len(a) % 2)


def _predecessor_an(a):
    if not a:
        raise Minimal("the zero sequence is not a member of any A_n")
    i = len(a) if len(a) % 2 == 1 else len(a) - 1
    if i == 1 and a[0] == 1:
        raise Minimal(f"{format_sequence(a)} is the minimal element of its A_n")
    return _dispatch(a, i)


def _outcome(f, *args):
    try:
        return f(*args)
    except Exception as exc:  # the error type and message are part of the contract
        return type(exc), str(exc)


def test_rewrites_match_the_split_conjugate_dispatch_on_every_small_input():
    # cells outside 1.. included: a merge at position 1 must raise, not read a[-1]
    for k in range(6):
        for a in itertools.product((-1, 0, 1, 2, 3), repeat=k):
            assert _outcome(successor_an, a) == _outcome(_successor_an, a), a
            assert _outcome(predecessor_an, a) == _outcome(_predecessor_an, a), a


def test_rewrites_match_the_dispatch_behind_a_longer_prefix():
    # lengths 6 and 7 put cells before the a[-3] merged into by a rewrite at the
    # last cell but one, which the lengths above reach only with a short prefix
    for k in (6, 7):
        for a in itertools.product((0, 1, 2, 3), repeat=k):
            assert _outcome(successor_an, a) == _outcome(_successor_an, a), a
            assert _outcome(predecessor_an, a) == _outcome(_predecessor_an, a), a


def _record_paper_rewrites(monkeypatch):
    """The list to which each call of split, conjugate and apply_at made through the
    globals of cells, the names the A_n steps would call them by, appends its name."""
    calls = []

    def recorded(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)

        return wrapper

    for name in ("split", "conjugate", "apply_at"):
        monkeypatch.setattr(cells, name, recorded(name, getattr(cells, name)))
    return calls


def test_an_walks_rebuild_their_cells_without_the_paper_rewrites(monkeypatch):
    # each A_n step rebuilds its last one to three cells itself; conjugate is
    # called only for the error of a cell below 1
    calls = _record_paper_rewrites(monkeypatch)
    for n in range(1, 15):
        assert sum(1 for _ in enumerate_an(n)) == 2 ** (n - 1)
        assert sum(1 for _ in enumerate_an_descending(n)) == 2 ** (n - 1)
    assert calls == []
    with pytest.raises(NotConjugatable):
        successor_an((2, 0))
    assert calls == ["conjugate"]


def test_matches_the_closure_form_of_the_rewrites():
    # the uniform insert/merge agrees with the parity-cased closure definition:
    # decrement-and-close the prefix for a split, drop-and-close for a merge
    for a in sequences_up_to_degree(8):
        for i in range(1, len(a) + 1):
            if a[i - 1] >= 2:
                head = a[: i - 1] + (a[i - 1] - 1,)
                closed = extend_odd(head) if i % 2 == 0 else extend_even(head)
                assert split(a, i) == closed + a[i:]
            elif i >= 2:
                head = a[: i - 1]
                closed = extend_odd(head) if i % 2 == 0 else extend_even(head)
                assert conjugate(a, i) == closed + a[i:]


def test_parity_flip_and_direction_exhaustive():
    for a in sequences_up_to_degree(10):
        for i in range(1, len(a) + 1):
            if a[i - 1] == 1 and i == 1:
                continue
            b = apply_at(a, i)
            assert degree(b) == degree(a)
            assert (len(a) - len(b)) % 2 == 1
            assert compare(a, b) == (LESS if i % 2 == 0 else GREATER)


@given(nonempty_sequences, st.data())
def test_split_conjugate_are_inverse(a, data):
    i = data.draw(st.integers(1, len(a)))
    if a[i - 1] >= 2:
        assert conjugate(split(a, i), i + 1) == a
    elif i >= 2:
        assert split(conjugate(a, i), i - 1) == a


def test_successor_an_examples():
    assert successor_an((1, 1, 1, 1)) == (1, 1, 2)
    assert successor_an((2, 2)) == (2, 1, 1)
    with pytest.raises(Maximal):
        successor_an((4,))


def test_predecessor_an_examples():
    assert predecessor_an((1, 1, 1, 1)) == (1, 2, 1)
    assert predecessor_an((2, 3)) == (1, 1, 3)
    with pytest.raises(Minimal):
        predecessor_an((1, 3))
    with pytest.raises(Minimal):
        predecessor_an((1,))


def test_an_steps_match_oracle_adjacency():
    # the steps build their rewrite inline; the walk they make is the oracle's order
    for n in range(1, 15):
        ordered = oracle_an(n)
        for a, b in zip(ordered, ordered[1:]):
            assert successor_an(a) == b
            assert predecessor_an(b) == a
        with pytest.raises(Maximal):
            successor_an(ordered[-1])
        with pytest.raises(Minimal):
            predecessor_an(ordered[0])


def test_lexical_successor_candidate_examples():
    assert lexical_successor_candidate((3, 1, 2, 1)) == ((4, 2, 1), 2)
    assert lexical_successor_candidate((3, 2, 3, 2)) == ((3, 1, 1, 3, 2), 2)
    assert lexical_successor_candidate((2, 1, 1, 1, 1, 1)) == ((2, 1, 2, 1, 1), 4)


def test_lexical_predecessor_candidate_examples():
    assert lexical_predecessor_candidate((4, 1, 2)) == ((4, 1, 1, 1), 3)
    assert lexical_predecessor_candidate((3, 2, 1, 1)) == ((2, 1, 2, 1, 1), 1)
    assert lexical_predecessor_candidate((3,)) == ((2, 1), 1)


def test_candidate_scan_is_bounded():
    # the scan probes at most len//2 negative cells, one lexicality test each
    a = (3, 1, 2, 1)
    _, i = lexical_successor_candidate(a)
    assert (len(a) - i) // 2 + 1 <= len(a) // 2


def _members_with_known_answers():
    """Every member of L_n for n <= 18, the least elements of L_(3 * 2**k) for k <= 8,
    and every resonant product star(f, least_element(d)) with m * d <= 24: the last two
    are where a[0] recurs and the scan must test its probes against the suffixes at the
    heads, over comparison windows up to hundreds of cells long."""
    for n in range(1, 19):
        yield from oracle_ln(n)
    for k in range(9):
        yield least_element(3 * 2**k)
    for m in range(2, 13):
        for f in filter(is_fundamental, oracle_ln(m)):
            for d in range(2, 24 // m + 1):
                a = star(f, least_element(d))
                assert is_member(a, "L", m * d), (f, d)
                yield a


def _result_or_none(scan, a):
    """What a public candidate scan returns, or None where it raises NoCandidate."""
    try:
        return scan(a)
    except NoCandidate:
        return None


def test_member_scan_matches_the_candidate_scans():
    # the L_n and D_n steps scan with _first_lexical_rewrite, which assumes a member;
    # on members it returns what the public scans return, and None where they raise.
    # The step bodies unpack its result unchecked, so it must find a rewrite up from
    # every member of length >= 2, and down from every member of L_n, n >= 2, that
    # _star_factorize does not factor (the zero sequence is L_1's only member)
    seen = 0
    for a in _members_with_known_answers():
        succ = _first_lexical_rewrite(a, len(a) - len(a) % 2, 1)
        assert succ == _result_or_none(lexical_successor_candidate, a), a
        assert succ is not None or len(a) < 2, a
        stop = 1 if a[:1] == (1,) else 0
        pred = _first_lexical_rewrite(a, len(a) - 1 + len(a) % 2, stop)
        assert pred == _result_or_none(lexical_predecessor_candidate, a), a
        assert pred is not None or not a or _star_factorize(a, degree(a) + 1) is not None, a
        seen += len(a) > 1 and a.count(a[0]) > 1
    assert seen > 1000


def test_halted_scan_resumes_where_it_stopped():
    # the scan calls halt once, at the first probe whose test fails: a result other
    # than None is returned at once, and None lets the scan end where the whole scan
    # ends. Every probe before the answer fails; all are tested but a merge that
    # lifts its cell past a[0]
    halted = 0
    for a in _members_with_known_answers():
        negative = (len(a) - len(a) % 2, 1)
        positive = (len(a) - 1 + len(a) % 2, 1 if a[:1] == (1,) else 0)
        for start, stop in (negative, positive):
            whole = _first_lexical_rewrite(a, start, stop)
            calls = []
            assert _first_lexical_rewrite(a, start, stop, lambda *args: calls.append(args)) == whole, a
            failed = range(start, stop if whole is None else whole[1], -2)
            lifted = [i for i in failed if a[i - 1] == 1 and i > 2 and a[i - 2] >= a[0]]
            tested = len(failed) - len(lifted)
            assert len(calls) == (tested > 0), a
            if tested:
                halted += 1
                assert calls == [(a, 0)], a
                assert _first_lexical_rewrite(a, start, stop, lambda *args: "halted") == "halted", a
    assert halted > 1000
