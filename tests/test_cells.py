import pytest
from hypothesis import given
import hypothesis.strategies as st

from alphaseq import cells
from alphaseq.cells import (
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
)
from alphaseq.enumeration import enumerate_an, enumerate_an_descending
from alphaseq.errors import Maximal, Minimal, NotConjugatable, NotSplittable
from alphaseq.oracle import oracle_an

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


# Edge inputs of the A_n steps, each with its result or its error type and message:
# the zero sequence, one cell, a 1 in cell 1, and cells of 0 and -1, which no A_n
# holds: the steps rewrite them as split and conjugate do, and raise where those raise.
# A merge at cell 1 raises rather than read a[-1]
AN_STEP_EDGES = [
    (successor_an, (), Maximal, "0 is the maximal element of its A_n"),
    (successor_an, (0,), Maximal, "0 is the maximal element of its A_n"),
    (successor_an, (1,), Maximal, "1 is the maximal element of its A_n"),
    (successor_an, (3,), Maximal, "3 is the maximal element of its A_n"),
    (successor_an, (1, 4), None, (1, 3, 1)),
    (successor_an, (2, 0), NotConjugatable, "cell 2 of 2,0 does not have value 1"),
    (successor_an, (0, 2), None, (0, 1, 1)),
    (successor_an, (2, -1), NotConjugatable, "cell 2 of 2,-1 does not have value 1"),
    (successor_an, (-1, 1), None, (0,)),
    (successor_an, (3, 1, 2, 0, 1, 1), None, (3, 1, 2, 0, 2)),
    (predecessor_an, (), Minimal, "the zero sequence is not a member of any A_n"),
    (predecessor_an, (0,), NotConjugatable, "cell 1 of 0 does not have value 1"),
    (predecessor_an, (1,), Minimal, "1 is the minimal element of its A_n"),
    (predecessor_an, (3,), None, (2, 1)),
    (predecessor_an, (1, 4), Minimal, "1,4 is the minimal element of its A_n"),
    (predecessor_an, (2, 0), None, (1, 1, 0)),
    (predecessor_an, (0, 2), NotConjugatable, "cell 1 of 0,2 does not have value 1"),
    (predecessor_an, (2, -1), None, (1, 1, -1)),
    (predecessor_an, (-1, 1), NotConjugatable, "cell 1 of -1,1 does not have value 1"),
    (predecessor_an, (3, 1, 2, 0, 1, 1), None, (3, 1, 2, 1, 1)),
]


@pytest.mark.parametrize("step, a, error, expected", AN_STEP_EDGES)
def test_an_steps_on_edge_inputs(step, a, error, expected):
    if error is None:
        assert step(a) == expected
    else:
        with pytest.raises(error) as exc:
            step(a)
        assert type(exc.value) is error and str(exc.value) == expected


def _record_paper_rewrites(monkeypatch):
    """The list to which each call of split, conjugate and apply_at made through the
    globals of cells, the names the A_n steps call them by, appends its name."""
    calls = []

    def recorded(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)

        return wrapper

    for name in ("split", "conjugate", "apply_at"):
        monkeypatch.setattr(cells, name, recorded(name, getattr(cells, name)))
    return calls


def test_an_walks_step_through_one_paper_rewrite_each(monkeypatch):
    # each A_n step is apply_at at the last negative or positive cell, which
    # hands the cell to split or conjugate
    calls = _record_paper_rewrites(monkeypatch)
    for n in range(1, 15):
        for walk in (enumerate_an, enumerate_an_descending):
            calls.clear()
            assert sum(1 for _ in walk(n)) == 2 ** (n - 1)
            assert calls.count("apply_at") == 2 ** (n - 1) - 1, (walk.__name__, n)
            assert len(calls) == 2 * calls.count("apply_at")
    calls.clear()
    with pytest.raises(NotConjugatable):
        successor_an((2, 0))
    assert calls == ["apply_at", "conjugate"]


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
    # the walk the steps make is the oracle's order
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
