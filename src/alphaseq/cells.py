"""Cells and the two degree-preserving rewrites: splitting and conjugation.

Positions are 1-based. Odd positions are positive cells, even positions
negative cells. A rewrite on a negative cell moves the sequence up in the
order, on a positive cell down, and either rewrite flips the parity of the
length while preserving the degree.

Here are the paper's rewrites, the A_n steps and the public candidate scans.
An A_n step is ``apply_at`` at the last negative cell (up) or the last positive
cell (down). The L_n and D_n steps scan with
``adjacency._first_lexical_rewrite``, which inlines the rewrites and tests its
probes against ``core``'s head table. No walk calls the candidate scans: they
are the reference the inline rewrites are tested against.
"""

from __future__ import annotations

from .core import AlphaSeq, format_sequence, is_lexical
from .errors import Maximal, Minimal, NoCandidate, NotConjugatable, NotSplittable


def _check_index(a: AlphaSeq, i: int) -> None:
    if not 1 <= i <= len(a):
        raise IndexError(f"position {i} out of range for length {len(a)}")


def split(a: AlphaSeq, i: int) -> AlphaSeq:
    """Split cell i of value v >= 2 into two adjacent cells (v - 1, 1)."""
    _check_index(a, i)
    if a[i - 1] < 2:
        raise NotSplittable(f"cell {i} of {format_sequence(a)} has value 1")
    return a[: i - 1] + (a[i - 1] - 1, 1) + a[i:]


def conjugate(a: AlphaSeq, i: int) -> AlphaSeq:
    """Merge the value-1 cell i into its left neighbour, incrementing it."""
    _check_index(a, i)
    if a[i - 1] != 1:
        raise NotConjugatable(f"cell {i} of {format_sequence(a)} does not have value 1")
    if i == 1:
        raise NotConjugatable("cell 1 has no left neighbour")
    return a[: i - 2] + (a[i - 2] + 1,) + a[i:]


def apply_at(a: AlphaSeq, i: int) -> AlphaSeq:
    """Split at i when the value is >= 2, conjugate when it is 1."""
    # a position out of range goes to split, whose index check names it
    if 1 <= i <= len(a) and a[i - 1] < 2:
        return conjugate(a, i)
    return split(a, i)


def successor_an(a: AlphaSeq) -> AlphaSeq:
    """Adjacent successor in A_n: rewrite at the last negative cell."""
    if len(a) < 2:
        raise Maximal(f"{format_sequence(a)} is the maximal element of its A_n")
    return apply_at(a, len(a) - len(a) % 2)


def predecessor_an(a: AlphaSeq) -> AlphaSeq:
    """Adjacent predecessor in A_n: rewrite at the last positive cell."""
    if not a:
        raise Minimal("the zero sequence is not a member of any A_n")
    # a 1 in cell 1 has no left neighbour to merge into: (1,) and (1, x) are minimal
    if len(a) <= 2 and a[0] == 1:
        raise Minimal(f"{format_sequence(a)} is the minimal element of its A_n")
    return apply_at(a, len(a) - 1 + len(a) % 2)


def lexical_successor_candidate(a: AlphaSeq) -> tuple[AlphaSeq, int]:
    """First lexical rewrite over negative cells, scanned right to left.

    Returns the rewritten sequence and the 1-based position used.
    """
    for i in range(len(a) - len(a) % 2, 1, -2):
        cand = apply_at(a, i)
        if is_lexical(cand):
            return cand, i
    raise NoCandidate(f"no negative-cell rewrite of {format_sequence(a)} is lexical")


def lexical_predecessor_candidate(a: AlphaSeq) -> tuple[AlphaSeq, int]:
    """First lexical rewrite over positive cells, scanned right to left.

    Position 1 with value 1 is skipped (no left neighbour to merge into).
    """
    start = len(a) if len(a) % 2 == 1 else len(a) - 1
    for i in range(start, 0, -2):
        if i == 1 and a[0] == 1:
            break
        cand = apply_at(a, i)
        if is_lexical(cand):
            return cand, i
    raise NoCandidate(f"no positive-cell rewrite of {format_sequence(a)} is lexical")
