"""Cells and the two degree-preserving rewrites: splitting and conjugation.

Positions are 1-based. Odd positions are positive cells, even positions
negative cells. A rewrite on a negative cell moves the sequence up in the
order, on a positive cell down, and either rewrite flips the parity of the
length while preserving the degree.

The L_n and D_n steps scan with ``_first_lexical_rewrite``, which assumes its
input is a lexical member: its first cell is then its largest, so a probe that
keeps that cell unique and largest is lexical without a suffix comparison, and
only a probe in which it recurs goes to ``is_lexical``. No walk calls ``split``,
``conjugate``, ``apply_at`` or the public candidate scans: they are the paper's
operations and the reference the inline rewrites are tested against.
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
    # the A_n walks step here, so the rewrite at 0-based index j >= 1 is built
    # inline; a cell below 1 takes conjugate for its error
    j = len(a) - len(a) % 2 - 1
    v = a[j]
    if v >= 2:
        return a[:j] + (v - 1, 1) + a[j + 1 :]
    if v == 1:
        return a[: j - 1] + (a[j - 1] + 1,) + a[j + 1 :]
    return conjugate(a, j + 1)


def predecessor_an(a: AlphaSeq) -> AlphaSeq:
    """Adjacent predecessor in A_n: rewrite at the last positive cell."""
    if not a:
        raise Minimal("the zero sequence is not a member of any A_n")
    # built inline at 0-based index j, as in successor_an
    j = len(a) + len(a) % 2 - 2
    v = a[j]
    if v >= 2:
        return a[:j] + (v - 1, 1) + a[j + 1 :]
    if v == 1:
        if not j:
            raise Minimal(f"{format_sequence(a)} is the minimal element of its A_n")
        return a[: j - 1] + (a[j - 1] + 1,) + a[j + 1 :]
    return conjugate(a, j + 1)


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


def _first_lexical_rewrite(
    a: AlphaSeq, start: int, stop: int, halt: bool = False
) -> tuple[AlphaSeq | None, int] | None:
    """First lexical rewrite of a lexical ``a`` at positions range(start, stop, -2).

    Returns what the public candidate scan over the same positions returns, or
    None where that scan raises NoCandidate. ``a[0]`` is the largest cell of
    ``a`` and a split never raises a cell, so a split at i >= 2 is lexical when
    ``a[0]`` no longer recurs in it. A merge raises only cell i - 1: past
    ``a[0]`` it is rejected for i > 2, and for i = 2 it becomes the new, unique
    first cell, which is lexical. Every other probe goes to is_lexical: one in
    which ``a[0]`` recurs, and a split of cell 1, which lowers the first cell
    itself.

    With ``halt``, the scan stops at the first probe that is_lexical rejects
    and returns (None, i) for its position i, so the reverse step can look for
    a star factorization before it pays for more suffix comparisons; the scan
    resumes at start i - 2.
    """
    head = a[0] if a else 0
    heads = a.count(head)
    for i in range(start, stop, -2):
        v = a[i - 1]
        if v >= 2:
            cand = a[: i - 1] + (v - 1, 1) + a[i:]
            unsettled = i == 1 or heads - (v == head) > 1
        else:
            w = a[i - 2] + 1
            cand = a[: i - 2] + (w,) + a[i:]
            if i == 2:
                return cand, i
            if w > head:
                continue
            unsettled = heads + (w == head) > 1
        if not unsettled or is_lexical(cand):
            return cand, i
        if halt:
            return None, i
    return None
