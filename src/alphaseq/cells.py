"""Cells and the two degree-preserving rewrites: splitting and conjugation.

Positions are 1-based. Odd positions are positive cells, even positions
negative cells. A rewrite on a negative cell moves the sequence up in the
order, on a positive cell down, and either rewrite flips the parity of the
length while preserving the degree.

The L_n and D_n steps scan with ``_first_lexical_rewrite``, which assumes its
input is a lexical member: its first cell is then its largest, so a probe that
keeps that cell unique and largest is lexical without a suffix comparison. A
probe in which it recurs keeps the cells of the input before the rewrite, so a
step reads the comparison windows of the input's heads off once and re-tests
only the heads a probe can change. No walk calls ``split``,
``conjugate``, ``apply_at`` or the public candidate scans: they are the paper's
operations and the reference the inline rewrites are tested against.
"""

from __future__ import annotations

from collections.abc import Callable

from .core import GREATER, AlphaSeq, _above_suffix, compare, format_sequence, is_lexical
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
    # the A_n walks step here; the rewrite changes only the last one to three
    # cells, so only they are rebuilt; a cell below 1 takes conjugate for its error
    if len(a) % 2:
        v = a[-2]
        if v >= 2:
            return a[:-2] + (v - 1, 1, a[-1])
        if v == 1:
            return a[:-3] + (a[-3] + 1, a[-1])
        return conjugate(a, len(a) - 1)
    v = a[-1]
    if v >= 2:
        return a[:-1] + (v - 1, 1)
    if v == 1:
        return a[:-2] + (a[-2] + 1,)
    return conjugate(a, len(a))


def predecessor_an(a: AlphaSeq) -> AlphaSeq:
    """Adjacent predecessor in A_n: rewrite at the last positive cell."""
    if not a:
        raise Minimal("the zero sequence is not a member of any A_n")
    # the same shapes as successor_an at the last positive cell, rebuilding only
    # the last one to three cells; a 1 in cell 1 has no left neighbour to merge
    # into, so (1,) and (1, x) fall through to Minimal
    if len(a) % 2:
        v = a[-1]
        if v >= 2:
            return a[:-1] + (v - 1, 1)
        if v == 1 and len(a) > 1:
            return a[:-2] + (a[-2] + 1,)
    else:
        v = a[-2]
        if v >= 2:
            return a[:-2] + (v - 1, 1, a[-1])
        if v == 1 and len(a) > 2:
            return a[:-3] + (a[-3] + 1, a[-1])
    if v == 1:
        raise Minimal(f"{format_sequence(a)} is the minimal element of its A_n")
    return conjugate(a, len(a) - 1 + len(a) % 2)


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
    a: AlphaSeq,
    start: int,
    stop: int,
    halt: Callable[[AlphaSeq, int], object] | None = None,
    n: int = 0,
) -> object:
    """First lexical rewrite of a lexical ``a`` at positions range(start, stop, -2).

    Returns what the public candidate scan over the same positions returns, or
    None where that scan raises NoCandidate. ``a[0]`` is the largest cell of
    ``a`` and a split never raises a cell, so a split at i >= 2 is lexical when
    ``a[0]`` no longer recurs in it. A merge raises only cell i - 1: past
    ``a[0]`` it is rejected for i > 2, and for i = 2 it becomes the new, unique
    first cell, which is lexical. Every other probe is tested against the
    suffixes at its heads, the cells equal to ``a[0]``.

    A probe keeps the cells of ``a`` before its rewrite index r, the 0-based
    index of the first cell it changes. So the first probe with r >= 2 that
    needs a test reads one table off ``a``, the comparison window of each head
    before r (see _head_windows), and every probe of the scan tests only the
    heads whose window reaches its r and its own heads from r on. A probe with
    r <= 1 changes cell 1 or cell 2, keeps no head to skip and goes to
    is_lexical whole; when ``a[0]`` does not recur in ``a``, a probe's one other
    head is the cell r a merge raised to ``a[0]``, and one compare decides it.

    The scan calls ``halt(a, n)`` once, at the first probe whose test fails, so
    the reverse step can look for a star factorization before it pays for more
    probes: a result other than None ends the scan and is returned, and None
    lets the scan go on with the same table.
    """
    head = a[0] if a else 0
    heads = a.count(head)
    windows = None
    for i in range(start, stop, -2):
        v = a[i - 1]
        if v >= 2:
            cand = a[: i - 1] + (v - 1, 1) + a[i:]
            r = i - 1
            cand_heads = heads - (v == head)
        else:
            w = a[i - 2] + 1
            cand = a[: i - 2] + (w,) + a[i:]
            if i == 2:
                return cand, i
            if w > head:
                continue
            r = i - 2
            cand_heads = heads + (w == head)
        if r and cand_heads == 1:
            return cand, i
        if r <= 1:
            lexical = is_lexical(cand)
        elif heads == 1:
            lexical = compare(cand, cand[r:]) == GREATER
        else:
            if windows is None:
                windows = _head_windows(a, r, heads)
            lexical = _above_heads(cand, r, windows, cand_heads)
        if lexical:
            return cand, i
        if halt is not None:
            found = halt(a, n)
            if found is not None:
                return found
            halt = None
    return None


def _head_windows(a: AlphaSeq, r: int, heads: int) -> list[tuple[int, int]]:
    """(j, j + lcp(a, a[j:])) for each head j of ``a`` with 0 < j < r, ascending.

    ``heads`` is ``a.count(a[0])``. A head's window ends where ``a`` and
    ``a[j:]`` first differ, or at ``len(a)`` when ``a[j:]`` runs out first.
    """
    head, k = a[0], len(a)
    out = []
    j = 0
    for _ in range(heads - 1):
        j = a.index(head, j + 1)
        if j >= r:
            break
        e = j
        while e < k and a[e - j] == a[e]:
            e += 1
        out.append((j, e))
    return out


def _above_heads(cand: AlphaSeq, r: int, windows: list[tuple[int, int]], cand_heads: int) -> bool:
    """True if ``cand``, a probe with rewrite index ``r`` and ``cand_heads`` heads,
    is above the suffix at each of its heads, given the ``windows`` of its input.

    A head j < r whose window ends before r meets its first difference inside
    the kept cells, exactly as in the lexical input, so it stays below. One
    whose window reaches r agrees with the probe up to r and is tested from
    there; the heads from r on are tested whole.
    """
    before = 1
    for j, e in windows:
        if j >= r:
            break
        before += 1
        if e >= r and not _above_suffix(cand, j, r - j):
            return False
    head = cand[0]
    j = r - 1
    for _ in range(cand_heads - before):
        j = cand.index(head, j + 1)
        if not _above_suffix(cand, j):
            return False
    return True
