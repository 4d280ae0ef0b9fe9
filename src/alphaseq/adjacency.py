"""Adjacency steps inside L_n and D_n, and the star-product reverse step.

The forward step rewrites the last negative cell that keeps the result
lexical, then corrects for resonance: with f the meet of the pair and
m = 1 + degree(f), the rewrite itself is adjacent unless m divides n, in
which case the adjacent successor is star(f, least_element(n // m)). The
reverse step inverts this. A member of L_n other than its least element has
a lexical positive-cell rewrite exactly when it is no star product (checked
on every member of L_2 ... L_26), so the step sets the least element apart,
then scans the positive cells and takes the first lexical probe. Only at the
first probe whose lexicality test fails (a scan that reaches cell 1 tests it)
does it search once for a star factorization, with star_factorize. A
sequence of the form star(g, least_element(d)) with g fundamental steps down to
extend_even(g)^(d-1) followed by a companion tail, which the same scan reads
off g in L_m; a member that does not factor goes on with the scan
past the rejected probe, and all its probes share one head table. That g is
the meet f of the forward step, so both steps have one shape: the neighbour,
and the StarFactorization(f, m, least_element(d), d) of the resonant pair, or
None. A D_n step in either direction inserts the harmonics of f that lie below
star(f, least_element(d)), and only _harmonics_below says which they are.

Both steps probe with _first_lexical_rewrite, here with the star search it
runs; it tests its probes with core's head table and uses nothing of cells.

Each public entry validates its input once, with ``_require_ln`` (core's L_n
membership rule), and hands its head table to a private body that assumes a
member and whose probes and star search read it. The walks pass no table: each step
yields a member of L_n, and the scan builds one at the first probe that needs it. A
step down that finds a star factorization gets back the table its search read, and
the companion tail's scan reads the heads of g off it.
"""

from __future__ import annotations

from collections import namedtuple

from .core import (
    GREATER,
    AlphaSeq,
    ZERO,
    _above_heads,
    _head_table,
    _ln_head_table,
    compare,
    extend_even,
    extend_odd,
    format_sequence,
    harmonic,
    is_fundamental,
    is_lexical,
    least_element,
    power,
    star,
    two_adic_split,
)
from .errors import Maximal, Minimal, NoDecomposition, NotInSet


class StarFactorization(namedtuple("StarFactorization", "g m lam d")):
    """Witness that a sequence equals star(g, lam) with g fundamental in L_m.

    lam is the least element of L_d and n = m * d. The trivial factorization
    (the sequence is the least element of L_n itself) has g = () and m = 1.
    """

    __slots__ = ()

    @property
    def trivial(self) -> bool:
        return self.g == ZERO


def _first_lexical_rewrite(a: AlphaSeq, start: int, n: int, table: list | None) -> object:
    """First lexical rewrite of a lexical ``a`` at cells start, start - 2, ... >= 1.

    An even start scans the negative cells and an odd one the positive cells; cell 1
    of (1,), the one member that starts with 1, has no left neighbour to merge with.

    Returns (rewrite, i) for the first i whose rewrite, a split of a cell >= 2 or
    a merge of a 1 into its left neighbour, is lexical, or None if none is.
    ``a[0]`` is the largest cell of ``a`` and a split never raises a cell, so a
    split at i >= 2 is lexical when ``a[0]`` no longer recurs in it. A merge
    raises only cell i - 1: past ``a[0]`` it is rejected for i > 2, and for
    i = 2 it becomes the new, unique first cell, which is lexical. Every other
    probe is tested against the suffixes at its heads, the cells equal to ``a[0]``.

    A probe keeps the cells of ``a`` before its rewrite index r, the 0-based index
    of the first cell it changes, and those after its rewrite, moved by one. So the
    probes share the head table of ``a``, the caller's ``table`` or one built at the
    first probe that needs it, and each tests only the heads whose window reaches r,
    from r on (``core._above_heads``). A probe with r <= 1 goes to is_lexical whole;
    when ``a[0]`` does not recur in ``a``, its one other head is the cell r a merge
    raised to ``a[0]``, and one compare decides it.

    Given ``n``, the class of ``a``, the scan runs ``_star_factorize(a, n, table)``
    once, at the first probe whose test fails, so a reverse step looks for a
    star factorization before it pays for more probes: a factorization ends
    the scan and is returned as (factorization, the head table of ``a``), the
    table the search read, built then if no probe needed it before, and None
    lets the scan go on with the same table. An ``n`` of 0 skips the search.
    """
    head = a[0] if a else 0
    heads = a.count(head) if table is None else len(table) + 1
    for i in range(start, 1 if head == 1 else 0, -2):
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
            if table is None:
                table = _head_table(a)
            lexical = _above_heads(cand, r, table, len(cand) - len(a))
        if lexical:
            return cand, i
        if n:
            if table is None:
                table = [] if heads == 1 else _head_table(a)
            found = _star_factorize(a, n, table)
            if found is not None:
                return found, table
            n = 0
    return None


def _require_ln(a: AlphaSeq, n: int) -> list:
    """``core.require_member(a, "L", n)``, returning the head table of ``a`` for the step."""
    table = _ln_head_table(a, n)
    if table is None:
        raise NotInSet(a, "L", n)
    return table


def _successor_parts(a: AlphaSeq, n: int, table: list | None = None) -> tuple[AlphaSeq, StarFactorization | None]:
    """Adjacent successor of a member of L_n and, on a resonant step, its star factorization."""
    # the members of length at most one are (n - 1) and, for n = 1, the zero
    # sequence: each is the maximum of its L_n
    k = len(a)
    if k < 2:
        raise Maximal(f"{format_sequence(a)} is the maximal element of L_{n}")
    cand, i = _first_lexical_rewrite(a, k - k % 2, 0, table)
    # the meet f of a and cand, read off the rewrite at position i: a split
    # lowers cell i by one, a conjugation raises cell i - 1 and drops cell i,
    # which is 1. Either way m = 1 + degree(f) is the degree of a[:i], which is
    # n - 1 less the degree of the short tail a[i:].
    m = n - 1 - sum(a[i:])
    d, r = divmod(n, m)
    if r > 0:
        return cand, None
    f = a[: i - 1] + (a[i - 1] - 1,) if a[i - 1] >= 2 else a[: i - 1]
    lam = least_element(d)
    return star(f, lam), StarFactorization(f, m, lam, d)


def successor_ln(a: AlphaSeq, n: int) -> AlphaSeq:
    """Adjacent successor of ``a`` in L_n."""
    return _successor_parts(a, n, _require_ln(a, n))[0]


def successor_is_direct(a: AlphaSeq, n: int) -> bool:
    """True when the rewrite candidate is itself the adjacent successor.

    Equivalently, the degree class of the meet does not divide n; for prime
    n this holds everywhere below the maximum.
    """
    return _successor_parts(a, n, _require_ln(a, n))[1] is None


def _harmonics_below(g: AlphaSeq, d: int) -> list[AlphaSeq]:
    """The harmonics of g below star(g, least_element(d)), ascending.

    With d = 2**k (2t+1) they are h_j(g) for j < k + (t > 0): h_k(g) equals
    star(g, least_element(2**k)), so it is the product itself when t = 0 and
    lies in a smaller class than the product when t > 0.
    """
    k, t = two_adic_split(d)
    return [harmonic(j, g) for j in range(k + (t > 0))]


def successor_dn(a: AlphaSeq, n: int) -> list[AlphaSeq]:
    """All elements of D_n between ``a`` (exclusive) and the next L_n element
    (inclusive), in ascending order.

    A direct step contributes one element. A resonant step (m divides n)
    inserts harmonics of the meet f before star(f, least_element(d)), with
    d = n // m = 2**k (2t+1): h_0(f), ..., h_k(f) when t > 0, and h_0(f),
    ..., h_(k-1)(f) when t = 0, where h_k(f) is that star product itself.
    """
    return _successor_dn(a, n, _require_ln(a, n))


def _successor_dn(a: AlphaSeq, n: int, table: list | None = None) -> list[AlphaSeq]:
    succ, fac = _successor_parts(a, n, table)
    if fac is None:
        return [succ]
    return _harmonics_below(fac.g, fac.d) + [succ]


def star_factorize(a: AlphaSeq, n: int) -> StarFactorization | None:
    """Find g fundamental in L_m with m * d = n and a = star(g, least_element(d)).

    star(g, lam) starts with extend_odd(g) and ends with g. extend_odd keeps
    the first cell of a g of length >= 2, so such a g is a suffix a[j:] with
    a[j] == a[0]; the only shorter g is (a[0] - 1,). Those are the candidates.
    When several verify, the one with the largest m wins. The trivial g = ()
    factorization is reported only for the least element of L_n, and only when
    nothing else matches.
    """
    return _star_factorize(a, n, _require_ln(a, n))


def _star_factorize(a: AlphaSeq, n: int, table: list) -> StarFactorization | None:
    # a starts with extend_odd(g), which keeps g but its last cell, so a suffix g = a[j:]
    # has its window in a's head table end at len(a) - 1 or later. Its class m must be a
    # proper divisor of n, so m <= n // 2, and is n less p, the degree of a[:j], summed
    # up only at the heads whose window passes.
    candidates = []
    if a:
        head, half, last = a[0], n // 2, len(a) - 1
        j = p = 0
        for k, e in table:
            if e >= last:
                p += sum(a[j:k])
                j, m = k, n - p
                if m <= half and n % m == 0:
                    candidates.append((a[j:], m))
        if head >= 2 and a[-1] == head - 1 and head <= half and n % head == 0:
            candidates.append(((head - 1,), head))
    # Classes fall along the list: each suffix holds the next one, and the last
    # candidate's one cell is below every suffix's first cell. So the first
    # candidate that verifies has the largest (m, len(g)).
    for g, m in candidates:
        # a that starts so makes g lexical, as a is: g's heads sit in a with the same windows
        head_block = extend_odd(g)
        if a[: len(head_block)] != head_block or not is_fundamental(g):
            continue
        d = n // m
        lam = least_element(d)
        if star(g, lam) == a:
            return StarFactorization(g, m, lam, d)
    # no least element has a cell above 2, and a[0] is the largest cell of a
    # lexical a, so the guard skips building least_element(n) for most inputs
    if n >= 2 and a[0] <= 2 and a == least_element(n):
        return StarFactorization(ZERO, 1, a, n)
    return None


def predecessor_tail(g: AlphaSeq, m: int) -> AlphaSeq:
    """Companion tail of the reverse step for a star product with left factor g.

    The reverse step's scan reads it off g in L_m: its first lexical probe, the
    adjacent predecessor of g, or at its first rejected probe the star search. When
    g = star(f, least_element(d)) with d = 2**k (2s+1) and s > 0, the tail is
    extend_odd(tau)^(2s) + tau with tau = h_k(f).
    """
    return _predecessor_tail(g, m, _require_ln(g, m))


def _predecessor_tail(g: AlphaSeq, m: int, table: list) -> AlphaSeq:
    # the reverse step's scan; a factorization with s == 0 raises too, since a
    # star product has no lexical positive-cell rewrite
    found = _first_lexical_rewrite(g, len(g) - 1 + len(g) % 2, m, table)
    if found is not None:
        found = found[0]
        if not isinstance(found, StarFactorization):
            return found
        k, s = two_adic_split(found.d)
        if s > 0:
            tau = harmonic(k, found.g)
            return power(extend_odd(tau), 2 * s) + tau
    raise NoDecomposition(f"{format_sequence(g)} admits neither structural form in class {m}")


def _predecessor_parts(a: AlphaSeq, n: int, table: list | None = None) -> tuple[AlphaSeq, StarFactorization | None]:
    """Adjacent predecessor of a member of L_n and the star factorization it was read from."""
    # L_1 holds only the zero sequence. No least element has a cell above 2, and
    # a[0] is the largest cell of a lexical a, so least_element(n) is rarely built.
    if n == 1 or (a[0] <= 2 and a == least_element(n)):
        raise Minimal(f"{format_sequence(a)} is the minimal element of L_{n}")
    # Positive cells, right to left, down to cell 1, whose probe is always tested:
    # a[0] >= 2, since (1,), the least element of L_2, is raised above. Only a star
    # product has no lexical rewrite, so the scan searches at its first rejected
    # probe, and a member that does not factor goes on to a lexical probe.
    found = _first_lexical_rewrite(a, len(a) - 1 + len(a) % 2, n, table)
    if not isinstance(found[0], StarFactorization):
        return found[0], None
    # the search accepts only a lexical g with 1 + degree(g) = m, a member of L_m. g ends a,
    # which starts with g but its last cell, so g's heads keep their windows in the table of
    # a that the search read, and the tail's scan reads them off it
    fac, table = found
    g, s = fac.g, len(a) - len(fac.g)
    tail_table = [(j - s, e - s) for j, e in table if j > s]
    return power(extend_even(g), fac.d - 1) + _predecessor_tail(g, fac.m, tail_table), fac


def predecessor_ln(a: AlphaSeq, n: int) -> AlphaSeq:
    """Adjacent predecessor of ``a`` in L_n."""
    return _predecessor_parts(a, n, _require_ln(a, n))[0]


def predecessor_dn(a: AlphaSeq, n: int) -> list[AlphaSeq]:
    """All elements of D_n between ``a`` (exclusive) and the previous L_n
    element (inclusive), in descending order: the inverse of successor_dn.

    When ``a`` = star(g, least_element(d)), the forward step into ``a`` was
    resonant with meet g, so the harmonics of g below ``a`` come before the
    L_n predecessor, the highest first. Otherwise the burst is the L_n
    predecessor alone.
    """
    return _predecessor_dn(a, n, _require_ln(a, n))


def _predecessor_dn(a: AlphaSeq, n: int, table: list | None = None) -> list[AlphaSeq]:
    pred, fac = _predecessor_parts(a, n, table)
    if fac is None:
        return [pred]
    return _harmonics_below(fac.g, fac.d)[::-1] + [pred]
