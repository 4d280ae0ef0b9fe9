"""Adjacency steps inside L_n and D_n, and the star-product reverse step.

The forward step rewrites the last negative cell that keeps the result
lexical, then corrects for resonance: with f the meet of the pair and
m = 1 + degree(f), the rewrite itself is adjacent unless m divides n, in
which case the adjacent successor is star(f, least_element(n // m)). The
reverse step inverts this. A member of L_n other than its least element has
a lexical positive-cell rewrite exactly when it is no star product (checked
on every member of L_2 ... L_26), so the step sets the least element apart,
then scans the positive cells and takes the first lexical probe. Only at the
first probe whose lexicality test fails, or when the scan ends empty, does it
search once for a star factorization, with star_factorize. A sequence of the
form star(g, least_element(d)) with g fundamental steps down to
extend_even(g)^(d-1) followed by a companion tail, read off g's own star
factorization in L_m; a member that does not factor goes on with the scan
past the rejected probe, and all its probes share one head table. That g is
the meet f of the forward step, so both steps have one shape: the neighbour,
and the StarFactorization(f, m, least_element(d), d) of the resonant pair, or
None.
A D_n step in either direction inserts the harmonics of f that lie below
star(f, least_element(d)), and only _harmonics_below says which they are.

Each public entry validates its input as a member of L_n once, with
``core.require_member``, and calls a private body that assumes one. The
walks call the bodies directly: every step yields a member of L_n, so its
output needs no second check as the next step's input.
"""

from __future__ import annotations

from collections import namedtuple

from .cells import _first_lexical_rewrite
from .core import (
    AlphaSeq,
    ZERO,
    extend_even,
    extend_odd,
    format_sequence,
    harmonic,
    is_fundamental,
    is_lexical,
    least_element,
    power,
    require_member,
    star,
    two_adic_split,
)
from .errors import Maximal, Minimal, NoDecomposition

class StarFactorization(namedtuple("StarFactorization", "g m lam d")):
    """Witness that a sequence equals star(g, lam) with g fundamental in L_m.

    lam is the least element of L_d and n = m * d. The trivial factorization
    (the sequence is the least element of L_n itself) has g = () and m = 1.
    """

    __slots__ = ()

    @property
    def trivial(self) -> bool:
        return self.g == ZERO


def _successor_parts(a: AlphaSeq, n: int) -> tuple[AlphaSeq, StarFactorization | None]:
    """Adjacent successor of a member of L_n and, on a resonant step, its star factorization."""
    # the members of length at most one are (n - 1) and, for n = 1, the zero
    # sequence: each is the maximum of its L_n
    k = len(a)
    if k < 2:
        raise Maximal(f"{format_sequence(a)} is the maximal element of L_{n}")
    cand, i = _first_lexical_rewrite(a, k - k % 2, 1)
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
    return _successor_parts(require_member(a, "L", n), n)[0]


def successor_is_direct(a: AlphaSeq, n: int) -> bool:
    """True when the rewrite candidate is itself the adjacent successor.

    Equivalently, the degree class of the meet does not divide n; for prime
    n this holds everywhere below the maximum.
    """
    return _successor_parts(require_member(a, "L", n), n)[1] is None


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
    return _successor_dn(require_member(a, "L", n), n)


def _successor_dn(a: AlphaSeq, n: int) -> list[AlphaSeq]:
    succ, fac = _successor_parts(a, n)
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
    return _star_factorize(require_member(a, "L", n), n)


def _star_factorize(a: AlphaSeq, n: int) -> StarFactorization | None:
    # The class m = 1 + degree(g) must be a proper divisor of n, so m <= n // 2.
    # A suffix g = a[j:] has m = n - p, with p the degree of a[:j], so a running
    # p tests the class before the suffix is sliced.
    candidates = []
    if a:
        head, half = a[0], n // 2
        j = p = 0
        for _ in range(a.count(head) - 1):
            k = a.index(head, j + 1)
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
        head_block = extend_odd(g)
        if a[: len(head_block)] != head_block:
            continue
        if not is_lexical(g) or not is_fundamental(g):
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

    The tail is read off g's own star factorization in L_m. When
    g = star(f, least_element(d)) with d = 2**k (2s+1) and s > 0, the tail is
    extend_odd(tau)^(2s) + tau with tau = h_k(f); otherwise it is the adjacent
    predecessor of g inside L_m, reached by a single positive-cell rewrite.
    """
    return _predecessor_tail(require_member(g, "L", m), m)


def _predecessor_tail(g: AlphaSeq, m: int) -> AlphaSeq:
    fac = _star_factorize(g, m)
    if fac is not None:
        k, s = two_adic_split(fac.d)
        if s > 0:
            tau = harmonic(k, fac.g)
            return power(extend_odd(tau), 2 * s) + tau
    # positive cells, right to left; a first cell of value 1 has no left neighbour
    stop = 1 if g[:1] == (1,) else 0
    found = _first_lexical_rewrite(g, len(g) - 1 + len(g) % 2, stop)
    if found is None:
        raise NoDecomposition(f"{format_sequence(g)} admits neither structural form in class {m}")
    return found[0]


def _predecessor_parts(a: AlphaSeq, n: int) -> tuple[AlphaSeq, StarFactorization | None]:
    """Adjacent predecessor of a member of L_n and the star factorization it was read from."""
    # L_1 holds only the zero sequence. No least element has a cell above 2, and
    # a[0] is the largest cell of a lexical a, so least_element(n) is rarely built.
    if n == 1 or (a[0] <= 2 and a == least_element(n)):
        raise Minimal(f"{format_sequence(a)} is the minimal element of L_{n}")
    # Positive cells, right to left, down to cell 1: the only member whose first
    # cell is 1 and so cannot merge left is (1,), the least element of L_2, raised
    # above. Only a star product has no lexical rewrite, so the star search waits
    # for the first probe whose test fails, and a star product pays for one; a
    # member that does not factor goes on with the scan.
    found = _first_lexical_rewrite(a, len(a) - 1 + len(a) % 2, 0, _star_factorize, n)
    if found is None:  # no lexical probe and no failed test: a star product
        found = _star_factorize(a, n)
    if isinstance(found, StarFactorization):
        # the search accepts only a lexical g with 1 + degree(g) = m, a member of L_m
        return power(extend_even(found.g), found.d - 1) + _predecessor_tail(found.g, found.m), found
    return found[0], None


def predecessor_ln(a: AlphaSeq, n: int) -> AlphaSeq:
    """Adjacent predecessor of ``a`` in L_n."""
    return _predecessor_parts(require_member(a, "L", n), n)[0]


def predecessor_dn(a: AlphaSeq, n: int) -> list[AlphaSeq]:
    """All elements of D_n between ``a`` (exclusive) and the previous L_n
    element (inclusive), in descending order: the inverse of successor_dn.

    When ``a`` = star(g, least_element(d)), the forward step into ``a`` was
    resonant with meet g, so the harmonics of g below ``a`` come before the
    L_n predecessor, the highest first. Otherwise the burst is the L_n
    predecessor alone.
    """
    return _predecessor_dn(require_member(a, "L", n), n)


def _predecessor_dn(a: AlphaSeq, n: int) -> list[AlphaSeq]:
    pred, fac = _predecessor_parts(a, n)
    if fac is None:
        return [pred]
    return _harmonics_below(fac.g, fac.d)[::-1] + [pred]
