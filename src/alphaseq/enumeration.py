"""Ordered streams over A_n, L_n and D_n, produced by chained adjacency steps.

All streams are lazy generators (a stream over A_30 has about 5 * 10**8
elements, so callers must be able to take prefixes). A generator is the
cursor: single-owner, constant state, not safe to advance concurrently,
while independent generators over the same n never interact. Arguments are
validated eagerly, before the generator is handed out. Every set walks both
ways by single steps; the descending D_n walk takes the reverse L_n step's
bursts, so no walk holds more than one burst in memory.
"""

from __future__ import annotations

from collections.abc import Iterator

from .adjacency import predecessor_dn, predecessor_ln, successor_dn, successor_ln
from .caps import ENUM_CAP
from .cells import predecessor_an, successor_an
from .core import AlphaSeq, SetContext, ZERO, harmonic, least_element, max_element, two_adic_split


def _min_an(n: int) -> AlphaSeq:
    return (1, n - 1) if n >= 2 else (1,)


def enumerate_an(n: int) -> Iterator[AlphaSeq]:
    """All 2**(n-1) elements of A_n in ascending order, from (1, n-1) up to (n)."""
    ENUM_CAP.check(n)
    return _walk_an(n)


def _walk_an(n: int) -> Iterator[AlphaSeq]:
    cur = _min_an(n)
    top = (n,)
    yield cur
    while cur != top:
        cur = successor_an(cur)
        yield cur


def enumerate_an_descending(n: int) -> Iterator[AlphaSeq]:
    """A_n in descending order, from (n) down to (1, n-1)."""
    ENUM_CAP.check(n)
    return _walk_an_descending(n)


def _walk_an_descending(n: int) -> Iterator[AlphaSeq]:
    cur: AlphaSeq = (n,)
    minimum = _min_an(n)
    yield cur
    while cur != minimum:
        cur = predecessor_an(cur)
        yield cur


def enumerate_ln(n: int) -> Iterator[AlphaSeq]:
    """L_n in ascending order, from the least element to (n-1)."""
    ENUM_CAP.check(n)
    return _walk_ln(n)


def _walk_ln(n: int) -> Iterator[AlphaSeq]:
    cur = least_element(n)
    top = max_element(SetContext("L", n))
    yield cur
    while cur != top:
        cur = successor_ln(cur, n)
        yield cur


def enumerate_ln_descending(n: int) -> Iterator[AlphaSeq]:
    """L_n in descending order via reverse steps, from (n-1) down."""
    ENUM_CAP.check(n)
    return _walk_ln_descending(n)


def _walk_ln_descending(n: int) -> Iterator[AlphaSeq]:
    cur = max_element(SetContext("L", n))
    bottom = least_element(n)
    yield cur
    while cur != bottom:
        cur = predecessor_ln(cur, n)
        yield cur


def enumerate_dn(n: int) -> Iterator[AlphaSeq]:
    """D_n in ascending order.

    Starts with the harmonics of the zero sequence up to the least element's
    doubling depth, then the least element of L_n when distinct, then walks
    L_n successor bursts, which insert the lower-class elements exactly where
    they belong.
    """
    ENUM_CAP.check(n)
    return _walk_dn(n)


def _walk_dn(n: int) -> Iterator[AlphaSeq]:
    l, s = two_adic_split(n)
    for j in range(l + 1):
        yield harmonic(j, ZERO)
    cur = least_element(n)
    if s > 0:
        yield cur
    top = max_element(SetContext("D", n))
    while cur != top:
        burst = successor_dn(cur, n)
        yield from burst
        cur = burst[-1]


def enumerate_dn_descending(n: int) -> Iterator[AlphaSeq]:
    """D_n in descending order, from (n-1) down.

    Walks L_n predecessor bursts down to the least element of L_n, then
    yields the harmonics of the zero sequence below it, the highest first.
    """
    ENUM_CAP.check(n)
    return _walk_dn_descending(n)


def _walk_dn_descending(n: int) -> Iterator[AlphaSeq]:
    cur = max_element(SetContext("D", n))
    bottom = least_element(n)
    yield cur
    while cur != bottom:
        burst = predecessor_dn(cur, n)
        yield from burst
        cur = burst[-1]
    l, s = two_adic_split(n)
    # for s = 0 the least element is h_l of the zero sequence, already yielded
    for j in reversed(range(l + 1 if s > 0 else l)):
        yield harmonic(j, ZERO)
