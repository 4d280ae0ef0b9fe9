"""Ordered streams over A_n, L_n and D_n, produced by chained adjacency steps.

All streams are lazy generators (a stream over A_30 has about 5 * 10**8
elements, so callers must be able to take prefixes). A generator is the
cursor: single-owner, constant state, not safe to advance concurrently,
while independent generators over the same n never interact. Arguments are
validated eagerly, before the generator is handed out.

Every walk is one of two loops. ``_steps`` chains single steps from a start
to a stop; it walks A_n and L_n both ways. ``_bursts`` chains the bursts of
the D_n steps, which insert the lower-class elements of D_n between two
members of L_n; it walks D_n both ways, framed by the harmonics of the zero
sequence below the least element. No walk holds more than one burst in
memory. Steps are looked up in the module globals when a walk is made.

The walks call the unchecked step bodies of ``adjacency``: a start is the
least element or the maximum, and every later input is the previous step's
output, a member of L_n by construction. Only the public step functions
validate their input.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence

from .adjacency import _harmonics_below, _predecessor_dn, _predecessor_parts, _successor_dn, _successor_parts
# not called here: perfbench/test_perfbench.py checks that a tracer rebinds this name
from .adjacency import successor_ln  # noqa: F401
from .caps import ENUM_CAP
from .cells import predecessor_an, successor_an
from .core import AlphaSeq, ZERO, least_element


def _steps(
    cur: AlphaSeq, stop: AlphaSeq, step: Callable[[AlphaSeq], AlphaSeq]
) -> Iterator[AlphaSeq]:
    yield cur
    while cur != stop:
        cur = step(cur)
        yield cur


def _bursts(
    cur: AlphaSeq,
    stop: AlphaSeq,
    step: Callable[[AlphaSeq, int], list[AlphaSeq]],
    n: int,
    head: Sequence[AlphaSeq] = (),
    tail: Sequence[AlphaSeq] = (),
) -> Iterator[AlphaSeq]:
    yield from head
    yield cur
    while cur != stop:
        burst = step(cur, n)
        yield from burst
        cur = burst[-1]
    yield from tail


def _min_an(n: int) -> AlphaSeq:
    return (1, n - 1) if n >= 2 else (1,)


def _top(n: int) -> AlphaSeq:
    """Maximum of L_n and of D_n."""
    return (n - 1,) if n >= 2 else ZERO


def enumerate_an(n: int) -> Iterator[AlphaSeq]:
    """All 2**(n-1) elements of A_n in ascending order, from (1, n-1) up to (n)."""
    ENUM_CAP.check(n)
    return _steps(_min_an(n), (n,), successor_an)


def enumerate_an_descending(n: int) -> Iterator[AlphaSeq]:
    """A_n in descending order, from (n) down to (1, n-1)."""
    ENUM_CAP.check(n)
    return _steps((n,), _min_an(n), predecessor_an)


def enumerate_ln(n: int) -> Iterator[AlphaSeq]:
    """L_n in ascending order, from the least element to (n-1)."""
    ENUM_CAP.check(n)
    return _steps(least_element(n), _top(n), lambda a: _successor_parts(a, n)[0])


def enumerate_ln_descending(n: int) -> Iterator[AlphaSeq]:
    """L_n in descending order via reverse steps, from (n-1) down."""
    ENUM_CAP.check(n)
    return _steps(_top(n), least_element(n), lambda a: _predecessor_parts(a, n)[0])


def enumerate_dn(n: int) -> Iterator[AlphaSeq]:
    """D_n in ascending order.

    Starts with the harmonics of the zero sequence below the least element of
    L_n, then the least element, then walks L_n successor bursts, which
    insert the lower-class elements exactly where they belong.
    """
    ENUM_CAP.check(n)
    return _bursts(least_element(n), _top(n), _successor_dn, n, head=_harmonics_below(ZERO, n))


def enumerate_dn_descending(n: int) -> Iterator[AlphaSeq]:
    """D_n in descending order, from (n-1) down.

    Walks L_n predecessor bursts down to the least element of L_n, then
    yields the harmonics of the zero sequence below it, the highest first.
    """
    ENUM_CAP.check(n)
    return _bursts(_top(n), least_element(n), _predecessor_dn, n, tail=_harmonics_below(ZERO, n)[::-1])
