"""Ground truth without the walks: brute-force sets and closed-form counts.

The brute-force route generates every composition, filters with the
definitional lexicality test and sorts. The compositions come out already in
ascending comparator order, so sorting A_n or L_n finds one sorted run and
costs one comparison per neighbouring pair (the D_n union is one run per
divisor); the sort still decides the order, not the generation.
:func:`cardinality` gives the size of each set from its closed form, with no
enumeration at all. Nothing here knows about the adjacency machinery. The only
shared logic is the comparator, the definitional lexicality test (restated
locally against plain suffixes), the cap reader and the n >= 1 check, so the
oracle stays an independent route to the same sets. :func:`verify_range` holds
one set at a time and builds each L_n once: each walk streams against the
oracle's list, and the report keeps only its length, ``count``.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator
from functools import cmp_to_key
from itertools import zip_longest
from math import isqrt

from .caps import ORACLE_CAP
from .core import GREATER, AlphaSeq, ZERO, compare
from .errors import InvalidN, NotInSet, check_n


def _lexical(a: AlphaSeq) -> bool:
    # definitional: strictly above every proper suffix
    return all(compare(a, a[i:]) == GREATER for i in range(1, len(a)))


def all_compositions(n: int) -> list[AlphaSeq]:
    """All 2**(n-1) ordered compositions of n into parts >= 1, in ascending comparator order."""
    ORACLE_CAP.check(n)
    out: list[AlphaSeq] = []

    def rec(remaining: int, prefix: list[int]) -> None:
        if remaining == 0:
            out.append(tuple(prefix))
            return
        # siblings first differ at this cell, which counts positive at an even
        # 0-based index and negative at an odd one
        for first in range(1, remaining + 1) if len(prefix) % 2 == 0 else range(remaining, 0, -1):
            prefix.append(first)
            rec(remaining - first, prefix)
            prefix.pop()

    rec(n, [])
    return out


def oracle_an(n: int) -> list[AlphaSeq]:
    """A_n fully sorted by the comparator."""
    return sorted(all_compositions(n), key=cmp_to_key(compare))


def oracle_ln(n: int) -> list[AlphaSeq]:
    """L_n by filtering compositions of n-1 with the definitional lexicality test."""
    check_n(n)
    if n == 1:
        return [ZERO]
    members = [a for a in all_compositions(n - 1) if _lexical(a)]
    return sorted(members, key=cmp_to_key(compare))


def oracle_dn(n: int) -> list[AlphaSeq]:
    """D_n as the sorted union of L_d over the divisors d of n."""
    return _dn_from_ln(n, oracle_ln(n))


def _dn_from_ln(n: int, ln: list[AlphaSeq]) -> list[AlphaSeq]:
    # D_n from a built L_n: only the proper divisors' L_d are built here
    members = [a for d in range(1, n) if n % d == 0 for a in oracle_ln(d)]
    return sorted(members + ln, key=cmp_to_key(compare))


def cardinality(set_name: str, n: int) -> int:
    """|A_n|, |L_n| or |D_n| for ``set_name`` "an", "ln" or "dn", from the closed forms.

    |A_n| = 2^(n-1); |L_n| = (1/2n) sum over odd d | n of mu(d) 2^(n/d), the
    primitive binary necklaces modulo complementation (OEIS A000048;
    Metropolis, Stein, Stein, J. Combin. Theory A 15, 1973); and
    |D_n| = sum over d | n of |L_d|.
    """
    check_n(n)
    if set_name == "an":
        return 1 << (n - 1)
    if set_name not in ("ln", "dn"):
        raise ValueError(f"unknown set {set_name!r}")
    # |L_d| for the divisors d of n, ascending (trial division up to sqrt(n)); 2^d is the
    # sum over odd e | d of 2(d/e)|L_{d/e}|, the Moebius inversion of the closed form
    low = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    ln: dict[int, int] = {}
    for d in low + [n // d for d in reversed(low) if d * d != n]:
        rest = sum(2 * q * c for q, c in ln.items() if d % q == 0 and (d // q) % 2 == 1)
        ln[d] = ((1 << d) - rest) // (2 * d)
    return ln[n] if set_name == "ln" else sum(ln.values())


def oracle_adjacent(
    items: list[AlphaSeq], a: AlphaSeq
) -> tuple[AlphaSeq | None, AlphaSeq | None]:
    """Neighbours of ``a`` inside an already-sorted member list."""
    try:
        i = items.index(a)
    except ValueError:
        raise NotInSet(f"{a} is not a member of the given set") from None
    pred = items[i - 1] if i > 0 else None
    succ = items[i + 1] if i + 1 < len(items) else None
    return pred, succ


class OracleReport(namedtuple("OracleReport", "n set_kind count mismatches")):
    """Element-by-element comparison of one enumerated set against the oracle.

    ``set_kind`` is "A", "L" or "D"; ``count`` is the length of the oracle's list,
    which the report does not keep; ``mismatches`` holds the (position, expected,
    actual) triples of :func:`diff_ordered`.
    """

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.mismatches


def diff_ordered(
    expected: list[AlphaSeq], actual: Iterable[AlphaSeq]
) -> list[tuple[int, AlphaSeq | None, AlphaSeq | None]]:
    """(position, expected, actual) triples wherever the list and the stream disagree."""
    return [(i, e, g) for i, (e, g) in enumerate(zip_longest(expected, actual)) if e != g]


def verify_range(n_min: int, n_max: int) -> list[OracleReport]:
    """Check the adjacency-driven enumerations of A_n, L_n, D_n against the
    brute-force lists for every n in [n_min, n_max], one set at a time."""
    return list(_reports(n_min, n_max))


def _reports(n_min: int, n_max: int) -> Iterator[OracleReport]:
    # verify_range's reports, each yielded as soon as its set is compared
    from . import enumeration  # local import: oracle must not be a dependency of enumeration

    if n_min < 1 or n_min > n_max:
        raise InvalidN(f"bad range [{n_min}, {n_max}]")
    ORACLE_CAP.check(n_max)
    for n in range(n_min, n_max + 1):
        yield _report(n, "A", oracle_an(n), enumeration.enumerate_an(n))
        ln = oracle_ln(n)
        yield _report(n, "L", ln, enumeration.enumerate_ln(n))
        yield _report(n, "D", _dn_from_ln(n, ln), enumeration.enumerate_dn(n))


def _report(
    n: int, kind: str, expected: list[AlphaSeq], actual: Iterable[AlphaSeq]
) -> OracleReport:
    return OracleReport(n, kind, len(expected), diff_ordered(expected, actual))
