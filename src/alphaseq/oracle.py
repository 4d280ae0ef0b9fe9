"""Ground truth without the walks: brute-force sets and closed-form counts.

The brute-force route generates every composition, filters with the
definitional lexicality test and sorts. The compositions of n grow from those
of n - 1 by a recurrence that keeps them in ascending comparator order, so
sorting A_n or L_n finds one sorted run and costs one comparison per
neighbouring pair (the D_n union is one run per divisor); the sort still
decides the order, not the generation.
:func:`cardinality` gives the size of each set from its closed form, with no
enumeration at all. Nothing here knows about the adjacency machinery. The only
shared logic is the comparator, the definitional lexicality test (restated
locally against plain suffixes), the cap reader and the n >= 1 check, so the
oracle stays an independent route to the same sets. :func:`verify_range` holds
one set at a time and generates the compositions of each n once: L_n's
candidates are read off the A_n list just compared, and that L_n is reused for
D_n. Each walk streams against the oracle's list, and the report keeps only its
length, ``count``.
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
    """All 2**(n-1) ordered compositions of n into parts >= 1, in ascending comparator order.

    Grown from the compositions of 1 by a recurrence: those of k + 1 are (1,) + c
    for each composition c of k, taken in reverse, since c's cells move one place
    and so count with the other sign, followed by each c with its first cell
    raised by one. The list grows in place, each old tuple replaced as the second
    half is appended, so no second full list is held.
    """
    ORACLE_CAP.check(n)
    out: list[AlphaSeq] = [(1,)]
    for _ in range(n - 1):
        # reversed, the list is walked from its end, so the raised c are appended in order
        out.reverse()
        for i in range(len(out) - 1, -1, -1):
            c = out[i]
            out[i] = (1,) + c
            out.append((c[0] + 1,) + c[1:])
    return out


def oracle_an(n: int) -> list[AlphaSeq]:
    """A_n fully sorted by the comparator."""
    return sorted(all_compositions(n), key=cmp_to_key(compare))


def oracle_ln(n: int) -> list[AlphaSeq]:
    """L_n by filtering compositions of n-1 with the definitional lexicality test."""
    check_n(n)
    if n == 1:
        return [ZERO]
    return _sorted_lexical(all_compositions(n - 1))


def _sorted_lexical(candidates: Iterable[AlphaSeq]) -> list[AlphaSeq]:
    # oracle_ln's filter and sort, which verify feeds with L_n's candidates off A_n
    return sorted(filter(_lexical, candidates), key=cmp_to_key(compare))


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
        an = oracle_an(n)
        yield _report(n, "A", an, enumeration.enumerate_an(n))
        # L_n's candidates are the members of A_n that start with 1, less that cell
        # (A_1's (1,) gives L_1's zero sequence); A_n is freed before the next A_n
        ln = _sorted_lexical(a[1:] for a in an if a[0] == 1)
        del an
        yield _report(n, "L", ln, enumeration.enumerate_ln(n))
        yield _report(n, "D", _dn_from_ln(n, ln), enumeration.enumerate_dn(n))


def _report(
    n: int, kind: str, expected: list[AlphaSeq], actual: Iterable[AlphaSeq]
) -> OracleReport:
    return OracleReport(n, kind, len(expected), diff_ordered(expected, actual))
