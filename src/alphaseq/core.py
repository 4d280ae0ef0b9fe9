"""Alpha-sequences: total order, lexicality and the algebraic constructions.

An alpha-sequence is a finite tuple of positive integers. The zero sequence
is the empty tuple; it is rendered ``"0"`` in text form and behaves as the
identity for concatenation and for the star product. Sequences are ordered
through their alternating-sign view (first element positive, second negated,
and so on, padded with zeros), compared at the first differing position.
Everything here is a pure function over immutable tuples.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from functools import lru_cache

from .errors import AlphaSequenceError, NotInSet, PrefixAmbiguity, UndefinedOperation, check_n

AlphaSeq = tuple[int, ...]

#: The zero sequence, sole member of L_1.
ZERO: AlphaSeq = ()

LESS, EQUAL, GREATER = -1, 0, 1


def degree(a: AlphaSeq) -> int:
    """Sum of the elements; 0 for the zero sequence."""
    return sum(a)


def order_key(a: AlphaSeq) -> tuple[int, ...]:
    """Sortable form of the alternating-sign view: (a1, -a2, a3, ..., 0).

    The single trailing 0 makes plain tuple comparison agree with comparing
    the zero-padded infinite views, so ``sorted(xs, key=order_key)`` sorts
    exactly as :func:`compare` orders.
    """
    key = [v if i % 2 == 0 else -v for i, v in enumerate(a)]
    key.append(0)
    return tuple(key)


def compare(a: AlphaSeq, b: AlphaSeq) -> int:
    """Three-way comparison: -1, 0 or 1 as ``a`` is below, equal to or above ``b``.

    The alternating-sign views are scanned position by position (zero past
    the end of a sequence); the sign of the first difference decides. When
    one sequence is a left factor of the other, the longer one's next cell
    decides: it is above the shorter at an even 0-based index, below at an
    odd one.
    """
    sign = GREATER
    for x, y in zip(a, b):
        if x != y:
            return sign if x > y else -sign
        sign = -sign
    if len(a) == len(b):
        return EQUAL
    return sign if len(a) > len(b) else -sign


def is_lexical(a: AlphaSeq) -> bool:
    """True if ``a`` is strictly above each of its proper suffixes.

    Sequences of length at most one are lexical, the zero sequence included.
    """
    if len(a) < 2:
        return True
    # The first cell of the alternating-sign view counts positive, so a suffix
    # starting below a[0] is below a and one starting above is above it: any
    # larger later cell fails, and only the suffixes starting with a cell equal
    # to a[0] need a test.
    head = a[0]
    if max(a) > head:
        return False
    j = 0
    for _ in range(a.count(head) - 1):
        j = a.index(head, j + 1)
        if not _above_suffix(a, j):
            return False
    return True


def _above_suffix(a: AlphaSeq, j: int, t: int = 0) -> bool:
    """True if ``a`` is above its proper suffix ``a[j:]``, 0 < j < len(a).

    The same decision as ``compare(a, a[j:]) == GREATER``, made in place: the
    first differing cell decides by the parity of its index, and a suffix
    that runs out is below ``a`` when its length is even. The walk starts at
    index ``t``, for a caller that knows the cells before it agree.
    """
    k = len(a) - j
    for t in range(t, k):
        x = a[t]
        y = a[j + t]
        if x != y:
            return (x > y) != (t & 1)
    return not k & 1


def meet(a: AlphaSeq, b: AlphaSeq) -> AlphaSeq:
    """Longest common left factor, closed with the smaller first differing element.

    Defined only when the sequences are equal or genuinely differ at some
    shared position; a proper left factor of the other raises
    :class:`PrefixAmbiguity`.
    """
    if a == b:
        return a
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return a[:i] + (min(x, y),)
    shorter, longer = (a, b) if len(a) < len(b) else (b, a)
    raise PrefixAmbiguity(
        f"{format_sequence(shorter)} is a left factor of {format_sequence(longer)}; meet undefined"
    )


def power(a: AlphaSeq, q: int) -> AlphaSeq:
    """q-fold concatenation of ``a`` with itself; q = 0 gives the zero sequence."""
    if q < 0:
        raise ValueError(f"exponent must be >= 0, got {q}")
    return a * q


def extend_even(a: AlphaSeq) -> AlphaSeq:
    """Even-length closure: append 1 (odd length) or increment the last element.

    Undefined for the zero sequence, which has no last element to increment.
    """
    if len(a) % 2 == 1:
        return a + (1,)
    if not a:
        raise UndefinedOperation("extend_even of the zero sequence")
    return a[:-1] + (a[-1] + 1,)


def extend_odd(a: AlphaSeq) -> AlphaSeq:
    """Odd-length closure: append 1 (even length) or increment the last element."""
    if len(a) % 2 == 0:
        return a + (1,)
    return a[:-1] + (a[-1] + 1,)


def harmonic(j: int, a: AlphaSeq) -> AlphaSeq:
    """j-th harmonic: repeated doubling h(x) = extend_odd(x) + x, j times.

    Raises 1 + degree by a factor of 2**j.
    """
    if j < 0:
        raise ValueError(f"harmonic index must be >= 0, got {j}")
    out = a
    for _ in range(j):
        out = extend_odd(out) + out
    return out


def star(a: AlphaSeq, b: AlphaSeq) -> AlphaSeq:
    """Star product: a_o (a_e)^(b1-1) a_o (a_e)^(b2-1) ... a_o (a_e)^(bk-1) a.

    The zero sequence is the identity on either side. Multiplicative on the
    1 + degree index: 1 + D(a*b) = (1 + D(a)) * (1 + D(b)).
    """
    if not a:
        return b
    if not b:
        return a
    ao, ae = extend_odd(a), extend_even(a)
    out: list[int] = []
    for v in b:
        out += ao
        out += ae * (v - 1)
    out += a
    return tuple(out)


def is_fundamental(a: AlphaSeq) -> bool:
    """True if ``a`` is not the first harmonic of any sequence.

    Checking one doubling suffices: every higher harmonic is itself a first
    harmonic. The only possible halving point is after ceil(len/2) elements;
    rebuilding from the candidate tail settles both length parities at once.
    """
    b = a[(len(a) + 1) // 2:]
    return extend_odd(b) + b != a


def two_adic_split(n: int) -> tuple[int, int]:
    """Write n = 2**l * (2s + 1) and return (l, s)."""
    check_n(n)
    l = (n & -n).bit_length() - 1
    return l, (n >> l) // 2


# Both step directions ask for least_element at divisors of n on every resonant
# step, and a reverse step from a sequence starting with 1 or 2 asks for
# least_element(n) itself; the result never changes, so the cache is exact.
@lru_cache(maxsize=64)
def least_element(n: int) -> AlphaSeq:
    """Minimum of L_n: with n = 2**l (2s+1), h_l of the zero sequence,
    star-multiplied by (2, 1^(2(s-1))) when s > 0."""
    l, s = two_adic_split(n)
    base = harmonic(l, ZERO)
    if s == 0:
        return base
    return star(base, (2,) + (1,) * (2 * (s - 1)))


def is_member(a: AlphaSeq, kind: str, n: int) -> bool:
    """True if ``a`` is in A_n (compositions of n), L_n (lexical, 1 + degree = n)
    or D_n (lexical, 1 + degree dividing n) for ``kind`` "A", "L" or "D".
    Raises InvalidN for n < 1 and ValueError for any other kind."""
    check_n(n)
    if a and min(a) < 1:  # cheapest first: the cells, the degree, lexicality
        return False
    d = degree(a)
    if kind == "A":
        return d == n  # the zero sequence has degree 0 < n
    if kind not in ("L", "D"):
        raise ValueError(f"kind must be A, L or D, got {kind!r}")
    return (d + 1 == n if kind == "L" else n % (d + 1) == 0) and is_lexical(a)


def require_member(a: AlphaSeq, kind: str, n: int) -> AlphaSeq:
    """``a`` itself if :func:`is_member` holds; raises NotInSet otherwise."""
    if not is_member(a, kind, n):
        raise NotInSet(f"{format_sequence(a)} is not a member of {kind}_{n}")
    return a


class SetContext(namedtuple("SetContext", "kind n")):
    """A target universe: the set :func:`is_member` tests for ``kind`` and ``n``."""

    __slots__ = ()

    def __new__(cls, kind: str, n: int):
        is_member(ZERO, kind, n)  # raises on a bad kind or n
        return super().__new__(cls, kind, n)

    def contains(self, a: AlphaSeq) -> bool:
        return is_member(a, self.kind, self.n)


def parse_integer(text: str) -> int:
    """Parse ASCII digits after an optional "-", with whitespace allowed around the whole
    text; any other spelling, or more digits than the interpreter converts, raises ValueError."""
    digits = text.strip().removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def parse_sequence(text: str) -> AlphaSeq:
    """Parse the canonical text form: comma-separated positive integers written
    in ASCII digits (no sign, underscore, space or other script's digits), or "0"."""
    t = text.strip()
    if t == "0":
        return ZERO
    cells = t.split(",")
    if not all(c.isascii() and c.isdigit() for c in cells):
        raise ValueError(f"not a sequence: {text!r}")
    vals = tuple(map(int, cells))
    if 0 in vals:
        raise ValueError(f"sequence elements must be positive integers: {text!r}")
    return vals


def format_sequence(a: AlphaSeq) -> str:
    """Canonical text form; the zero sequence renders as "0". A cell longer than
    the interpreter's int-to-str digit limit raises AlphaSequenceError."""
    try:
        return ",".join(map(str, a)) if a else "0"
    except ValueError:
        raise AlphaSequenceError(
            f"cannot print a cell of more than {sys.get_int_max_str_digits()} digits"
        ) from None
