"""Domain errors raised by the sequence operations.

Index errors on cell positions use the builtin ``IndexError``; everything
else derives from :class:`AlphaSequenceError` so callers (and the CLI) can
catch domain failures in one place.

:class:`NotInSet` formats its message on demand: the membership checks raise
``NotInSet(a, kind, n)``, which keeps the sequence and its set, and the cells
are printed only when the message is read. Most rejections are caught and
never read, and printing them would cost more than the membership test.
"""

import sys


class AlphaSequenceError(Exception):
    """Base class for domain errors."""


class PrefixAmbiguity(AlphaSequenceError):
    """meet() called on distinct sequences where one is a left factor of the other."""


class NotSplittable(AlphaSequenceError):
    """Splitting requested on a cell of value 1."""


class NotConjugatable(AlphaSequenceError):
    """Conjugation requested on a cell that is not a value-1 cell with a left neighbour."""


class Maximal(AlphaSequenceError):
    """No successor: the sequence is the maximal element of its set."""


class Minimal(AlphaSequenceError):
    """No predecessor: the sequence is the minimal element of its set."""


class NoCandidate(AlphaSequenceError):
    """No cell position yields a lexical rewrite (contract violation or maximum)."""


class NoDecomposition(AlphaSequenceError):
    """The reverse-step tail construction found neither structural form."""


class NotInSet(AlphaSequenceError):
    """The sequence is not a member of the set the operation targets.

    Raised with a message, or as ``NotInSet(a, kind, n)``, which reads "<a> is not a
    member of <kind>_<n>" and builds that text only when read; a cell or an n too long
    to print is named by the interpreter's digit limit instead.
    """

    def __str__(self) -> str:
        if len(self.args) != 3:
            return super().__str__()
        from .core import format_sequence  # core imports this module

        a, kind, n = self.args
        limit = sys.get_int_max_str_digits()
        try:
            text = format_sequence(a)
        except AlphaSequenceError:
            text = f"a sequence with a cell of more than {limit} digits"
        try:
            return f"{text} is not a member of {kind}_{n}"
        except ValueError:
            return f"{text} is not a member of {kind}_n, an n of more than {limit} digits"


class InvalidN(AlphaSequenceError):
    """The degree parameter n is out of range."""


class CapExceeded(AlphaSequenceError):
    """n is above the configured enumeration or oracle cap."""


class UndefinedOperation(AlphaSequenceError):
    """The operation has no defined result for this input (e.g. extend_even of the zero sequence)."""


def check_n(n: int) -> None:
    """Raise InvalidN unless n >= 1: A_n, L_n and D_n exist only for n >= 1."""
    if n < 1:
        raise InvalidN(f"n must be >= 1, got {n}")
