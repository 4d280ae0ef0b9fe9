"""Size caps read from the environment.

``ALPHASEQ_ENUM_CAP`` (default 30) bounds the adjacency enumerations and
``ALPHASEQ_ORACLE_CAP`` (default 20) bounds the oracle's exhaustive
generation. A cap is read on every check, so a change to the environment
takes effect at the next call. This module knows nothing of the sets
themselves, so the oracle can share it without depending on the walks.
"""

from __future__ import annotations

import os
from collections import namedtuple

from .errors import CapExceeded, check_n


class Cap(namedtuple("Cap", "variable default label")):
    """An upper bound on n, configurable through one environment variable.

    ``label`` names the bound in the CapExceeded message.
    """

    __slots__ = ()

    def value(self) -> int:
        raw = os.environ.get(self.variable)
        if raw is None:
            return self.default
        try:
            cap = int(raw)
        except ValueError:
            cap = 0  # reported below, with the non-positive values
        if cap < 1:
            raise ValueError(f"{self.variable} must be a positive integer, got {raw!r}")
        return cap

    def check(self, n: int) -> None:
        """Raise InvalidN for n < 1 and CapExceeded for n above the cap."""
        check_n(n)
        cap = self.value()
        if n > cap:
            raise CapExceeded(f"n={n} above {self.label} cap {cap}")


ENUM_CAP = Cap("ALPHASEQ_ENUM_CAP", 30, "enumeration")
ORACLE_CAP = Cap("ALPHASEQ_ORACLE_CAP", 20, "oracle")
