#!/usr/bin/env python3
"""Print an ordered set as a signed-cell wall, largest element on top.

Columns alternate + - + - (odd positions are positive cells). Handy for
eyeballing how the rewrites move values between neighbouring rows.

Usage: python scripts/show_tables.py --set dn 8

Exits as the alphaseq CLI does: 1 with one stderr line for a usage error,
2 with one stderr line for a domain error (an n below 1 or above the cap, or
an ``ALPHASEQ_ENUM_CAP`` that is not a positive integer).
"""

import sys

from alphaseq.cli import EXIT_DOMAIN, _integer, _Parser
from alphaseq.enumeration import enumerate_an, enumerate_dn, enumerate_ln
from alphaseq.errors import AlphaSequenceError

STREAMS = {"an": enumerate_an, "ln": enumerate_ln, "dn": enumerate_dn}


def main():
    parser = _Parser(description=__doc__.splitlines()[0])
    parser.add_argument("--set", dest="set_name", choices=sorted(STREAMS), default="dn")
    parser.add_argument("n", type=_integer)
    args = parser.parse_args()

    try:
        rows = list(STREAMS[args.set_name](args.n))
    except (AlphaSequenceError, ValueError) as exc:
        print(f"{parser.prog}: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    width = max(len(r) for r in rows)
    print("  ".join("+" if i % 2 == 0 else "-" for i in range(width)))
    for row in reversed(rows):
        print("  ".join(str(v) for v in row) if row else "0")
    return 0


if __name__ == "__main__":
    sys.exit(main())
