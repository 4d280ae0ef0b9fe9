#!/usr/bin/env python3
"""Print an ordered set as a signed-cell wall, largest element on top.

Columns alternate + - + - (odd positions are positive cells). Handy for
eyeballing how the rewrites move values between neighbouring rows.

Usage: python scripts/show_tables.py --set dn 8

Exits as the alphaseq CLI does: 1 with one stderr line for a usage error,
2 with one stderr line for a domain error (an n below 1 or above the cap, or
an ``ALPHASEQ_ENUM_CAP`` that is not a positive integer), and 0 quietly when
its reader closes the pipe early (``... | head``): it ends through the CLI's
own exit.
"""

import sys

from alphaseq.cli import EXIT_DOMAIN, _end, _integer, _Parser
from alphaseq.enumeration import enumerate_an_descending, enumerate_dn_descending, enumerate_ln_descending
from alphaseq.errors import AlphaSequenceError

# descending, so the wall prints as the walk yields it: a first pass finds the widest row
STREAMS = {"an": enumerate_an_descending, "ln": enumerate_ln_descending, "dn": enumerate_dn_descending}


def main():
    parser = _Parser(description=__doc__.splitlines()[0])
    parser.add_argument("--set", dest="set_name", choices=sorted(STREAMS), default="dn")
    parser.add_argument("n", type=_integer)
    args = parser.parse_args()

    walk = STREAMS[args.set_name]
    try:
        width = max(map(len, walk(args.n)))
    except (AlphaSequenceError, ValueError) as exc:
        print(f"{parser.prog}: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    print("  ".join("+" if i % 2 == 0 else "-" for i in range(width)))
    for row in walk(args.n):
        print("  ".join(str(v) for v in row) if row else "0")
    return 0


if __name__ == "__main__":
    _end(main)
