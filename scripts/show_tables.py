#!/usr/bin/env python3
"""Print an ordered set as a signed-cell wall, largest element on top.

Columns alternate + - + - (odd positions are positive cells). Handy for
eyeballing how the rewrites move values between neighbouring rows.

Usage: python scripts/show_tables.py --set dn 8
"""

import argparse

from alphaseq.core import parse_integer
from alphaseq.enumeration import enumerate_an, enumerate_dn, enumerate_ln

STREAMS = {"an": enumerate_an, "ln": enumerate_ln, "dn": enumerate_dn}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--set", dest="set_name", choices=sorted(STREAMS), default="dn")
    parser.add_argument("n", type=parse_integer)
    args = parser.parse_args()

    rows = list(STREAMS[args.set_name](args.n))
    width = max(len(r) for r in rows)
    print("  ".join("+" if i % 2 == 0 else "-" for i in range(width)))
    for row in reversed(rows):
        print("  ".join(str(v) for v in row) if row else "0")


if __name__ == "__main__":
    main()
