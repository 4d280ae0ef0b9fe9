"""Command line front end.

Subcommands: list, succ, pred, lexical, compare, meet, star, harmonic,
least, verify. ``succ --set dn`` and ``pred --set dn`` print the whole
insertion burst of one L_n step, one element per line. Sequences are
written as comma-separated positive integers ("3,1,2,1"); the zero
sequence is the literal "0". Exit codes: 0 success, 1 usage error,
2 domain error, 3 verification mismatch.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from itertools import islice

from . import enumeration, oracle
from .adjacency import predecessor_dn, predecessor_ln, successor_dn, successor_ln
from .cells import predecessor_an, successor_an
from .core import (
    SetContext,
    compare,
    format_sequence,
    harmonic,
    least_element,
    meet,
    is_lexical,
    parse_sequence,
    star,
)
from .errors import AlphaSequenceError

EXIT_OK, EXIT_USAGE, EXIT_DOMAIN, EXIT_MISMATCH = 0, 1, 2, 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the contract here reserves 2 for
    # domain errors, so route usage failures to exit code 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="alphaseq", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("list", help="stream an ordered set")
    p.add_argument("--set", dest="set_name", choices=("an", "ln", "dn"), required=True)
    p.add_argument("n", type=int)
    p.add_argument("--desc", action="store_true", help="descending order")
    p.add_argument("--limit", type=int, metavar="K", help="emit only the first K elements")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")

    p = sub.add_parser("succ", help="one adjacency step up (dn: the full insertion burst)")
    p.add_argument("--set", dest="set_name", choices=("an", "ln", "dn"), required=True)
    p.add_argument("n", type=int)
    p.add_argument("seq", type=parse_sequence)

    p = sub.add_parser("pred", help="one adjacency step down (dn: the full insertion burst)")
    p.add_argument("--set", dest="set_name", choices=("an", "ln", "dn"), required=True)
    p.add_argument("n", type=int)
    p.add_argument("seq", type=parse_sequence)

    p = sub.add_parser("lexical", help="test lexicality")
    p.add_argument("seq", type=parse_sequence)

    p = sub.add_parser("compare", help="order two sequences")
    p.add_argument("a", type=parse_sequence)
    p.add_argument("b", type=parse_sequence)

    p = sub.add_parser("meet", help="longest common left factor closure")
    p.add_argument("a", type=parse_sequence)
    p.add_argument("b", type=parse_sequence)

    p = sub.add_parser("star", help="star product")
    p.add_argument("a", type=parse_sequence)
    p.add_argument("b", type=parse_sequence)

    p = sub.add_parser("harmonic", help="j-th harmonic")
    p.add_argument("j", type=int)
    p.add_argument("seq", type=parse_sequence)

    p = sub.add_parser("least", help="least element of L_n")
    p.add_argument("n", type=int)

    p = sub.add_parser("verify", help="check enumeration against the brute-force oracle")
    p.add_argument("n_min", type=int)
    p.add_argument("n_max", type=int)

    return parser


def _list_stream(set_name: str, n: int, desc: bool):
    if not desc:
        if set_name == "an":
            return enumeration.enumerate_an(n)
        if set_name == "ln":
            return enumeration.enumerate_ln(n)
        return enumeration.enumerate_dn(n)
    if set_name == "an":
        return enumeration.enumerate_an_descending(n)
    if set_name == "ln":
        return enumeration.enumerate_ln_descending(n)
    return enumeration.enumerate_dn_descending(n)


def _cmd_list(args) -> int:
    # checked before the stream is built: a bad --limit is a usage error whatever n is
    if args.limit is not None and args.limit < 0:
        print("alphaseq: error: --limit must be >= 0", file=sys.stderr)
        return EXIT_USAGE
    stream = _list_stream(args.set_name, args.n, args.desc)
    if args.limit is not None:
        stream = islice(stream, args.limit)
    if args.format == "text":
        for seq in stream:
            print(format_sequence(seq))
    elif args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        for seq in stream:
            writer.writerow(seq if seq else (0,))
    else:
        # the zero sequence is the empty array
        items = [list(seq) for seq in stream]
        record = {"n": args.n, "set": args.set_name, "count": len(items), "items": items}
        print(json.dumps(record, separators=(",", ":")))
    return EXIT_OK


def _cmd_succ(args) -> int:
    if args.set_name == "an":
        _require_member(SetContext("A", args.n), args.seq)
        print(format_sequence(successor_an(args.seq)))
    elif args.set_name == "ln":
        print(format_sequence(successor_ln(args.seq, args.n)))
    else:
        for seq in successor_dn(args.seq, args.n):
            print(format_sequence(seq))
    return EXIT_OK


def _cmd_pred(args) -> int:
    if args.set_name == "an":
        _require_member(SetContext("A", args.n), args.seq)
        print(format_sequence(predecessor_an(args.seq)))
    elif args.set_name == "ln":
        print(format_sequence(predecessor_ln(args.seq, args.n)))
    else:
        for seq in predecessor_dn(args.seq, args.n):
            print(format_sequence(seq))
    return EXIT_OK


def _require_member(ctx: SetContext, seq) -> None:
    if not ctx.contains(seq):
        raise AlphaSequenceError(
            f"{format_sequence(seq)} is not a member of {ctx.kind}_{ctx.n}"
        )


def _cmd_verify(args) -> int:
    reports = oracle.verify_range(args.n_min, args.n_max)
    worst = EXIT_OK
    for rep in reports:
        label = f"{rep.set_kind}_{rep.n}"
        if rep.ok:
            print(f"{label}: ok ({len(rep.expected)} elements)")
        else:
            worst = EXIT_MISMATCH
            pos, exp, got = rep.mismatches[0]
            exp_s = format_sequence(exp) if exp is not None else "<missing>"
            got_s = format_sequence(got) if got is not None else "<missing>"
            print(
                f"{label}: MISMATCH at position {pos}: expected {exp_s}, got {got_s}"
                f" ({len(rep.mismatches)} total)"
            )
    return worst


def run(argv: list[str] | None = None) -> int:
    """Parse and execute one command line; returns the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        if args.command == "list":
            return _cmd_list(args)
        if args.command == "succ":
            return _cmd_succ(args)
        if args.command == "pred":
            return _cmd_pred(args)
        if args.command == "lexical":
            print("true" if is_lexical(args.seq) else "false")
            return EXIT_OK
        if args.command == "compare":
            c = compare(args.a, args.b)
            print("less" if c < 0 else "greater" if c > 0 else "equal")
            return EXIT_OK
        if args.command == "meet":
            print(format_sequence(meet(args.a, args.b)))
            return EXIT_OK
        if args.command == "star":
            print(format_sequence(star(args.a, args.b)))
            return EXIT_OK
        if args.command == "harmonic":
            if args.j < 0:
                print("alphaseq: error: j must be >= 0", file=sys.stderr)
                return EXIT_USAGE
            print(format_sequence(harmonic(args.j, args.seq)))
            return EXIT_OK
        if args.command == "least":
            print(format_sequence(least_element(args.n)))
            return EXIT_OK
        if args.command == "verify":
            return _cmd_verify(args)
        raise AssertionError(f"unhandled command {args.command}")
    except (AlphaSequenceError, IndexError, ValueError) as exc:
        print(f"alphaseq: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


def main() -> None:
    sys.exit(run())
