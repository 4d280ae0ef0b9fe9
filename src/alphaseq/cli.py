"""Command line front end.

Subcommands: list, succ, pred, lexical, compare, meet, star, harmonic,
least, verify. ``succ --set dn`` and ``pred --set dn`` print the whole
insertion burst of one L_n step, one element per line. Sequences are
written as comma-separated positive integers in ASCII digits ("3,1,2,1");
the zero sequence is the literal "0". ``list`` streams every format through one
encoder: the C JSON encoder renders the walk 64 items at a time, and the text
lines (a CSV row is the text line) are cut out of that JSON. ``list`` takes its
length, the JSON ``count``, from the closed forms of ``oracle.cardinality``, so
a ``--limit`` at or above the set's size lists the whole set. ``least``,
``harmonic`` and ``star`` refuse an output of more than ``MAX_CELLS`` cells as
a domain error. ``verify`` prints and flushes each set's line as soon as that
set is certified. Exit codes: 0 success, 1 usage error, 2 domain error, 3
verification mismatch; output cut short by its reader closing the pipe also
exits 0. Exits 1 and 2 write exactly one line to stderr, exits 0 and 3 none: a
usage error is argparse's error line without its usage block.
"""

from __future__ import annotations

import argparse
import os
import sys
from itertools import islice

from . import enumeration, oracle
from .adjacency import predecessor_dn, predecessor_ln, successor_dn, successor_ln
from .cells import predecessor_an, successor_an
from .core import (
    compare,
    degree,
    format_sequence,
    harmonic,
    least_element,
    meet,
    is_lexical,
    parse_sequence,
    require_member,
    star,
    two_adic_split,
)
from .errors import AlphaSequenceError

EXIT_OK, EXIT_USAGE, EXIT_DOMAIN, EXIT_MISMATCH = 0, 1, 2, 3

#: Most cells that ``least``, ``harmonic`` and ``star`` build. Their output
#: length grows exponentially with the arguments, so it is computed first.
MAX_CELLS = 2**22


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the contract here reserves 2 for
    # domain errors, so route usage failures to exit code 1, as one line.
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _count(text: str) -> int:
    """argparse type of ``--limit`` and ``j``: an integer >= 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="alphaseq", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("list", help="stream an ordered set")
    p.add_argument("--set", dest="set_name", choices=("an", "ln", "dn"), required=True)
    p.add_argument("n", type=int)
    p.add_argument("--desc", action="store_true", help="descending order")
    p.add_argument("--limit", type=_count, metavar="K", help="emit only the first K elements")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.set_defaults(run=_cmd_list)

    for name, way in (("succ", "up"), ("pred", "down")):
        p = sub.add_parser(name, help=f"one adjacency step {way} (dn: the full insertion burst)")
        p.add_argument("--set", dest="set_name", choices=("an", "ln", "dn"), required=True)
        p.add_argument("n", type=int)
        p.add_argument("seq", type=parse_sequence)
        p.set_defaults(run=_cmd_step)

    p = sub.add_parser("lexical", help="test lexicality")
    p.add_argument("seq", type=parse_sequence)
    p.set_defaults(run=lambda args: _say("true" if is_lexical(args.seq) else "false"))

    p = sub.add_parser("compare", help="order two sequences")
    p.add_argument("a", type=parse_sequence)
    p.add_argument("b", type=parse_sequence)
    p.set_defaults(run=lambda args: _say(("less", "equal", "greater")[compare(args.a, args.b) + 1]))

    p = sub.add_parser("meet", help="longest common left factor closure")
    p.add_argument("a", type=parse_sequence)
    p.add_argument("b", type=parse_sequence)
    p.set_defaults(run=lambda args: _say(format_sequence(meet(args.a, args.b))))

    p = sub.add_parser("star", help="star product")
    p.add_argument("a", type=parse_sequence)
    p.add_argument("b", type=parse_sequence)
    p.set_defaults(run=_cmd_star)

    p = sub.add_parser("harmonic", help="j-th harmonic")
    p.add_argument("j", type=_count)
    p.add_argument("seq", type=parse_sequence)
    p.set_defaults(run=_cmd_harmonic)

    p = sub.add_parser("least", help="least element of L_n")
    p.add_argument("n", type=int)
    p.set_defaults(run=_cmd_least)

    p = sub.add_parser("verify", help="check enumeration against the brute-force oracle")
    p.add_argument("n_min", type=int)
    p.add_argument("n_max", type=int)
    p.set_defaults(run=_cmd_verify)

    return parser


def _say(line: str) -> int:
    print(line)
    return EXIT_OK


def _cmd_list(args) -> int:
    # read off the module at call time, so a rebound walk is the one that runs
    walk = getattr(enumeration, f"enumerate_{args.set_name}{'_descending' if args.desc else ''}")
    stream = walk(args.n)
    # only a --limit below the set's size cuts the stream, so an overshooting walk still shows
    count = oracle.cardinality(args.set_name, args.n)
    if args.limit is not None and args.limit < count:
        stream, count = islice(stream, args.limit), args.limit
    import json

    # One encoder for every format: the walk is taken 64 items at a time and each chunk is
    # encoded once by the C JSON encoder, which is far cheaper than a format_sequence call
    # per item. 64 items keep each write well inside one 8 KiB stdout block, so output
    # leaves steadily; the zero sequence encodes as [].
    chunks = iter(lambda: list(islice(stream, 64)), [])
    encoded = (json.dumps(chunk, separators=(",", ":")) for chunk in chunks)
    write = sys.stdout.write
    if args.format != "json":
        # "[[3,1],[4]]" -> "3,1\n4\n"; a CSV row of positive integers needs no quoting,
        # so it is the text line, and the zero sequence is "0"
        for items in encoded:
            write(items.replace("[]", "[0]")[2:-2].replace("],[", "\n") + "\n")
        return EXIT_OK
    # "count" precedes "items", so it is the length decided above, not read off the stream
    write(f'{{"n":{args.n},"set":"{args.set_name}","count":{count},"items":[')
    sep = ""
    for items in encoded:
        write(sep + items[1:-1])
        sep = ","
    write("]}\n")
    return EXIT_OK


# (command, set) -> the burst of one step. The step functions are read from the
# module globals when a lambda runs, so a rebinding reaches them.
_STEPS = {
    ("succ", "an"): lambda a, n: [successor_an(require_member(a, "A", n))],
    ("pred", "an"): lambda a, n: [predecessor_an(require_member(a, "A", n))],
    ("succ", "ln"): lambda a, n: [successor_ln(a, n)],
    ("pred", "ln"): lambda a, n: [predecessor_ln(a, n)],
    ("succ", "dn"): lambda a, n: successor_dn(a, n),
    ("pred", "dn"): lambda a, n: predecessor_dn(a, n),
}


def _cmd_step(args) -> int:
    for seq in _STEPS[args.command, args.set_name](args.seq, args.n):
        print(format_sequence(seq))
    return EXIT_OK


def _star_len(la: int, k: int, extra: int) -> int:
    """len(star(a, b)) for len(a) == la, len(b) == k and sum(b) - len(b) == extra."""
    # k blocks extend_odd(a) and extra blocks extend_even(a), then a; star((), b) is b
    return k * (la + 1 - la % 2) + extra * (la + la % 2) + la


def _harmonic_len(j: int, la: int) -> int:
    """len(harmonic(j, a)) for len(a) == la; once past MAX_CELLS, the first length past it."""
    for _ in range(j):
        if la > MAX_CELLS:
            break
        la = 2 * la + 1 - la % 2  # extend_odd(x) + x
    return la


def _require_fits(cells: int) -> None:
    if cells > MAX_CELLS:
        raise AlphaSequenceError(f"output would exceed {MAX_CELLS} cells")


def _cmd_star(args) -> int:
    a, b = args.a, args.b
    _require_fits(_star_len(len(a), len(b), degree(b) - len(b)))
    return _say(format_sequence(star(a, b)))


def _cmd_harmonic(args) -> int:
    _require_fits(_harmonic_len(args.j, len(args.seq)))
    return _say(format_sequence(harmonic(args.j, args.seq)))


def _cmd_least(args) -> int:
    # least_element(n) is h_l(0), star-multiplied by (2, 1^(2s-2)) when s > 0
    l, s = two_adic_split(args.n)
    cells = _harmonic_len(l, 0)
    _require_fits(_star_len(cells, 2 * s - 1, 1) if s > 0 else cells)
    return _say(format_sequence(least_element(args.n)))


def _cmd_verify(args) -> int:
    worst = EXIT_OK
    for rep in oracle._reports(args.n_min, args.n_max):
        label = f"{rep.set_kind}_{rep.n}"
        if rep.ok:
            print(f"{label}: ok ({rep.count} elements)", flush=True)
        else:
            worst = EXIT_MISMATCH
            pos, exp, got = rep.mismatches[0]
            exp_s = format_sequence(exp) if exp is not None else "<missing>"
            got_s = format_sequence(got) if got is not None else "<missing>"
            print(
                f"{label}: MISMATCH at position {pos}: expected {exp_s}, got {got_s}"
                f" ({len(rep.mismatches)} total)",
                flush=True,
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
        return args.run(args)
    except (AlphaSequenceError, IndexError, ValueError) as exc:
        print(f"alphaseq: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (``alphaseq list ... | head``): end
        # quietly, and point stdout at devnull so the interpreter's last flush
        # of what is still buffered does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_OK
    sys.exit(code)
