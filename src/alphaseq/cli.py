"""Command line front end.

Subcommands: list, succ, pred, lexical, compare, meet, star, harmonic,
least, verify. ``succ --set dn`` and ``pred --set dn`` print the whole
insertion burst of one L_n step, one element per line. Sequences are
written as comma-separated positive integers in ASCII digits ("3,1,2,1");
the zero sequence is the literal "0". ``list`` streams every format through one
encoder, a block of at most 64 rows per write: a head and its tails, whose rows are
the head followed by each tail. Text and CSV (a CSV row is the text line) write a
block as one join of its tails by a line break and the head, JSON as one join by
"],[" and the head, so no row is a string of its own. Every cell's text comes from
a table that converts each distinct cell value once. An L_n or D_n block has the
empty head and the next 64 items of the walk, each its cells joined in C. A_n is
not walked row by row: a block of A_n, stitched by the first-cell law, is a head of
first cells with the rows of a small A_m, which the step walk makes once per
listing. A cell too long to print is a domain error. ``list`` takes its length,
the JSON ``count``, from the closed forms of ``oracle.cardinality``, so a
``--limit`` at or above the set's size lists the whole set. ``least``,
``harmonic`` and ``star`` refuse an output of more than ``MAX_CELLS`` cells as
a domain error. ``verify`` prints and flushes each set's line as soon as that
set is certified. Exit codes: 0 success, 1 usage error, 2 domain error, 3
verification mismatch; output cut short by its reader closing the pipe also
exits 0. Exits 1 and 2 write exactly one line to stderr, exits 0 and 3 none: a
usage error is argparse's error line without its usage block.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from collections.abc import Iterator
from itertools import islice, repeat

from . import enumeration, oracle
from .adjacency import predecessor_dn, predecessor_ln, successor_dn, successor_ln
from .caps import ENUM_CAP
from .cells import predecessor_an, successor_an
from .core import (
    compare,
    degree,
    format_sequence,
    harmonic,
    least_element,
    meet,
    is_lexical,
    parse_integer,
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


def _integer(text: str) -> int:
    """argparse type of each integer argument: a text ``parse_integer`` refuses is a usage error."""
    try:
        return parse_integer(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _count(text: str) -> int:
    """argparse type of ``--limit`` and ``j``: an integer >= 0."""
    value = _integer(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="alphaseq", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("list", help="stream an ordered set")
    p.add_argument("--set", dest="set_name", choices=("an", "ln", "dn"), required=True)
    p.add_argument("n", type=_integer)
    p.add_argument("--desc", action="store_true", help="descending order")
    p.add_argument("--limit", type=_count, metavar="K", help="emit only the first K elements")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.set_defaults(run=_cmd_list)

    for name, way in (("succ", "up"), ("pred", "down")):
        p = sub.add_parser(name, help=f"one adjacency step {way} (dn: the full insertion burst)")
        p.add_argument("--set", dest="set_name", choices=("an", "ln", "dn"), required=True)
        p.add_argument("n", type=_integer)
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
    p.add_argument("n", type=_integer)
    p.set_defaults(run=_cmd_least)

    p = sub.add_parser("verify", help="check enumeration against the brute-force oracle")
    p.add_argument("n_min", type=_integer)
    p.add_argument("n_max", type=_integer)
    p.set_defaults(run=_cmd_verify)

    return parser


def _say(line: str) -> int:
    print(line)
    return EXIT_OK


def _cmd_list(args) -> int:
    cell = _CellText().__getitem__
    if args.set_name == "an":
        blocks = _an_rows(args.n, args.desc, cell)
    else:
        # read off the module at call time, so a rebound walk is the one that runs
        walk = getattr(enumeration, f"enumerate_{args.set_name}{'_descending' if args.desc else ''}")
        # each item becomes the row of its cells joined by commas, all in C; each distinct
        # cell value is converted to text once, by the table. The zero sequence joins to "".
        rows = map(",".join, map(map, repeat(cell), walk(args.n)))
        blocks = zip(repeat(""), iter(lambda: list(islice(rows, 64)), []))
    # only a --limit below the set's size cuts the rows, so an overshooting walk still shows.
    # |A_n| = 2^(n-1) takes n/8 bytes, so for an the cut is read off the limit's bit length.
    if args.limit is None:
        cut = False
    elif args.set_name == "an":
        cut = args.limit.bit_length() < args.n
    else:
        cut = args.limit < oracle.cardinality(args.set_name, args.n)
    if cut:
        blocks = _first_rows(blocks, args.limit)
    # One encoder for every format: a block holds at most 64 rows, which keeps each
    # write well inside one 8 KiB stdout block, so output leaves steadily.
    write = sys.stdout.write
    if args.format != "json":
        # a CSV row of positive integers needs no quoting, so it is the text line
        for head, tails in blocks:
            if not head and not all(tails):
                tails = [row or "0" for row in tails]
            write(head + ("\n" + head).join(tails) + "\n")
        return EXIT_OK
    # "count" precedes "items", so it is the length decided above, not read off the rows
    count = args.limit if cut else oracle.cardinality(args.set_name, args.n)
    write(f'{{"n":{args.n},"set":"{args.set_name}","count":{count},"items":[')
    lead = "["
    for head, tails in blocks:
        write(lead + head + ("],[" + head).join(tails) + "]")
        lead = ",["
    write("]}\n")
    return EXIT_OK


def _first_rows(blocks, limit: int) -> Iterator[tuple[str, list[str]]]:
    """The blocks that hold the first ``limit`` rows; only the block the limit ends in is sliced."""
    if limit:
        for head, tails in blocks:
            if limit <= len(tails):
                yield head, tails[:limit]
                return
            limit -= len(tails)
            yield head, tails


#: Largest m whose A_m rows ``list --set an`` takes from the step walk, as the tails
#: that longer rows end in. A block is the rows of one A_m, so it holds at most
#: 2^(m-1) = 64 rows, the bound of an L_n or D_n block.
_AN_BLOCK = 7


def _an_rows(n: int, desc: bool, cell) -> Iterator[tuple[str, list[str]]]:
    """The rows of A_n, ascending or descending, as blocks stitched by the first-cell law.

    Ascending A_m is, for c = 1 .. m, the cell c followed by the rows of descending
    A_(m - c); descending A_m is, for c = m .. 1, c followed by ascending A_(m - c); A_0
    is the empty row. For m - c <= _AN_BLOCK the rows after c make one block
    ``(head, tails)``: the head is the first cells up to c, as text, and the tails are
    ``"," + row`` for each row of the step walk over A_(m - c), rendered once per
    listing, so a block's rows are ``head + t`` for each of its tails ``t``; a larger
    m - c recurses. The cap is checked when this is called, before any row is written.
    """
    ENUM_CAP.check(n)
    # tails[d][m]: the tails of A_m, ascending for d = 0 and descending for d = 1
    tails = [
        [[""]] + [["," + ",".join(map(cell, a)) for a in walk(m)] for m in range(1, min(n, _AN_BLOCK + 1))]
        for walk in (enumeration.enumerate_an, enumeration.enumerate_an_descending)
    ]

    def blocks(prefix: str, m: int, desc: bool) -> Iterator[tuple[str, list[str]]]:
        for c in range(m, 0, -1) if desc else range(1, m + 1):
            head = prefix + cell(c)
            if m - c <= _AN_BLOCK:
                yield head, tails[not desc][m - c]
            else:
                yield from blocks(head + ",", m - c, not desc)

    return blocks("", n, desc)


class _CellText(dict):
    """Cell value -> its text, converted on first use; it holds only the values printed.

    The conversion is format_sequence's, so a cell too long to print fails with its message.
    """

    __slots__ = ()

    def __missing__(self, v: int) -> str:
        text = self[v] = format_sequence((v,))
        return text


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


def _end(command) -> None:
    """Run ``command()``, which returns an exit code, and exit the process with it.

    Output cut short by its reader closing the pipe exits 0. The collector is
    frozen before the exit: the objects alive then live until the process ends,
    so the interpreter's last collections need not traverse them, and the
    operating system reclaims them. Exit handlers and the final flushes still run.
    """
    try:
        code = command()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (``alphaseq list ... | head``): end
        # quietly, and point stdout at devnull so the interpreter's last flush
        # of what is still buffered does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_OK
    gc.freeze()
    sys.exit(code)


def main() -> None:
    _end(run)
