"""Print one "sha256 argv" line per ``alphaseq`` command over a fixed grid.

Usage: python3 scripts/listing_digests.py > digests.txt

The ``list`` grid is an/ln/dn x ascending/--desc x text/csv/json x --limit
absent, -1, 0, 1, 64, 65, 9223372036854775808 (2**63, one past sys.maxsize)
x n in {0, 1, 2, 3, 6, 8, 12, 16, 18, 31}; n = 0, n = 31 and --limit -1 are
the error exits. ``verify`` runs over [1, 1], [1, 8], [1, 14], [12, 12] and
[15, 16], and over the error exits [0, 3], [5, 4] and [1, 21]. Then come the
error exits of the step and algebra commands and of argument parsing (``ERRORS``),
two of them on a 4300-digit cell (shown shortened); among the step exits are
the maximal and minimal members of A_n, and non-members of L_n that fail its
degree, its first-cell bound and only its heads' suffix tests. Then, with
ALPHASEQ_ENUM_CAP raised to 100 in this process, come listings whose cells run
to 99 (``RAISED_CAP``).
Last come the domain-error exits of a cap spelled as no integer argument is,
one per cap variable. Each environment group is set for its own commands only.
Each digest covers the exit code, stderr and stdout of one in-process run of
the checkout this script belongs to, so diffing the output of two checkouts
shows any change in what these commands print. A reader that closes the pipe
early (``... | head``) ends the script quietly with exit 0, as the CLI does.
"""

import hashlib
import io
import itertools
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from alphaseq import cli  # noqa: E402

LIST_GRID = itertools.product(
    ("an", "ln", "dn"),
    ([], ["--desc"]),
    ("text", "csv", "json"),
    ([], ["--limit", "-1"], ["--limit", "0"], ["--limit", "1"], ["--limit", "64"], ["--limit", "65"],
     ["--limit", "9223372036854775808"]),
    (0, 1, 2, 3, 6, 8, 12, 16, 18, 31),
)
ERRORS = [
    ["succ", "--set", "an", "0", "1"], ["succ", "--set", "an", "4", "2,1"], ["pred", "--set", "an", "4", "0"],
    ["succ", "--set", "an", "4", "4"], ["pred", "--set", "an", "4", "1,3"], ["pred", "--set", "an", "1", "1"],
    ["succ", "--set", "ln", "7", "6"], ["succ", "--set", "ln", "6", "2,3"], ["pred", "--set", "ln", "8", "3"],
    ["pred", "--set", "ln", "8", "2,1,1,2,1"], ["pred", "--set", "ln", "-1", "3"],
    ["succ", "--set", "dn", "8", "3"], ["pred", "--set", "dn", "0", "0"], ["succ", "--set", "xn", "8", "3"],
    ["lexical", "1_0"], ["lexical", "\u0661\u0662"], ["lexical", "3, 1"], ["lexical", "+3"],
    ["lexical", "3,0,1"], ["lexical", "1,,2"], ["lexical", ""], ["lexical"],
    ["compare", "2,1", "x"], ["meet", "3,1", "3,1,2"], ["star", "2", "-1"],
    ["harmonic", "-1", "2,1"], ["harmonic", "x", "2,1"], ["least", "0"], ["least", "-1"], ["least", "x"],
    ["list", "--set", "ln", "x"], ["list", "--set", "ln", "5", "--limit", "x"], ["verify", "1"],
    ["nonsense"], [], ["star", "9" * 4300, "1"], ["harmonic", "1", "9" * 4300],
    ["list", "--set", "ln", "1_0"], ["list", "--set", "ln", "+6"], ["list", "--set", "ln", "\u0661\u0662"],
    ["list", "--set", "ln", "5", "--limit", "1_0"], ["list", "--set", "ln", "5", "--limit", "+3"],
    ["verify", "\u0661", "2"], ["harmonic", "+1", "2,1"], ["least", "1_0"], ["succ", "--set", "ln", "+7", "6"],
    ["succ", "--set", "ln", "6", "2,1"], ["pred", "--set", "dn", "6", "3,1"],
    ["succ", "--set", "ln", "6", "2,1,2"], ["pred", "--set", "dn", "6", "2,1,2"],
]
COMMANDS = [
    *(["list", "--set", set_name, str(n), *desc, "--format", fmt, *limit]
      for set_name, desc, fmt, limit, n in LIST_GRID),
    *(["verify", lo, hi] for lo, hi in (("1", "1"), ("1", "8"), ("1", "14"), ("12", "12"),
                                        ("15", "16"), ("0", "3"), ("5", "4"), ("1", "21"))),
    *ERRORS,
]
RAISED_CAP = [
    *(["list", "--set", "an", "100", "--format", fmt, "--limit", "65"] for fmt in ("text", "csv", "json")),
    ["list", "--set", "ln", "64", "--limit", "65", "--format", "json"],
    ["list", "--set", "dn", "60", "--desc", "--limit", "3"],
]


def show(arg: str) -> str:
    return arg if len(arg) <= 40 else f"{arg[:8]}...({len(arg)} chars)"


def main() -> int:
    for env, argvs in (
        ([], COMMANDS),
        (["ALPHASEQ_ENUM_CAP=100"], RAISED_CAP),
        (["ALPHASEQ_ENUM_CAP=1_0"], [["list", "--set", "ln", "5"]]),
        (["ALPHASEQ_ORACLE_CAP=+3"], [["verify", "1", "3"]]),
    ):
        for argv in argvs:
            out, err = io.StringIO(), io.StringIO()
            with mock.patch.dict(os.environ, (v.split("=") for v in env)):
                with redirect_stdout(out), redirect_stderr(err):
                    code = cli.run(argv)
            digest = hashlib.sha256(f"{code}\0{err.getvalue()}\0{out.getvalue()}".encode())
            print(digest.hexdigest(), " ".join(map(show, env + argv)))
    return 0


if __name__ == "__main__":
    cli._end(main)
