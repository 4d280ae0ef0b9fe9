"""Print one "sha256 argv" line per ``alphaseq list`` command over a fixed grid.

Usage: python3 scripts/listing_digests.py > digests.txt

The grid is an/ln/dn x ascending/--desc x text/csv/json x --limit absent, -1,
0, 1, 64, 65 x n in {0, 1, 2, 3, 6, 8, 12, 16, 18, 31}; n = 0, n = 31 and
--limit -1 are the error exits. Each digest covers the exit code, stderr and
stdout of one in-process run of the checkout this script belongs to, so diffing
the output of two checkouts shows any change in what ``list`` prints.
"""

import hashlib
import io
import itertools
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from alphaseq import cli  # noqa: E402

GRID = itertools.product(
    ("an", "ln", "dn"),
    ([], ["--desc"]),
    ("text", "csv", "json"),
    ([], ["--limit", "-1"], ["--limit", "0"], ["--limit", "1"], ["--limit", "64"], ["--limit", "65"]),
    (0, 1, 2, 3, 6, 8, 12, 16, 18, 31),
)

for set_name, desc, fmt, limit, n in GRID:
    argv = ["list", "--set", set_name, str(n), *desc, "--format", fmt, *limit]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(argv)
    digest = hashlib.sha256(f"{code}\0{err.getvalue()}\0{out.getvalue()}".encode())
    print(digest.hexdigest(), " ".join(argv))
