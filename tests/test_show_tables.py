import os
import subprocess
import sys
from pathlib import Path

import pytest

import alphaseq

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "show_tables.py"


def show_tables(*argv, **env):
    src = str(Path(alphaseq.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, str(SCRIPT), *argv],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src, **env},
    )
    return done.returncode, done.stdout, done.stderr


@pytest.mark.parametrize("argv, env, code, line", [
    (["0"], {}, 2, "show_tables.py: n must be >= 1, got 0"),
    (["31"], {}, 2, "show_tables.py: n=31 above enumeration cap 30"),
    (["3"], {"ALPHASEQ_ENUM_CAP": "x"}, 2, "show_tables.py: ALPHASEQ_ENUM_CAP must be a positive integer, got 'x'"),
    (["abc"], {}, 1, "show_tables.py: error: argument n: invalid int value: 'abc'"),
])
def test_errors_exit_with_one_stderr_line_as_the_cli_does(argv, env, code, line):
    assert show_tables(*argv, **env) == (code, "", line + "\n")


def test_prints_the_wall_largest_element_on_top():
    assert show_tables("--set", "an", "3") == (0, "+  -  +\n3\n2  1\n1  1  1\n1  2\n", "")


def test_memory_does_not_grow_with_the_set(peak_rss_kb):
    # A_20 has 524 288 rows; a wall held whole before printing peaked 70 MB above A_8
    peaks = [peak_rss_kb(str(SCRIPT), "--set", "an", str(n)) for n in (8, 20)]
    assert peaks[1] < peaks[0] + 4 * 1024, peaks


def test_ends_quietly_when_the_reader_closes_the_pipe():
    # the wall of A_16 (about 800 KB) outgrows a 64 KiB pipe buffer, so the
    # script is still writing when the reader goes away
    src = str(Path(alphaseq.__file__).resolve().parents[1])
    child = subprocess.Popen(
        [sys.executable, str(SCRIPT), "--set", "an", "16"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": src},
    )
    first = child.stdout.readline()
    child.stdout.close()
    _, err = child.communicate(timeout=60)
    assert first.startswith(b"+  -") and child.returncode == 0
    assert err == b""
