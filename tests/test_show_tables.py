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
