import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


# The committed file is the script's output on CPython 3.11, regenerated after each
# deliberate output change: its digests cover argparse's wording, which changes
# between versions. The script sets each cap variable for its own commands only.
@pytest.mark.skipif(sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
                    reason="the committed digests hold CPython 3.11's argparse wording")
def test_listing_digests_match_the_committed_file():
    env = {k: v for k, v in os.environ.items() if not k.startswith("ALPHASEQ_")}
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "listing_digests.py")],
                          capture_output=True, text=True, timeout=300, env=env)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == (ROOT / "tests" / "listing_digests.txt").read_text()


def test_ends_quietly_when_the_reader_closes_the_pipe():
    # the digests (about 140 KB) outgrow a 64 KiB pipe buffer, so the script is still
    # writing when the reader goes away; the cap keeps the listings it makes first small
    env = {k: v for k, v in os.environ.items() if not k.startswith("ALPHASEQ_")}
    child = subprocess.Popen([sys.executable, str(ROOT / "scripts" / "listing_digests.py")],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             env={**env, "ALPHASEQ_ENUM_CAP": "10"})
    first = child.stdout.readline()
    child.stdout.close()
    _, err = child.communicate(timeout=120)
    assert first.endswith(b" list --set an 0 --format text\n") and child.returncode == 0
    assert err == b""
