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
