"""Run the tier-1 suite and accept exactly its one deliberately red test.

Usage, from anywhere: python3 scripts/tier1.py [pytest arguments]

Exits 0 only when the failed tests and failed collections are exactly
acceptance criterion 07, which states a parity law that is false inside a
single class and is kept red as stated. Prints every other failure, and says
so when criterion 07 passes or does not run.
"""

import os
import sys
from pathlib import Path

import pytest

RED = "tests/test_acceptance.py::test_criterion_07_opposite_parity_in_ln"


class Outcomes:
    def __init__(self):
        self.failed, self.seen = set(), set()

    def pytest_runtest_logreport(self, report):
        self.seen.add(report.nodeid)
        if report.failed:
            self.failed.add(report.nodeid)

    pytest_collectreport = pytest_runtest_logreport


def main() -> int:
    root = Path(__file__).resolve().parents[1]
    os.chdir(root)
    src = str(root / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    sys.path.insert(0, src)
    outcomes = Outcomes()
    pytest.main(["-q", "--continue-on-collection-errors", *sys.argv[1:]], plugins=[outcomes])
    for nodeid in sorted(outcomes.failed - {RED}):
        print(f"unexpected failure: {nodeid}")
    if RED not in outcomes.failed:
        print(f"{RED} {'passed' if RED in outcomes.seen else 'did not run'}; it is expected to fail")
    return 0 if outcomes.failed == {RED} else 1


if __name__ == "__main__":
    sys.exit(main())
