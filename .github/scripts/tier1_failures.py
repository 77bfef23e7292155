"""Exit 0 when a Tier-1 junit report fails exactly the two by-design acceptance tests.

    python .github/scripts/tier1_failures.py tier1.xml

README explains why those two fail: each asserts a quoted value that its
pinned matrix contradicts. Any other failure or error, a collection error
among them, or either of the two passing, exits 1 with the difference.
"""

from __future__ import annotations

import sys
import xml.etree.ElementTree as ET

BY_DESIGN = {
    "tests/test_acceptance.py::test_criterion_03_case1_stated_eigenvalues",
    "tests/test_acceptance.py::test_criterion_08_signed_lift_stated_spectrum",
}


def failed_ids(path: str) -> tuple[int, set[str]]:
    """The number of test cases in the report, and the ids of those that failed or errored."""
    cases = list(ET.parse(path).getroot().iter("testcase"))
    failed = set()
    for case in cases:
        if case.find("failure") is not None or case.find("error") is not None:
            module = case.get("classname", "").replace(".", "/")
            failed.add(f"{module}.py::{case.get('name')}" if module else case.get("name", ""))
    return len(cases), failed


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    count, failed = failed_ids(argv[0])
    if not count:
        print("no test cases in the report", file=sys.stderr)
        return 1
    unexpected, passing = sorted(failed - BY_DESIGN), sorted(BY_DESIGN - failed)
    for test in unexpected:
        print(f"unexpected failure: {test}", file=sys.stderr)
    for test in passing:
        print(f"by-design test did not fail: {test}", file=sys.stderr)
    print(f"{count} test cases, {len(failed)} failed")
    return 1 if unexpected or passing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
