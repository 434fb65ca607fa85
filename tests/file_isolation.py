"""Run each `tests/test_*.py` file in its own pytest process and list every
file whose outcomes differ from one run of the whole suite.

A test whose outcome alone differs from its outcome in the suite depends on
state that another file leaves behind, such as a process-wide memo.  Run
from the repository root:

    python tests/file_isolation.py

It exits 1 when some file differs, else 0.  pytest does not collect this
file, since its name does not start with `test_`.
"""

from __future__ import annotations

import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def outcomes(paths: list[Path], report: Path) -> dict[str, str]:
    """Each test id's outcome (passed, failure, error or skipped) in one
    pytest process over `paths`."""
    subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", f"--junitxml={report}", *map(str, paths)],
        cwd=TESTS.parent, stdout=subprocess.DEVNULL, check=False,
    )
    found = {}
    for case in ET.parse(report).iter("testcase"):
        tags = [child.tag for child in case if child.tag in ("failure", "error", "skipped")]
        found[f"{case.get('classname')}::{case.get('name')}"] = tags[0] if tags else "passed"
    return found


def main() -> int:
    files = sorted(TESTS.glob("test_*.py"))
    differing = 0
    with tempfile.TemporaryDirectory() as scratch:
        suite = outcomes(files, Path(scratch) / "suite.xml")
        for path in files:
            alone = outcomes([path], Path(scratch) / f"{path.stem}.xml")
            module = f"tests.{path.stem}"
            in_suite = {
                test: outcome for test, outcome in suite.items()
                if test.split("::")[0].split(".")[:2] == module.split(".")
            }
            changed = sorted(
                test for test in in_suite.keys() | alone.keys()
                if in_suite.get(test) != alone.get(test)
            )
            if changed:
                differing += 1
                print(f"{path.relative_to(TESTS.parent)}:")
                for test in changed:
                    print(f"  {test}: suite {in_suite.get(test, 'absent')}, "
                          f"alone {alone.get(test, 'absent')}")
    print(f"{len(files)} files run alone, {len(suite)} tests in the suite; "
          f"{differing} files differ from the suite")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
