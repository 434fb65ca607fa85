"""`tests/mutants.py`'s list stays in step with the code it mutates.

Each entry's old text must occur exactly once in its file and differ from
its new text, and the test files it names must exist, so a refactor of
`world.py`, `streams.py`, `restructure.py`, `cli.py`'s replay, the route
in `utility.py`, the diagnoses in `retention.py`, the index line or the
scenario parser in `store.py`, or skill evolution in `evolution.py` that
leaves the list stale fails here in milliseconds.  No mutant is run:
`python tests/mutants.py` runs them.
"""

from __future__ import annotations

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize(
    "file, old, new, tests, kind", MUTANTS, ids=[f"mutant{i}" for i in range(len(MUTANTS))]
)
def test_each_mutant_applies_once(file, old, new, tests, kind):
    text = (ROOT / file).read_text(encoding="utf-8")
    assert text.count(old) == 1, f"{file}: {old!r} occurs {text.count(old)} times"
    assert new != old
    assert tests and all((ROOT / test).is_file() for test in tests)
    assert kind == "fault" or kind.startswith("equivalent: ")
