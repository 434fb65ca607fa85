"""`src/` holds what the engine runs.

A module-level function that no other `src/` code names, and that is not
exported, is test-only code: it keeps working only as long as its tests
run it, and it tends to grow back after each deletion.  The exceptions are
the per-call references that tests compare the indexed engine against.
"""

from __future__ import annotations

import ast
from pathlib import Path

import skillmas

# per-call references that tests compare the indexed engine against
REFERENCES = {
    "substream",
    "select_skills",
    "ground_truth_success_prob",
    "_dominant_deficit",
    "_weighted_choice",
}


def orphans() -> set[str]:
    """Module-level functions of `src/skillmas` that no code outside their
    own body names, as `module.function`."""
    defined: list[tuple[str, str]] = []
    named: dict[str, set[tuple[str, str] | None]] = {}  # name -> the functions naming it
    for path in sorted(Path(skillmas.__file__).parent.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = None
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner = (module, node.name)
                defined.append(owner)
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                    named.setdefault(sub.id, set()).add(owner)
                elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                    named.setdefault(sub.attr, set()).add(owner)
    return {
        f"{module}.{name}"
        for module, name in defined
        if not named.get(name, set()) - {(module, name)}
    }


def test_every_function_has_a_caller_in_src():
    exempt = set(skillmas.__all__) | REFERENCES
    unexplained = sorted(o for o in orphans() if o.split(".")[1] not in exempt)
    assert unexplained == []


def test_every_reference_is_an_orphan():
    # a listed name that the engine calls again, or that is gone, leaves the list
    listed = {o.split(".")[1] for o in orphans()} & REFERENCES
    assert listed == REFERENCES
