"""`src/` holds what the engine runs.

A module-level function that no other `src/` code names, and that is not
exported, is test-only code: it keeps working only as long as its tests
run it, and it tends to grow back after each deletion.  A reference that
tests compare the engine against lives in `tests/reference.py`.
"""

from __future__ import annotations

import ast
from pathlib import Path

import skillmas


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
    unexplained = sorted(o for o in orphans() if o.split(".")[1] not in skillmas.__all__)
    assert unexplained == []

