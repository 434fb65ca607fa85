"""Only `world` keys anything on `id()`.

The execution table interns one `TraceShape` per outcome path, and a
round's `Batch` lists each interned shape once, with one table index per
episode, so no stage needs a key of its own.  A stage that built one from
`id()` of a shape's fields would have to pick the fields by hand and keep
them alive while the key is in use; that is the decision the interned
shape makes once.
"""

from __future__ import annotations

import ast
from pathlib import Path

import skillmas

ALLOWED = {"world"}


def id_callers() -> dict[str, list[int]]:
    """Modules of `src/skillmas` that call the builtin `id`, with the lines."""
    found: dict[str, list[int]] = {}
    for path in sorted(Path(skillmas.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "id"
            ):
                found.setdefault(path.stem, []).append(node.lineno)
    return found


def test_only_world_calls_id():
    outside = {module: lines for module, lines in id_callers().items() if module not in ALLOWED}
    assert outside == {}

