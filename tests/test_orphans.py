"""`src/` holds what the engine runs.

A module-level function that no other `src/` code names, and that is not
exported, is test-only code: it keeps working only as long as its tests
run it, and it tends to grow back after each deletion.  A reference that
tests compare the engine against lives in `tests/reference.py`.  Likewise,
a parameter that its function never reads is an input that changes nothing,
and a module-level constant that no code names is a table left behind.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import skillmas


def _unnamed(defines) -> set[str]:
    """`module.name` for each name that `defines(statement)` gives for a
    module-level statement of `src/skillmas` and that no code outside that
    statement names."""
    defined: list[tuple[tuple[str, int], str]] = []
    named: dict[str, set[tuple[str, int]]] = {}  # name -> the statements naming it
    for path in sorted(Path(skillmas.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            statement = (path.stem, node.lineno)
            defined += [(statement, name) for name in defines(node)]
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                    named.setdefault(sub.id, set()).add(statement)
                elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                    named.setdefault(sub.attr, set()).add(statement)
    return {
        f"{statement[0]}.{name}"
        for statement, name in defined
        if not named.get(name, set()) - {statement}
    }


def orphans() -> set[str]:
    """Module-level functions of `src/skillmas` that no code outside their
    own body names, as `module.function`."""
    return _unnamed(
        lambda node: [node.name]
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else []
    )


def orphan_constants() -> set[str]:
    """Module-level `UPPER_CASE` or `_UPPER_CASE` assignments of
    `src/skillmas` that no other code names, as `module.NAME`."""
    def constants(node: ast.stmt) -> list[str]:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            return []
        return [
            target.id
            for target in targets
            if isinstance(target, ast.Name) and re.fullmatch(r"_?[A-Z][A-Z0-9_]*", target.id)
        ]
    return _unnamed(constants)


def test_every_function_has_a_caller_in_src():
    unexplained = sorted(o for o in orphans() if o.split(".")[1] not in skillmas.__all__)
    assert unexplained == []


def test_every_constant_is_named_in_src():
    unexplained = sorted(o for o in orphan_constants() if o.split(".")[1] not in skillmas.__all__)
    assert unexplained == []


def unread_parameters() -> list[str]:
    """Parameters of `src/skillmas` functions and methods that their body
    never names, as `module.function(parameter)`; `self`, `cls` and
    `_`-prefixed names are exempt."""
    unread = []
    for path in sorted(Path(skillmas.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
            read = {
                sub.id
                for stmt in node.body
                for sub in ast.walk(stmt)
                if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
            }
            unread += [
                f"{path.stem}.{node.name}({p.arg})"
                for p in params
                if p is not None
                and p.arg not in ("self", "cls")
                and not p.arg.startswith("_")
                and p.arg not in read
            ]
    return unread


def test_every_parameter_is_read():
    assert unread_parameters() == []
