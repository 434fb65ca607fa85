from __future__ import annotations

import ast
from pathlib import Path

import skillmas
from skillmas.numfmt import q12
from skillmas.streams import derive_seed, episode_blocks


def test_derived_seeds_are_stable():
    # frozen golden values: a change here breaks every stored run directory
    assert derive_seed(42, "round", 0) == 12853656514080773260
    assert derive_seed(42, "round", 1) == 16508499070446382160
    assert derive_seed(0, "episode", 0) == 956371825871241519


def test_label_paths_do_not_collide_on_concatenation():
    assert derive_seed("ab", "c") != derive_seed("a", "bc")
    assert derive_seed(1, 23) != derive_seed(12, 3)


def test_substreams_reproduce():
    a = [episode_blocks(7)(i, 0) for i in range(5)]
    b = [episode_blocks(7)(i, 0) for i in reversed(range(5))][::-1]
    assert a == b
    assert len({tuple(words) for words in a}) == 5


def test_q12_fixed_point_round_trip():
    for value in (0.0, 1.0, 0.5, 2 / 3, 1 / 7, 0.123456789012345, 1e-9):
        quantized = q12(value)
        assert float(repr(quantized)) == quantized
        assert q12(quantized) == quantized
        assert abs(quantized - value) <= max(1e-12, abs(value) * 5e-12)


def test_fmt_examples():
    # a quantized value is written (json, repr) as its 12-digit decimal
    assert repr(q12(0.5)) == "0.5"
    assert repr(q12(2 / 3)) == "0.666666666667"
    assert repr(q12(13 / 49)) == "0.265306122449"
    assert repr(q12(1.0)) == "1.0"


def test_no_engine_module_imports_random():
    # episode streams are hash blocks: no engine code reads a generator
    imported = set()
    for path in Path(skillmas.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported |= {(path.name, alias.name.split(".")[0]) for alias in node.names}
            elif isinstance(node, ast.ImportFrom):
                names = [node.module] if node.module else [a.name for a in node.names]
                imported |= {(path.name, name.split(".")[0]) for name in names}
    assert imported and not {(f, m) for f, m in imported if m in ("random", "_random")}
