from __future__ import annotations

from skillmas.numfmt import fmt, q12
from skillmas.streams import derive_seed

from reference import substream


def test_derived_seeds_are_stable():
    # frozen golden values: a change here breaks every stored run directory
    assert derive_seed(42, "round", 0) == 12853656514080773260
    assert derive_seed(42, "round", 1) == 16508499070446382160
    assert derive_seed(0, "episode", 0) == 956371825871241519


def test_label_paths_do_not_collide_on_concatenation():
    assert derive_seed("ab", "c") != derive_seed("a", "bc")
    assert derive_seed(1, 23) != derive_seed(12, 3)


def test_substreams_reproduce():
    a = [substream(7, "episode", i).random() for i in range(5)]
    b = [substream(7, "episode", i).random() for i in range(5)]
    assert a == b
    assert len(set(a)) == 5


def test_q12_fixed_point_round_trip():
    for value in (0.0, 1.0, 0.5, 2 / 3, 1 / 7, 0.123456789012345, 1e-9):
        quantized = q12(value)
        assert float(fmt(quantized)) == quantized
        assert fmt(q12(quantized)) == fmt(quantized)
        assert abs(quantized - value) <= max(1e-12, abs(value) * 5e-12)


def test_fmt_examples():
    assert fmt(0.5) == "0.5"
    assert fmt(2 / 3) == "0.666666666667"
    assert fmt(1.0) == "1"
