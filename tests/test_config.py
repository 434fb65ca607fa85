from __future__ import annotations

import ast
import dataclasses
from pathlib import Path

import pytest

import skillmas
from skillmas.config import EngineConfig, config_from_mapping


def test_defaults_match_documented_thresholds():
    config = EngineConfig()
    assert config.episodes_per_round == 40
    assert config.top_k == 3
    assert config.repeat_multiplicity == 2
    assert config.near_miss_progress == 0.5
    assert config.dedup_similarity == 0.8
    assert config.cluster_threshold == 0.5
    assert (config.promote_min_uses, config.promote_min_ratio) == (3, 0.6)
    assert (config.pool_prune_min_uses, config.pool_prune_max_ratio) == (5, 0.3)
    assert (config.prune_min_count, config.prune_max_utility) == (5, 0.3)
    assert config.mass_threshold == 3
    assert (config.overlap_threshold, config.min_count) == (0.5, 5)


def test_kebab_and_snake_keys_accepted():
    config = config_from_mapping({"top-k": "5", "mass_threshold": 4})
    assert config.top_k == 5
    assert config.mass_threshold == 4


@pytest.mark.parametrize("values", [{"top-k": 2, "top_k": 5}, {"top_k": 5, "top-k": 2}])
def test_both_spellings_of_one_threshold_refused(values):
    # neither spelling may silently win, in either order
    first, second = values
    with pytest.raises(ValueError, match=f"duplicate threshold '{first}' and '{second}'"):
        config_from_mapping(values)


def test_bool_coercion_from_text():
    assert config_from_mapping({"cross-round-repeats": "true"}).cross_round_repeats
    assert not config_from_mapping({"cross-round-repeats": "false"}).cross_round_repeats
    with pytest.raises(ValueError):
        config_from_mapping({"cross-round-repeats": "maybe"})


@pytest.mark.parametrize(
    "values, expected",
    [
        ({"top_k": [3]}, "top_k expects an integer"),
        ({"top_k": 3.0}, "top_k expects an integer"),
        ({"episodes_per_round": True}, "episodes_per_round expects an integer"),
        ({"merge_gap": None}, "merge_gap expects a number"),
        ({"near_miss_progress": {}}, "near_miss_progress expects a number"),
        ({"cross_round_repeats": 1}, "cross_round_repeats expects a boolean"),
        ({"episodes_per_round": 0}, "episodes_per_round must be at least 1"),
        ({"top_k": -1}, "top_k must be at least 1"),
        ({"default_capacity": 0}, "default_capacity must be at least 1"),
        ({"cluster_threshold": 0}, r"cluster_threshold must be in \(0, 1\]"),
        ({"cluster_threshold": 1.5}, r"cluster_threshold must be in \(0, 1\]"),
        ({"cluster_threshold": -0.1}, r"cluster_threshold must be in \(0, 1\]"),
        ({"cluster-threshold": "0"}, r"cluster_threshold must be in \(0, 1\]"),
        ({"top-k": "0"}, "top_k must be at least 1"),
        ({"merge_gap": float("inf")}, "merge_gap expects a finite number, not inf"),
        ({"near-miss-progress": "nan"}, "near_miss_progress expects a finite number, not nan"),
        ({"promote_min_uses": 0}, "promote_min_uses must be at least 1"),
        ({"pool-prune-min-uses": "-2"}, "pool_prune_min_uses must be at least 1"),
    ],
)
def test_values_of_the_wrong_type_rejected(values, expected):
    # JSON overrides and stored manifests carry typed values, not text, and
    # each value must lie in its threshold's range
    with pytest.raises(ValueError, match=expected):
        config_from_mapping(values)


@pytest.mark.parametrize(
    "name, value, expected",
    [
        ("episodes_per_round", 0, "episodes_per_round must be at least 1"),
        ("top_k", 0, "top_k must be at least 1"),
        ("default_capacity", 0, "default_capacity must be at least 1"),
        ("promote_min_uses", 0, "promote_min_uses must be at least 1"),
        ("pool_prune_min_uses", 0, "pool_prune_min_uses must be at least 1"),
        ("cluster_threshold", 0.0, r"cluster_threshold must be in \(0, 1\]"),
    ],
)
def test_direct_construction_checks_ranges(name, value, expected):
    # a config built in code, not read from a file, holds the same ranges
    with pytest.raises(ValueError, match=expected):
        EngineConfig(**{name: value})
    with pytest.raises(ValueError, match=expected):
        EngineConfig().replace(**{name: value})


def test_range_edges_accepted():
    config = config_from_mapping({"top_k": 1, "cluster_threshold": 1, "default_capacity": 1})
    assert (config.top_k, config.cluster_threshold, config.default_capacity) == (1, 1, 1)


def test_typed_values_accepted():
    config = config_from_mapping({"top_k": 5, "merge_gap": 1, "cross_round_repeats": True})
    assert (config.top_k, config.merge_gap) == (5, 1)
    assert config.cross_round_repeats


def test_unknown_key_rejected():
    with pytest.raises(ValueError, match="unknown threshold"):
        config_from_mapping({"wibble": 1})


@pytest.mark.parametrize(
    "key", ["gap_threshold", "gap-threshold", "routing_noise", "routing-noise"]
)
def test_retired_key_rejected(key):
    # a threshold no rule reads any more is just an unknown key
    with pytest.raises(ValueError, match="unknown threshold"):
        config_from_mapping({key: 0.2})


def test_every_threshold_is_read_by_the_engine():
    # a knob no rule reads is configuration that silently does nothing
    read: set[str] = set()
    for path in Path(skillmas.__file__).parent.glob("*.py"):
        if path.name == "config.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    fields = [f.name for f in dataclasses.fields(EngineConfig)]
    assert [name for name in fields if name not in read] == []


def test_overrides_layer_over_base():
    base = config_from_mapping({"top-k": 7})
    layered = config_from_mapping({"mass-threshold": 9}, base=base)
    assert layered.top_k == 7
    assert layered.mass_threshold == 9
