"""Engine configuration: every scenario-local threshold with its default.

The defaults are deliberately configuration rather than code constants;
scenario files override them in a `[thresholds]` section and the CLI
accepts a JSON override file.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Any, Mapping


@dataclass(frozen=True)
class EngineConfig:
    # Execution
    episodes_per_round: int = 40
    top_k: int = 3

    # Evidence retention
    repeat_multiplicity: int = 2
    near_miss_progress: float = 0.5
    low_estimate: float = 0.5
    cross_round_repeats: bool = False

    # Skill evolution
    cluster_threshold: float = 0.5
    dedup_similarity: float = 0.8
    prune_min_count: int = 5
    prune_max_utility: float = 0.3
    promote_min_uses: int = 3
    promote_min_ratio: float = 0.6
    pool_prune_min_uses: int = 5
    pool_prune_max_ratio: float = 0.3

    # Restructuring
    mass_threshold: int = 3
    overlap_threshold: float = 0.5
    min_count: int = 5
    merge_gap: float = 0.1
    weak_executor_utility: float = 0.5
    default_capacity: int = 4

    def __post_init__(self) -> None:
        for name, (ok, expected) in _RANGES.items():
            value = getattr(self, name)
            if not ok(value):
                raise ValueError(f"{name} must be {expected}, not {value!r}")

    def replace(self, **overrides: Any) -> "EngineConfig":
        return dataclasses.replace(self, **overrides)

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(EngineConfig)}

# thresholds outside these ranges would fail mid-run or be silently wrong
_RANGES = {
    "episodes_per_round": (lambda v: v >= 1, "at least 1"),
    "top_k": (lambda v: v >= 1, "at least 1"),
    "default_capacity": (lambda v: v >= 1, "at least 1"),
    "promote_min_uses": (lambda v: v >= 1, "at least 1"),
    "pool_prune_min_uses": (lambda v: v >= 1, "at least 1"),
    "cluster_threshold": (lambda v: 0 < v <= 1, "in (0, 1]"),
}


def _coerce(name: str, raw: Any) -> Any:
    kind = _FIELD_TYPES[name]
    if isinstance(raw, str):
        text = raw.strip()
        if kind == "bool":
            if text.lower() in ("true", "1", "yes"):
                return True
            if text.lower() in ("false", "0", "no"):
                return False
            raise ValueError(f"cannot read {text!r} as a boolean for {name}")
        if kind == "int":
            return int(text)
        raw = float(text)
    number = isinstance(raw, (int, float)) and not isinstance(raw, bool)
    if kind == "bool":
        ok, expected = isinstance(raw, bool), "a boolean"
    elif kind == "int":
        ok, expected = number and isinstance(raw, int), "an integer"
    else:
        ok, expected = number, "a number"
    if not ok:
        raise ValueError(f"{name} expects {expected}, not {raw!r}")
    if isinstance(raw, float) and not math.isfinite(raw):
        raise ValueError(f"{name} expects a finite number, not {raw!r}")
    return raw


def config_from_mapping(
    values: Mapping[str, Any], base: EngineConfig | None = None
) -> EngineConfig:
    """Build a config from override values; keys may be kebab- or snake-case,
    but one threshold may be given only once."""
    config = base or EngineConfig()
    overrides: dict[str, Any] = {}
    spelled: dict[str, str] = {}
    for key, raw in values.items():
        name = key.replace("-", "_")
        if name not in _FIELD_TYPES:
            raise ValueError(f"unknown threshold {key!r}")
        if name in spelled:
            raise ValueError(f"duplicate threshold {spelled[name]!r} and {key!r}")
        spelled[name] = key
        overrides[name] = _coerce(name, raw)
    return config.replace(**overrides)
