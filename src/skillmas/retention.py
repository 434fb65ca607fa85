"""Evidence retention: label the shapes of a round's batch worth adapting on.

The filter is a fixed rule set, not a learned controller.  A shape can carry
several category labels, which read only the shape, the round's failure
counts and the pre-round tables: a shape is wholly retained or not at all.
A retained failure is diagnosed once, for every stage that reads it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping, Sequence

from .config import EngineConfig
from .model import REPAIR_TAGS, TAG_BY_CAUSE, BoundedTag
from .model import CauseLabel, Skill, TraceShape, UtilityTable
from .utility import pooled_used, used_skills


class RetentionCategory(str, Enum):
    REPEATED_FAILURE = "repeated-failure"
    NEAR_MISS = "near-miss"
    REUSABLE_SUCCESS = "reusable-success"
    RETRIEVAL_MISMATCH = "retrieval-mismatch"


@dataclass(frozen=True)
class Diagnosis:
    """Bounded diagnosability of a retained failure: cause and tag."""

    cause: CauseLabel
    tag: BoundedTag

    @property
    def locally_diagnosable(self) -> bool:
        # a failure not confidently observed has cause UNKNOWN, tag NONE
        return self.tag in REPAIR_TAGS


# one shared diagnosis per cause: a diagnosis is a pure function of its cause
_DIAGNOSES = {cause: Diagnosis(cause, tag) for cause, tag in TAG_BY_CAUSE.items()}


def diagnose(shape: TraceShape) -> Diagnosis:
    """Map a failure's shape to (cause, bounded tag); the cause counts only
    when it was observed confidently."""
    if shape.outcome != 0:
        raise ValueError("diagnosis applies to failure traces only")
    obs = shape.latent_cause_observation
    return _DIAGNOSES[obs.cause if obs is not None and obs.confident else CauseLabel.UNKNOWN]


@dataclass(frozen=True)
class RetainedShape:
    """A retained shape with its number of episodes and the id of its first."""

    shape: TraceShape
    count: int
    source: str
    # a failure's `diagnose`, made once for its proposal and its family's
    # diagnostic artifact; None for a success
    diagnosis: Diagnosis | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        diagnosis = diagnose(self.shape) if self.shape.outcome == 0 else None
        object.__setattr__(self, "diagnosis", diagnosis)


def _observed_cause(shape: TraceShape) -> CauseLabel:
    obs = shape.latent_cause_observation
    return obs.cause if obs is not None else CauseLabel.UNKNOWN


def failure_counts(tally: Iterable[tuple[TraceShape, int]]) -> Counter[tuple[str, CauseLabel]]:
    """Failed episodes per (task id, observed cause), over (shape, count) pairs."""
    counts: Counter[tuple[str, CauseLabel]] = Counter()
    for shape, count in tally:
        if shape.outcome == 0:
            counts[shape.task_type.id, _observed_cause(shape)] += count
    return counts


def retain(
    tally: Sequence[tuple[TraceShape, int]],
    q_exec_prior: UtilityTable,
    config: EngineConfig,
    library: Mapping[str, Skill],
    *,
    prior_failure_counts: Mapping[tuple[str, CauseLabel], int] | None = None,
) -> list[frozenset[RetentionCategory]]:
    """Label the shapes worth adapting on: one label set per (shape, count)
    pair of a batch's tally, in its order, empty for a shape not retained.

    Rules: (a) repeated failures sharing a (task type, observed cause) key at
    the configured multiplicity — within the round by default, with
    cross-round history folded in when provided; (b) near misses by progress;
    (c) reusable successes, either exercising a pooled skill or succeeding
    where the routed executor's pre-round estimate was still weak;
    (d) retrieval/execution mismatches, any slice that selected more than it
    used.  `q_exec_prior` is the pre-round executor table, so rule (c) reads
    the estimate the router acted on.
    """
    failure_keys = failure_counts(tally)
    if prior_failure_counts:
        for key, count in prior_failure_counts.items():
            failure_keys[key] += count

    def label(shape: TraceShape) -> frozenset[RetentionCategory]:
        categories: set[RetentionCategory] = set()
        task_id = shape.task_type.id

        if shape.outcome == 0:
            key = (task_id, _observed_cause(shape))
            if failure_keys[key] >= config.repeat_multiplicity:
                categories.add(RetentionCategory.REPEATED_FAILURE)
            if shape.progress >= config.near_miss_progress:
                categories.add(RetentionCategory.NEAR_MISS)
        else:
            weak_executor = any(
                q_exec_prior.count(eid, task_id) >= 1
                and q_exec_prior.value(eid, task_id) < config.low_estimate
                for eid in shape.executors()
            )
            if pooled_used(shape, library) or weak_executor:
                categories.add(RetentionCategory.REUSABLE_SUCCESS)

        if any(sl.selected - used_skills(sl) for sl in shape.slices):
            categories.add(RetentionCategory.RETRIEVAL_MISMATCH)
        return frozenset(categories)

    return [label(shape) for shape, _ in tally]
