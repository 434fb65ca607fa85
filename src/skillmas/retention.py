"""Evidence retention: label the shapes of a round's batch worth adapting on.

The filter is a fixed rule set, not a learned controller.  A shape can carry
several category labels, which read only the shape, the round's failure
counts and the pre-round tables: a shape is wholly retained or not at all.
A retained failure is diagnosed once, for every stage that reads it.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Sequence

from .config import EngineConfig
from .model import REPAIR_TAGS, TAG_BY_CAUSE, BoundedTag
from .model import CauseLabel, Skill, TraceShape, UtilityTable, ratio
from .utility import pooled_used, used_skills


class RetentionCategory(str, Enum):
    REPEATED_FAILURE = "repeated-failure"
    NEAR_MISS = "near-miss"
    REUSABLE_SUCCESS = "reusable-success"
    RETRIEVAL_MISMATCH = "retrieval-mismatch"


# a label set as a bit mask of its categories, in declaration order, and
# the one frozenset of each mask, shared by every shape that carries it
_REPEATED_FAILURE, _NEAR_MISS, _REUSABLE_SUCCESS, _RETRIEVAL_MISMATCH = 1, 2, 4, 8
_LABEL_SETS = tuple(
    frozenset(c for bit, c in enumerate(RetentionCategory) if mask >> bit & 1)
    for mask in range(16)
)


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


class RetainedShape(namedtuple("RetainedShape", "shape count source diagnosis")):
    """A retained shape with its number of episodes, the id of its first,
    and, for a failure, its `diagnose`, made once when the record is built,
    for its proposal and its family's diagnostic artifact (None for a
    success).  Built as `RetainedShape(shape, count, source)`."""

    __slots__ = ()

    def __new__(cls, shape: TraceShape, count: int, source: str) -> "RetainedShape":
        diagnosis = diagnose(shape) if shape.outcome == 0 else None
        return tuple.__new__(cls, (shape, count, source, diagnosis))


def _observed_cause(shape: TraceShape) -> CauseLabel:
    obs = shape.latent_cause_observation
    return obs.cause if obs is not None else CauseLabel.UNKNOWN


def failure_counts(tally: Iterable[tuple[TraceShape, int]]) -> Counter[tuple[str, CauseLabel]]:
    """Failed episodes per (task id, observed cause), over (shape, count) pairs."""
    counts: Counter[tuple[str, CauseLabel]] = Counter()
    for shape, count in tally:
        if shape.outcome == 0:
            key = shape.task_type.id, _observed_cause(shape)
            counts[key] = counts.get(key, 0) + count
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
    where a routed executor's pre-round estimate was still weak (at least
    one attempt, value below `low_estimate`); (d) retrieval/execution
    mismatches, any slice that selected more than it used.  `q_exec_prior`
    is the pre-round executor table, so rule (c) reads the estimate the
    router acted on.  Equal label sets are one shared frozenset.
    """
    failure_keys = failure_counts(tally)
    if prior_failure_counts:
        for key, count in prior_failure_counts.items():
            failure_keys[key] += count
    repeat, near_miss = config.repeat_multiplicity, config.near_miss_progress
    low_estimate, prior = config.low_estimate, q_exec_prior.counts
    labels: list[frozenset[RetentionCategory]] = []
    for shape, _ in tally:
        task_id = shape.task_type.id
        mask = 0
        if shape.outcome == 0:
            if failure_keys[task_id, _observed_cause(shape)] >= repeat:
                mask |= _REPEATED_FAILURE
            if shape.progress >= near_miss:
                mask |= _NEAR_MISS
        elif pooled_used(shape, library) or any(
            (entry := prior.get((sl.executor, task_id))) is not None
            and entry[1] >= 1
            and ratio(*entry) < low_estimate
            for sl in shape.slices
        ):
            mask |= _REUSABLE_SUCCESS
        for sl in shape.slices:
            # used skills are a subset of the selected ones, so the sizes
            # tell whether the slice selected a skill it did not use
            if sl.selected and len(sl.selected) > len(used_skills(sl)):
                mask |= _RETRIEVAL_MISMATCH
                break
        labels.append(_LABEL_SETS[mask])
    return labels
