"""Evidence retention: filter a round's traces into the adaptation-relevant subset.

The filter is a fixed rule set, not a learned controller.  A trace can carry
several category labels but appears at most once, and the output is always a
subset of the input by identity.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Sequence

from .config import EngineConfig
from .model import CauseLabel, EpisodeTrace, Skill, SkillStatus, TraceShape, UtilityTable
from .utility import used_skills


class RetentionCategory(str, Enum):
    REPEATED_FAILURE = "repeated-failure"
    NEAR_MISS = "near-miss"
    REUSABLE_SUCCESS = "reusable-success"
    RETRIEVAL_MISMATCH = "retrieval-mismatch"


@dataclass(frozen=True)
class RetainedTrace:
    trace: EpisodeTrace
    categories: frozenset[RetentionCategory]


def _observed_cause(shape: TraceShape) -> CauseLabel:
    obs = shape.latent_cause_observation
    return obs.cause if obs is not None else CauseLabel.UNKNOWN


def failure_counts(traces: Iterable[EpisodeTrace]) -> Counter[tuple[str, CauseLabel]]:
    """Failed traces per (task id, observed cause)."""
    return Counter(
        (trace.shape.task_type.id, _observed_cause(trace.shape))
        for trace in traces
        if trace.shape.outcome == 0
    )


def retain(
    traces: Sequence[EpisodeTrace],
    q_exec_prior: UtilityTable,
    config: EngineConfig,
    library: Mapping[str, Skill],
    *,
    prior_failure_counts: Mapping[tuple[str, CauseLabel], int] | None = None,
) -> list[RetainedTrace]:
    """Label and keep the traces worth adapting on.

    Rules: (a) repeated failures sharing a (task type, observed cause) key at
    the configured multiplicity — within the round by default, with
    cross-round history folded in when provided; (b) near misses by progress;
    (c) reusable successes, either exercising a pooled skill or succeeding
    where the routed executor's pre-round estimate was still weak;
    (d) retrieval/execution mismatches, any slice that selected more than it
    used.  `q_exec_prior` is the pre-round executor table, so rule (c) reads
    the estimate the router acted on.
    """
    failure_keys = failure_counts(traces)
    if prior_failure_counts:
        for key, count in prior_failure_counts.items():
            failure_keys[key] += count

    # The labels read only the trace's shape, which hashes by identity; the
    # failure counts and the tables stay fixed during the call.
    @functools.cache
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
            pooled_used = any(
                library[sid].status is SkillStatus.POOLED
                for sl in shape.slices
                for sid in used_skills(sl)
                if sid in library
            )
            weak_executor = any(
                q_exec_prior.count(eid, task_id) >= 1
                and q_exec_prior.value(eid, task_id) < config.low_estimate
                for eid in shape.executors()
            )
            if pooled_used or weak_executor:
                categories.add(RetentionCategory.REUSABLE_SUCCESS)

        if any(sl.selected - used_skills(sl) for sl in shape.slices):
            categories.add(RetentionCategory.RETRIEVAL_MISMATCH)
        return frozenset(categories)

    return [
        RetainedTrace(trace, categories)
        for trace in traces
        if (categories := label(trace.shape))
    ]
