"""Evidence retention: filter a round's traces into the adaptation-relevant subset.

The filter is a fixed rule set, not a learned controller.  A trace can carry
several category labels but appears at most once, and the output is always a
subset of the input by identity.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Sequence

from .config import EngineConfig
from .model import CauseLabel, EpisodeTrace, Skill, SkillStatus, UtilityTable
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


def _observed_cause(trace: EpisodeTrace) -> CauseLabel:
    obs = trace.latent_cause_observation
    return obs.cause if obs is not None else CauseLabel.UNKNOWN


def failure_counts(traces: Iterable[EpisodeTrace]) -> Counter[tuple[str, CauseLabel]]:
    """Failed traces per (task id, observed cause)."""
    return Counter(
        (trace.task_type.id, _observed_cause(trace))
        for trace in traces
        if trace.outcome == 0
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

    def label(trace: EpisodeTrace) -> frozenset[RetentionCategory]:
        categories: set[RetentionCategory] = set()
        task_id = trace.task_type.id

        if trace.outcome == 0:
            key = (task_id, _observed_cause(trace))
            if failure_keys[key] >= config.repeat_multiplicity:
                categories.add(RetentionCategory.REPEATED_FAILURE)
            if trace.progress >= config.near_miss_progress:
                categories.add(RetentionCategory.NEAR_MISS)
        else:
            pooled_used = any(
                library[sid].status is SkillStatus.POOLED
                for sl in trace.slices
                for sid in used_skills(sl)
                if sid in library
            )
            weak_executor = any(
                q_exec_prior.count(eid, task_id) >= 1
                and q_exec_prior.value(eid, task_id) < config.low_estimate
                for eid in trace.executors()
            )
            if pooled_used or weak_executor:
                categories.add(RetentionCategory.REUSABLE_SUCCESS)

        if any(sl.selected - used_skills(sl) for sl in trace.slices):
            categories.add(RetentionCategory.RETRIEVAL_MISMATCH)
        return frozenset(categories)

    # The labels read only the task id, the failure flag, the observed
    # cause, the near-miss flag and the slices; the failure counts and the
    # tables stay fixed during the call.  Each value holds its trace's
    # slices, so no id in a key is reused while the call runs.
    labels: dict[tuple, tuple] = {}
    retained: list[RetainedTrace] = []
    for trace in traces:
        failed = trace.outcome == 0
        shape = (
            trace.task_type.id,
            failed,
            _observed_cause(trace),
            failed and trace.progress >= config.near_miss_progress,
            id(trace.slices),
        )
        entry = labels.get(shape)
        if entry is None:
            entry = labels[shape] = (trace.slices, label(trace))
        if entry[1]:
            retained.append(RetainedTrace(trace, entry[1]))
    return retained
