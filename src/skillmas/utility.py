"""Utility learning: trace-grounded credit assignment and utility-driven selection.

Credit is conservative: a skill earns an update only when it was invoked or
pattern-supported in an executor slice, and an executor earns an update only
when it actually holds a slice in the episode.  Merely retrieved skills get
nothing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Container, Iterable, Mapping, Sequence

from .model import (
    EpisodeTrace,
    Executor,
    ExecutorSlice,
    RoundState,
    Skill,
    SkillStatus,
    StateError,
    TraceShape,
    UtilityTable,
)
from .numfmt import q12


def used_skills(sl: ExecutorSlice) -> frozenset[str]:
    """Skills that actually participated in the slice: invoked or pattern-supported."""
    return sl.invoked | sl.pattern_supported


def step_size(count: int) -> float:
    """Count-based update rate 1/(1+N); unseen entries get a full overwrite."""
    if count < 0:
        raise ValueError("update count cannot be negative")
    return 1.0 / (1.0 + count)


def mc_update(entry: tuple[float, int] | None, outcome: int) -> tuple[float, int]:
    """One Monte Carlo update of a (value, count) entry toward a binary outcome."""
    value, count = entry if entry is not None else (0.0, 0)
    alpha = step_size(count)
    return q12(value + alpha * (outcome - value)), count + 1


def learn(
    q_skill: UtilityTable,
    q_exec: UtilityTable,
    traces: Sequence[EpisodeTrace],
    *,
    known_skills: Iterable[str] | None = None,
    known_executors: Iterable[str] | None = None,
) -> tuple[UtilityTable, UtilityTable]:
    """Fold a round's traces into fresh skill and executor utility tables.

    Traces are folded in the order given, which is generation order for
    `exec_round`'s batch: episode i at index i.  Entries never touched stay
    bit-identical; touched entries move toward the episode outcome at the
    count-based rate, which makes each value the exact running mean of the
    outcomes applied to it.  The membership checks and the ordered credit
    keys depend only on a trace's shape, so they are derived once per shape
    and applied per trace in order.
    """
    skill_ids = frozenset(known_skills) if known_skills is not None else None
    executor_ids = frozenset(known_executors) if known_executors is not None else None

    s_entries = dict(q_skill.entries)
    a_entries = dict(q_exec.entries)
    credit: dict[TraceShape, tuple[list, list]] = {}
    for trace in traces:
        shape = trace.shape
        keys = credit.get(shape)
        if keys is None:
            keys = credit[shape] = _credit_keys(trace, skill_ids, executor_ids)
        skill_keys, executor_keys = keys
        outcome = shape.outcome
        for key in skill_keys:
            s_entries[key] = mc_update(s_entries.get(key), outcome)
        for key in executor_keys:
            a_entries[key] = mc_update(a_entries.get(key), outcome)

    return UtilityTable(s_entries), UtilityTable(a_entries)


def _credit_keys(
    trace: EpisodeTrace,
    skill_ids: frozenset[str] | None,
    executor_ids: frozenset[str] | None,
) -> tuple[list, list]:
    """The trace's skill and executor credit keys, in update order:
    executors by first appearance, each one's used skills by id."""
    used_by: dict[str, frozenset[str]] = {}
    for sl in trace.shape.slices:
        if executor_ids is not None and sl.executor not in executor_ids:
            raise StateError(f"trace {trace.episode_id} routes unknown executor {sl.executor!r}")
        if skill_ids is not None and not sl.selected <= skill_ids:
            unknown = sorted(sl.selected - skill_ids)
            raise StateError(f"trace {trace.episode_id} references unknown skills {unknown}")
        used = used_by.get(sl.executor)
        used_by[sl.executor] = used_skills(sl) if used is None else used | used_skills(sl)
    task_id = trace.shape.task_type.id
    skill_keys = []
    executor_keys = []
    for executor_id, used in used_by.items():
        for skill_id in sorted(used):
            skill_keys.append((skill_id, task_id))
        executor_keys.append((executor_id, task_id))
    return skill_keys, executor_keys


def skills_by_task(library: Mapping[str, Skill]) -> dict[str, list[Skill]]:
    """The non-pruned skills applicable to each task id, in library order.

    One pass over the library; a skill appears once under every task id
    its applicability names.
    """
    by_task: dict[str, list[Skill]] = {}
    for skill in library.values():
        if skill.status is not SkillStatus.PRUNED:
            for task_id in {pair[0] for pair in skill.applicability}:
                by_task.setdefault(task_id, []).append(skill)
    return by_task


def rank_skills(
    q_skill: UtilityTable,
    candidates: Iterable[Skill],
    owners: Container[str],
    task_id: str,
    k: int,
) -> list[str]:
    """Retrieval over one task's candidates: the top k by utility, then one
    pooled exposure.

    Only candidates owned by one of `owners` compete.  Ranking is by skill
    utility (unseen entries rank at the 0.5 prior) with lexicographic
    tie-breaks.  At most one pooled skill is appended beyond the top k so
    the validation pool keeps accumulating usage evidence.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    ranked = sorted(
        (s for s in candidates if s.owner in owners),
        key=lambda s: (-q_skill.value(s.id, task_id), s.id),
    )
    chosen = [s.id for s in ranked[:k]]
    for s in ranked:
        if s.status is SkillStatus.POOLED and s.id not in chosen:
            chosen.append(s.id)  # one pooled exposure per phase
            break
    return chosen


def select_skills(
    q_skill: UtilityTable,
    state: RoundState,
    task_id: str,
    phase: str,
    executor: Executor | str,
    k: int,
) -> list[str]:
    """Task-conditioned skill retrieval for one phase.

    Candidates are the non-pruned skills applicable to the task type and
    owned by the routed executor or the manager; retrieval is task-wide, and
    only skills whose applicability covers the exact phase end up invoked.
    This is the per-call form of what `ExecutionTable` fills from its
    round-scoped index; both rank through `rank_skills`.
    """
    executor_id = executor.id if isinstance(executor, Executor) else executor
    owners = {executor_id, state.manager_id()}
    candidates = skills_by_task(state.library).get(task_id, ())
    return rank_skills(q_skill, candidates, owners, task_id, k)


@dataclass(frozen=True)
class Route:
    """The routing candidates of one (task, phase) pair under a fixed state.

    `executor_route` builds a route only for a pair some executor covers, so
    `eligible` is never empty.
    """

    eligible: tuple[str, ...]  # covering executors, sorted by id
    greedy: str  # highest executor utility, smallest id on ties

    def draw(self, rng: random.Random, epsilon: float) -> str:
        """Greedy with epsilon exploration."""
        if rng.random() < epsilon:
            return self.eligible[rng.randrange(len(self.eligible))]
        return self.greedy


def executor_route(
    q_exec: UtilityTable, state: RoundState, task_id: str, phase: str
) -> Route:
    """The pair's route; a pair that no executor covers is a `StateError`,
    which `validate_state` rules out for the scenario's universe."""
    eligible = tuple(
        sorted(e.id for e in state.executors.values() if e.covers((task_id, phase)))
    )
    if not eligible:
        raise StateError(f"no executor covers ({task_id}, {phase})")
    greedy = min(eligible, key=lambda eid: (-q_exec.value(eid, task_id), eid))
    return Route(eligible, greedy)
