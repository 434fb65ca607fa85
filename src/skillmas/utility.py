"""Utility learning: trace-grounded credit assignment and utility-driven selection.

Credit is conservative: a skill earns an update only when it was invoked or
pattern-supported in an executor slice, and an executor earns an update only
when it actually holds a slice in the episode.  Merely retrieved skills get
nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Container, Iterable, Mapping

from .model import (
    Batch,
    ExecutorSlice,
    RoundState,
    Skill,
    SkillStatus,
    StateError,
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
    batch: Batch,
    *,
    known_skills: Iterable[str] | None = None,
    known_executors: Iterable[str] | None = None,
) -> tuple[UtilityTable, UtilityTable]:
    """Fold a round's batch into fresh skill and executor utility tables.

    Episodes are folded in generation order, the order of `batch.index`.
    Entries never touched stay bit-identical; touched entries move toward
    the episode outcome at the count-based rate, which makes each value the
    exact running mean of the outcomes applied to it.  The membership
    checks and the ordered credit keys depend only on a shape, so they are
    derived once per table entry, in table order: the first shape with an
    unknown id is the shape of the first episode that has one, and the
    error names that episode.
    """
    skill_ids = frozenset(known_skills) if known_skills is not None else None
    executor_ids = frozenset(known_executors) if known_executors is not None else None
    credit = [_credit_keys(batch, k, skill_ids, executor_ids) for k in range(len(batch.shapes))]

    s_entries = dict(q_skill.entries)
    a_entries = dict(q_exec.entries)
    for k in batch.index:
        skill_keys, executor_keys, outcome = credit[k]
        for key in skill_keys:
            s_entries[key] = mc_update(s_entries.get(key), outcome)
        for key in executor_keys:
            a_entries[key] = mc_update(a_entries.get(key), outcome)

    return UtilityTable(s_entries), UtilityTable(a_entries)


def _credit_keys(
    batch: Batch,
    k: int,
    skill_ids: frozenset[str] | None,
    executor_ids: frozenset[str] | None,
) -> tuple[list, list, int]:
    """Table entry k's skill and executor credit keys, in update order
    (executors by first appearance, each one's used skills by id), and its
    outcome."""
    shape = batch.shapes[k]
    used_by: dict[str, frozenset[str]] = {}
    for sl in shape.slices:
        problem = None
        if executor_ids is not None and sl.executor not in executor_ids:
            problem = f"routes unknown executor {sl.executor!r}"
        elif skill_ids is not None and not sl.selected <= skill_ids:
            problem = f"references unknown skills {sorted(sl.selected - skill_ids)}"
        if problem is not None:
            raise StateError(f"trace {batch.episode_id(batch.index.index(k))} {problem}")
        used = used_by.get(sl.executor)
        used_by[sl.executor] = used_skills(sl) if used is None else used | used_skills(sl)
    task_id = shape.task_type.id
    skill_keys = []
    executor_keys = []
    for executor_id, used in used_by.items():
        for skill_id in sorted(used):
            skill_keys.append((skill_id, task_id))
        executor_keys.append((executor_id, task_id))
    return skill_keys, executor_keys, shape.outcome


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


@dataclass(frozen=True)
class Route:
    """The routing candidates of one (task, phase) pair under a fixed state.

    `executor_route` builds a route only for a pair some executor covers, so
    `eligible` is never empty.
    """

    eligible: tuple[str, ...]  # covering executors, sorted by id
    greedy: str  # highest executor utility, smallest id on ties


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
