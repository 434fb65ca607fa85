"""Utility learning: trace-grounded credit assignment and utility-driven selection.

Credit is conservative: a skill earns an attempt only when it was invoked or
pattern-supported in an executor slice, and an executor earns an attempt
only when it actually holds a slice in the episode.  Merely retrieved skills
get nothing.  Credit adds exact (successes, attempts) counts.
"""

from __future__ import annotations

from collections import Counter
from typing import Container, Iterable, Mapping, NamedTuple, Sequence

from .model import (
    Batch,
    Executor,
    ExecutorSlice,
    Pair,
    Skill,
    SkillStatus,
    StateError,
    TraceShape,
    UtilityTable,
)


def used_skills(sl: ExecutorSlice) -> frozenset[str]:
    """Skills that actually participated in the slice: invoked or pattern-supported."""
    return sl.invoked | sl.pattern_supported


def pooled_used(shape: TraceShape, library: Mapping[str, Skill]) -> bool:
    """Whether a pooled skill of `library` took part in some slice of `shape`."""
    return any(
        sid in library and library[sid].status is SkillStatus.POOLED
        for sl in shape.slices
        for sid in used_skills(sl)
    )


def learn(
    q_skill: UtilityTable,
    q_exec: UtilityTable,
    batch: Batch,
    *,
    known_skills: Iterable[str] | None = None,
    known_executors: Iterable[str] | None = None,
) -> tuple[UtilityTable, UtilityTable]:
    """Add a round's batch to fresh skill and executor utility tables.

    Each credit key of a table entry seen k times gains (outcome x k, k),
    so the result depends only on `batch.tally()`, not on the episodes'
    order.  A key is credited once per executor that used it: a skill used
    in two executors' slices of one episode gains two attempts.  Entries
    never touched stay as they were.  The membership checks run once per
    table entry, in table order: the first shape with an unknown id is the
    shape of the first episode that has one, and the error names that
    episode.
    """
    skill_ids = frozenset(known_skills) if known_skills is not None else None
    executor_ids = frozenset(known_executors) if known_executors is not None else None
    s_counts = dict(q_skill.counts)
    a_counts = dict(q_exec.counts)
    for k, (shape, seen) in enumerate(batch.tally()):
        if not seen:  # a table entry that no episode takes credits nothing
            continue
        won = shape.outcome * seen
        skill_keys, executor_keys = _credit_keys(batch, k, skill_ids, executor_ids)
        for counts, keys in ((s_counts, skill_keys), (a_counts, executor_keys)):
            for key in keys:
                successes, attempts = counts.get(key, (0, 0))
                counts[key] = (successes + won, attempts + seen)
    return UtilityTable(s_counts), UtilityTable(a_counts)


def _credit_keys(
    batch: Batch,
    k: int,
    skill_ids: frozenset[str] | None,
    executor_ids: frozenset[str] | None,
) -> tuple[list, list]:
    """Table entry k's skill and executor credit keys (executors by first
    appearance, each one's used skills by id)."""
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
        used_by[sl.executor] = used_by.get(sl.executor, frozenset()) | used_skills(sl)
    task_id = shape.task_type.id
    skill_keys = [(sid, task_id) for used in used_by.values() for sid in sorted(used)]
    return skill_keys, [(eid, task_id) for eid in used_by]


def skills_by_task(
    library: Mapping[str, Skill], owned: Counter[str] | None = None
) -> dict[str, list[Skill]]:
    """The skills applicable to each task id, in library order.

    One pass over the library; a skill appears once under every task id
    its applicability names.  Given `owned`, the same pass also counts
    each owner's skills into it.
    """
    by_task: dict[str, list[Skill]] = {}
    for skill in library.values():
        if owned is not None:
            owned[skill.owner] += 1
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
    value = q_skill.value
    ranked = sorted(
        (s for s in candidates if s.owner in owners),
        key=lambda s: (-value(s.id, task_id), s.id),
    )
    chosen = [s.id for s in ranked[:k]]
    for s in ranked:
        if s.status is SkillStatus.POOLED and s.id not in chosen:
            chosen.append(s.id)  # one pooled exposure per phase
            break
    return chosen


class Route(NamedTuple):
    """The routing candidates of one (task, phase) pair under a fixed state.

    `executor_route` builds a route only for a pair some executor covers, so
    `eligible` is never empty.
    """

    eligible: tuple[str, ...]  # covering executors, sorted by id
    greedy: str  # highest executor utility, smallest id on ties


def covering_ids(executors: Mapping[str, Executor]) -> dict[Pair, list[str]]:
    """The covering index: each covered pair's executor ids, sorted, from one
    pass over the executors."""
    covering: dict[Pair, list[str]] = {}
    for eid in sorted(executors):
        for pair in executors[eid].boundary:
            covering.setdefault(pair, []).append(eid)
    return covering


def executor_route(
    q_exec: UtilityTable,
    task_id: str,
    phase: str,
    covering: Mapping[Pair, Sequence[str]],
) -> Route:
    """The pair's route over its ids in `covering`, a state's `covering_ids`.
    A pair that no executor covers is a `StateError`, which `validate_state`
    rules out for the scenario's universe.  One pass reads each eligible
    id's value once and keeps the highest, the smallest id on ties, in
    whatever order the ids come."""
    eligible = tuple(covering.get((task_id, phase), ()))
    if not eligible:
        raise StateError(f"no executor covers ({task_id}, {phase})")
    value = q_exec.value
    greedy, best = eligible[0], value(eligible[0], task_id)
    for eid in eligible[1:]:
        v = value(eid, task_id)
        if v > best or v == best and eid < greedy:
            greedy, best = eid, v
    return Route(eligible, greedy)
