"""Per-call references for the engine's round-scoped indexes.

The engine builds each rule's inputs once per round (`world.ExecutionTable`,
`streams.episode_streams`) and applies the rule through one shared function.
Each function here rebuilds those inputs for a single call and applies the
same rule, so a test can compare the indexed engine against it call by call.
No engine code calls them.
"""

from __future__ import annotations

import random
from typing import Iterable, Mapping, Sequence

from skillmas.model import (
    CauseLabel,
    Executor,
    Pair,
    RoundState,
    Skill,
    StateError,
    TaskType,
    UtilityTable,
)
from skillmas.streams import derive_seed
from skillmas.utility import rank_skills, skills_by_task
from skillmas.world import (
    Scenario,
    SuccessTerms,
    _deficit,
    _success_prob,
    _terms,
    latents_by_pair,
    overload_excess,
)


def substream(*parts: int | str) -> random.Random:
    """A fresh generator seeded from the label path.

    Reseeding one generator with `rng.seed(derive_seed(*parts))` gives the
    same state, `gauss` cache included, without building a new object.
    """
    return random.Random(derive_seed(*parts))


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


def success_terms(
    scenario: Scenario,
    library: Mapping[str, Skill],
    pair: Pair,
    executor: Executor,
    used_skill_ids: Iterable[str],
) -> SuccessTerms:
    """The terms that both the success probability and the dominant deficit read."""
    used = []
    for skill_id in used_skill_ids:
        skill = library.get(skill_id)
        if skill is None:
            raise StateError(f"used skill {skill_id!r} is not in the library")
        used.append(skill)
    latents = latents_by_pair(scenario.latent_catalog).get(pair, ())
    return _terms(latents, used, overload_excess(executor, library))


def ground_truth_success_prob(
    scenario: Scenario,
    library: Mapping[str, Skill],
    task_id: str,
    phase: str,
    executor: Executor,
    used_skill_ids: Iterable[str],
) -> float:
    """Phase success probability under the additive-logit ground truth
    (`_success_prob`), recomputing its terms from the library."""
    pair = (task_id, phase)
    if not executor.covers(pair):
        raise StateError(f"executor {executor.id!r} routed outside its boundary {pair}")
    terms = success_terms(scenario, library, pair, executor, used_skill_ids)
    return _success_prob(scenario, pair, terms)


def _dominant_deficit(
    scenario: Scenario,
    library: Mapping[str, Skill],
    executor: Executor,
    task_id: str,
    phase: str,
    used_ids: frozenset[str],
) -> tuple[CauseLabel, float] | None:
    """`_deficit` with its terms recomputed from the library."""
    terms = success_terms(scenario, library, (task_id, phase), executor, used_ids)
    return _deficit(scenario, terms)


def _weighted_choice(
    rng: random.Random, tasks: Sequence[TaskType], weights: Mapping[str, float]
) -> TaskType:
    """Linear-scan reference for `ExecutionTable.task_at(rng.random())`."""
    total = sum(weights[t.id] for t in tasks)
    mark = rng.random() * total
    acc = 0.0
    for task in tasks:
        acc += weights[task.id]
        if mark < acc:
            return task
    return tasks[-1]
