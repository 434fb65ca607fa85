"""Per-shape round stages against the per-episode references.

`learn`, `update_pool_counters`, `retain` and `collect_proposals` read a
batch's shape table once per entry, with no memo, and `build_artifacts`
reads their output.  The per-episode references in `reference.py` are the
rules they replace; on random worlds both must agree exactly, on batches
whose episodes share shape objects (as executed), carry fresh shapes equal
to an executed one (sharing its field objects, or copies that share no
object with the engine's), succeed with `outcome=True`, and fail with
causes observed with `confident` as 1 or `True`.  The engine proposes once
per retained shape, the reference once per retained episode: the proposals
of each shape's first episode are the engine's, and both lists consolidate
into one `SkillDelta`.
"""
from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

import skillmas.orchestrator as orchestrator
from skillmas.evolution import proposal_index, propose, skill_evolve, update_pool_counters
from skillmas.model import (
    CauseLabel,
    CauseObservation,
    ExecutorSlice,
    StateError,
    TaskType,
    TraceShape,
)
from skillmas.numfmt import q12
from skillmas.orchestrator import collect_proposals
from skillmas.restructure import build_artifacts
from skillmas.retention import retain
from skillmas.utility import learn
from skillmas.world import exec_round

from conftest import batch_of, retained_shapes
from reference import (
    episodes_of,
    reference_artifacts,
    reference_learn,
    reference_pool_counters,
    reference_proposals,
    reference_retain,
)
from test_round_index import random_world

# ------------------------------------------------------------------- batches

CONFIDENT = (True, 1, False, 0)
PROGRESS = (0.0, 0.25, 0.5, q12(1 / 3), 0.75)


def fresh_copy(shape):
    """An equal shape that shares no task, slice, skill set or cause object
    with `shape`."""
    obs = shape.latent_cause_observation
    return TraceShape(
        TaskType(shape.task_type.id, tuple([*shape.task_type.phases])),
        tuple(
            ExecutorSlice(
                sl.executor, sl.phase, frozenset([*sl.selected]), frozenset([*sl.invoked]),
                frozenset([*sl.pattern_supported]),
            )
            for sl in shape.slices
        ),
        shape.outcome,
        shape.progress,
        None if obs is None else CauseObservation(obs.cause, obs.confident),
    )


def varied_batch(state, scenario, config, seed, n_episodes):
    """Executed episodes (shared shapes) interleaved with repeats of an
    executed or copied shape, fresh shapes equal to one (same field objects,
    or equal but distinct slices), `True` outcomes, and failures whose cause,
    `confident` flag and progress vary over the same slices."""
    rng = random.Random(seed)
    executed = exec_round(state, scenario, n_episodes, seed, config)

    labels = [CauseLabel.UNKNOWN, CauseLabel.MISSING_PRECONDITION, CauseLabel.SKILL_CONFLICT]
    shapes = []
    for k in executed.index:
        shape = executed.shapes[k]
        twin = fresh_copy(shape)
        shapes.append(shape)
        for _ in range(rng.randint(0, 2)):
            base = rng.choice((shape, twin))
            if rng.random() < 0.25:
                shapes.append(base)  # the same shape object again
                continue
            slices = base.slices
            if rng.random() < 0.3:
                slices = tuple(dataclasses.replace(sl) for sl in slices)
            varied = dataclasses.replace(base, slices=slices)  # fresh, equal
            if varied.outcome == 1:
                if rng.random() < 0.5:
                    varied = dataclasses.replace(varied, outcome=True)
            elif rng.random() < 0.7:
                obs = varied.latent_cause_observation
                cause = obs.cause if obs is not None and rng.random() < 0.5 else rng.choice(labels)
                varied = dataclasses.replace(
                    varied,
                    progress=rng.choice(PROGRESS),
                    latent_cause_observation=(
                        None if rng.random() < 0.1
                        else CauseObservation(cause, rng.choice(CONFIDENT))
                    ),
                )
            shapes.append(varied)
    return batch_of(shapes)


# -------------------------------------------------------------------- tests


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(10, 80))
def test_round_stages_match_per_trace_references(world_seed, n_episodes):
    scenario, state, config = random_world(random.Random(world_seed))
    rng = random.Random(world_seed ^ 0xABC)
    config = config.replace(
        repeat_multiplicity=rng.randint(1, 4), near_miss_progress=rng.choice((0.0, 0.3, 0.5))
    )
    batch = varied_batch(state, scenario, config, world_seed, n_episodes)
    episodes = episodes_of(batch)
    tally = batch.tally()

    q_skill, q_exec = learn(
        state.q_skill, state.q_exec, batch,
        known_skills=state.library, known_executors=state.executors,
    )
    want_skill, want_exec = reference_learn(
        state.q_skill, state.q_exec, episodes,
        known_skills=state.library, known_executors=state.executors,
    )
    assert q_skill == want_skill and q_exec == want_exec
    assert q_skill.entries == want_skill.entries and q_exec.entries == want_exec.entries

    pool = update_pool_counters(state.pool, tally)
    want_pool = reference_pool_counters(state.pool, episodes)
    assert pool == want_pool and repr(sorted(pool.items())) == repr(sorted(want_pool.items()))

    prior = (
        {(t.id, c): rng.randint(0, 2) for t in scenario.task_types for c in CauseLabel}
        if rng.random() < 0.5 else None
    )
    labels = retain(tally, state.q_exec, config, state.library, prior_failure_counts=prior)
    want_retained = reference_retain(
        episodes, state.q_exec, config, state.library, prior_failure_counts=prior
    )
    assert [
        (batch.episode_id(i), labels[k]) for i, k in enumerate(batch.index) if labels[k]
    ] == [(kept.episode.episode_id, kept.categories) for kept in want_retained]
    retained = retained_shapes(batch, labels)

    index = proposal_index(scenario, state.library, config)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return propose(*args, **kwargs)

    orchestrator_propose = orchestrator.propose
    orchestrator.propose = counted
    try:
        proposals = collect_proposals(retained, state, config, index)
    finally:
        orchestrator.propose = orchestrator_propose
    assert calls == retained  # once per retained shape, in table order
    want_proposals = reference_proposals(want_retained, state, config, index)
    firsts = {batch.episode_id(i) for i in batch.firsts()}
    assert proposals == [p for p in want_proposals if p.source_trace in firsts]

    delta = skill_evolve(proposals, state.library, state.policy_index, q_skill, config, index)
    want_delta = skill_evolve(
        want_proposals, state.library, state.policy_index, q_skill, config, index
    )
    assert delta == want_delta
    assert build_artifacts(retained, q_exec, delta) == reference_artifacts(
        want_retained, q_exec, want_delta
    )


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(10, 60), st.data())
def test_unknown_ids_name_the_first_offender(world_seed, n_episodes, data):
    scenario, state, config = random_world(random.Random(world_seed))
    batch = varied_batch(state, scenario, config, world_seed, n_episodes)
    used = sorted({sid for shape in batch.shapes for sl in shape.slices for sid in sl.selected})
    routed = sorted({sl.executor for shape in batch.shapes for sl in shape.slices})
    if not used or not routed:
        return
    dropped_skill = data.draw(st.sampled_from(used))
    dropped_executor = data.draw(st.sampled_from(routed + [None]))
    known_skills = set(state.library) - {dropped_skill}
    known_executors = set(state.executors) - {dropped_executor}

    with pytest.raises(StateError) as got:
        learn(state.q_skill, state.q_exec, batch,
              known_skills=known_skills, known_executors=known_executors)
    with pytest.raises(StateError) as want:
        reference_learn(state.q_skill, state.q_exec, episodes_of(batch),
                        known_skills=known_skills, known_executors=known_executors)
    assert str(got.value) == str(want.value)
