"""Per-shape round stages against per-trace reference loops.

`learn`, `update_pool_counters`, `retain` and `collect_proposals` derive
what depends only on a trace's `TraceShape` once per shape object, and
`build_artifacts` reads their output.  The loops below are the per-trace
rules they replace; on random worlds both must agree exactly, on traces
that share shape objects (as executed), carry fresh shapes equal to an
executed one (sharing its field objects, or copies that share no object
with the engine's), succeed with `outcome=True`, and fail with causes
observed with `confident` as 1 or `True`.
"""

from __future__ import annotations

import dataclasses
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import skillmas.orchestrator as orchestrator
from skillmas.evolution import (
    diagnose,
    proposal_index,
    propose,
    retrieve_policy_cards,
    skill_evolve,
    update_pool_counters,
)
from skillmas.model import (
    BoundedTag,
    CauseLabel,
    CauseObservation,
    ExecutorSlice,
    SkillStatus,
    StateError,
    TaskType,
    TraceShape,
    UtilityTable,
)
from skillmas.numfmt import q12
from skillmas.orchestrator import collect_proposals
from skillmas.restructure import (
    DiagnosticArtifact,
    ExecutorEvidence,
    build_artifacts,
)
from skillmas.retention import RetainedTrace, RetentionCategory, retain
from skillmas.utility import learn, mc_update, used_skills
from skillmas.world import exec_round

from test_round_index import random_world

# ---------------------------------------------------------------- references


def reference_learn(q_skill, q_exec, traces, *, known_skills=None, known_executors=None):
    skill_ids = frozenset(known_skills) if known_skills is not None else None
    executor_ids = frozenset(known_executors) if known_executors is not None else None
    s_entries = dict(q_skill.entries)
    a_entries = dict(q_exec.entries)
    for trace in traces:  # already in generation order
        shape = trace.shape
        task_id = shape.task_type.id
        used_by = {}
        for sl in shape.slices:
            if executor_ids is not None and sl.executor not in executor_ids:
                raise StateError(f"trace {trace.episode_id} routes unknown executor {sl.executor!r}")
            if skill_ids is not None and not sl.selected <= skill_ids:
                unknown = sorted(sl.selected - skill_ids)
                raise StateError(f"trace {trace.episode_id} references unknown skills {unknown}")
            used_by.setdefault(sl.executor, set()).update(used_skills(sl))
        for executor_id in shape.executors():
            for skill_id in sorted(used_by[executor_id]):
                key = (skill_id, task_id)
                s_entries[key] = mc_update(s_entries.get(key), shape.outcome)
        for executor_id in shape.executors():
            key = (executor_id, task_id)
            a_entries[key] = mc_update(a_entries.get(key), shape.outcome)
    return UtilityTable(s_entries), UtilityTable(a_entries)


def reference_pool_counters(pool, traces):
    new_pool = dict(pool)
    for trace in traces:
        used_all = set()
        for sl in trace.shape.slices:
            used_all.update(used_skills(sl))
        for sid in sorted(used_all):
            if sid in new_pool:
                uses, successes = new_pool[sid]
                new_pool[sid] = (uses + 1, successes + trace.shape.outcome)
    return new_pool


def observed_cause(shape):
    obs = shape.latent_cause_observation
    return obs.cause if obs is not None else CauseLabel.UNKNOWN


def reference_retain(traces, q_exec_prior, config, library, *, prior_failure_counts=None):
    failure_keys = Counter()
    for trace in traces:
        if trace.shape.outcome == 0:
            failure_keys[(trace.shape.task_type.id, observed_cause(trace.shape))] += 1
    for key, count in (prior_failure_counts or {}).items():
        failure_keys[key] += count
    retained = []
    for trace in traces:
        shape = trace.shape
        categories = set()
        task_id = shape.task_type.id
        if shape.outcome == 0:
            if failure_keys[(task_id, observed_cause(shape))] >= config.repeat_multiplicity:
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
        if categories:
            retained.append(RetainedTrace(trace, frozenset(categories)))
    return retained


def reference_proposals(retained, state, config, index):
    proposals = []
    for rt in retained:
        if rt.trace.shape.outcome == 0:
            diagnosis = diagnose(rt)
            cards = retrieve_policy_cards(
                state.policy_index, rt.trace.shape.task_type.id, diagnosis.cause
            )
        else:
            diagnosis, cards = None, ()
        proposal = propose(rt, diagnosis, cards, state.library, state.round_index, config, index)
        if proposal is not None:
            proposals.append(proposal)
    return proposals


def reference_artifacts(retained, q_exec_plus, skill_delta):
    addressed = skill_delta.source_traces()
    failures = {}
    for rt in retained:
        if rt.trace.shape.outcome == 0:
            failures.setdefault(rt.trace.shape.task_type.id, []).append(rt)
    artifacts = []
    for task_id in sorted(failures):
        family = failures[task_id]
        last = [rt.trace.shape.slices[-1] for rt in family if rt.trace.shape.slices]
        implicated_ids = sorted({sl.executor for sl in last})
        implicated = tuple(
            ExecutorEvidence(eid, q12(q_exec_plus.value(eid, task_id)), q_exec_plus.count(eid, task_id))
            for eid in implicated_ids
        )
        artifacts.append(
            DiagnosticArtifact(
                task_type=task_id,
                failure_mass=sum(1 for rt in family if rt.trace.episode_id not in addressed),
                implicated_executors=implicated,
                failing_pairs=tuple(sorted({(task_id, sl.phase) for sl in last})),
                handoff_present=any(
                    diagnose(rt).tag is BoundedTag.HANDOFF_TO_STRUCTURE for rt in family
                ),
            )
        )
    return artifacts


# ------------------------------------------------------------------- traces

CONFIDENT = (True, 1, False, 0)
PROGRESS = (0.0, 0.25, 0.5, q12(1 / 3), 0.75)


def fresh_copy(trace):
    """An equal trace whose shape shares no task, slice, skill set or cause
    object with `trace`'s."""
    shape = trace.shape
    obs = shape.latent_cause_observation
    return dataclasses.replace(trace, shape=TraceShape(
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
    ))


def varied_batch(state, scenario, config, seed, n_episodes):
    """Executed traces (shared shapes) interleaved with repeats of an
    executed or copied shape, fresh shapes equal to one (same field objects,
    or equal but distinct slices), `True` outcomes, and failures whose cause,
    `confident` flag and progress vary over the same slices."""
    rng = random.Random(seed)
    executed = exec_round(state, scenario, n_episodes, seed, config, id_prefix="r0000")

    labels = [CauseLabel.UNKNOWN, CauseLabel.MISSING_PRECONDITION, CauseLabel.SKILL_CONFLICT]
    batch = []
    for trace in executed:
        twin = fresh_copy(trace)
        batch.append(trace)
        for _ in range(rng.randint(0, 2)):
            base = rng.choice((trace, twin))
            if rng.random() < 0.25:
                batch.append(base)  # the same shape object again
                continue
            slices = base.shape.slices
            if rng.random() < 0.3:
                slices = tuple(dataclasses.replace(sl) for sl in slices)
            shape = dataclasses.replace(base.shape, slices=slices)  # fresh, equal
            if shape.outcome == 1:
                if rng.random() < 0.5:
                    shape = dataclasses.replace(shape, outcome=True)
            elif rng.random() < 0.7:
                obs = shape.latent_cause_observation
                cause = obs.cause if obs is not None and rng.random() < 0.5 else rng.choice(labels)
                shape = dataclasses.replace(
                    shape,
                    progress=rng.choice(PROGRESS),
                    latent_cause_observation=(
                        None if rng.random() < 0.1
                        else CauseObservation(cause, rng.choice(CONFIDENT))
                    ),
                )
            batch.append(dataclasses.replace(base, shape=shape))
    return [
        dataclasses.replace(t, episode_id=f"r0000e{i:05d}") for i, t in enumerate(batch)
    ]


def proposal_shapes(retained):
    """Distinct shape objects; shapes hash by identity."""
    return len({rt.trace.shape for rt in retained})


# -------------------------------------------------------------------- tests


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(10, 80))
def test_round_stages_match_per_trace_references(world_seed, n_episodes):
    scenario, state, config = random_world(random.Random(world_seed))
    rng = random.Random(world_seed ^ 0xABC)
    config = config.replace(
        repeat_multiplicity=rng.randint(1, 4), near_miss_progress=rng.choice((0.0, 0.3, 0.5))
    )
    traces = varied_batch(state, scenario, config, world_seed, n_episodes)

    q_skill, q_exec = learn(
        state.q_skill, state.q_exec, traces,
        known_skills=state.library, known_executors=state.executors,
    )
    want_skill, want_exec = reference_learn(
        state.q_skill, state.q_exec, traces,
        known_skills=state.library, known_executors=state.executors,
    )
    assert q_skill == want_skill and q_exec == want_exec
    assert repr(q_skill.sorted_entries()) == repr(want_skill.sorted_entries())
    assert repr(q_exec.sorted_entries()) == repr(want_exec.sorted_entries())

    pool = update_pool_counters(state.pool, traces)
    want_pool = reference_pool_counters(state.pool, traces)
    assert pool == want_pool and repr(sorted(pool.items())) == repr(sorted(want_pool.items()))

    prior = (
        {(t.id, c): rng.randint(0, 2) for t in scenario.task_types for c in CauseLabel}
        if rng.random() < 0.5 else None
    )
    retained = retain(traces, state.q_exec, config, state.library, prior_failure_counts=prior)
    want_retained = reference_retain(
        traces, state.q_exec, config, state.library, prior_failure_counts=prior
    )
    assert [(id(rt.trace), rt.categories) for rt in retained] == [
        (id(rt.trace), rt.categories) for rt in want_retained
    ]

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
    want_proposals = reference_proposals(retained, state, config, index)
    assert proposals == want_proposals
    assert len(calls) == proposal_shapes(retained)  # once per distinct shape
    retained_ids = [rt.trace.episode_id for rt in retained]
    sources = [p.source_trace for p in proposals]
    assert sources == sorted(set(sources), key=retained_ids.index)  # each its own trace

    delta = skill_evolve(
        proposals, state.library, state.policy_index, q_skill, config, cluster_keys=index.keys
    )
    assert build_artifacts(retained, q_exec, delta) == reference_artifacts(retained, q_exec, delta)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(10, 60), st.data())
def test_unknown_ids_name_the_first_offender(world_seed, n_episodes, data):
    scenario, state, config = random_world(random.Random(world_seed))
    traces = varied_batch(state, scenario, config, world_seed, n_episodes)
    used = sorted({sid for t in traces for sl in t.shape.slices for sid in sl.selected})
    routed = sorted({sl.executor for t in traces for sl in t.shape.slices})
    if not used or not routed:
        return
    dropped_skill = data.draw(st.sampled_from(used))
    dropped_executor = data.draw(st.sampled_from(routed + [None]))
    known_skills = set(state.library) - {dropped_skill}
    known_executors = set(state.executors) - {dropped_executor}

    with pytest.raises(StateError) as got:
        learn(state.q_skill, state.q_exec, traces,
              known_skills=known_skills, known_executors=known_executors)
    with pytest.raises(StateError) as want:
        reference_learn(state.q_skill, state.q_exec, traces,
                        known_skills=known_skills, known_executors=known_executors)
    assert str(got.value) == str(want.value)
