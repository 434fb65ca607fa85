"""Round-scoped indexes against the per-call reference rules.

`exec_round` routes and evaluates phases through an `ExecutionTable`, and a
round's proposals share one `ProposalIndex`.  Both must give exactly what the
reference functions give when every value is recomputed at every use; the
per-phase loop below is that reference.
"""

from __future__ import annotations

import dataclasses
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from skillmas.config import EngineConfig
from skillmas.evolution import (
    diagnose,
    proposal_index,
    propose,
    retrieve_policy_cards,
)
from skillmas.model import (
    BoundedTag,
    CauseLabel,
    EpisodeTrace,
    Executor,
    ExecutorSlice,
    PolicyCard,
    RoundState,
    Skill,
    SkillStatus,
    StateError,
    TaskType,
    TraceShape,
    UtilityTable,
    cluster_key_map,
)
from skillmas.numfmt import q12
from skillmas.orchestrator import collect_proposals, run_experiment, run_round
from skillmas.presets import load_preset
from skillmas.restructure import RestructureDecision
from skillmas.retention import retain
from skillmas.store import parse_scenario, serialize_state, trace_to_record
from skillmas.utility import executor_route, used_skills
from skillmas.world import (
    ExecutionTable,
    LatentSkill,
    Scenario,
    _observe_cause,
    exec_round,
    realized_catalog,
    sample_episode,
)

from reference import (
    _dominant_deficit,
    _weighted_choice,
    ground_truth_success_prob,
    select_skills,
    substream,
)
from test_golden import wide_text

CAUSES = [c for c in CauseLabel if c is not CauseLabel.UNKNOWN]
STATUSES = list(SkillStatus)
UTILITIES = (0.0, 0.25, 0.5, 0.75, 1.0)  # few values, so greedy picks tie


def reference_episode(scenario, state, task_type, rng, episode_id, config):
    """One episode with every routing, retrieval and ground-truth value
    recomputed at each phase."""
    epsilon = (
        config.routing_noise
        if config.routing_noise is not None
        else scenario.routing_noise
    )
    slices = []
    completed = 0
    observation = None
    for phase in task_type.phases:
        pair = (task_type.id, phase)
        executor_id = executor_route(state.q_exec, state, task_type.id, phase).draw(
            rng, epsilon
        )
        executor = state.executors[executor_id]
        selected = frozenset(
            select_skills(state.q_skill, state, task_type.id, phase, executor, config.top_k)
        )
        invoked = frozenset(s for s in selected if state.library[s].applies_to(pair))
        actions = frozenset(step for s in invoked for step in state.library[s].steps)
        supported = frozenset(
            s for s in selected - invoked if set(state.library[s].steps) <= actions
        )
        used = invoked | supported
        slices.append(ExecutorSlice(executor_id, phase, selected, invoked, supported))
        p = ground_truth_success_prob(
            scenario, state.library, task_type.id, phase, executor, sorted(used)
        )
        if rng.random() < p:
            completed += 1
            continue
        deficit = _dominant_deficit(
            scenario, state.library, executor, task_type.id, phase, used
        )
        observation = _observe_cause(deficit, rng, scenario.cause_confidence)
        break
    outcome = 1 if completed == len(task_type.phases) else 0
    return EpisodeTrace(
        episode_id,
        TraceShape(
            task_type=task_type,
            slices=tuple(slices),
            outcome=outcome,
            progress=q12(completed / len(task_type.phases)),
            latent_cause_observation=observation if outcome == 0 else None,
        ),
    )


def records(traces):
    """The traces' log records: shapes compare by identity, so traces
    from different tables compare by value only through their records."""
    return [trace_to_record(t) for t in traces]


def reference_exec_round(state, scenario, n_episodes, seed, config, id_prefix):
    traces = []
    for i in range(n_episodes):
        rng = substream(seed, "episode", i)
        task = _weighted_choice(rng, scenario.task_types, scenario.task_weights)
        traces.append(
            reference_episode(scenario, state, task, rng, f"{id_prefix}e{i:05d}", config)
        )
    return tuple(traces)


def random_world(rng: random.Random) -> tuple[Scenario, RoundState, EngineConfig]:
    """A random world and state with pruned tombstones, pooled skills,
    several executors, and pairs that only the manager covers.  Skills may
    apply to pairs of several tasks and repeat a latent marker step, pairs
    may have several latents, and executors may still list pruned skills and
    ids absent from the library as owned."""
    tasks = [
        TaskType(f"task{t}", tuple(f"p{i}" for i in range(rng.randint(1, 3))))
        for t in range(rng.randint(1, 4))
    ]
    universe = [pair for task in tasks for pair in task.pairs()]
    latents = [
        LatentSkill(f"lat{i}-{j}", pair, rng.uniform(0.5, 3.0), rng.choice(CAUSES))
        for i, pair in enumerate(universe)
        for j in range(rng.choice((0, 1, 1, 2)))
    ]
    scenario = Scenario(
        name="fuzz",
        task_types=tuple(tasks),
        task_weights={t.id: rng.uniform(0.2, 3.0) for t in tasks},
        base_difficulty={pair: rng.uniform(-2.0, 1.5) for pair in universe},
        latent_catalog=tuple(latents),
        interference_weight=rng.uniform(0.0, 0.6),
        overload_weight=rng.uniform(0.0, 0.8),
        routing_noise=rng.uniform(0.0, 0.5),
        cause_confidence=rng.uniform(0.5, 1.0),
    )

    boundaries = {"manager": frozenset(universe)}
    for w in range(rng.randint(1, 3)):
        boundaries[f"worker{w}"] = frozenset(
            rng.sample(universe, rng.randint(1, len(universe)))
        )
    owners = sorted(boundaries)

    tokens = ["go", "look", "grab", "put"] + [
        step for l in latents for step in (l.id, f"{l.id}:verify")
    ]
    library = {}
    for s in range(rng.randint(0, 10)):
        sid = f"sk{s:02d}"
        steps = rng.sample(tokens, rng.randint(1, min(3, len(tokens))))
        if latents and rng.random() < 0.3:
            marker = rng.choice(latents).id
            steps.insert(rng.randrange(len(steps) + 1), marker)
            steps.append(marker)
        library[sid] = Skill(
            id=sid,
            applicability=frozenset(rng.sample(universe, rng.randint(1, min(3, len(universe))))),
            steps=tuple(steps),
            guards=frozenset(rng.sample(["g0", "g1", "g2"], rng.randint(0, 2))),
            status=rng.choice(STATUSES),
            owner=rng.choice(owners),
        )
    executors = {
        eid: Executor(
            eid,
            boundary,
            frozenset(
                sid
                for sid, skill in library.items()
                if skill.owner == eid
                and (skill.status is not SkillStatus.PRUNED or rng.random() < 0.5)
            )
            | {f"gone{g}" for g in range(rng.choice((0, 0, 1, 2)))},
            capacity=rng.randint(1, 4),
            is_manager=eid == "manager",
        )
        for eid, boundary in boundaries.items()
    }
    task_ids = [t.id for t in tasks]
    q_skill = UtilityTable(
        {
            (sid, tid): (rng.choice(UTILITIES), rng.randint(1, 9))
            for sid in library
            for tid in task_ids
            if rng.random() < 0.5
        }
    )
    q_exec = UtilityTable(
        {
            (eid, tid): (rng.choice(UTILITIES), rng.randint(1, 9))
            for eid in executors
            for tid in task_ids
            if rng.random() < 0.6
        }
    )
    pool = {
        sid: (rng.randint(0, 4), 0)
        for sid, skill in library.items()
        if skill.status is SkillStatus.POOLED
    }
    cards = tuple(
        PolicyCard(
            f"pc{c}",
            rng.choice(CAUSES),
            rng.choice(task_ids),
            rng.choice([BoundedTag.ADD_GUARD, BoundedTag.REORDER_STEP]),
            rng.choice([None] + [l.id for l in latents]),
        )
        for c in range(rng.randint(0, 3))
    )
    state = RoundState(
        round_index=rng.randint(0, 3),
        library=library,
        executors=executors,
        q_skill=q_skill,
        q_exec=q_exec,
        pool=pool,
        policy_index=cards,
    )
    config = EngineConfig(
        top_k=rng.randint(1, 3),
        routing_noise=rng.choice([None, 0.0, 0.3, 1.0]),
        cluster_threshold=rng.choice([0.3, 0.5]),
        near_miss_progress=rng.choice([0.0, 0.5]),
    )
    return scenario, state, config


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 60))
def test_exec_round_matches_per_phase_reference(world_seed, n_episodes):
    scenario, state, config = random_world(random.Random(world_seed))
    seed = world_seed ^ 0x5EED
    indexed = exec_round(state, scenario, n_episodes, seed, config, id_prefix="r0001")
    reference = reference_exec_round(state, scenario, n_episodes, seed, config, "r0001")
    assert records(indexed) == records(reference)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
def test_sample_episode_on_a_fresh_table_matches_reference(world_seed, episode_seed):
    scenario, state, config = random_world(random.Random(world_seed))
    task = random.Random(episode_seed).choice(scenario.task_types)
    table = ExecutionTable(state, scenario, config)
    got = sample_episode(table, task, random.Random(episode_seed), "e0")
    want = reference_episode(
        scenario, state, task, random.Random(episode_seed), "e0", config
    )
    assert records([got]) == records([want])


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.floats(1e-9, 1e9, allow_nan=False, allow_infinity=False),
            st.sampled_from([0.1, 0.2, 0.3, 1.0]),
        ),
        min_size=1,
        max_size=8,
    ),
    st.integers(0, 2**32 - 1),
)
def test_task_draw_matches_weighted_choice(weights, seed):
    tasks = tuple(TaskType(f"t{i}", ("p",)) for i in range(len(weights)))
    scenario = Scenario(
        name="draw",
        task_types=tasks,
        task_weights={t.id: w for t, w in zip(tasks, weights)},
        base_difficulty={},
    )
    table = ExecutionTable(load_preset("tiny").seed_state, scenario, EngineConfig())
    a, b = random.Random(seed), random.Random(seed)
    for _ in range(50):
        assert table.draw_task(a) == _weighted_choice(b, tasks, scenario.task_weights)


def reference_realized_catalog(scenario, library):
    """`realized_catalog` by checking every library skill against every latent."""
    return tuple(
        dataclasses.replace(
            latent,
            realized_by=min(
                (
                    s.id
                    for s in library.values()
                    if s.status is not SkillStatus.PRUNED
                    and latent.id in s.steps
                    and latent.applicability in s.applicability
                ),
                default=None,
            ),
        )
        for latent in scenario.latent_catalog
    )


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_step_indexed_catalog_matches_linear_scan(world_seed):
    scenario, state, _ = random_world(random.Random(world_seed))
    assert realized_catalog(scenario, state.library) == reference_realized_catalog(
        scenario, state.library
    )


def test_random_world_covers_the_index_cases():
    """`random_world` produces every case the round indexes must get right."""
    seen = Counter()
    for world_seed in range(300):
        scenario, state, _ = random_world(random.Random(world_seed))
        latent_ids = {l.id for l in scenario.latent_catalog}
        for executor in state.executors.values():
            for sid in executor.owned_skills:
                skill = state.library.get(sid)
                if skill is None:
                    seen["owns an absent id"] += 1
                elif skill.status is SkillStatus.PRUNED:
                    seen["owns a pruned skill"] += 1
        for skill in state.library.values():
            if len({task for task, _ in skill.applicability}) > 1:
                seen["skill spans several tasks"] += 1
            if any(skill.steps.count(l) > 1 for l in latent_ids):
                seen["steps repeat a latent marker"] += 1
        pairs = Counter(l.applicability for l in scenario.latent_catalog)
        if any(n > 1 for n in pairs.values()):
            seen["pair with several latents"] += 1
        workers = [e for e in state.executors.values() if not e.is_manager]
        if any(not any(w.covers(pair) for w in workers) for pair in scenario.universe()):
            seen["pair only the manager covers"] += 1
    assert set(seen) == {
        "pair only the manager covers",
        "owns an absent id",
        "owns a pruned skill",
        "skill spans several tasks",
        "steps repeat a latent marker",
        "pair with several latents",
    }


class CountingLibrary(dict):
    """A library that counts how often it is iterated."""

    scans = 0

    def values(self):
        self.scans += 1
        return super().values()

    def items(self):
        self.scans += 1
        return super().items()

    def __iter__(self):
        self.scans += 1
        return super().__iter__()


def test_slot_fills_scan_the_library_a_constant_number_of_times():
    """Filling a table's slots and resolving the catalog read the library
    through round indexes, not once per (pair, executor) slot."""
    pack = parse_scenario(wide_text(96, 200), name="wide96")
    state = run_experiment(pack.scenario, pack.seed_state, 3, 10, pack.config).final_state
    assert sum(s.status is SkillStatus.PRUNED for s in state.library.values()) >= 20
    library = CountingLibrary(state.library)
    counted = dataclasses.replace(state, library=library)
    table = ExecutionTable(counted, pack.scenario, pack.config)
    assert library.scans == 0  # indexes are built on first use

    keys = [
        (pair, executor_id)
        for pair in sorted(pack.scenario.universe())
        for executor_id in table.route(pair).eligible
    ]
    scans_after = []
    for pair, executor_id in keys:
        table.slot(pair, executor_id)
        scans_after.append(library.scans)
    assert len(keys) >= 2 * 96
    assert scans_after[0] == scans_after[-1] == 1

    realized_catalog(pack.scenario, library)
    assert library.scans == 2

    for pair, executor_id in keys[:: len(keys) // 7]:
        slot = table.slot(pair, executor_id)
        reference_ids = select_skills(
            state.q_skill, state, *pair, executor_id, pack.config.top_k
        )
        assert slot.slice.selected == frozenset(reference_ids)
        executor = state.executors[executor_id]
        used = used_skills(slot.slice)
        assert slot.success_prob == ground_truth_success_prob(
            pack.scenario, state.library, *pair, executor, sorted(used)
        )
        assert slot.deficit == _dominant_deficit(
            pack.scenario, state.library, executor, *pair, used
        )


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(20, 120))
def test_shared_proposal_index_matches_per_trace_proposals(world_seed, n_episodes):
    scenario, state, config = random_world(random.Random(world_seed))
    traces = exec_round(state, scenario, n_episodes, world_seed, config, id_prefix="r0000")
    retained = retain(traces, state.q_exec, config, state.library)

    index = proposal_index(scenario, state.library, config)
    assert index.keys == cluster_key_map(state.library, config.cluster_threshold)
    catalog = realized_catalog(scenario, state.library)
    for pair in scenario.universe():
        assert index.latents(pair) == tuple(l for l in catalog if l.applicability == pair)
    assert index.active == tuple(
        s
        for _, s in sorted(state.library.items())
        if s.status is not SkillStatus.PRUNED
    )

    shared = collect_proposals(retained, state, config, index)

    per_trace = []
    for rt in retained:
        if rt.trace.shape.outcome == 0:
            diagnosis = diagnose(rt)
            cards = retrieve_policy_cards(
                state.policy_index, rt.trace.shape.task_type.id, diagnosis.cause
            )
        else:
            diagnosis, cards = None, ()
        proposal = propose(
            rt, diagnosis, cards, state.library, state.round_index, config,
            proposal_index(scenario, state.library, config),
        )
        if proposal is not None:
            per_trace.append(proposal)
    assert shared == per_trace


def test_round_aborts_when_decision_evidence_fails(monkeypatch):
    import skillmas.orchestrator as orch

    pack = load_preset("mismatch")
    state = pack.seed_state
    before = serialize_state(state)
    falsified = RestructureDecision(
        action="add",
        subjects=("exec-new",),
        evidence={
            "predicate": "add",
            "failure_mass": 1,
            "mass_threshold": 3,
            "handoff_present": True,
            "min_count": 5,
            "weak_utility": 0.5,
            "executors": [{"id": "worker-a", "count": 9, "value": 0.1}],
        },
    )
    monkeypatch.setattr(orch, "decide_restructure", lambda *a, **k: falsified)
    with pytest.raises(StateError, match=r"round 0: .*'add'.*predicate 'add'"):
        run_round(state, pack.scenario, pack.config, seed=3)
    assert serialize_state(state) == before
