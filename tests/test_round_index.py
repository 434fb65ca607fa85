"""Round-scoped indexes against the per-call reference rules.

`exec_round` routes and evaluates phases through an `ExecutionTable`, and a
round's proposals share one `ProposalIndex`.  Both must give exactly what the
reference functions give when every value is recomputed at every use; the
per-phase loop below is that reference.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from skillmas.config import EngineConfig
from skillmas.evolution import (
    proposal_index,
    propose,
    retrieve_policy_cards,
)
from skillmas.model import (
    BoundedTag,
    CauseLabel,
    Executor,
    PolicyCard,
    RoundState,
    Skill,
    SkillStatus,
    StateError,
    TaskType,
    UtilityTable,
    skill_similarity,
)
from skillmas.orchestrator import collect_proposals, run_experiment, run_round
from skillmas.presets import load_preset
from skillmas.restructure import RestructureDecision
from skillmas.retention import diagnose, retain
from skillmas.store import parse_scenario, serialize_state
from skillmas.utility import used_skills
from skillmas.world import (
    ExecutionTable,
    LatentSkill,
    Scenario,
    exec_round,
    realizers,
)
from skillmas.streams import episode_blocks

from reference import (
    _dominant_deficit,
    _weighted_choice,
    episode_of,
    episode_stream,
    episodes_of,
    ground_truth_success_prob,
    reference_episode,
    reference_exec_round,
    select_skills,
)
from conftest import episode_shape, make_state, retained_shapes, task_at
from test_golden import wide_text

CAUSES = [c for c in CauseLabel if c is not CauseLabel.UNKNOWN]
STATUSES = list(SkillStatus)
# successes as quarters of the attempts, rounded down: few values, so greedy picks tie
QUARTERS = range(5)


def random_world(rng: random.Random) -> tuple[Scenario, RoundState, EngineConfig]:
    """A random world and state with pooled skills, several executors, and
    pairs that only the manager covers.  Skills may apply to pairs of several
    tasks and repeat a latent marker step, and pairs may have several
    latents."""
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
    executors = {}
    for eid, boundary in boundaries.items():
        rng.choice((0, 0, 1, 2))  # unused: drawn so that each seed keeps its world
        executors[eid] = Executor(
            eid, boundary, capacity=rng.randint(1, 4), is_manager=eid == "manager"
        )
    task_ids = [t.id for t in tasks]
    q_skill = UtilityTable(
        {
            (sid, tid): (quarters * n // 4, n)
            for sid in library
            for tid in task_ids
            if rng.random() < 0.5
            for quarters, n in [(rng.choice(QUARTERS), rng.randint(1, 9))]
        }
    )
    q_exec = UtilityTable(
        {
            (eid, tid): (quarters * n // 4, n)
            for eid in executors
            for tid in task_ids
            if rng.random() < 0.6
            for quarters, n in [(rng.choice(QUARTERS), rng.randint(1, 9))]
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
    top_k = rng.randint(1, 3)
    noise = rng.choice([None, 0.0, 0.3, 1.0])  # None keeps the drawn rate
    if noise is not None:
        scenario = dataclasses.replace(scenario, routing_noise=noise)
    config = EngineConfig(
        top_k=top_k,
        cluster_threshold=rng.choice([0.3, 0.5]),
        near_miss_progress=rng.choice([0.0, 0.5]),
    )
    return scenario, state, config


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 60))
def test_exec_round_matches_per_phase_reference(world_seed, n_episodes):
    scenario, state, config = random_world(random.Random(world_seed))
    seed = world_seed ^ 0x5EED
    indexed = exec_round(
        dataclasses.replace(state, round_index=1), scenario, n_episodes, seed, config
    )
    reference = reference_exec_round(state, scenario, n_episodes, seed, config, "r0001")
    assert episodes_of(indexed) == reference


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
def test_sample_episode_on_a_fresh_table_matches_reference(world_seed, episode_seed):
    scenario, state, config = random_world(random.Random(world_seed))
    table = ExecutionTable(state, scenario, config)
    got = episode_shape(table, episode_blocks(episode_seed), 3)
    rng = episode_stream(episode_seed, 3)
    task = _weighted_choice(rng, scenario.task_types, scenario.task_weights)
    want = reference_episode(scenario, state, task, rng, "e0", config)
    assert episode_of("e0", got) == want


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
    # executors that cover every task, so each draw's root has its routes
    table = ExecutionTable(make_state(tasks=tasks), scenario, EngineConfig())
    a, b = random.Random(seed), random.Random(seed)
    for _ in range(50):
        assert task_at(table, a.random())[0] == _weighted_choice(b, tasks, scenario.task_weights)


def reference_realizer(scenario, library):
    """`realizers` by checking every library skill against every latent."""
    found = {}
    for latent in scenario.latent_catalog:
        ids = [
            s.id
            for s in library.values()
            if latent.id in s.steps and latent.applicability in s.applicability
        ]
        if ids:
            found[latent.id] = min(ids)
    return found


def reference_clusters(library, threshold):
    """Single-linkage clusters, cluster key -> sorted member ids: start from
    singletons and merge any two groups with a pair of members at least
    `threshold` similar, until no two groups have one."""
    groups = [{sid} for sid in library]
    merged = True
    while merged:
        merged = False
        for a, b in itertools.combinations(range(len(groups)), 2):
            if any(
                skill_similarity(library[x], library[y]) >= threshold
                for x in groups[a]
                for y in groups[b]
            ):
                groups[a] |= groups.pop(b)
                merged = True
                break
    return {min(g): tuple(sorted(g)) for g in sorted(groups, key=min)}


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_step_indexed_catalog_matches_linear_scan(world_seed):
    scenario, state, _ = random_world(random.Random(world_seed))
    got = realizers(scenario, state.library)
    assert got == reference_realizer(scenario, state.library)
    assert list(got) == [l.id for l in scenario.latent_catalog if l.id in got]


def test_random_world_covers_the_index_cases():
    """`random_world` produces every case the round indexes must get right."""
    seen = Counter()
    for world_seed in range(300):
        scenario, state, _ = random_world(random.Random(world_seed))
        latent_ids = {l.id for l in scenario.latent_catalog}
        for skill in state.library.values():
            if len({task for task, _ in skill.applicability}) > 1:
                seen["skill spans several tasks"] += 1
            if any(skill.steps.count(l) > 1 for l in latent_ids):
                seen["steps repeat a latent marker"] += 1
        pairs = Counter(l.applicability for l in scenario.latent_catalog)
        if any(n > 1 for n in pairs.values()):
            seen["pair with several latents"] += 1
        workers = [e for e in state.executors.values() if not e.is_manager]
        if any(not any(pair in w.boundary for w in workers) for pair in scenario.universe()):
            seen["pair only the manager covers"] += 1
    assert set(seen) == {
        "pair only the manager covers",
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
    # pruned skills leave the library, so its size rises and falls: take the
    # run's largest library (24 skills, after round 7)
    states = run_experiment(pack.scenario, pack.seed_state, 3, 10, pack.config).states
    state = max(states, key=lambda s: len(s.library))
    assert len(state.library) >= 20
    library = CountingLibrary(state.library)
    counted = dataclasses.replace(state, library=library)
    table = ExecutionTable(counted, pack.scenario, pack.config)
    assert library.scans == 1  # the candidate index, built with the roots' first slots

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

    realizers(pack.scenario, library)
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


def test_a_round_takes_each_token_set_a_bounded_number_of_times(monkeypatch):
    """A round's evolve stage reads the proposal index's token sets: the
    library's are taken once for clustering and once for the index, and a
    motif draft's by `_nearest_cluster` and `_is_duplicate`, so the count
    grows with the library plus the drafts, not with their product."""
    import skillmas.orchestrator as orch

    pack = parse_scenario(wide_text(96, 200), name="wide96")
    states = run_experiment(pack.scenario, pack.seed_state, 3, 10, pack.config).states
    # restructuring compares executors' token sets on its own: keep it out
    monkeypatch.setattr(orch, "decide_restructure", lambda *a, **k: RestructureDecision("keep"))
    calls, proposals = [0], []
    tokens, collect = Skill.tokens, orch.collect_proposals

    def counted_tokens(skill):
        calls[0] += 1
        return tokens(skill)

    def kept_proposals(*args, **kwargs):
        proposals[:] = collect(*args, **kwargs)
        return proposals

    monkeypatch.setattr(Skill, "tokens", counted_tokens)
    monkeypatch.setattr(orch, "collect_proposals", kept_proposals)
    products = []
    for state in states:
        calls[0] = 0
        run_round(state, pack.scenario, pack.config, seed=11)
        library, drafts = len(state.library), sum(len(p.drafts) for p in proposals)
        assert calls[0] <= 2 * (library + drafts), (state.round_index, library, drafts)
        products.append(library * drafts - 2 * (library + drafts))
    # some round has more library-draft pairs than the bound allows calls
    assert max(products) > 0


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(20, 120))
def test_shared_proposal_index_matches_per_trace_proposals(world_seed, n_episodes):
    scenario, state, config = random_world(random.Random(world_seed))
    batch = exec_round(state, scenario, n_episodes, world_seed, config)
    retained = retained_shapes(
        batch, retain(batch.tally(), state.q_exec, config, state.library)
    )

    index = proposal_index(scenario, state.library, config)
    clusters = reference_clusters(state.library, config.cluster_threshold)
    assert list(index.clusters.items()) == list(clusters.items())
    assert index.keys == {sid: key for key, members in clusters.items() for sid in members}
    assert index.realizer == reference_realizer(scenario, state.library)
    assert list(index.tokens.items()) == [
        (sid, s.tokens()) for sid, s in sorted(state.library.items())
    ]
    for pair in scenario.universe():
        assert index.latents_at.get(pair, ()) == tuple(
            l for l in scenario.latent_catalog if l.applicability == pair
        )
        assert index.unrealized(pair) == [
            l for l in index.latents_at.get(pair, ()) if l.id not in index.realizer
        ]

    shared = collect_proposals(retained, state, config, index)

    per_shape = []
    for rt in retained:
        if rt.shape.outcome == 0:
            diagnosis = diagnose(rt.shape)
            cards = retrieve_policy_cards(
                state.policy_index, rt.shape.task_type.id, diagnosis.cause
            )
        else:
            diagnosis, cards = None, ()
        proposal = propose(
            rt, diagnosis, cards, state.library, state.round_index, config,
            proposal_index(scenario, state.library, config),
        )
        if proposal is not None:
            per_shape.append(proposal)
    assert shared == per_shape


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
