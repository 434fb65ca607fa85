from __future__ import annotations

import dataclasses
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from skillmas.config import EngineConfig
from skillmas.model import CauseLabel, Executor, StateError, TaskType
from skillmas.numfmt import q12
from skillmas.store import encode_trace_log, serialize_state, trace_to_record
from skillmas.world import (
    ExecutionTable,
    LatentSkill,
    Scenario,
    exec_round,
    exec_shared,
    logistic,
    motif_skill,
    motif_tokens,
    realizers,
    slot_outcome,
    walk_episode,
)
from skillmas.streams import episode_blocks, word_random

from conftest import CAUSES, episode_shape, make_skill, make_state, random_scenario, task_at
from reference import _deficit, _success_prob, _terms, ground_truth_success_prob


def make_scenario(
    base=None,
    latents=(),
    interference=0.0,
    overload=0.0,
    noise=0.0,
    confidence=1.0,
    tasks=(TaskType("t1", ("p1", "p2")),),
):
    return Scenario(
        name="test",
        task_types=tuple(tasks),
        task_weights={t.id: 1.0 for t in tasks},
        base_difficulty=dict(base or {}),
        latent_catalog=tuple(latents),
        interference_weight=interference,
        overload_weight=overload,
        routing_noise=noise,
        cause_confidence=confidence,
    )


def plain_executor(universe=(("t1", "p1"), ("t1", "p2")), capacity=8):
    """The owner `make_skill` names by default."""
    return Executor("worker", frozenset(universe), capacity=capacity)


class TestGroundTruth:
    def test_neutral_base_is_half(self):
        scenario = make_scenario()
        p = ground_truth_success_prob(scenario, {}, "t1", "p1", plain_executor(), [])
        assert p == 0.5

    def test_matching_skill_effect(self):
        # independent oracle: evaluate the logistic numerically
        latent = LatentSkill("lat", ("t1", "p1"), 2.0, CauseLabel.MISSING_PRECONDITION)
        skill = make_skill("s1", pairs=(("t1", "p1"),), steps=("lat", "go"))
        scenario = make_scenario(latents=[latent])
        p = ground_truth_success_prob(
            scenario, {"s1": skill}, "t1", "p1", plain_executor(), ["s1"]
        )
        expected = 1.0 / (1.0 + math.exp(-2.0))
        assert p == pytest.approx(expected, abs=1e-12)
        assert p == pytest.approx(0.8808, abs=1e-4)

    def test_mismatching_skill_interferes(self):
        skill = make_skill("s1", pairs=(("t1", "p1"),), steps=("go",))
        scenario = make_scenario(interference=1.0)
        p = ground_truth_success_prob(
            scenario, {"s1": skill}, "t1", "p1", plain_executor(), ["s1"]
        )
        expected = 1.0 / (1.0 + math.exp(1.0))
        assert p == pytest.approx(expected, abs=1e-12)
        assert p == pytest.approx(0.2689, abs=1e-4)

    def test_overload_penalty(self):
        skills = {f"s{i}": make_skill(f"s{i}") for i in range(4)}
        executor = plain_executor(capacity=2)
        scenario = make_scenario(overload=0.5)
        p = ground_truth_success_prob(scenario, skills, "t1", "p1", executor, [])
        assert p == pytest.approx(logistic(-0.5 * 2), abs=1e-12)

    def test_boundary_violation_is_routing_error(self):
        scenario = make_scenario()
        executor = Executor("e1", frozenset({("t1", "p1")}))
        with pytest.raises(StateError, match="outside its boundary"):
            ground_truth_success_prob(scenario, {}, "t1", "p2", executor, [])

    @given(st.data())
    @settings(max_examples=60)
    def test_monotonicity(self, data):
        """Adding a matching realization never hurts; junk never helps."""
        latent = LatentSkill("lat", ("t1", "p1"), 2.0, CauseLabel.MISSING_PRECONDITION)
        scenario = make_scenario(
            latents=[latent],
            interference=data.draw(st.floats(0.0, 1.0)),
            base={("t1", "p1"): data.draw(st.floats(-2.0, 2.0))},
        )
        realizer = make_skill("match", pairs=(("t1", "p1"),), steps=("lat",))
        junk = make_skill("junk", pairs=(("t1", "p1"),), steps=("noise",))
        library = {"match": realizer, "junk": junk}
        executor = plain_executor()
        subset = data.draw(st.sets(st.sampled_from(["junk"])))
        base_p = ground_truth_success_prob(
            scenario, library, "t1", "p1", executor, sorted(subset)
        )
        with_match = ground_truth_success_prob(
            scenario, library, "t1", "p1", executor, sorted(subset | {"match"})
        )
        with_junk = ground_truth_success_prob(
            scenario, library, "t1", "p1", executor, sorted(subset | {"junk"})
        )
        assert with_match >= base_p
        assert with_junk <= base_p


PAIR = ("t1", "p1")
# dyadic weights: exact ties between latents, interference and overload
TIED = [0.25, 0.5, 1.0]


def slot_case(base, latents, used, interference, overload, excess):
    """(scenario, used skills, excess) at PAIR; `latents` are (id, effect,
    cause) in catalog order and `used` are (pairs, steps)."""
    scenario = make_scenario(
        base={PAIR: base},
        latents=[LatentSkill(i, PAIR, effect, cause) for i, effect, cause in latents],
        interference=interference,
        overload=overload,
    )
    skills = [make_skill(f"s{k}", pairs, steps) for k, (pairs, steps) in enumerate(used)]
    return scenario, skills, excess


@st.composite
def slot_cases(draw):
    weights = st.one_of(st.sampled_from(TIED), st.floats(0.01, 4.0))
    ids = draw(st.lists(st.sampled_from("abcdef"), unique=True, max_size=4))
    latents = [(f"lat-{i}", draw(weights), draw(st.sampled_from(CAUSES))) for i in ids]
    tokens = ["go", "lat-z", *(i for i, _, _ in latents)]
    pairs = st.sets(st.sampled_from([PAIR, ("t1", "p2")]), min_size=1)
    steps = st.lists(st.sampled_from(tokens), min_size=1, max_size=3)
    used = draw(st.lists(st.tuples(pairs, steps), max_size=4))
    realized = draw(st.sets(st.sampled_from([i for i, _, _ in latents]))) if latents else ()
    if realized:  # one skill realizing a chosen set of latents, maybe all of them
        used.append(({PAIR}, sorted(realized)))
    scenario, skills, excess = slot_case(
        draw(st.one_of(st.sampled_from([0.0, -1.1]), st.floats(-3.0, 3.0))),
        latents,
        used,
        draw(st.one_of(st.sampled_from([0.0, *TIED]), st.floats(0.0, 2.0))),
        draw(st.one_of(st.sampled_from([0.0, *TIED]), st.floats(0.0, 2.0))),
        draw(st.integers(0, 5)),
    )
    # a latent at the other pair is neither realized nor absent at PAIR
    other = LatentSkill("lat-z", ("t1", "p2"), 1.0, CAUSES[0])
    catalog = draw(st.permutations([*scenario.latent_catalog, other]))
    return dataclasses.replace(scenario, latent_catalog=tuple(catalog)), skills, excess


class TestSlotOutcome:
    """`slot_outcome`, the engine's one-pass evaluation, against the
    reference's success model built term by term."""

    @settings(max_examples=400, deadline=None)
    @given(slot_cases())
    # two absent latents tie: the largest id wins
    @example(slot_case(
        0.0, [("lat-a", 0.5, CAUSES[0]), ("lat-b", 0.5, CAUSES[1])], [], 0.0, 0.0, 0))
    # interference ties overload: interference wins
    @example(slot_case(0.0, [], [({PAIR}, ("go",))], 0.5, 0.25, 2))
    # an absent latent ties both penalties: the latent wins
    @example(slot_case(
        0.0, [("lat-a", 1.0, CAUSES[0])], [({PAIR}, ("go",)), ({("t1", "p2")}, ("lat-a",))],
        0.5, 0.25, 4))
    # effects added in catalog order: (-1.1 + 0.1) + 0.3 != (-1.1 + 0.3) + 0.1
    @example(slot_case(
        -1.1, [("lat-a", 0.1, CAUSES[0]), ("lat-b", 0.3, CAUSES[1])],
        [({PAIR}, ("lat-b", "lat-a"))], 0.0, 0.0, 0))
    def test_matches_the_per_term_reference(self, case):
        scenario, used, excess = case
        latents = [l for l in scenario.latent_catalog if l.applicability == PAIR]
        terms = _terms(latents, used, excess)
        p, deficit = slot_outcome(scenario, PAIR, used, excess)
        assert p == _success_prob(scenario, PAIR, terms)
        assert deficit == _deficit(scenario, terms)
        assert slot_outcome(scenario, PAIR, used[::-1], excess) == (p, deficit)


class TestRealization:
    def test_catalog_resolution_prefers_smallest_id(self):
        latent = LatentSkill("lat", ("t1", "p1"), 2.0, CauseLabel.MISSING_PRECONDITION)
        scenario = make_scenario(latents=[latent])
        a = make_skill("a", pairs=(("t1", "p1"),), steps=("lat",))
        b = make_skill("b", pairs=(("t1", "p1"),), steps=("lat",))
        assert realizers(scenario, {"b": b, "a": a}) == {"lat": "a"}

    def test_latent_ids_are_unique(self):
        # `realizers` keys a latent by its id
        latents = [
            LatentSkill("lat", pair, 2.0, CauseLabel.MISSING_PRECONDITION)
            for pair in (("t1", "p1"), ("t1", "p2"))
        ]
        with pytest.raises(StateError, match="latent procedure ids must be unique"):
            make_scenario(latents=latents)

    def test_a_nan_or_infinite_number_is_refused(self):
        # a world built in code holds the checks a scenario file gets
        nan, inf = float("nan"), float("inf")
        with pytest.raises(StateError, match="positive effect"):
            LatentSkill("lat", ("t1", "p1"), nan, CauseLabel.MISSING_PRECONDITION)
        cases = [
            ({"interference": nan}, "penalty weights"),
            ({"overload": inf}, "penalty weights"),
            ({"base": {("t1", "p1"): nan}}, "base difficulties must be finite"),
            ({"base": {("t1", "p2"): -inf}}, "base difficulties must be finite"),
            ({"noise": nan}, "routing noise"),
            ({"confidence": nan}, "observation confidence"),
        ]
        for kwargs, message in cases:
            with pytest.raises(StateError, match=message):
                make_scenario(**kwargs)
        task = TaskType("t1", ("p1",))
        for weights, message in (({"t1": nan}, "positive sampling weight"),
                                 ({"t1": inf}, "finite total")):
            with pytest.raises(StateError, match=message):
                Scenario("test", (task,), weights, {})

    def test_a_pair_logit_that_overflows_is_refused(self):
        # base plus effects at inf, minus an infinite overload, would be NaN
        def latent(name, effect):
            return LatentSkill(name, ("t1", "p1"), effect, CauseLabel.MISSING_PRECONDITION)

        message = "the difficulty of 't1/p1' plus its latent effects overflows"
        with pytest.raises(StateError, match=message):
            make_scenario(base={("t1", "p1"): 1e308}, latents=[latent("l", 1e308)])
        with pytest.raises(StateError, match=message):
            make_scenario(latents=[latent("l1", 1e308), latent("l2", 1e308)])
        # a finite sum is enough: an infinite penalty then gives probability 0
        scenario = make_scenario(
            base={("t1", "p1"): -1e308}, latents=[latent("l1", 1e308), latent("l2", 1e308)],
            overload=1e308,
        )
        used = [make_skill("a", pairs=(("t1", "p1"),), steps=("l1", "l2"))]
        for skills in ([], used):
            assert slot_outcome(scenario, ("t1", "p1"), skills, 2)[0] == 0.0

    def test_motif_skill_realizes_its_latent(self):
        from skillmas.world import realizes

        latent = LatentSkill("lat", ("t1", "p1"), 2.0, CauseLabel.MISSING_PRECONDITION)
        draft = motif_skill(latent, "lat-r0", "worker")
        assert realizes(draft, latent)
        assert draft.tokens() == motif_tokens("lat")


class TestSampleEpisode:
    def test_certain_world_succeeds(self):
        scenario = make_scenario(base={("t1", "p1"): 50.0, ("t1", "p2"): 50.0})
        state = make_state([])
        table = ExecutionTable(state, scenario, EngineConfig())
        shape = episode_shape(table, episode_blocks(0), 0)
        assert shape.outcome == 1
        assert shape.progress == 1.0
        assert shape.latent_cause_observation is None

    def test_impossible_first_phase(self):
        scenario = make_scenario(base={("t1", "p1"): -50.0})
        state = make_state([])
        table = ExecutionTable(state, scenario, EngineConfig())
        shape = episode_shape(table, episode_blocks(0), 0)
        assert shape.outcome == 0
        assert shape.progress == 0.0
        assert len(shape.slices) == 1  # the failing phase was attempted

    def test_fixed_seed_reproduces_trace_bytes(self):
        scenario, state = random_scenario(random.Random(7))
        config = EngineConfig(episodes_per_round=10)
        first = exec_round(state, scenario, 10, 42, config)
        second = exec_round(state, scenario, 10, 42, config)
        assert encode_trace_log(first) == encode_trace_log(second)

    def test_no_eligible_executor_is_a_state_error(self):
        # bypass validation: shrink every boundary away from p2
        state = make_state([])
        state = dataclasses.replace(state, executors={
            eid: dataclasses.replace(e, boundary=frozenset({("t1", "p1")}))
            for eid, e in state.executors.items()
        })
        scenario = make_scenario()
        with pytest.raises(StateError, match=r"no executor covers \(t1, p2\)"):
            exec_round(state, scenario, 5, 0, EngineConfig())
        with pytest.raises(StateError, match=r"no executor covers \(t1, p2\)"):
            list(exec_shared([make_state([]), state], scenario, 5, 0, EngineConfig()))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.integers(0, 2**32 - 1))
    def test_trace_is_the_walk_plus_one_observation_draw(self, world_seed, episode_seed):
        scenario, state = random_scenario(random.Random(world_seed))
        table = ExecutionTable(state, scenario, EngineConfig())
        blocks = episode_blocks(episode_seed)
        for i in range(30):
            shape = episode_shape(table, blocks, i)
            words = blocks(i, 0)
            root = task_at(table, word_random(words, 0, blocks, i))
            step, failed, pos = walk_episode(table, root, words, blocks, i)
            task, slices = root[0], step[1]
            assert shape.task_type is task and shape.slices is slices
            assert shape.outcome == (failed is None)
            # phases completed: those routed, less the one that failed
            completed = len(slices) - (failed is not None)
            assert shape.progress == root[2][completed] == q12(completed / len(task.phases))
            if failed is None:
                assert shape.latent_cause_observation is None
            else:
                assert failed.slice is slices[-1]
                assert failed is table.slot((task.id, slices[-1].phase), slices[-1].executor)
                deficit = failed.deficit
                # the observation is drawn, after the walk's words, only
                # when a deficit exists
                if deficit is not None and word_random(words, pos, blocks, i) < scenario.cause_confidence:
                    expected = (deficit[0], True)
                else:
                    expected = (CauseLabel.UNKNOWN, False)
                obs = shape.latent_cause_observation
                assert (obs.cause, obs.confident) == expected

    def test_containment_invariants(self):
        for seed in range(5):
            scenario, state = random_scenario(random.Random(seed))
            batch = exec_round(state, scenario, 15, seed, EngineConfig())
            for shape in batch.shapes:
                for sl in shape.slices:
                    assert sl.invoked <= sl.selected
                    assert sl.pattern_supported <= sl.selected


class TestExecRound:
    def test_parallel_episode_streams_match_serial(self):
        # the concurrency contract: episode i depends only on (seed, i), so a
        # thread pool sampling episodes out of order reproduces the serial batch
        from concurrent.futures import ThreadPoolExecutor

        scenario, state = random_scenario(random.Random(3))
        config = EngineConfig()
        serial = exec_round(state, scenario, 24, 77, config)

        def one(i):
            table = ExecutionTable(state, scenario, config)
            return episode_shape(table, episode_blocks(77), i)

        with ThreadPoolExecutor(max_workers=8) as pool:
            parallel = tuple(pool.map(one, reversed(range(24))))
        # each episode ran on its own table, so only the records compare
        assert [trace_to_record(shape) for shape in reversed(parallel)] == [
            trace_to_record(serial.shapes[k]) for k in serial.index
        ]

    def test_single_episode(self):
        scenario, state = random_scenario(random.Random(1))
        batch = exec_round(state, scenario, 1, 0, EngineConfig())
        assert len(batch.index) == len(batch.shapes) == 1

    def test_single_task_type_everywhere(self):
        scenario = make_scenario()
        state = make_state([])
        batch = exec_round(state, scenario, 70, 3, EngineConfig())
        assert len(batch.index) == 70
        assert all(shape.task_type.id == "t1" for shape in batch.shapes)
        ids = [batch.episode_id(i) for i in range(70)]
        assert ids == sorted(ids)

    def test_state_not_mutated(self):
        scenario, state = random_scenario(random.Random(5))
        before = serialize_state(state)
        exec_round(state, scenario, 20, 9, EngineConfig())
        assert serialize_state(state) == before

    def test_rate_calibration_within_three_sigma(self):
        # all-phase probability p; binomial concentration oracle on p^phases
        p = 0.8
        logit = math.log(p / (1 - p))
        scenario = make_scenario(
            base={("t1", "p1"): logit, ("t1", "p2"): logit}, noise=0.0
        )
        state = make_state([])
        n = 1000
        batch = exec_round(state, scenario, n, 2024, EngineConfig())
        successes = sum(shape.outcome * count for shape, count in batch.tally())
        expected = p * p
        sigma = math.sqrt(n * expected * (1 - expected))
        assert abs(successes - n * expected) <= 3 * sigma
