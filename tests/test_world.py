from __future__ import annotations

import dataclasses
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from skillmas.config import EngineConfig
from skillmas.model import CauseLabel, Executor, SkillStatus, StateError, TaskType
from skillmas.numfmt import q12
from skillmas.store import serialize_state, trace_to_record
from skillmas.world import (
    ExecutionTable,
    LatentSkill,
    Scenario,
    exec_round,
    exec_shared,
    logistic,
    motif_skill,
    realized_catalog,
    sample_episode,
    walk_episode,
)

from conftest import make_skill, make_state, random_scenario
from reference import ground_truth_success_prob


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


def plain_executor(universe=(("t1", "p1"), ("t1", "p2")), capacity=8, owned=()):
    return Executor("e1", frozenset(universe), frozenset(owned), capacity=capacity)


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
            scenario, {"s1": skill}, "t1", "p1", plain_executor(owned=("s1",)), ["s1"]
        )
        expected = 1.0 / (1.0 + math.exp(-2.0))
        assert p == pytest.approx(expected, abs=1e-12)
        assert p == pytest.approx(0.8808, abs=1e-4)

    def test_mismatching_skill_interferes(self):
        skill = make_skill("s1", pairs=(("t1", "p1"),), steps=("go",))
        scenario = make_scenario(interference=1.0)
        p = ground_truth_success_prob(
            scenario, {"s1": skill}, "t1", "p1", plain_executor(owned=("s1",)), ["s1"]
        )
        expected = 1.0 / (1.0 + math.exp(1.0))
        assert p == pytest.approx(expected, abs=1e-12)
        assert p == pytest.approx(0.2689, abs=1e-4)

    def test_overload_penalty(self):
        skills = {f"s{i}": make_skill(f"s{i}") for i in range(4)}
        executor = plain_executor(capacity=2, owned=tuple(skills))
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
        executor = plain_executor(owned=("match", "junk"))
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


class TestRealization:
    def test_catalog_resolution_prefers_smallest_id(self):
        latent = LatentSkill("lat", ("t1", "p1"), 2.0, CauseLabel.MISSING_PRECONDITION)
        scenario = make_scenario(latents=[latent])
        a = make_skill("a", pairs=(("t1", "p1"),), steps=("lat",))
        b = make_skill("b", pairs=(("t1", "p1"),), steps=("lat",))
        resolved = realized_catalog(scenario, {"a": a, "b": b})
        assert resolved[0].realized_by == "a"

    def test_pruned_skill_does_not_realize(self):
        latent = LatentSkill("lat", ("t1", "p1"), 2.0, CauseLabel.MISSING_PRECONDITION)
        scenario = make_scenario(latents=[latent])
        dead = make_skill("a", pairs=(("t1", "p1"),), steps=("lat",), status=SkillStatus.PRUNED)
        resolved = realized_catalog(scenario, {"a": dead})
        assert resolved[0].realized_by is None

    def test_motif_skill_realizes_its_latent(self):
        from skillmas.world import realizes

        latent = LatentSkill("lat", ("t1", "p1"), 2.0, CauseLabel.MISSING_PRECONDITION)
        draft = motif_skill(latent, "lat-r0", "worker")
        assert realizes(draft, latent)


class TestSampleEpisode:
    def test_certain_world_succeeds(self):
        scenario = make_scenario(base={("t1", "p1"): 50.0, ("t1", "p2"): 50.0})
        state = make_state([])
        table = ExecutionTable(state, scenario, EngineConfig())
        trace = sample_episode(table, scenario.task_types[0], random.Random(0), "e0")
        assert trace.shape.outcome == 1
        assert trace.shape.progress == 1.0
        assert trace.shape.latent_cause_observation is None

    def test_impossible_first_phase(self):
        scenario = make_scenario(base={("t1", "p1"): -50.0})
        state = make_state([])
        table = ExecutionTable(state, scenario, EngineConfig())
        trace = sample_episode(table, scenario.task_types[0], random.Random(0), "e0")
        assert trace.shape.outcome == 0
        assert trace.shape.progress == 0.0
        assert len(trace.shape.slices) == 1  # the failing phase was attempted

    def test_fixed_seed_reproduces_trace_bytes(self):
        scenario, state = random_scenario(random.Random(7))
        config = EngineConfig(episodes_per_round=10)
        first = exec_round(state, scenario, 10, 42, config)
        second = exec_round(state, scenario, 10, 42, config)
        import json

        blob_a = json.dumps([trace_to_record(t) for t in first], sort_keys=True)
        blob_b = json.dumps([trace_to_record(t) for t in second], sort_keys=True)
        assert blob_a == blob_b

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
        for i in range(30):
            task = scenario.task_types[i % len(scenario.task_types)]
            sampled, walked = random.Random(episode_seed + i), random.Random(episode_seed + i)
            trace = sample_episode(table, task, sampled, "e0")
            slices, progress, failed = walk_episode(table, task, walked)
            shape = trace.shape
            assert shape.slices is slices and shape.progress == progress
            assert shape.outcome == (failed is None)
            # phases completed: those routed, less the one that failed
            completed = len(slices) - (failed is not None)
            assert progress == q12(completed / len(task.phases))
            if failed is None:
                assert shape.latent_cause_observation is None
            else:
                assert failed.slice is slices[-1]
                assert failed is table.slot((task.id, slices[-1].phase), slices[-1].executor)
                deficit = failed.deficit
                # the observation is drawn only when a deficit exists
                if deficit is not None and walked.random() < scenario.cause_confidence:
                    expected = (deficit[0], True)
                else:
                    expected = (CauseLabel.UNKNOWN, False)
                obs = shape.latent_cause_observation
                assert (obs.cause, obs.confident) == expected
            assert sampled.getstate() == walked.getstate()

    def test_containment_invariants(self):
        for seed in range(5):
            scenario, state = random_scenario(random.Random(seed))
            traces = exec_round(state, scenario, 15, seed, EngineConfig())
            for trace in traces:
                for sl in trace.shape.slices:
                    assert sl.invoked <= sl.selected
                    assert sl.pattern_supported <= sl.selected


class TestExecRound:
    def test_parallel_episode_streams_match_serial(self):
        # the concurrency contract: episode i depends only on (seed, i), so a
        # thread pool sampling episodes out of order reproduces the serial batch
        from concurrent.futures import ThreadPoolExecutor

        from reference import _weighted_choice, substream

        scenario, state = random_scenario(random.Random(3))
        config = EngineConfig()
        serial = exec_round(state, scenario, 24, 77, config)

        def one(i):
            rng = substream(77, "episode", i)
            task = _weighted_choice(rng, scenario.task_types, scenario.task_weights)
            table = ExecutionTable(state, scenario, config)
            return sample_episode(table, task, rng, f"e{i:05d}")

        with ThreadPoolExecutor(max_workers=8) as pool:
            parallel = tuple(pool.map(one, reversed(range(24))))
        # each episode ran on its own table, so only the records compare
        assert [trace_to_record(t) for t in reversed(parallel)] == [
            trace_to_record(t) for t in serial
        ]

    def test_single_episode(self):
        scenario, state = random_scenario(random.Random(1))
        assert len(exec_round(state, scenario, 1, 0, EngineConfig())) == 1

    def test_single_task_type_everywhere(self):
        scenario = make_scenario()
        state = make_state([])
        traces = exec_round(state, scenario, 70, 3, EngineConfig())
        assert len(traces) == 70
        assert all(t.shape.task_type.id == "t1" for t in traces)
        ids = [t.episode_id for t in traces]
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
        traces = exec_round(state, scenario, n, 2024, EngineConfig())
        successes = sum(t.shape.outcome for t in traces)
        expected = p * p
        sigma = math.sqrt(n * expected * (1 - expected))
        assert abs(successes - n * expected) <= 3 * sigma
