from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from skillmas.model import (
    Executor,
    ExecutorSlice,
    SkillStatus,
    StateError,
    TaskType,
    TraceShape,
    UtilityTable,
)
from skillmas.utility import (
    covering_ids,
    executor_route,
    learn,
    used_skills,
)

from conftest import batch_of, make_skill, make_state
from reference import route_draw, select_skills

TASK = TaskType("t1", ("p1",))


def make_shape(slices, outcome, task=TASK):
    progress = 1.0 if outcome == 1 else 0.0
    return TraceShape(task, tuple(slices), outcome, progress)


def sl(executor, selected, invoked, pattern=(), phase="p1"):
    return ExecutorSlice(
        executor, phase, frozenset(selected), frozenset(invoked), frozenset(pattern)
    )


class TestUsedSkills:
    def test_invoked_only(self):
        assert used_skills(sl("e", {"s1", "s2"}, {"s1"})) == {"s1"}

    def test_pattern_only(self):
        assert used_skills(sl("e", {"s1"}, set(), {"s1"})) == {"s1"}

    def test_union(self):
        assert used_skills(sl("e", {"s1", "s2", "s3"}, {"s1"}, {"s2"})) == {"s1", "s2"}


class TestLearn:
    def test_fresh_entry_takes_first_outcome(self):
        batch = batch_of([make_shape([sl("w", {"s1"}, {"s1"})], 1)])
        q_s, q_a = learn(UtilityTable(), UtilityTable(), batch)
        assert q_s.get("s1", "t1") == (1.0, 1)
        assert q_a.get("w", "t1") == (1.0, 1)

    def test_sequence_matches_arithmetic_mean(self):
        # oracle: running mean of [1, 0, 1] is 2/3
        q_s, q_a = UtilityTable(), UtilityTable()
        for outcome in [1, 0, 1]:
            batch = batch_of([make_shape([sl("w", {"s1"}, {"s1"})], outcome)])
            q_s, q_a = learn(q_s, q_a, batch)
        value, count = q_s.get("s1", "t1")
        assert count == 3
        assert abs(value - (2 / 3)) < 1e-9

    def test_selected_but_unused_untouched(self):
        prior = UtilityTable({("s2", "t1"): (1, 4)})
        batch = batch_of([make_shape([sl("w", {"s1", "s2"}, {"s1"})], 1)])
        q_s, _ = learn(prior, UtilityTable(), batch)
        assert q_s.get("s2", "t1") == (0.25, 4)
        assert q_s.get("s1", "t1") == (1.0, 1)

    def test_executor_credit_only_for_slice_holders(self):
        prior = UtilityTable({("idle", "t1"): (1, 2)})
        batch = batch_of([make_shape([sl("w", {"s1"}, {"s1"})], 0)])
        _, q_a = learn(UtilityTable(), prior, batch)
        assert q_a.get("idle", "t1") == (0.5, 2)
        assert q_a.get("w", "t1") == (0.0, 1)

    def test_unknown_ids_hard_error(self):
        batch = batch_of([make_shape([sl("w", {"ghost"}, {"ghost"})], 1)])
        with pytest.raises(StateError):
            learn(UtilityTable(), UtilityTable(), batch, known_skills=["s1"],
                  known_executors=["w"])
        with pytest.raises(StateError):
            learn(UtilityTable(), UtilityTable(), batch, known_skills=["ghost"],
                  known_executors=["other"])

    def test_skill_used_by_two_executors_is_credited_twice(self):
        task = TaskType("t1", ("p1", "p2"))
        shape = make_shape(
            [sl("w", {"s1"}, {"s1"}), sl("v", {"s1"}, set(), {"s1"}, phase="p2")], 1, task
        )
        q_s, q_a = learn(UtilityTable(), UtilityTable(), batch_of([shape] * 3))
        assert q_s.counts == {("s1", "t1"): (6, 6)}
        assert q_a.counts == {("w", "t1"): (3, 3), ("v", "t1"): (3, 3)}

    @given(st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=60))
    @settings(max_examples=50)
    def test_running_mean_identity(self, outcomes):
        q_s, q_a = UtilityTable(), UtilityTable()
        for outcome in outcomes:
            q_s, q_a = learn(
                q_s, q_a, batch_of([make_shape([sl("w", {"s1"}, {"s1"})], outcome)])
            )
        value, count = q_s.get("s1", "t1")
        assert count == len(outcomes)
        assert abs(value - sum(outcomes) / len(outcomes)) < 1e-9
        assert 0.0 <= value <= 1.0


class TestSelectSkills:
    def test_single_applicable_skill(self):
        state = make_state([make_skill("only")])
        for k in (1, 3, 10):
            assert select_skills(state.q_skill, state, "t1", "p1", "worker", k) == ["only"]

    def test_argmax_by_utility(self):
        state = make_state(
            [make_skill("hi"), make_skill("lo")],
            q_skill=UtilityTable({("hi", "t1"): (9, 10), ("lo", "t1"): (2, 5)}),
        )
        assert select_skills(state.q_skill, state, "t1", "p1", "worker", 1) == ["hi"]

    def test_unseen_ties_break_lexicographically(self):
        state = make_state([make_skill("beta"), make_skill("alpha")])
        assert select_skills(state.q_skill, state, "t1", "p1", "worker", 1) == ["alpha"]

    def test_ownership_filter(self):
        mine = make_skill("mine", owner="worker")
        theirs = make_skill("theirs", owner="other")
        shared = make_skill("shared", owner="manager")
        state = make_state(
            [mine, theirs, shared],
            executors=[
                Executor("manager", frozenset({("t1", "p1"), ("t1", "p2")}), is_manager=True),
                Executor("worker", frozenset({("t1", "p1"), ("t1", "p2")})),
                Executor("other", frozenset({("t1", "p1"), ("t1", "p2")})),
            ],
        )
        chosen = select_skills(state.q_skill, state, "t1", "p1", "worker", 5)
        assert chosen == ["mine", "shared"]

    def test_pooled_appended_beyond_top_k(self):
        pooled = make_skill("zz-pooled", status=SkillStatus.POOLED)
        state = make_state(
            [make_skill("a"), make_skill("b"), pooled],
            q_skill=UtilityTable(
                {("a", "t1"): (9, 10), ("b", "t1"): (4, 5), ("zz-pooled", "t1"): (1, 10)}
            ),
            pool={"zz-pooled": (3, 0)},
        )
        chosen = select_skills(state.q_skill, state, "t1", "p1", "worker", 2)
        assert chosen == ["a", "b", "zz-pooled"]

    def test_at_most_one_pooled_appended(self):
        pooled = [
            make_skill(f"pool{i}", status=SkillStatus.POOLED) for i in range(3)
        ]
        state = make_state(
            [make_skill("a")] + pooled,
            q_skill=UtilityTable({("a", "t1"): (9, 10)}),
            pool={s.id: (0, 0) for s in pooled},
        )
        chosen = select_skills(state.q_skill, state, "t1", "p1", "worker", 1)
        assert chosen == ["a", "pool0"]


class TestSelectExecutor:
    def test_single_eligible(self):
        state = make_state([])
        rng = random.Random(0)
        universe = frozenset({("t2", "p1")})
        state = make_state(
            [],
            executors=[
                Executor("manager", frozenset({("t1", "p1"), ("t1", "p2"), ("t2", "p1")}),
                         is_manager=True),
                Executor("narrow", universe),
            ],
        )
        route = executor_route(state.q_exec, "t2", "p1", covering_ids(state.executors))
        for epsilon in (0.0, 0.5, 1.0):
            assert route_draw(route, rng, epsilon) in ("manager", "narrow")
        only = make_state(
            [],
            executors=[Executor("manager", frozenset({("t1", "p1"), ("t1", "p2")}),
                                is_manager=True)],
        )
        route = executor_route(only.q_exec, "t1", "p1", covering_ids(only.executors))
        assert route_draw(route, rng, 1.0) == "manager"

    def test_greedy_tracks_utility_gap(self):
        state = make_state(
            [],
            q_exec=UtilityTable({("manager", "t1"): (3, 10), ("worker", "t1"): (4, 5)}),
        )
        rng = random.Random(1)
        route = executor_route(state.q_exec, "t1", "p1", covering_ids(state.executors))
        for _ in range(50):
            assert route_draw(route, rng, 0.0) == "worker"

    def test_full_noise_is_uniform_within_three_sigma(self):
        state = make_state([])
        rng = random.Random(12345)
        n = 10_000
        route = executor_route(state.q_exec, "t1", "p1", covering_ids(state.executors))
        picks = sum(route_draw(route, rng, 1.0) == "manager" for _ in range(n))
        sigma = math.sqrt(n * 0.25)
        assert abs(picks - n / 2) <= 3 * sigma
