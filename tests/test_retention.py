from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from skillmas.config import EngineConfig
from skillmas.model import (
    CauseLabel,
    CauseObservation,
    EpisodeTrace,
    ExecutorSlice,
    SkillStatus,
    TaskType,
    TraceShape,
    UtilityTable,
)
from skillmas.retention import RetentionCategory, retain

from conftest import make_skill

TASK = TaskType("t1", ("p1", "p2"))


def trace(
    episode_id,
    outcome,
    progress=None,
    cause=None,
    confident=True,
    selected=("s1",),
    invoked=("s1",),
    pattern=(),
    executor="w",
):
    slices = (
        ExecutorSlice(executor, "p1", frozenset(selected), frozenset(invoked),
                      frozenset(pattern)),
    )
    if progress is None:
        progress = 1.0 if outcome else 0.0
    obs = CauseObservation(cause, confident) if cause is not None else None
    return EpisodeTrace(episode_id, TraceShape(TASK, slices, outcome, progress, obs))


LIBRARY = {"s1": make_skill("s1"), "pooled": make_skill("pooled", status=SkillStatus.POOLED)}


def run_retain(traces, config=None, q_exec_prior=None, prior_counts=None):
    return retain(
        traces,
        UtilityTable() if q_exec_prior is None else q_exec_prior,
        config or EngineConfig(),
        LIBRARY,
        prior_failure_counts=prior_counts,
    )


class TestRetainRules:
    def test_clean_round_retains_nothing(self):
        traces = [trace(f"e{i}", 1) for i in range(5)]
        assert run_retain(traces) == []

    def test_repeated_failures_same_cause(self):
        traces = [
            trace("e0", 0, cause=CauseLabel.MISSING_PRECONDITION),
            trace("e1", 0, cause=CauseLabel.MISSING_PRECONDITION),
        ]
        retained = run_retain(traces)
        assert len(retained) == 2
        for rt in retained:
            assert RetentionCategory.REPEATED_FAILURE in rt.categories

    def test_single_failure_below_multiplicity(self):
        traces = [trace("e0", 0, cause=CauseLabel.MISSING_PRECONDITION)]
        assert run_retain(traces) == []

    def test_different_causes_do_not_stack(self):
        traces = [
            trace("e0", 0, cause=CauseLabel.MISSING_PRECONDITION),
            trace("e1", 0, cause=CauseLabel.SKILL_CONFLICT),
        ]
        assert run_retain(traces) == []

    def test_cross_round_history_counts(self):
        traces = [trace("e0", 0, cause=CauseLabel.SKILL_CONFLICT)]
        prior = {("t1", CauseLabel.SKILL_CONFLICT): 1}
        retained = run_retain(traces, prior_counts=prior)
        assert len(retained) == 1
        assert RetentionCategory.REPEATED_FAILURE in retained[0].categories

    def test_near_miss_by_progress(self):
        half = trace("e0", 0, progress=0.5, cause=CauseLabel.UNKNOWN, confident=False)
        low = trace("e1", 0, progress=0.0, cause=CauseLabel.SKILL_CONFLICT)
        retained = run_retain([half, low])
        assert [rt.trace.episode_id for rt in retained] == ["e0"]
        assert retained[0].categories == {RetentionCategory.NEAR_MISS}

    def test_near_miss_threshold_configurable(self):
        half = trace("e0", 0, progress=0.5, cause=CauseLabel.UNKNOWN, confident=False)
        strict = EngineConfig(near_miss_progress=0.75)
        assert run_retain([half], config=strict) == []

    def test_success_with_pooled_skill_is_reusable(self):
        traces = [trace("e0", 1, selected=("pooled",), invoked=("pooled",))]
        retained = run_retain(traces)
        assert len(retained) == 1
        assert RetentionCategory.REUSABLE_SUCCESS in retained[0].categories

    def test_success_on_weak_prior_executor(self):
        prior = UtilityTable({("w", "t1"): (0.2, 4)})
        retained = run_retain([trace("e0", 1)], q_exec_prior=prior)
        assert len(retained) == 1
        assert RetentionCategory.REUSABLE_SUCCESS in retained[0].categories

    def test_success_with_unseen_executor_not_reusable(self):
        # the 0.5 prior is not "below 0.5": fresh tables retain nothing
        assert run_retain([trace("e0", 1)], q_exec_prior=UtilityTable()) == []

    def test_retrieval_mismatch(self):
        traces = [trace("e0", 1, selected=("s1", "pooled"), invoked=("s1",))]
        retained = run_retain(traces)
        assert len(retained) == 1
        assert RetentionCategory.RETRIEVAL_MISMATCH in retained[0].categories

    def test_trace_appears_once_with_category_set(self):
        t = trace(
            "e0", 0, progress=0.5, cause=CauseLabel.SKILL_CONFLICT,
            selected=("s1", "pooled"), invoked=("s1",),
        )
        retained = run_retain([t, trace("e1", 0, cause=CauseLabel.SKILL_CONFLICT)])
        assert [rt.trace.episode_id for rt in retained] == ["e0", "e1"]
        assert retained[0].categories == {
            RetentionCategory.REPEATED_FAILURE,
            RetentionCategory.NEAR_MISS,
            RetentionCategory.RETRIEVAL_MISMATCH,
        }


class TestRetainProperties:
    @given(st.data())
    @settings(max_examples=40)
    def test_output_subset_and_monotone(self, data):
        rng = random.Random(data.draw(st.integers(0, 10_000)))
        traces = []
        for i in range(rng.randint(1, 12)):
            outcome = rng.randint(0, 1)
            cause = None
            progress = 1.0 if outcome else rng.choice([0.0, 0.5])
            if outcome == 0:
                cause = rng.choice(list(CauseLabel))
            selected = tuple(rng.sample(["s1", "pooled"], rng.randint(1, 2)))
            invoked = tuple(s for s in selected if rng.random() < 0.7)
            traces.append(
                trace(f"e{i:02d}", outcome, progress=progress, cause=cause,
                      selected=selected, invoked=invoked)
            )
        retained = run_retain(traces)
        kept = {id(rt.trace) for rt in retained}
        assert kept <= {id(t) for t in traces}  # identity, no synthesis

        # removing one input trace never adds an output trace
        for drop in range(len(traces)):
            smaller = traces[:drop] + traces[drop + 1 :]
            sub = {rt.trace.episode_id for rt in run_retain(smaller)}
            assert sub <= {rt.trace.episode_id for rt in retained}

    def test_pure_function_of_inputs(self):
        traces = [
            trace("e0", 0, cause=CauseLabel.MISSING_PRECONDITION),
            trace("e1", 0, cause=CauseLabel.MISSING_PRECONDITION),
        ]
        assert run_retain(traces) == run_retain(traces)
