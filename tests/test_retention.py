from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from skillmas.config import EngineConfig
from skillmas.model import (
    CauseLabel,
    CauseObservation,
    ExecutorSlice,
    SkillStatus,
    TaskType,
    TraceShape,
    UtilityTable,
)
from skillmas.retention import RetentionCategory, retain

from conftest import make_skill

TASK = TaskType("t1", ("p1", "p2"))


def shape(
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
    return TraceShape(TASK, slices, outcome, progress, obs)


LIBRARY = {"s1": make_skill("s1"), "pooled": make_skill("pooled", status=SkillStatus.POOLED)}


def run_retain(shapes, config=None, q_exec_prior=None, prior_counts=None, counts=None):
    """Each shape's labels, every shape with one episode unless `counts`
    gives its episodes."""
    return retain(
        list(zip(shapes, counts or [1] * len(shapes))),
        UtilityTable() if q_exec_prior is None else q_exec_prior,
        config or EngineConfig(),
        LIBRARY,
        prior_failure_counts=prior_counts,
    )


class TestRetainRules:
    def test_clean_round_retains_nothing(self):
        shapes = [shape(1) for _ in range(5)]
        assert run_retain(shapes) == [frozenset()] * 5

    def test_repeated_failures_same_cause(self):
        shapes = [
            shape(0, cause=CauseLabel.MISSING_PRECONDITION),
            shape(0, cause=CauseLabel.MISSING_PRECONDITION),
        ]
        labels = run_retain(shapes)
        assert len(labels) == 2
        for categories in labels:
            assert RetentionCategory.REPEATED_FAILURE in categories

    def test_one_shape_repeats_through_its_count(self):
        one = shape(0, cause=CauseLabel.MISSING_PRECONDITION)
        assert run_retain([one], counts=[2]) == [{RetentionCategory.REPEATED_FAILURE}]
        assert run_retain([one], counts=[1]) == [frozenset()]

    def test_single_failure_below_multiplicity(self):
        shapes = [shape(0, cause=CauseLabel.MISSING_PRECONDITION)]
        assert run_retain(shapes) == [frozenset()]

    def test_different_causes_do_not_stack(self):
        shapes = [
            shape(0, cause=CauseLabel.MISSING_PRECONDITION),
            shape(0, cause=CauseLabel.SKILL_CONFLICT),
        ]
        assert run_retain(shapes) == [frozenset()] * 2

    def test_cross_round_history_counts(self):
        shapes = [shape(0, cause=CauseLabel.SKILL_CONFLICT)]
        prior = {("t1", CauseLabel.SKILL_CONFLICT): 1}
        labels = run_retain(shapes, prior_counts=prior)
        assert len(labels) == 1
        assert RetentionCategory.REPEATED_FAILURE in labels[0]

    def test_near_miss_by_progress(self):
        half = shape(0, progress=0.5, cause=CauseLabel.UNKNOWN, confident=False)
        low = shape(0, progress=0.0, cause=CauseLabel.SKILL_CONFLICT)
        assert run_retain([half, low]) == [{RetentionCategory.NEAR_MISS}, frozenset()]

    def test_near_miss_threshold_configurable(self):
        half = shape(0, progress=0.5, cause=CauseLabel.UNKNOWN, confident=False)
        strict = EngineConfig(near_miss_progress=0.75)
        assert run_retain([half], config=strict) == [frozenset()]

    def test_success_with_pooled_skill_is_reusable(self):
        shapes = [shape(1, selected=("pooled",), invoked=("pooled",))]
        labels = run_retain(shapes)
        assert len(labels) == 1
        assert RetentionCategory.REUSABLE_SUCCESS in labels[0]

    def test_success_on_weak_prior_executor(self):
        prior = UtilityTable({("w", "t1"): (1, 4)})
        labels = run_retain([shape(1)], q_exec_prior=prior)
        assert len(labels) == 1
        assert RetentionCategory.REUSABLE_SUCCESS in labels[0]

    def test_success_with_unseen_executor_not_reusable(self):
        # the 0.5 prior is not "below 0.5": fresh tables retain nothing
        assert run_retain([shape(1)], q_exec_prior=UtilityTable()) == [frozenset()]

    def test_retrieval_mismatch(self):
        shapes = [shape(1, selected=("s1", "pooled"), invoked=("s1",))]
        labels = run_retain(shapes)
        assert len(labels) == 1
        assert RetentionCategory.RETRIEVAL_MISMATCH in labels[0]

    def test_trace_appears_once_with_category_set(self):
        s = shape(
            0, progress=0.5, cause=CauseLabel.SKILL_CONFLICT,
            selected=("s1", "pooled"), invoked=("s1",),
        )
        labels = run_retain([s, shape(0, cause=CauseLabel.SKILL_CONFLICT)])
        assert all(labels)
        assert labels[0] == {
            RetentionCategory.REPEATED_FAILURE,
            RetentionCategory.NEAR_MISS,
            RetentionCategory.RETRIEVAL_MISMATCH,
        }


class TestRetainProperties:
    @given(st.data())
    @settings(max_examples=40)
    def test_output_subset_and_monotone(self, data):
        rng = random.Random(data.draw(st.integers(0, 10_000)))
        shapes = []
        for i in range(rng.randint(1, 12)):
            outcome = rng.randint(0, 1)
            cause = None
            progress = 1.0 if outcome else rng.choice([0.0, 0.5])
            if outcome == 0:
                cause = rng.choice(list(CauseLabel))
            selected = tuple(rng.sample(["s1", "pooled"], rng.randint(1, 2)))
            invoked = tuple(s for s in selected if rng.random() < 0.7)
            shapes.append(
                shape(outcome, progress=progress, cause=cause,
                      selected=selected, invoked=invoked)
            )
        labels = run_retain(shapes)
        assert len(labels) == len(shapes)  # aligned with the input, no synthesis
        assert all(isinstance(categories, frozenset) for categories in labels)

        # removing one input shape never adds a label to another
        for drop in range(len(shapes)):
            smaller = run_retain(shapes[:drop] + shapes[drop + 1 :])
            for sub, full in zip(smaller, labels[:drop] + labels[drop + 1 :]):
                assert sub <= full

    def test_pure_function_of_inputs(self):
        shapes = [
            shape(0, cause=CauseLabel.MISSING_PRECONDITION),
            shape(0, cause=CauseLabel.MISSING_PRECONDITION),
        ]
        assert run_retain(shapes) == run_retain(shapes)
