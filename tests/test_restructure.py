from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from skillmas.config import EngineConfig
from skillmas.evolution import SkillAction, SkillDelta
from skillmas.model import (
    CauseLabel,
    CauseObservation,
    Executor,
    ExecutorSlice,
    SkillStatus,
    StateError,
    TaskType,
    TraceShape,
    UtilityTable,
    validate_state,
)
from skillmas.restructure import (
    RestructureDecision,
    apply_restructure,
    build_artifacts,
    decide_restructure,
    evidence_holds,
)
from skillmas.retention import RetainedShape

from conftest import make_skill, make_state

TASK = TaskType("t1", ("p1", "p2"))
CONFIG = EngineConfig()


def retained_failure(episode_id, cause=CauseLabel.MISSING_PRECONDITION,
                     executor="worker", phase="p1", task=TASK, confident=True, count=1):
    shape = TraceShape(
        task,
        (ExecutorSlice(executor, phase, frozenset(), frozenset(), frozenset()),),
        0, 0.0, CauseObservation(cause, confident),
    )
    return RetainedShape(shape, count, episode_id)


class TestBuildArtifacts:
    def test_no_failures_no_artifacts(self):
        out = build_artifacts([], UtilityTable(), SkillDelta())
        assert out == []

    def test_pending_repair_reduces_mass(self):
        failures = [retained_failure(f"e{i}") for i in range(4)]
        delta = SkillDelta(
            (SkillAction(cluster="c", action="refine", skills=("sk",),
                         source_trace="e0", task_type="t1"),)
        )
        out = build_artifacts(failures, UtilityTable(), delta)
        assert len(out) == 1
        assert out[0][0]["failure_mass"] == 3

    def test_mass_counts_every_episode_of_a_shape(self):
        failures = [retained_failure("e0", count=4), retained_failure("e4", count=2)]
        delta = SkillDelta(
            (SkillAction(cluster="c", action="refine", skills=("sk",),
                         source_trace="e0", task_type="t1"),)
        )
        out = build_artifacts(failures, UtilityTable(), delta)
        # the addressed source is the first of its shape's four episodes
        assert out[0][0]["failure_mass"] == 5

    def test_handoff_flag_from_diagnoses(self):
        failures = [retained_failure("e0", cause=CauseLabel.BAD_EXECUTOR_ASSIGNMENT),
                    retained_failure("e1")]
        out = build_artifacts(failures, UtilityTable(), SkillDelta())
        assert out[0][0]["handoff_present"]

    def test_deterministic_task_order(self):
        t2 = TaskType("t0", ("p1",))
        failures = [retained_failure("e0"), retained_failure("e1", task=t2)]
        out = build_artifacts(failures, UtilityTable(), SkillDelta())
        assert [facts["task_type"] for facts, _ in out] == ["t0", "t1"]


def artifact(mass=4, executors=(("worker", 0.3, 8),), handoff=True,
             pairs=(("t1", "p1"),), task="t1"):
    facts = {
        "task_type": task,
        "failure_mass": mass,
        "executors": [{"id": i, "value": v, "count": n} for i, v, n in executors],
        "handoff_present": handoff,
    }
    return facts, frozenset(pairs)


class TestDecide:
    def test_empty_artifacts_keep(self):
        state = make_state([])
        decision = decide_restructure(
            [], state.executors, UtilityTable(), CONFIG, round_index=0, library=state.library
        )
        assert decision.action == "keep"
        assert decision.evidence == {}

    def test_add_specialist_predicate(self):
        state = make_state([])
        decision = decide_restructure(
            [artifact()], state.executors, UtilityTable(), CONFIG,
            round_index=3, library=state.library,
        )
        assert decision.action == "add"
        assert decision.subjects == ("exec-t1-r3",)
        assert decision.new_boundary == frozenset({("t1", "p1")})
        assert evidence_holds(decision)

    def test_add_requires_handoff(self):
        state = make_state([])
        decision = decide_restructure(
            [artifact(handoff=False)], state.executors, UtilityTable(), CONFIG,
            round_index=0, library=state.library,
        )
        assert decision.action == "keep"

    def test_add_requires_all_executors_weak_with_evidence(self):
        state = make_state([])
        strong = artifact(executors=(("worker", 0.3, 8), ("manager", 0.7, 9)))
        thin = artifact(executors=(("worker", 0.3, 2),))
        for art in (strong, thin):
            decision = decide_restructure(
                [art], state.executors, UtilityTable(), CONFIG,
                round_index=0, library=state.library,
            )
            assert decision.action == "keep"

    def test_merge_remove_predicate(self):
        universe = frozenset(TASK.pairs())
        twin_a = make_skill("twin-a", steps=("x", "y", "z"), owner="wa")
        twin_b = make_skill("twin-b", steps=("x", "y", "z"), owner="wb")
        state = make_state(
            [twin_a, twin_b],
            executors=[
                Executor("manager", universe, is_manager=True),
                Executor("wa", universe),
                Executor("wb", universe),
            ],
        )
        q = UtilityTable({("wa", "t1"): (5, 9), ("wb", "t1"): (4, 7)})
        decision = decide_restructure([], state.executors, q, CONFIG,
                                      round_index=0, library=state.library)
        assert decision.action == "merge-remove"
        assert decision.subjects == ("wa", "wb")
        assert evidence_holds(decision)

    def test_merge_needs_small_gap(self):
        universe = frozenset(TASK.pairs())
        twin_a = make_skill("twin-a", steps=("x", "y"), owner="wa")
        twin_b = make_skill("twin-b", steps=("x", "y"), owner="wb")
        state = make_state(
            [twin_a, twin_b],
            executors=[
                Executor("manager", universe, is_manager=True),
                Executor("wa", universe),
                Executor("wb", universe),
            ],
        )
        q = UtilityTable({("wa", "t1"): (8, 9), ("wb", "t1"): (3, 7)})
        decision = decide_restructure([], state.executors, q, CONFIG,
                                      round_index=0, library=state.library)
        assert decision.action == "keep"

    def test_modify_predicate(self):
        universe = frozenset(TASK.pairs()) | frozenset({("t2", "p1")})
        skills = [make_skill(f"s{i}", pairs=(("t1", "p1"),)) for i in range(3)]
        state = make_state(
            skills,
            executors=[
                Executor("manager", universe, is_manager=True),
                Executor("worker", universe, capacity=2),
            ],
        )
        q = UtilityTable({("worker", "t1"): (1, 6)})
        decision = decide_restructure([], state.executors, q, CONFIG,
                                      round_index=0, library=state.library)
        assert decision.action == "modify"
        assert decision.subjects == ("worker",)
        assert decision.new_boundary == frozenset({("t2", "p1")})
        assert decision.transferred_skills == ("s0", "s1", "s2")
        assert evidence_holds(decision)

    def test_priority_add_over_merge(self):
        universe = frozenset(TASK.pairs())
        twin_a = make_skill("twin-a", steps=("x",), owner="wa")
        twin_b = make_skill("twin-b", steps=("x",), owner="wb")
        state = make_state(
            [twin_a, twin_b],
            executors=[
                Executor("manager", universe, is_manager=True),
                Executor("wa", universe),
                Executor("wb", universe),
            ],
        )
        q = UtilityTable({("wa", "t1"): (4, 9), ("wb", "t1"): (3, 7)})
        decision = decide_restructure(
            [artifact(executors=(("wa", 0.45, 9), ("wb", 0.44, 7)))],
            state.executors, q, CONFIG, round_index=0, library=state.library,
        )
        assert decision.action == "add"

    @pytest.mark.parametrize(
        "mass, value, count, action",
        [(3, 0.3, 8, "add"), (4, 0.3, 5, "add"), (4, 0.5, 8, "keep"), (2, 0.3, 8, "keep")],
        ids=["mass-at-threshold", "count-at-min", "value-at-weak", "mass-below"],
    )
    def test_add_at_its_thresholds(self, mass, value, count, action):
        # mass_threshold 3, min_count 5 and weak_utility 0.5 are each met at
        # the threshold, except the utility, which must be strictly below it
        state = make_state([])
        decision = decide_restructure(
            [artifact(mass=mass, executors=(("worker", value, count),))], state.executors,
            UtilityTable(), CONFIG, round_index=0, library=state.library,
        )
        assert decision.action == action
        assert evidence_holds(decision)

    @pytest.mark.parametrize(
        "counts_b, action",
        [((5, 10), "keep"), ((11, 20), "merge-remove"), ((3, 5), "merge-remove")],
    )
    def test_merge_gap_must_be_below_the_threshold(self, counts_b, action):
        # wa's utility is 0.6: a gap of 0.1 (wb at 0.5) equals merge_gap, 0.05 is below it;
        # wb at (3, 5) has no gap and exactly min_count attempts, which is enough
        universe = frozenset(TASK.pairs())
        state = make_state(
            [make_skill("twin-a", steps=("x", "y"), owner="wa"),
             make_skill("twin-b", steps=("x", "y"), owner="wb")],
            executors=[
                Executor("manager", universe, is_manager=True),
                Executor("wa", universe),
                Executor("wb", universe),
            ],
        )
        q = UtilityTable({("wa", "t1"): (6, 10), ("wb", "t1"): counts_b})
        decision = decide_restructure([], state.executors, q, CONFIG,
                                      round_index=0, library=state.library)
        assert decision.action == action
        assert evidence_holds(decision)

    @pytest.mark.parametrize(
        "counts, action",
        [((1, 5), "modify"), ((1, 4), "keep"), ((3, 6), "keep"), ((2, 6), "modify")],
        ids=["count-at-min", "count-below-min", "utility-at-weak", "utility-below-weak"],
    )
    def test_modify_at_its_thresholds(self, counts, action):
        # min_count 5 is met at the threshold; weak_utility 0.5 is not
        universe = frozenset(TASK.pairs()) | frozenset({("t2", "p1")})
        skills = [make_skill(f"s{i}", pairs=(("t1", "p1"),)) for i in range(3)]
        state = make_state(
            skills,
            executors=[
                Executor("manager", universe, is_manager=True),
                Executor("worker", universe, capacity=2),
            ],
        )
        q = UtilityTable({("worker", "t1"): counts})
        decision = decide_restructure([], state.executors, q, CONFIG,
                                      round_index=0, library=state.library)
        assert decision.action == action
        assert evidence_holds(decision)


class TestApply:
    def test_keep_is_identity(self):
        state = make_state([make_skill("sk")])
        lib, execs, pool, log = apply_restructure(
            state.library, state.executors, state.pool, state.q_skill,
            RestructureDecision(action="keep"), CONFIG,
        )
        assert lib == state.library
        assert execs == state.executors
        assert pool == state.pool
        assert log == []

    def test_add_transfers_validated_applicable_skills(self):
        validated = make_skill("val", pairs=(("t1", "p1"),),
                               status=SkillStatus.VALIDATED)
        other = make_skill("other", pairs=(("t1", "p2"),))
        state = make_state([validated, other])
        decision = RestructureDecision(
            action="add",
            subjects=("exec-t1-r0",),
            new_boundary=frozenset({("t1", "p1")}),
            transferred_skills=("val",),
            evidence={"predicate": "add"},
        )
        lib, execs, pool, log = apply_restructure(
            state.library, state.executors, state.pool, state.q_skill,
            decision, CONFIG,
        )
        assert lib["val"].owner == "exec-t1-r0"
        assert lib["other"].owner == "worker"
        assert execs["exec-t1-r0"].capacity == CONFIG.default_capacity

    def test_merge_consolidates_near_duplicates_by_utility(self):
        # s1 Q=0.8 vs near-duplicate s2 Q=0.6 (similarity >= 0.8): s2 pruned
        universe = frozenset(TASK.pairs())
        s1 = make_skill("s1", steps=("a", "b", "c", "d", "e"), owner="wa",
                        status=SkillStatus.VALIDATED)
        s2 = make_skill("s2", steps=("a", "b", "c", "d"), owner="wb",
                        status=SkillStatus.VALIDATED)
        from skillmas.model import skill_similarity

        assert skill_similarity(s1, s2) >= 0.8
        state = make_state(
            [s1, s2],
            executors=[
                Executor("manager", universe, is_manager=True),
                Executor("wa", universe),
                Executor("wb", universe),
            ],
            q_skill=UtilityTable({("s1", "t1"): (4, 5), ("s2", "t1"): (3, 5)}),
        )
        decision = RestructureDecision(
            action="merge-remove", subjects=("wa", "wb"),
            evidence={"predicate": "merge-remove"},
        )
        lib, execs, pool, log = apply_restructure(
            state.library, state.executors, state.pool, state.q_skill,
            decision, CONFIG,
        )
        assert "wb" not in execs
        assert "s2" not in lib
        assert lib["s1"].status is SkillStatus.VALIDATED
        assert lib["s1"].owner == "wa"
        assert any("consolidated s2 into s1" in entry for entry in log)

    @pytest.mark.parametrize(
        "q_skill, kept",
        [
            # s1's best, 0.8, beats s2's 0.6, though s1's worst is below s2's
            ({("s1", "t1"): (4, 5), ("s1", "t2"): (1, 5), ("s2", "t1"): (3, 5),
              ("s2", "t2"): (3, 5)}, "s1"),
            ({("s1", "t1"): (2, 5), ("s1", "t2"): (1, 5), ("s2", "t1"): (3, 5),
              ("s2", "t2"): (4, 5)}, "s2"),
            # a skill with no entry counts 0.5, above s2's 0.4
            ({("s2", "t1"): (2, 5)}, "s1"),
        ],
        ids=["best-of-several", "other-best", "no-entry"],
    )
    def test_merge_keeps_the_copy_whose_utility_peaks_higher(self, q_skill, kept):
        universe = frozenset(TASK.pairs())
        s1 = make_skill("s1", steps=("a", "b", "c", "d", "e"), owner="wa")
        s2 = make_skill("s2", steps=("a", "b", "c", "d"), owner="wb")
        state = make_state(
            [s1, s2],
            executors=[
                Executor("manager", universe, is_manager=True),
                Executor("wa", universe),
                Executor("wb", universe),
            ],
            q_skill=UtilityTable(q_skill),
        )
        decision = RestructureDecision(
            action="merge-remove", subjects=("wa", "wb"),
            evidence={"predicate": "merge-remove"},
        )
        lib, _, _, log = apply_restructure(
            state.library, state.executors, state.pool, state.q_skill, decision, CONFIG,
        )
        dropped = ({"s1", "s2"} - {kept}).pop()
        assert sorted(lib) == [kept]
        assert log[-1] == f"consolidated {dropped} into {kept}"

    def test_modify_narrows_and_hands_to_manager(self):
        universe = frozenset(TASK.pairs()) | frozenset({("t2", "p1")})
        stray = make_skill("stray", pairs=(("t1", "p1"),))
        state = make_state(
            [stray],
            executors=[
                Executor("manager", universe, is_manager=True),
                Executor("worker", universe),
            ],
        )
        decision = RestructureDecision(
            action="modify", subjects=("worker",),
            new_boundary=frozenset({("t2", "p1")}),
            transferred_skills=("stray",),
            evidence={"predicate": "modify"},
        )
        lib, execs, pool, log = apply_restructure(
            state.library, state.executors, state.pool, state.q_skill,
            decision, CONFIG,
        )
        assert execs["worker"].boundary == frozenset({("t2", "p1")})
        assert lib["stray"].owner == "manager"

    def test_manager_cannot_be_merged_away(self):
        state = make_state([])
        decision = RestructureDecision(
            action="merge-remove", subjects=("manager", "worker"),
            evidence={"predicate": "merge-remove"},
        )
        with pytest.raises(StateError):
            apply_restructure(state.library, state.executors, state.pool,
                              state.q_skill, decision, CONFIG)

    def test_post_state_passes_validation(self):
        validated = make_skill("val", pairs=(("t1", "p1"),),
                               status=SkillStatus.VALIDATED)
        state = make_state([validated])
        decision = RestructureDecision(
            action="add", subjects=("exec-t1-r0",),
            new_boundary=frozenset({("t1", "p1")}),
            transferred_skills=("val",),
            evidence={"predicate": "add"},
        )
        lib, execs, pool, _ = apply_restructure(
            state.library, state.executors, state.pool, state.q_skill,
            decision, CONFIG,
        )
        new_state = type(state)(
            round_index=1, library=lib, executors=execs,
            q_skill=state.q_skill, q_exec=state.q_exec, pool=pool,
        )
        validate_state(new_state, frozenset(TASK.pairs()))


class TestEvidence:
    def test_non_keep_requires_evidence(self):
        with pytest.raises(StateError):
            RestructureDecision(action="add", subjects=("x",))

    def test_add_and_merge_evidence_reevaluation(self):
        state = make_state([])
        decision = decide_restructure(
            [artifact()], state.executors, UtilityTable(), CONFIG,
            round_index=0, library=state.library,
        )
        assert evidence_holds(decision)
        weakened = RestructureDecision(
            action="add", subjects=decision.subjects,
            new_boundary=decision.new_boundary,
            evidence={**decision.evidence, "failure_mass": 1},
        )
        assert not evidence_holds(weakened)

        merge = RestructureDecision(
            action="merge-remove", subjects=("wa", "wb"),
            evidence={
                "predicate": "merge-remove", "survivor": "wa", "removed": "wb",
                "skill_overlap": 0.75, "overlap_threshold": 0.5,
                "utility_gaps": {"t1": 0.05}, "merge_gap": 0.1,
            },
        )
        assert evidence_holds(merge)
        drifted = RestructureDecision(
            action="merge-remove", subjects=("wa", "wb"),
            evidence={**merge.evidence, "utility_gaps": {"t1": 0.4}},
        )
        assert not evidence_holds(drifted)

    def test_recorded_predicate_reevaluates(self):
        decision = RestructureDecision(
            action="modify", subjects=("w",),
            new_boundary=frozenset({("t1", "p1")}),
            evidence={
                "predicate": "modify", "executor": "w", "owned_skills": 5,
                "capacity": 2, "weak_family": "t1", "utility": 0.3, "count": 6,
                "weak_utility": 0.5, "min_count": 5,
            },
        )
        assert evidence_holds(decision)
        broken = RestructureDecision(
            action="modify", subjects=("w",),
            new_boundary=frozenset({("t1", "p1")}),
            evidence={**decision.evidence, "utility": 0.9},
        )
        assert not evidence_holds(broken)


def one_third_world(overlap_threshold):
    """Two workers whose skill tokens overlap in exactly 1/3: {x, y} and {y, z}."""
    universe = frozenset(TASK.pairs())
    state = make_state(
        [make_skill("sa", steps=("x", "y"), owner="wa"),
         make_skill("sb", steps=("y", "z"), owner="wb")],
        executors=[
            Executor("manager", universe, is_manager=True),
            Executor("wa", universe),
            Executor("wb", universe),
        ],
    )
    q = UtilityTable({("wa", "t1"): (6, 10), ("wb", "t1"): (11, 19)})
    return [], state.executors, q, EngineConfig(overlap_threshold=overlap_threshold), state.library


class TestOnePredicate:
    def test_overlap_is_decided_on_its_recorded_value(self):
        # 1/3 is above 0.3333333333333, but the recorded overlap, 0.333333333333, is not
        artifacts, executors, q, config, library = one_third_world(0.3333333333333)
        decision = decide_restructure(artifacts, executors, q, config,
                                      round_index=0, library=library)
        assert decision.action == "keep"
        artifacts, executors, q, config, library = one_third_world(0.33)
        decision = decide_restructure(artifacts, executors, q, config,
                                      round_index=0, library=library)
        assert decision.action == "merge-remove"
        assert decision.evidence["skill_overlap"] == 0.333333333333
        assert evidence_holds(decision)

    @pytest.mark.parametrize("action", ["add", "merge-remove", "modify"])
    def test_evidence_must_be_for_the_action_taken(self, action):
        modify_evidence = {
            "predicate": "modify", "executor": "w", "owned_skills": 5,
            "capacity": 2, "weak_family": "t1", "utility": 0.3, "count": 6,
            "weak_utility": 0.5, "min_count": 5,
        }
        decision = RestructureDecision(action=action, subjects=("w",),
                                       evidence=modify_evidence)
        assert evidence_holds(decision) == (action == "modify")


RATIO = st.sampled_from([0.0, 0.25, 0.3, 1 / 3, 0.4, 0.5, 2 / 3, 1.0])
THRESHOLD = RATIO | st.sampled_from([0.3333333333333, 0.333333333333, 0.05, 0.0999999999999])
PAIRS = [(t, p) for t in ("t0", "t1") for p in ("p0", "p1")]


@st.composite
def restructure_inputs(draw):
    """A manager and up to three workers over two families, their skills,
    an executor utility table, per-family facts and thresholds."""
    workers = [f"w{i}" for i in range(draw(st.integers(1, 3)))]
    everyone = ["manager", *workers]
    library = {}
    for i in range(draw(st.integers(0, 8))):
        owner = draw(st.sampled_from(everyone))
        library[f"s{i}"] = make_skill(
            f"s{i}",
            pairs=draw(st.lists(st.sampled_from(PAIRS), min_size=1, max_size=4, unique=True)),
            steps=draw(st.lists(st.sampled_from("abcd"), min_size=1, max_size=3)),
            guards=draw(st.lists(st.sampled_from("gh"), max_size=2)),
            status=draw(st.sampled_from(list(SkillStatus))),
            owner=owner,
        )
    executors = {}
    for eid in everyone:
        boundary = frozenset(PAIRS) if eid == "manager" else frozenset(
            draw(st.lists(st.sampled_from(PAIRS), min_size=1, max_size=4, unique=True))
        )
        executors[eid] = Executor(eid, boundary, capacity=draw(st.integers(1, 4)),
                                  is_manager=eid == "manager")
    attempts = st.integers(1, 9)
    q = UtilityTable({
        (eid, task): (draw(st.integers(0, n)), n)
        for eid in everyone for task in ("t0", "t1") if draw(st.integers(0, 3))
        for n in [draw(attempts)]
    })
    artifacts = [
        artifact(
            task=task,
            mass=draw(st.integers(0, 6)),
            executors=[
                (eid, draw(RATIO), draw(st.integers(0, 9)))
                for eid in draw(st.lists(st.sampled_from(everyone), min_size=1,
                                         max_size=2, unique=True))
            ],
            pairs=draw(st.lists(
                st.sampled_from([(task, "p0"), (task, "p1")]), min_size=1, unique=True
            )),
            handoff=draw(st.booleans()),
        )
        for task in draw(st.lists(st.sampled_from(["t0", "t1"]), unique=True))
    ]
    config = EngineConfig(
        mass_threshold=draw(st.integers(1, 5)),
        overlap_threshold=draw(THRESHOLD),
        min_count=draw(st.integers(1, 6)),
        merge_gap=draw(THRESHOLD),
        weak_executor_utility=draw(THRESHOLD),
    )
    return artifacts, executors, q, config, library


@settings(max_examples=300, deadline=None)
@given(restructure_inputs())
@example(one_third_world(0.3333333333333))
def test_every_decision_holds_on_its_own_evidence(inputs):
    artifacts, executors, q, config, library = inputs
    decision = decide_restructure(artifacts, executors, q, config,
                                  round_index=1, library=library)
    assert evidence_holds(decision)
