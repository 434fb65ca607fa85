from __future__ import annotations

import itertools

import pytest
from hypothesis import given, strategies as st

from skillmas.model import (
    Executor,
    RoundState,
    SkillStatus,
    StateError,
    TaskType,
    UtilityTable,
    jaccard,
    owned_by,
    skill_similarity,
    validate_state,
)

from conftest import library_clusters, make_skill, make_state


def brute_force_single_linkage(skills, threshold):
    """Independent oracle: exhaustive transitive closure over similar pairs."""
    ids = sorted(s.id for s in skills)
    groups = {i: {i} for i in ids}
    changed = True
    while changed:
        changed = False
        for a, b in itertools.combinations(skills, 2):
            if skill_similarity(a, b) >= threshold and groups[a.id] is not groups[b.id]:
                merged = groups[a.id] | groups[b.id]
                for member in merged:
                    groups[member] = merged
                changed = True
    seen = []
    for group in groups.values():
        key = tuple(sorted(group))
        if key not in seen:
            seen.append(key)
    return sorted(seen)


class TestSimilarity:
    def test_identity_is_one(self):
        s = make_skill("a", steps=("g", "t", "p"), guards=("open",))
        assert skill_similarity(s, s) == 1.0

    def test_disjoint_is_zero(self):
        a = make_skill("a", steps=("x", "y"))
        b = make_skill("b", steps=("u", "v"))
        assert skill_similarity(a, b) == 0.0

    def test_hand_counted_jaccard(self):
        # tokens {g,t,p,open} vs {g,t,open}: |inter| 3, |union| 4
        a = make_skill("a", steps=("g", "t", "p"), guards=("open",))
        b = make_skill("b", steps=("g", "t"), guards=("open",))
        assert skill_similarity(a, b) == 0.75

    def test_empty_token_sets_share_nothing(self):
        # two executors without active skills do not overlap
        assert jaccard(frozenset(), frozenset()) == 0.0

    @given(
        st.lists(st.sampled_from("abcdef"), min_size=1, max_size=5),
        st.lists(st.sampled_from("abcdef"), min_size=1, max_size=5),
    )
    def test_symmetric_and_bounded(self, steps_a, steps_b):
        a = make_skill("a", steps=tuple(steps_a))
        b = make_skill("b", steps=tuple(steps_b))
        assert skill_similarity(a, b) == skill_similarity(b, a)
        assert 0.0 <= skill_similarity(a, b) <= 1.0


class TestClustering:
    def test_identical_skills_one_cluster(self):
        skills = [make_skill(i, steps=("x", "y")) for i in ("a", "b", "c")]
        clusters = library_clusters({s.id: s for s in skills}, 0.5)
        assert clusters == [("a", "b", "c")]

    def test_low_similarity_singletons(self):
        # tokens {x,y,z,w,q} vs {x,v,u,r,s}: 1/9 similar, below 0.5
        a = make_skill("a", steps=("x", "y", "z", "w", "q"))
        b = make_skill("b", steps=("x", "v", "u", "r", "s"))
        assert skill_similarity(a, b) < 0.5
        clusters = library_clusters({"a": a, "b": b}, 0.5)
        assert clusters == [("a",), ("b",)]

    def test_chain_links_through_middle(self):
        # a~b and b~c above threshold, a~c far below: single linkage joins all
        a = make_skill("a", steps=("p", "q", "r"))
        b = make_skill("b", steps=("p", "q", "s"))
        c = make_skill("c", steps=("s", "q", "t"))
        assert skill_similarity(a, b) >= 0.5
        assert skill_similarity(b, c) >= 0.5
        assert skill_similarity(a, c) < 0.5
        library = {"a": a, "b": b, "c": c}
        clusters = library_clusters(library, 0.5)
        assert clusters == brute_force_single_linkage([a, b, c], 0.5)
        assert clusters == [("a", "b", "c")]

    def test_empty_applicable_set(self):
        assert library_clusters({}, 0.5) == []

    def test_threshold_validated(self):
        with pytest.raises(ValueError):
            library_clusters({}, 0.0)

    @given(st.data())
    def test_partition_property(self, data):
        n = data.draw(st.integers(min_value=1, max_value=6))
        skills = []
        for i in range(n):
            steps = data.draw(
                st.lists(st.sampled_from("abcdefgh"), min_size=1, max_size=4)
            )
            skills.append(make_skill(f"s{i}", steps=tuple(steps)))
        library = {s.id: s for s in skills}
        clusters = library_clusters(library, 0.5)
        flattened = [sid for cluster in clusters for sid in cluster]
        assert sorted(flattened) == sorted(library)
        assert len(set(flattened)) == len(flattened)
        assert clusters == brute_force_single_linkage(skills, 0.5)


UNIVERSE = frozenset({("t1", "p1"), ("t1", "p2")})  # make_state's default task


class TestStateValidation:
    def test_valid_state_passes(self):
        state = make_state([make_skill("a")])
        validate_state(state, UNIVERSE)

    def test_orphan_owner_rejected(self):
        state = make_state([make_skill("a", owner="ghost")])
        with pytest.raises(StateError, match="orphan owner"):
            validate_state(state, UNIVERSE)

    def test_pooled_skill_missing_from_pool_rejected(self):
        state = make_state([make_skill("a", status=SkillStatus.POOLED)])
        with pytest.raises(StateError, match="absent from pool"):
            validate_state(state, UNIVERSE)

    def test_missing_manager_rejected(self):
        universe = frozenset({("t1", "p1")})
        state = RoundState(
            round_index=0,
            library={},
            executors={"worker": Executor("worker", universe)},
            q_skill=UtilityTable(),
            q_exec=UtilityTable(),
            pool={},
        )
        with pytest.raises(StateError, match="manager"):
            validate_state(state, universe)

    def test_manager_coverage_checked_against_universe(self):
        state = make_state([], tasks=(TaskType("t1", ("p1",)),))
        validate_state(state, frozenset({("t1", "p1")}))
        with pytest.raises(StateError, match="misses pairs"):
            validate_state(state, frozenset({("t1", "p1"), ("t9", "p9")}))

    def test_utility_of_an_unknown_skill_rejected(self):
        # a pruned skill is deleted, so no utility entry may outlive it
        state = make_state([make_skill("a")], q_skill=UtilityTable({("gone", "t1"): (1, 2)}))
        with pytest.raises(StateError, match=r"utility \(gone,t1\) references unknown skill"):
            validate_state(state, UNIVERSE)

    def test_utility_out_of_range_rejected(self):
        state = make_state([], q_skill=UtilityTable({("a", "t1"): (2, 1)}))
        with pytest.raises(StateError, match="out of"):
            validate_state(state, UNIVERSE)


class TestOwnership:
    def test_owned_by_groups_each_owners_skills_in_library_order(self):
        library = {
            sid: make_skill(sid, owner=owner)
            for sid, owner in (("c", "worker"), ("a", "manager"), ("b", "worker"))
        }
        owned = owned_by(library)
        assert {eid: [s.id for s in skills] for eid, skills in owned.items()} == {
            "worker": ["c", "b"],
            "manager": ["a"],
        }
        assert owned_by({}) == {}


class TestDomainInvariants:
    def test_task_type_requires_phases(self):
        with pytest.raises(StateError):
            TaskType("empty", ())

    def test_task_type_unique_phases(self):
        with pytest.raises(StateError):
            TaskType("dup", ("p", "p"))

    def test_skill_requires_steps_and_applicability(self):
        with pytest.raises(StateError):
            make_skill("a", steps=())
        with pytest.raises(StateError):
            make_skill("a", pairs=())

    def test_executor_requires_boundary(self):
        with pytest.raises(StateError):
            Executor("e", frozenset())

    def test_slice_containment_enforced(self):
        from skillmas.model import ExecutorSlice

        with pytest.raises(StateError):
            ExecutorSlice("e", "p", frozenset(), frozenset({"s"}), frozenset())

    def test_trace_outcome_progress_link(self):
        from skillmas.model import TraceShape

        task = TaskType("t1", ("p1",))
        with pytest.raises(StateError):
            TraceShape(task, (), 1, 0.5)

    def test_trace_routes_its_first_phase(self):
        from skillmas.model import TraceShape

        with pytest.raises(StateError, match="at least its first phase"):
            TraceShape(TaskType("t1", ("p1",)), (), 0, 0.0)
