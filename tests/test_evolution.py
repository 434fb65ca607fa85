from __future__ import annotations

import dataclasses

import pytest

from skillmas import evolution
from skillmas.config import EngineConfig
from skillmas.evolution import (
    Diagnosis,
    Proposal,
    SkillAction,
    SkillDelta,
    apply_skill_delta,
    promote_pool,
    proposal_index,
    propose,
    retrieve_policy_cards,
    skill_evolve,
    update_pool_counters,
)
from skillmas.model import (
    REPAIR_TAGS,
    TAG_BY_CAUSE,
    BoundedTag,
    CauseLabel,
    CauseObservation,
    ExecutorSlice,
    PolicyCard,
    SkillStatus,
    StateError,
    TaskType,
    TraceShape,
    UtilityTable,
)
from skillmas.retention import RetainedShape, diagnose
from skillmas.world import LatentSkill, Scenario, motif_skill, realizers

from conftest import make_skill, make_state

TASK = TaskType("t1", ("p1", "p2"))


def scenario_with(latents=()):
    return Scenario(
        name="evo",
        task_types=(TASK,),
        task_weights={"t1": 1.0},
        base_difficulty={},
        latent_catalog=tuple(latents),
    )


def propose_on(rt, diagnosis, cards, scenario, library, round_index, config):
    """`propose` with the round's proposal index built from its arguments."""
    index = proposal_index(scenario, library, config)
    return propose(rt, diagnosis, cards, library, round_index, config, index)


def evolve(proposals, library, policy_index, q_skill, config, **kwargs):
    """`skill_evolve` with the round's proposal index built from its arguments."""
    index = proposal_index(scenario_with(), library, config)
    return skill_evolve(proposals, library, policy_index, q_skill, config, index, **kwargs)


def failure_shape(cause, confident=True, selected=("sk",), invoked=("sk",),
                  phase="p1", executor="worker"):
    obs = CauseObservation(cause, confident)
    slices = (
        ExecutorSlice(executor, phase, frozenset(selected), frozenset(invoked),
                      frozenset()),
    )
    return TraceShape(TASK, slices, 0, 0.0, obs)


def retained_failure(cause, episode_id="e0", **kwargs):
    return RetainedShape(failure_shape(cause, **kwargs), 1, episode_id)


def retained_success(selected=("sk",), invoked=("sk",), phase="p1",
                     episode_id="e0", executor="worker"):
    slices = (
        ExecutorSlice(executor, phase, frozenset(selected), frozenset(invoked),
                      frozenset()),
    )
    return RetainedShape(TraceShape(TASK, slices, 1, 1.0), 1, episode_id)


class TestDiagnose:
    def test_confident_missing_precondition(self):
        d = diagnose(failure_shape(CauseLabel.MISSING_PRECONDITION))
        assert d == Diagnosis(CauseLabel.MISSING_PRECONDITION, BoundedTag.ADD_GUARD)
        assert d.locally_diagnosable

    def test_unconfident_observation_is_unknown(self):
        d = diagnose(failure_shape(CauseLabel.MISSING_PRECONDITION, confident=False))
        assert d == Diagnosis(CauseLabel.UNKNOWN, BoundedTag.NONE)
        assert not d.locally_diagnosable

    def test_bad_assignment_hands_off_to_structure(self):
        d = diagnose(failure_shape(CauseLabel.BAD_EXECUTOR_ASSIGNMENT))
        assert d.tag is BoundedTag.HANDOFF_TO_STRUCTURE
        assert not d.locally_diagnosable  # excluded from local repair

    def test_success_trace_is_contract_violation(self):
        with pytest.raises(ValueError):
            diagnose(retained_success().shape)

    @pytest.mark.parametrize(
        "observation",
        [None] + [CauseObservation(c, k) for c in CauseLabel for k in (True, False)],
    )
    def test_locally_diagnosable_is_a_confident_repair_tag(self, observation):
        """Only a confidently observed cause whose tag is a repair tag allows
        a local repair; everything else has cause UNKNOWN and tag NONE."""
        shape = failure_shape(CauseLabel.UNKNOWN)
        shape = TraceShape(shape.task_type, shape.slices, 0, 0.0, observation)
        confident = observation is not None and observation.confident
        want = confident and TAG_BY_CAUSE[observation.cause] in REPAIR_TAGS
        assert diagnose(shape).locally_diagnosable == want

    def test_full_tag_table(self):
        expected = {
            CauseLabel.MISSING_PRECONDITION: BoundedTag.ADD_GUARD,
            CauseLabel.WRONG_ACTION_ORDER: BoundedTag.REORDER_STEP,
            CauseLabel.MISLEADING_RETRIEVAL: BoundedTag.TIGHTEN_RETRIEVAL,
            CauseLabel.SKILL_CONFLICT: BoundedTag.SPLIT_SKILL,
            CauseLabel.BAD_EXECUTOR_ASSIGNMENT: BoundedTag.HANDOFF_TO_STRUCTURE,
        }
        for cause, tag in expected.items():
            assert diagnose(failure_shape(cause)).tag is tag


class TestPolicyCards:
    def card(self, ident, cause=CauseLabel.MISSING_PRECONDITION, task="t1"):
        return PolicyCard(ident, cause, task, BoundedTag.ADD_GUARD)

    def test_empty_index(self):
        assert retrieve_policy_cards((), "t1", CauseLabel.MISSING_PRECONDITION) == []

    def test_two_matches_sorted(self):
        cards = (self.card("b"), self.card("a"))
        out = retrieve_policy_cards(cards, "t1", CauseLabel.MISSING_PRECONDITION)
        assert [c.id for c in out] == ["a", "b"]

    def test_truncated_to_three(self):
        cards = tuple(self.card(f"c{i}") for i in range(5))
        out = retrieve_policy_cards(cards, "t1", CauseLabel.MISSING_PRECONDITION)
        assert [c.id for c in out] == ["c0", "c1", "c2"]

    def test_exact_match_filter(self):
        cards = (
            self.card("a"),
            self.card("b", cause=CauseLabel.SKILL_CONFLICT),
            self.card("c", task="t9"),
        )
        out = retrieve_policy_cards(cards, "t1", CauseLabel.MISSING_PRECONDITION)
        assert [c.id for c in out] == ["a"]


class TestPropose:
    def test_non_diagnosable_failure_yields_nothing(self):
        rt = retained_failure(CauseLabel.MISSING_PRECONDITION, confident=False)
        library = {"sk": make_skill("sk")}
        out = propose_on(rt, diagnose(rt.shape), (), scenario_with(), library, 0, EngineConfig())
        assert out is None

    def test_handoff_yields_nothing(self):
        rt = retained_failure(CauseLabel.BAD_EXECUTOR_ASSIGNMENT)
        library = {"sk": make_skill("sk")}
        out = propose_on(rt, diagnose(rt.shape), (), scenario_with(), library, 0, EngineConfig())
        assert out is None

    def test_add_guard_repair_realizes_matching_latent(self):
        latent = LatentSkill("lat-a", ("t1", "p1"), 2.0, CauseLabel.MISSING_PRECONDITION)
        scenario = scenario_with([latent])
        library = {"sk": make_skill("sk", pairs=(("t1", "p1"),))}
        rt = retained_failure(CauseLabel.MISSING_PRECONDITION)
        card = PolicyCard("pc", CauseLabel.MISSING_PRECONDITION, "t1",
                          BoundedTag.ADD_GUARD, template_skill="lat-a")
        out = propose_on(rt, diagnose(rt.shape), (card,), scenario, library, 1, EngineConfig())
        # the latent's step is added, and the guard token carries the latent
        # whose repairs_cause matched
        assert out is not None and out.edit == make_skill(
            "sk", pairs=(("t1", "p1"),), steps=("go", "do", latent.id),
            guards=(f"require:{latent.id}",),
        )
        # the edited skill realizes the latent
        assert realizers(scenario, {"sk": out.edit}) == {latent.id: "sk"}

    def test_success_motif_realizes_undiscovered_latent(self):
        latent = LatentSkill("lat-b", ("t1", "p1"), 2.0, CauseLabel.MISSING_PRECONDITION)
        scenario = scenario_with([latent])
        library = {"sk": make_skill("sk", pairs=(("t1", "p1"),))}
        rt = retained_success()
        out = propose_on(rt, None, (), scenario, library, 2, EngineConfig())
        assert out is not None and out.edit is None and len(out.drafts) == 1
        draft = out.drafts[0]
        assert draft.applicability == frozenset({("t1", "p1")})
        assert draft.status is SkillStatus.POOLED
        assert draft.owner == "worker"
        assert realizers(scenario, {**library, draft.id: draft}) == {latent.id: draft.id}

    def test_success_with_pooled_skill_suppressed(self):
        latent = LatentSkill("lat-c", ("t1", "p1"), 2.0, CauseLabel.MISSING_PRECONDITION)
        scenario = scenario_with([latent])
        library = {"sk": make_skill("sk", status=SkillStatus.POOLED)}
        rt = retained_success()
        assert propose_on(rt, None, (), scenario, library, 0, EngineConfig()) is None

    def test_success_with_realized_latent_yields_nothing(self):
        latent = LatentSkill("lat-d", ("t1", "p1"), 2.0, CauseLabel.MISSING_PRECONDITION)
        scenario = scenario_with([latent])
        realizer = make_skill("sk", pairs=(("t1", "p1"),), steps=("lat-d",))
        rt = retained_success()
        assert propose_on(rt, None, (), scenario, {"sk": realizer}, 0, EngineConfig()) is None

    def test_split_partitions_applicability(self):
        wide = make_skill("wide", pairs=(("t1", "p1"), ("t1", "p2")))
        rt = retained_failure(CauseLabel.SKILL_CONFLICT, selected=("wide",),
                              invoked=("wide",))
        out = propose_on(rt, diagnose(rt.shape), (), scenario_with(), {"wide": wide}, 3,
                      EngineConfig())
        assert out is not None
        assert len(out.drafts) == 2
        halves = [d.applicability for d in out.drafts]
        assert halves[0] | halves[1] == wide.applicability
        assert not halves[0] & halves[1]
        assert all(d.status is SkillStatus.POOLED for d in out.drafts)

    def test_tighten_retrieval_narrows_interfering_skill(self):
        noisy = make_skill("noisy", pairs=(("t1", "p1"), ("t1", "p2")))
        rt = retained_failure(CauseLabel.MISLEADING_RETRIEVAL, selected=("noisy",),
                              invoked=("noisy",))
        out = propose_on(rt, diagnose(rt.shape), (), scenario_with(), {"noisy": noisy}, 0,
                      EngineConfig())
        assert out is not None and out.edit is not None
        assert out.edit.applicability == frozenset({("t1", "p2")})

    def test_motif_joins_the_first_of_equally_near_clusters(self):
        # "a" and "b" each share 2 of the draft's 3 tokens (2/3 >= 0.5) but
        # only 1 of their 3 with each other, so they are two clusters
        latent = LatentSkill("lat", ("t1", "p1"), 2.0, CauseLabel.MISSING_PRECONDITION)
        library = {
            "a": make_skill("a", pairs=(("t1", "p2"),), steps=("lat", "lat:verify")),
            "b": make_skill("b", pairs=(("t1", "p2"),), steps=("lat:verify",),
                            guards=("lat:guard",)),
        }
        rt = retained_success(selected=(), invoked=())
        out = propose_on(rt, None, (), scenario_with([latent]), library, 1, EngineConfig())
        assert out is not None and out.target_cluster == "a"

    def test_repair_prefers_the_skill_covering_the_failing_pair(self):
        library = {
            "a": make_skill("a", pairs=(("t1", "p2"),)),
            "b": make_skill("b", pairs=(("t1", "p1"),), steps=("x", "y")),
        }
        rt = retained_failure(CauseLabel.MISSING_PRECONDITION, selected=("a", "b"),
                              invoked=("a", "b"))
        out = propose_on(rt, diagnose(rt.shape), (), scenario_with(), library, 0,
                         EngineConfig())
        assert out is not None and out.edit.id == "b" and out.target_cluster == "b"

    def test_split_gives_the_latent_step_to_the_failing_pair_half(self):
        latent = LatentSkill("lat", ("t1", "p1"), 2.0, CauseLabel.SKILL_CONFLICT)
        wide = make_skill("wide", pairs=(("t1", "p1"), ("t1", "p2")))
        rt = retained_failure(CauseLabel.SKILL_CONFLICT, selected=("wide",),
                              invoked=("wide",))
        out = propose_on(rt, diagnose(rt.shape), (), scenario_with([latent]),
                         {"wide": wide}, 3, EngineConfig())
        assert out is not None and out.edit is None
        assert [(d.id, d.applicability, d.steps) for d in out.drafts] == [
            ("wide-a-r3", frozenset({("t1", "p1")}), wide.steps + ("lat",)),
            ("wide-b-r3", frozenset({("t1", "p2")}), wide.steps),
        ]

    def test_split_of_a_one_pair_skill_isolates_it_with_the_latent_step(self):
        latent = LatentSkill("lat", ("t1", "p1"), 2.0, CauseLabel.SKILL_CONFLICT)
        narrow = make_skill("narrow")
        rt = retained_failure(CauseLabel.SKILL_CONFLICT, selected=("narrow",),
                              invoked=("narrow",))
        out = propose_on(rt, diagnose(rt.shape), (), scenario_with([latent]),
                         {"narrow": narrow}, 3, EngineConfig())
        assert out is not None and out.drafts == ()
        assert out.edit == make_skill("narrow", steps=narrow.steps + ("lat",),
                                      checks=("isolate:skill-conflict",))

    def test_repair_that_changes_nothing_proposes_nothing(self):
        # reorder-step moves the unrealized latent's step to the front, where
        # it already is ("sk" covers another pair, so it does not realize the
        # latent); from second place, the same repair proposes an edit
        latent = LatentSkill("lat", ("t1", "p1"), 2.0, CauseLabel.WRONG_ACTION_ORDER)
        rt = retained_failure(CauseLabel.WRONG_ACTION_ORDER)
        for steps, edited in ((("lat", "go"), None), (("go", "lat"), ("lat", "go"))):
            library = {"sk": make_skill("sk", pairs=(("t1", "p2"),), steps=steps)}
            out = propose_on(rt, diagnose(rt.shape), (), scenario_with([latent]), library, 0,
                             EngineConfig())
            assert (out and out.edit.steps) == edited

    @pytest.mark.parametrize("selected", [(), ("gone",)])
    def test_failure_with_no_library_skill_proposes_nothing(self, monkeypatch, selected):
        """A locally diagnosable failure whose failing slice selected no
        library skill has nothing to repair: it proposes nothing, without
        looking up the latent the repair would target."""
        def unreachable(*args):
            raise AssertionError("_repair_latent called")

        monkeypatch.setattr(evolution, "_repair_latent", unreachable)
        latent = LatentSkill("lat", ("t1", "p1"), 2.0, CauseLabel.MISSING_PRECONDITION)
        library = {"sk": make_skill("sk")}
        for cause in (CauseLabel.MISSING_PRECONDITION, CauseLabel.SKILL_CONFLICT):
            rt = retained_failure(cause, selected=selected, invoked=())
            assert diagnose(rt.shape).locally_diagnosable
            out = propose_on(rt, diagnose(rt.shape), (), scenario_with([latent]), library, 0,
                             EngineConfig())
            assert out is None

    def test_proposal_holds_exactly_one_change(self):
        edit = make_skill("sk", guards=("require:x",))
        with pytest.raises(StateError, match="proposal from 'e0' holds neither"):
            Proposal(source_trace="e0", target_cluster="sk", task_type="t1")
        with pytest.raises(StateError, match="proposal from 'e0' holds both"):
            Proposal(source_trace="e0", target_cluster="sk", task_type="t1",
                     drafts=(make_skill("d", status=SkillStatus.POOLED),), edit=edit)


class TestSkillEvolve:
    def test_no_proposals_empty_delta(self):
        delta = evolve((), {}, (), UtilityTable(), EngineConfig())
        assert delta == SkillDelta(())

    def test_duplicate_create_becomes_no_op(self):
        latent = LatentSkill("lat-e", ("t1", "p1"), 2.0, CauseLabel.MISSING_PRECONDITION)
        existing = motif_skill(latent, "existing", "worker")
        existing = type(existing)(
            id="existing", applicability=existing.applicability, steps=existing.steps,
            guards=existing.guards, checks=existing.checks,
            status=SkillStatus.VALIDATED, owner="worker",
        )
        draft = motif_skill(latent, "lat-e-r1", "worker")
        proposal = Proposal(
            source_trace="e0", target_cluster="existing",
            task_type="t1", drafts=(draft,),
        )
        delta = evolve(
            (proposal,), {"existing": existing}, (), UtilityTable(), EngineConfig()
        )
        assert [a.action for a in delta.actions] == ["no-op"]

    def test_partial_overlap_above_threshold_still_deduped(self):
        # similarity 5/6 ~= 0.83: above the 0.8 bar without being identical
        from skillmas.model import skill_similarity

        existing = make_skill("old", steps=("a", "b", "c", "d", "e"),
                              status=SkillStatus.VALIDATED)
        draft = make_skill("new", steps=("a", "b", "c", "d", "e", "f"),
                           status=SkillStatus.POOLED)
        assert 0.8 <= skill_similarity(existing, draft) < 1.0
        proposal = Proposal(
            source_trace="e0", target_cluster="old",
            task_type="t1", drafts=(draft,),
        )
        delta = evolve((proposal,), {"old": existing}, (), UtilityTable(),
                             EngineConfig())
        assert [a.action for a in delta.actions] == ["no-op"]

    def test_template_dedup(self):
        latent = LatentSkill("lat-f", ("t1", "p1"), 2.0, CauseLabel.MISSING_PRECONDITION)
        card = PolicyCard("pc", CauseLabel.MISSING_PRECONDITION, "t1",
                          BoundedTag.ADD_GUARD, template_skill="lat-f")
        draft = motif_skill(latent, "lat-f-r0", "worker")
        proposal = Proposal(
            source_trace="e0", target_cluster=f"new:{draft.id}",
            task_type="t1", drafts=(draft,),
        )
        delta = evolve((proposal,), {}, (card,), UtilityTable(), EngineConfig())
        assert [a.action for a in delta.actions] == ["no-op"]

    def test_low_utility_cluster_pruned(self):
        bad = make_skill("bad")
        q = UtilityTable({("bad", "t1"): (1, 8)})
        # a refine proposal on the same cluster loses to the prune predicate
        proposal = Proposal(
            source_trace="e0", target_cluster="bad",
            task_type="t1", cause=CauseLabel.MISSING_PRECONDITION,
            edit=dataclasses.replace(bad, guards=bad.guards | {"require:x"}),
        )
        delta = evolve((proposal,), {"bad": bad}, (), q, EngineConfig())
        assert [a.action for a in delta.actions] == ["prune"]
        assert "conflicting candidates" in delta.actions[0].note

    @pytest.mark.parametrize(
        "counts, action",
        [((1, 5), "prune"), ((1, 4), "refine"), ((3, 10), "refine"), ((2, 10), "prune")],
        ids=["count-at-min", "count-below-min", "utility-at-max", "utility-below-max"],
    )
    def test_prune_at_its_thresholds(self, counts, action):
        # prune_min_count 5 is met at the threshold; prune_max_utility 0.3 is not
        bad = make_skill("bad")
        edit = dataclasses.replace(bad, guards=frozenset({"require:x"}))
        proposal = Proposal(source_trace="e0", target_cluster="bad", task_type="t1",
                            cause=CauseLabel.MISSING_PRECONDITION, edit=edit)
        q = UtilityTable({("bad", "t1"): counts})
        delta = evolve((proposal,), {"bad": bad}, (), q, EngineConfig())
        assert [a.action for a in delta.actions] == [action]

    @pytest.mark.parametrize("source", ["validated", "template"])
    def test_dedup_at_exactly_the_threshold(self, source):
        # the draft holds the 3 motif tokens of "lat" and one more: similarity 3/4
        config = EngineConfig(dedup_similarity=0.75)
        latent = LatentSkill("lat", ("t1", "p1"), 2.0, CauseLabel.MISSING_PRECONDITION)
        motif = motif_skill(latent, "lat-r1", "worker")
        draft = make_skill("lat-r1", steps=motif.steps + ("extra",), guards=motif.guards,
                           status=SkillStatus.POOLED)
        library, cards = {}, ()
        if source == "validated":
            library = {"old": make_skill("old", steps=motif.steps, guards=motif.guards,
                                         status=SkillStatus.VALIDATED)}
        else:
            cards = (PolicyCard("pc", CauseLabel.MISSING_PRECONDITION, "t1",
                                BoundedTag.ADD_GUARD, template_skill="lat"),)
        proposal = Proposal(source_trace="e0", target_cluster="new:lat-r1", task_type="t1",
                            drafts=(draft,))
        delta = evolve((proposal,), library, cards, UtilityTable(), config)
        assert [a.action for a in delta.actions] == ["no-op"]

    def test_heavy_rewrite_held_in_pool(self):
        skill = make_skill("sk", steps=("a", "b"))

        edit = dataclasses.replace(skill, steps=("a", "b", "x", "y"),
                                   guards=frozenset({"g1", "g2"}))
        proposal = Proposal(
            source_trace="e0", target_cluster="sk",
            task_type="t1", cause=CauseLabel.MISSING_PRECONDITION, edit=edit,
        )
        delta = evolve((proposal,), {"sk": skill}, (), UtilityTable(),
                             EngineConfig())
        assert [(a.action, a.written) for a in delta.actions] == [("hold-in-pool", (edit,))]

    @pytest.mark.parametrize(
        "guards, action", [(("g1", "g2"), "refine"), (("g1", "g2", "g3"), "hold-in-pool")],
        ids=["half-the-tokens", "one-more"],
    )
    def test_heavy_rewrite_at_its_threshold(self, guards, action):
        # of the skill's 4 tokens, adding 2 changes exactly half of them
        skill = make_skill("sk", steps=("a", "b", "c", "d"))
        edit = dataclasses.replace(skill, guards=frozenset(guards))
        proposal = Proposal(source_trace="e0", target_cluster="sk", task_type="t1",
                            cause=CauseLabel.MISSING_PRECONDITION, edit=edit)
        delta = evolve((proposal,), {"sk": skill}, (), UtilityTable(), EngineConfig())
        assert [a.action for a in delta.actions] == [action]

    def test_per_cluster_action_bound(self):
        skill = make_skill("sk", steps=("a", "b", "c", "d"))

        light = dataclasses.replace(skill, guards=frozenset({"require:x"}))
        proposals = [
            Proposal(source_trace=f"e{i}", target_cluster="sk",
                     task_type="t1", cause=CauseLabel.MISSING_PRECONDITION, edit=light)
            for i in range(4)
        ]
        delta = evolve(proposals, {"sk": skill}, (), UtilityTable(),
                             EngineConfig())
        assert len(delta.actions) == 1
        clusters = [a.cluster for a in delta.actions]
        assert len(clusters) == len(set(clusters))

    def test_demotion_after_drop_claims_cluster(self):
        edited = make_skill("sk", status=SkillStatus.VALIDATED)
        delta = evolve(
            (), {"sk": edited}, (), UtilityTable(), EngineConfig(),
            last_round_drop=True, last_round_edits=frozenset({"sk"}),
        )
        assert [a.action for a in delta.actions] == ["hold-in-pool"]
        assert delta.actions[0].skills == ("sk",)


class TestApplyDelta:
    def test_create_adds_pooled_skill_with_ownership(self):
        state = make_state([])
        draft = make_skill("new", status=SkillStatus.POOLED, owner="worker")

        delta = SkillDelta(
            (SkillAction(cluster="new:new", action="create", skills=("new",),
                         written=(draft,)),)
        )
        lib, pool = apply_skill_delta(state.library, state.executors, state.pool, delta)
        assert lib["new"].status is SkillStatus.POOLED
        assert lib["new"].owner == "worker"
        assert pool["new"] == (0, 0)

    def test_id_reuse_rejected(self):
        state = make_state([make_skill("sk")])

        delta = SkillDelta(
            (SkillAction(cluster="sk", action="create", skills=("sk",),
                         written=(make_skill("sk"),)),)
        )
        with pytest.raises(StateError, match="skill id 'sk' would be reused"):
            apply_skill_delta(state.library, state.executors, state.pool, delta)

    def test_id_created_twice_in_one_delta_rejected(self):
        # two clusters' creates that mint one id in the same round
        state = make_state([])

        draft = make_skill("lat-r3", status=SkillStatus.POOLED)
        delta = SkillDelta(tuple(
            SkillAction(cluster=key, action="create", skills=("lat-r3",), written=(draft,))
            for key in ("a", "b")
        ))
        with pytest.raises(StateError, match="skill id 'lat-r3' would be reused"):
            apply_skill_delta(state.library, state.executors, state.pool, delta)

    def test_refine_writes_the_content_and_keeps_owner_status_and_pool(self):
        skill = make_skill("sk", status=SkillStatus.POOLED)
        state = make_state([skill], pool={"sk": (3, 2)})
        edited = dataclasses.replace(skill, steps=("go", "do", "lat"), guards=frozenset({"g"}))
        delta = SkillDelta(
            (SkillAction(cluster="sk", action="refine", skills=("sk",), written=(edited,)),)
        )
        lib, pool = apply_skill_delta(state.library, state.executors, state.pool, delta)
        assert lib == {"sk": edited}
        assert pool == {"sk": (3, 2)}

    def test_held_edit_writes_the_content_into_the_pool(self):
        skill = make_skill("sk", status=SkillStatus.VALIDATED)
        state = make_state([skill])
        edited = dataclasses.replace(skill, steps=("a", "b", "x", "y"), guards=frozenset({"g"}))
        delta = SkillDelta(
            (SkillAction(cluster="sk", action="hold-in-pool", skills=("sk",),
                         written=(edited,)),)
        )
        lib, pool = apply_skill_delta(state.library, state.executors, state.pool, delta)
        assert lib == {"sk": dataclasses.replace(edited, status=SkillStatus.POOLED)}
        assert pool == {"sk": (0, 0)}

    def test_demotion_hold_keeps_the_content(self):
        skill = make_skill("sk", guards=("g",), checks=("c",), status=SkillStatus.VALIDATED)
        state = make_state([skill])
        delta = SkillDelta(
            (SkillAction(cluster="sk", action="hold-in-pool", skills=("sk",)),)
        )
        lib, pool = apply_skill_delta(state.library, state.executors, state.pool, delta)
        assert lib == {"sk": dataclasses.replace(skill, status=SkillStatus.POOLED)}
        assert pool == {"sk": (0, 0)}

    @pytest.mark.parametrize("action", ["refine", "hold-in-pool"])
    def test_edit_of_a_skill_not_in_the_library_rejected(self, action):
        state = make_state([make_skill("sk")])
        delta = SkillDelta(
            (SkillAction(cluster="sk", action=action, skills=("ghost",),
                         written=(make_skill("ghost"),)),)
        )
        with pytest.raises(StateError, match="edited skill 'ghost' is not in the library"):
            apply_skill_delta(state.library, state.executors, state.pool, delta)

    @pytest.mark.parametrize("action", ["refine", "hold-in-pool"])
    @pytest.mark.parametrize(
        "change", [{"owner": "manager"}, {"status": SkillStatus.POOLED}], ids=["owner", "status"]
    )
    def test_edit_that_changes_owner_or_status_rejected(self, action, change):
        skill = make_skill("sk", status=SkillStatus.VALIDATED)
        state = make_state([skill])
        edited = dataclasses.replace(skill, guards=frozenset({"g"}), **change)
        delta = SkillDelta(
            (SkillAction(cluster="sk", action=action, skills=("sk",), written=(edited,)),)
        )
        with pytest.raises(StateError, match="edited skill 'sk' changes its owner or status"):
            apply_skill_delta(state.library, state.executors, state.pool, delta)

    def test_prune_removes_ownership_and_pool_entry(self):
        pooled = make_skill("sk", status=SkillStatus.POOLED)
        state = make_state([pooled], pool={"sk": (2, 0)})

        delta = SkillDelta(
            (SkillAction(cluster="sk", action="prune", skills=("sk",)),)
        )
        lib, pool = apply_skill_delta(state.library, state.executors, state.pool, delta)
        assert "sk" not in lib
        assert "sk" not in pool


class TestPoolLifecycle:
    def test_counters_respect_used_gating(self):
        pooled = make_skill("pk", status=SkillStatus.POOLED)
        library = {"pk": pooled, "other": make_skill("other")}
        selected_only = TraceShape(
            TASK,
            (ExecutorSlice("w", "p1", frozenset({"pk", "other"}),
                           frozenset({"other"}), frozenset()),),
            1, 1.0,
        )
        used = TraceShape(
            TASK,
            (ExecutorSlice("w", "p1", frozenset({"pk"}), frozenset({"pk"}),
                           frozenset()),),
            1, 1.0,
        )
        pool = update_pool_counters({"pk": (0, 0)}, [(selected_only, 1), (used, 1)])
        assert pool["pk"] == (1, 1)

    def test_counters_count_every_episode_of_a_shape(self):
        used = TraceShape(
            TASK,
            (ExecutorSlice("w", "p1", frozenset({"pk"}), frozenset({"pk"}),
                           frozenset()),),
            1, 1.0,
        )
        failed = TraceShape(
            TASK,
            (ExecutorSlice("w", "p1", frozenset({"pk"}), frozenset({"pk"}),
                           frozenset()),),
            0, 0.0,
        )
        pool = update_pool_counters({"pk": (2, 1), "idle": (1, 0)}, [(used, 3), (failed, 2)])
        assert pool == {"pk": (7, 4), "idle": (1, 0)}

    def test_counters_count_a_pooled_skill_used_by_pattern_only(self):
        """A slice that invoked nothing still uses its pattern-supported
        skills, so a shape using a pooled skill only that way counts; a shape
        whose slices used no skill counts nothing."""
        supported = TraceShape(
            TASK,
            (ExecutorSlice("w", "p1", frozenset({"pk"}), frozenset(), frozenset()),
             ExecutorSlice("w", "p2", frozenset({"pk"}), frozenset(), frozenset({"pk"}))),
            0, 0.5,
        )
        unused = TraceShape(
            TASK,
            (ExecutorSlice("w", "p1", frozenset({"pk"}), frozenset(), frozenset()),),
            1, 1.0,
        )
        pool = update_pool_counters({"pk": (1, 1)}, [(supported, 2), (unused, 3)])
        assert pool == {"pk": (3, 1)}

    def test_empty_pool_counts_nothing_and_is_a_copy(self):
        pool = {}
        counted = update_pool_counters(pool, [(retained_success().shape, 4)])
        assert counted == {} and counted is not pool

    def test_promotion_at_threshold(self):
        pooled = make_skill("pk", status=SkillStatus.POOLED)
        state = make_state([pooled], pool={"pk": (3, 3)})
        lib, execs, pool, outcomes = promote_pool(
            state.library, state.pool, state.executors, EngineConfig()
        )
        assert lib["pk"].status is SkillStatus.VALIDATED
        assert "pk" not in pool
        assert outcomes == [("pk", "validated")]

    def test_prune_at_threshold(self):
        pooled = make_skill("pk", status=SkillStatus.POOLED)
        state = make_state([pooled], pool={"pk": (5, 1)})
        lib, execs, pool, outcomes = promote_pool(
            state.library, state.pool, state.executors, EngineConfig()
        )
        assert "pk" not in lib and "pk" not in pool
        assert execs is state.executors
        assert outcomes == [("pk", "pruned")]

    def test_insufficient_evidence_stays_pooled(self):
        pooled = make_skill("pk", status=SkillStatus.POOLED)
        state = make_state([pooled], pool={"pk": (2, 2)})
        lib, execs, pool, outcomes = promote_pool(
            state.library, state.pool, state.executors, EngineConfig()
        )
        assert lib["pk"].status is SkillStatus.POOLED
        assert pool["pk"] == (2, 2)
        assert outcomes == []
