from __future__ import annotations

import math

import pytest

from skillmas.config import EngineConfig
from skillmas.model import TaskType
from skillmas.orchestrator import (
    TRANSPLANT_ROWS,
    experiment_rounds,
    family_tally,
    render_breakdown,
    render_comparison,
    render_trajectory,
    run_experiment,
    run_round,
    transplant_stress_test,
    transplant_variants,
)
from skillmas.presets import load_preset
from skillmas.store import parse_scenario, serialize_state
from skillmas.streams import derive_seed
from skillmas.world import Scenario, exec_round

from conftest import make_state, retained_shapes
from reference import expand_retained
from test_golden import wide_text


def retained_per_round(scenario, state, seed, rounds, config) -> list[int]:
    """Each round's number of retained episodes, over all categories."""
    return [
        sum(map(len, expand_retained(r.round_index, r.retained_entries, batch.index).values()))
        for _, r, batch in experiment_rounds(scenario, state, seed, rounds, config)
    ]


def quiet_scenario():
    """All phases certain to succeed, no latent catalog, no pool."""
    task = TaskType("t1", ("p1", "p2"))
    return Scenario(
        name="quiet",
        task_types=(task,),
        task_weights={"t1": 1.0},
        base_difficulty={("t1", "p1"): 50.0, ("t1", "p2"): 50.0},
        routing_noise=0.0,
    )


class TestRunRound:
    def test_quiet_round_changes_only_learning_state(self):
        scenario = quiet_scenario()
        state = make_state([])
        config = EngineConfig(episodes_per_round=10)
        next_state, report, _ = run_round(state, scenario, config, seed=5)
        assert report.successes == 10
        assert next_state.round_index == state.round_index + 1
        # structural state untouched: library, executors, pool, policy index
        assert next_state.library == state.library
        assert next_state.executors == state.executors
        assert next_state.pool == state.pool
        assert next_state.policy_index == state.policy_index
        assert report.restructure["action"] == "keep"
        assert report.skill_actions == ()

    def test_reference_scenario_acts_by_round_one(self):
        pack = load_preset("mismatch")
        result = run_experiment(pack.scenario, pack.seed_state, 3, 2, pack.config)
        acted = any(
            r.skill_actions or r.restructure["action"] != "keep"
            for r in result.report.rounds
        )
        assert acted

    def test_identical_inputs_identical_reports(self):
        pack = load_preset("tiny")
        a = run_round(pack.seed_state, pack.scenario, pack.config, seed=9)
        b = run_round(pack.seed_state, pack.scenario, pack.config, seed=9)
        assert a[1] == b[1]
        assert serialize_state(a[0]) == serialize_state(b[0])

    def test_round_is_transactional(self, monkeypatch):
        pack = load_preset("tiny")
        before = serialize_state(pack.seed_state)

        import skillmas.orchestrator as orch

        def boom(*args, **kwargs):
            raise RuntimeError("induced failure")

        monkeypatch.setattr(orch, "decide_restructure", boom)
        with pytest.raises(RuntimeError):
            run_round(pack.seed_state, pack.scenario, pack.config, seed=1)
        assert serialize_state(pack.seed_state) == before


def pruned_ids(report) -> set[str]:
    """Every skill a round's report says it pruned: a cluster prune, a pool
    prune, or a near-duplicate consolidated away by a merge."""
    return (
        {sid for a in report.skill_actions if a["action"] == "prune" for sid in a["skills"]}
        | {sid for sid, outcome in report.promotions if outcome == "pruned"}
        | {
            entry.split()[1]
            for entry in report.restructure.get("ownership_log", [])
            if entry.startswith("consolidated ")
        }
    )


@pytest.mark.parametrize("world, seed, rounds", [("tiny", 1, 8), ("wide24", 7, 10)])
def test_a_prune_leaves_no_trace(world, seed, rounds):
    # tiny seed 1 prunes a cluster, wide24 seed 7 prunes from the pool
    if world == "wide24":
        pack = parse_scenario(wide_text(24, 100), name=world)
    else:
        pack = load_preset(world)
    result = run_experiment(pack.scenario, pack.seed_state, seed, rounds, pack.config)
    seen = set()
    for r, report in enumerate(result.report.rounds):
        before, after = result.states[r], result.states[r + 1]
        pruned = pruned_ids(report)
        assert pruned == before.library.keys() - after.library.keys()
        seen |= pruned
        # gone for good: from the library (and so every owned set), the pool and q_skill
        for state in result.states[r + 1 :]:
            assert not seen & state.library.keys()
            assert not seen & state.pool.keys()
            assert not seen & {sid for sid, _ in state.q_skill.counts}
    assert seen


def test_restructuring_sees_the_post_delta_organization(monkeypatch):
    # every skill of the library `decide_restructure` is given, this round's
    # drafts too, is owned by one of the executors it judges (wide24 seed 7
    # drafts in most rounds)
    import skillmas.orchestrator as orch

    calls = []
    decide = orch.decide_restructure

    def spy(artifacts, executors, q_exec, config, **kwargs):
        calls.append(all(s.owner in executors for s in kwargs["library"].values()))
        return decide(artifacts, executors, q_exec, config, **kwargs)

    monkeypatch.setattr(orch, "decide_restructure", spy)
    pack = parse_scenario(wide_text(24, 100), name="wide24")
    run_experiment(pack.scenario, pack.seed_state, 7, 10, pack.config)
    assert calls == [True] * 10


class TestRunExperiment:
    def test_single_round_trajectory(self):
        pack = load_preset("tiny")
        result = run_experiment(pack.scenario, pack.seed_state, 7, 1, pack.config)
        assert len(result.report.rounds) == 1
        assert result.report.checkpoint_round == 0
        assert len(result.states) == 2

    def test_checkpoint_is_earliest_maximum(self):
        pack = load_preset("hostile")
        result = run_experiment(pack.scenario, pack.seed_state, 11, 5, pack.config)
        successes = [r.successes for r in result.report.rounds]
        best = result.report.checkpoint_round
        assert successes[best] == max(successes)
        assert all(s < successes[best] for s in successes[:best])

    def test_hostile_world_never_adapts(self):
        pack = load_preset("hostile")
        result = run_experiment(pack.scenario, pack.seed_state, 3, 6, pack.config)
        for report in result.report.rounds:
            assert report.restructure["action"] == "keep"
            assert report.skill_actions == ()
            assert report.active_skills == 2
            assert report.active_executors == 2

    def test_favorable_world_improves_over_seeds(self):
        pack = load_preset("favorable")
        config = pack.config.replace(episodes_per_round=30)
        gains = []
        for seed in range(8):
            result = run_experiment(pack.scenario, pack.seed_state, seed, 6, config)
            rounds = result.report.rounds
            best = max(r.successes for r in rounds)
            gains.append(best - rounds[0].successes)
        gains.sort()
        median = gains[len(gains) // 2]
        assert median > 0

    def test_checkpoint_reevaluation_within_three_sigma(self):
        pack = load_preset("favorable")
        config = pack.config.replace(episodes_per_round=40)
        result = run_experiment(pack.scenario, pack.seed_state, 17, 5, config)
        checkpoint = result.report.rounds[result.report.checkpoint_round]
        recorded_rate = checkpoint.successes / checkpoint.episodes
        n = 400
        batch = exec_round(
            result.checkpoint_state, pack.scenario, n, derive_seed(99, "fresh"), config
        )
        fresh = sum(shape.outcome * count for shape, count in batch.tally())
        sigma = math.sqrt(n * recorded_rate * (1 - recorded_rate)) + math.sqrt(
            checkpoint.episodes * recorded_rate * (1 - recorded_rate)
        ) * (n / checkpoint.episodes)
        assert abs(fresh - n * recorded_rate) <= 3 * max(sigma, 1.0)


class TestProposalBound:
    def test_at_most_one_proposal_per_retained_trace(self):
        from skillmas.evolution import proposal_index
        from skillmas.orchestrator import collect_proposals
        from skillmas.retention import retain

        pack = load_preset("mismatch")
        state = pack.seed_state
        for round_index in range(3):
            batch = exec_round(
                state, pack.scenario, 40, derive_seed(5, "round", round_index), pack.config
            )
            labels = retain(batch.tally(), state.q_exec, pack.config, state.library)
            retained = retained_shapes(batch, labels)
            index = proposal_index(pack.scenario, state.library, pack.config)
            proposals = collect_proposals(retained, state, pack.config, index)
            assert len(proposals) <= len(retained)
            sources = [p.source_trace for p in proposals]
            assert len(sources) == len(set(sources))
            # each source is the first episode of a retained shape
            firsts = {
                batch.episode_id(batch.index.index(batch.shapes.index(rt.shape)))
                for rt in retained
            }
            assert set(sources) <= firsts
            retained_ids = {
                batch.episode_id(i)
                for i, k in enumerate(batch.index)
                if labels[k]
            }
            assert firsts <= retained_ids
            state, _, _ = run_round(
                state, pack.scenario, pack.config, derive_seed(5, "round", round_index)
            )


class TestCrossRoundRepeats:
    def test_failure_history_accumulates_across_rounds(self):
        # one certain failure per round: within-round count 1 never meets the
        # multiplicity, but cross-round history does from round 1 onward
        task = TaskType("t1", ("p1",))
        scenario = Scenario(
            name="drip",
            task_types=(task,),
            task_weights={"t1": 1.0},
            base_difficulty={("t1", "p1"): -50.0},
            routing_noise=0.0,
        )
        state = make_state([], tasks=(task,))
        config = EngineConfig(episodes_per_round=1, cross_round_repeats=True)
        counts = retained_per_round(scenario, state, 3, 3, config)
        assert counts[0] == 0
        assert all(n >= 1 for n in counts[1:])

        within_round = EngineConfig(episodes_per_round=1, cross_round_repeats=False)
        assert retained_per_round(scenario, state, 3, 3, within_round) == [0, 0, 0]


class TestTransplant:
    def test_row_labels_fixed(self):
        assert TRANSPLANT_ROWS == (
            "Full",
            "Final-library/seed-MAS",
            "Specialized-MAS/seed-skills",
            "Seed",
        )

    def test_variants_are_valid_states(self):
        from skillmas.model import validate_state

        pack = load_preset("mismatch")
        result = run_experiment(pack.scenario, pack.seed_state, 3, 4, pack.config)
        variants = transplant_variants(result.checkpoint_state, pack.seed_state)
        for label, state in variants.items():
            validate_state(state, pack.scenario.universe())

    def test_library_side_and_mas_side_swap(self):
        pack = load_preset("mismatch")
        result = run_experiment(pack.scenario, pack.seed_state, 3, 4, pack.config)
        final, seed = result.checkpoint_state, pack.seed_state
        variants = transplant_variants(final, seed)

        lib_seed_mas = variants["Final-library/seed-MAS"]
        assert set(lib_seed_mas.library) == set(final.library)
        assert set(lib_seed_mas.executors) == set(seed.executors)
        # every skill re-owned by the seed manager
        manager = seed.manager_id()
        for skill in lib_seed_mas.library.values():
            assert skill.owner == manager

        mas_seed_lib = variants["Specialized-MAS/seed-skills"]
        assert set(mas_seed_lib.library) == set(seed.library)
        assert set(mas_seed_lib.executors) == set(final.executors)

    def test_frozen_evaluation_does_not_mutate(self):
        pack = load_preset("tiny")
        result = run_experiment(pack.scenario, pack.seed_state, 2, 2, pack.config)
        snapshot = serialize_state(result.checkpoint_state)
        transplant_stress_test(
            pack.scenario, pack.seed_state, 2, 2, eval_episodes=20, config=pack.config
        )
        assert serialize_state(result.checkpoint_state) == snapshot

    def test_comparison_table_shape(self):
        pack = load_preset("tiny")
        table = transplant_stress_test(
            pack.scenario, pack.seed_state, 5, 2, eval_episodes=15, config=pack.config
        )
        assert [row.label for row in table.rows] == list(TRANSPLANT_ROWS)
        assert all(row.episodes == 15 for row in table.rows)
        assert all(0 <= row.successes <= 15 for row in table.rows)


class TestBreakdown:
    def test_all_success_single_family(self):
        scenario = quiet_scenario()
        state = make_state([])
        batch = exec_round(state, scenario, 10, 3, EngineConfig())
        counts = family_tally(batch.tally())
        assert list(counts.values()) == [(10, 10)]
        [row] = render_breakdown(counts).splitlines()[1:]
        assert row.endswith(" 10/10 (100.0%)")

    def test_gain_column_from_two_runs(self):
        scenario = quiet_scenario()
        state = make_state([])
        best = exec_round(state, scenario, 18, 3, EngineConfig())
        # shape check on the rendered row format
        text = render_breakdown(family_tally(best.tally()), baseline=family_tally(best.tally()))
        assert "18/18 (100.0%)" in text
        assert "+0" in text

    def test_format_matches_ratio_percent_style(self):
        from skillmas.orchestrator import _ratio

        assert _ratio(5, 18) == "5/18 (27.8%)"
        assert _ratio(17, 18) == "17/18 (94.4%)"

    def test_gain_is_success_count_difference(self):
        text = render_breakdown(
            {"examine": (17, 18), "heat": (3, 4)}, baseline={"examine": (5, 18)}
        )
        examine, heat = text.splitlines()[1:]
        assert examine.split() == ["examine", "5/18", "(27.8%)", "17/18", "(94.4%)", "+12"]
        # a family missing from the baseline counts from 0/0
        assert heat.split() == ["heat", "0/0", "(0.0%)", "3/4", "(75.0%)", "+3"]

    def test_empty_family_omitted(self):
        pack = load_preset("mismatch")
        batch = exec_round(pack.seed_state, pack.scenario, 5, 1, pack.config)
        rows = render_breakdown(family_tally(batch.tally())).splitlines()[1:]
        seen = {shape.task_type.id for shape in batch.shapes}
        assert {row.split()[0] for row in rows} == seen


class TestRendering:
    def test_trajectory_table_renders(self):
        pack = load_preset("tiny")
        result = run_experiment(pack.scenario, pack.seed_state, 42, 3, pack.config)
        text = render_trajectory(result.report.to_dict())
        assert "Skills" in text and "Executors" in text
        assert text.count("\n") >= 4

    def test_comparison_renders_all_rows(self):
        pack = load_preset("tiny")
        table = transplant_stress_test(
            pack.scenario, pack.seed_state, 1, 1, eval_episodes=5, config=pack.config
        )
        text = render_comparison(table)
        for label in TRANSPLANT_ROWS:
            assert label in text
