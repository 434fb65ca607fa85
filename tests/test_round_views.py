"""Round views built once against the rules they stand for.

A round reads views built once rather than at every use: the scenario's
task views and latents by pair, each table's covering index (pair ->
covering executor ids, sorted) and its roots with their greedy first
slots, built before any episode, the memo of exact utility ratios, the proposal index's token
holders, and one diagnosis per retained failure.  Each must give exactly
what the per-use rule gives.
"""

from __future__ import annotations

import dataclasses
import random
from bisect import bisect_right
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import skillmas.orchestrator as orchestrator
import skillmas.retention as retention
import skillmas.world as world
from skillmas.cli import build_parser
from skillmas.config import EngineConfig
from skillmas.evolution import _nearest_cluster, proposal_index
from skillmas.model import ExecutorSlice, StateError, UtilityTable, ratio
from skillmas.numfmt import q12
from skillmas.orchestrator import run_experiment, run_round
from skillmas.presets import load_preset
from skillmas.restructure import RestructureDecision, apply_restructure
from skillmas.store import parse_scenario
from skillmas.utility import rank_skills, skills_by_task
from skillmas.world import ExecutionTable

from conftest import library_clusters, make_skill, task_at
from reference import (
    _dominant_deficit,
    _weighted_choice,
    all_pairs_clusters,
    ground_truth_success_prob,
    reference_slot,
    scan_nearest_cluster,
    scan_route,
    select_skills,
)
from test_evolution import scenario_with
from test_golden import wide_text
from test_round_index import random_world


def restructured(state, scenario, config, rng):
    """The state after each restructuring edit that applies to it: add an
    executor over random pairs, merge-remove two workers, narrow each worker."""
    universe = sorted(scenario.universe())
    workers = sorted(eid for eid, e in state.executors.items() if not e.is_manager)

    def some(pairs):
        return frozenset(rng.sample(pairs, rng.randint(1, len(pairs))))

    decisions = [RestructureDecision("add", ("exec-new",), some(universe), evidence={"p": 1})]
    if len(workers) >= 2:
        subjects = tuple(rng.sample(workers, 2))
        decisions.append(RestructureDecision("merge-remove", subjects, evidence={"p": 1}))
    for eid in workers:
        boundary = some(sorted(state.executors[eid].boundary))
        decisions.append(RestructureDecision("modify", (eid,), boundary, evidence={"p": 1}))
    for decision in decisions:
        library, execs, pool, _ = apply_restructure(
            state.library, state.executors, state.pool, state.q_skill, decision, config
        )
        yield dataclasses.replace(state, library=library, executors=execs, pool=pool)


def middle(table: ExecutionTable, k: int) -> float:
    """A draw in the middle of task k's share of the total weight."""
    weight = table.scenario.task_weights[table.scenario.task_types[k].id]
    cumulative = table.scenario.cumulative_weights
    return (cumulative[k] - weight / 2) / cumulative[-1]


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_table_routes_match_the_linear_scan(world_seed):
    rng = random.Random(world_seed)
    scenario, state, config = random_world(rng)
    states = [state, *restructured(state, scenario, config, rng)]
    assert len(states) >= 3  # add and at least one modify
    for s in states:
        # before any episode, every task has its root, whose one first step
        # is the greedy executor's, holding the reference slot of its first
        # pair; the root's item 4 is that step
        table = ExecutionTable(s, scenario, config)
        assert table.shapes == [] and table.roots[-1] is table.roots[-2]
        for k, task in enumerate(scenario.task_types):
            root_task, routes, _, steps, greedy = table.roots[k]
            assert root_task is task and task_at(table, middle(table, k)) is table.roots[k]
            assert routes == tuple((pair, scan_route(s, *pair)) for pair in task.pairs())
            pair, route = routes[0]
            assert list(steps) == [route.greedy] and greedy is steps[route.greedy]
            slot, slices, next_steps, *ends = steps[route.greedy]
            assert (slices, next_steps, ends) == ((slot.slice,), {}, [None, None, None])
            assert slot is table.slot(pair, route.greedy)
            assert tuple(slot) == reference_slot(scenario, s, pair, route.greedy, config)
        for pair in sorted(scenario.universe()):
            assert table.route(pair) == scan_route(s, *pair)
        with pytest.raises(StateError, match=r"^no executor covers \(nowhere, p\)$"):
            table.route(("nowhere", "p"))
        with pytest.raises(StateError, match=r"^no executor covers \(nowhere, p\)$"):
            scan_route(s, "nowhere", "p")


def test_routes_of_a_restructured_wide_run_match_the_linear_scan():
    pack = parse_scenario(wide_text(24, 200), name="wide24")
    result = run_experiment(pack.scenario, pack.seed_state, 7001, 8, pack.config)
    assert len({frozenset(s.executors) for s in result.states}) > 1  # executors changed
    for s in result.states:
        table = ExecutionTable(s, pack.scenario, pack.config)
        for pair in sorted(pack.scenario.universe()):
            assert table.route(pair) == scan_route(s, *pair)


def test_slots_of_a_task_with_no_candidate_skill_rank_nothing(monkeypatch):
    """Over every state of a restructured wide run, a slot whose task has no
    candidate skill equals the per-call reference slot and never calls
    `rank_skills`; the slots of the other tasks still call it once each,
    whether the table filled them when it was built or on their lookup."""
    pack = parse_scenario(wide_text(24, 200), name="wide24")
    result = run_experiment(pack.scenario, pack.seed_state, 7001, 8, pack.config)
    assert len({frozenset(s.executors) for s in result.states}) > 1  # executors changed
    ranked_tasks = Counter()

    def counted(q_skill, candidates, owners, task_id, k):
        ranked_tasks[task_id] += 1
        return rank_skills(q_skill, candidates, owners, task_id, k)

    monkeypatch.setattr(world, "rank_skills", counted)
    seen = Counter()
    for s in result.states:
        ranked_tasks.clear()
        table = ExecutionTable(s, pack.scenario, pack.config)
        candidates = skills_by_task(s.library)
        want = Counter()
        for pair in sorted(pack.scenario.universe()):
            for executor_id in table.route(pair).eligible:
                slot = table.slot(pair, executor_id)
                if pair[0] in candidates:
                    want[pair[0]] += 1
                    seen["ranked"] += 1
                    continue
                seen["not ranked"] += 1
                executor = s.executors[executor_id]
                assert select_skills(s.q_skill, s, *pair, executor, pack.config.top_k) == []
                assert slot.slice == ExecutorSlice(
                    executor_id, pair[1], frozenset(), frozenset(), frozenset()
                )
                assert slot.success_prob == ground_truth_success_prob(
                    pack.scenario, s.library, *pair, executor, []
                )
                assert slot.deficit == _dominant_deficit(
                    pack.scenario, s.library, executor, *pair, frozenset()
                )
        assert ranked_tasks == want
    assert seen["ranked"] > 0 and seen["not ranked"] > seen["ranked"]


class FixedDraw:
    """An rng whose one draw is `u`, for `_weighted_choice`."""

    def __init__(self, u: float) -> None:
        self.u = u

    def random(self) -> float:
        return self.u


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_a_draw_past_the_last_task_shares_its_root(world_seed, past_first):
    scenario, state, config = random_world(random.Random(world_seed))
    tasks = scenario.task_types
    table = ExecutionTable(state, scenario, config)
    # u * total at the total weight: bisection lands one past the last task
    past, inside = FixedDraw(1.0), FixedDraw(middle(table, len(tasks) - 1))
    cumulative = scenario.cumulative_weights
    assert bisect_right(cumulative, past.u * cumulative[-1]) == len(tasks)
    draws = (past, inside) if past_first else (inside, past)
    roots = [task_at(table, d.u) for d in draws]
    assert roots[0] is roots[1]
    assert table.roots[len(tasks)] is table.roots[len(tasks) - 1] is roots[0]
    for d in draws:
        assert task_at(table, d.u)[0] is _weighted_choice(d, tasks, scenario.task_weights)


def libraries(tokens):
    """Libraries over few tokens, so skills often share some, with ids in
    any insertion order."""
    skill = st.builds(
        lambda steps, guards: (tuple(steps), tuple(guards)),
        st.lists(st.sampled_from(tokens), min_size=1, max_size=4),
        st.lists(st.sampled_from(("g0", "g1")), max_size=2),
    )
    return st.dictionaries(st.sampled_from([f"s{i}" for i in range(12)]), skill).map(
        lambda drawn: {
            sid: make_skill(sid, steps=steps, guards=guards)
            for sid, (steps, guards) in drawn.items()
        }
    )


thresholds = st.sampled_from((0.5, 1.0)) | st.floats(0.01, 1.0)


@settings(max_examples=300, deadline=None)
@given(libraries("abcdef"), thresholds)
def test_clusters_through_token_holders_equal_the_all_pairs_clusters(library, threshold):
    assert library_clusters(library, threshold) == all_pairs_clusters(library, threshold)


@settings(max_examples=300, deadline=None)
@given(libraries("abcdef"), st.lists(st.sampled_from("abcdefxyz"), min_size=1, max_size=4), thresholds)
def test_nearest_cluster_through_token_holders_equals_the_scan(library, steps, threshold):
    config = dataclasses.replace(EngineConfig(), cluster_threshold=threshold)
    index = proposal_index(scenario_with(), library, config)
    draft = make_skill("draft", steps=steps)
    assert _nearest_cluster(draft, index, threshold) == scan_nearest_cluster(
        draft, index, threshold
    )


def test_utility_values_are_exact_ratios_up_to_1000_attempts():
    for attempts in range(1, 1001):
        table = UtilityTable({("k", str(s)): (s, attempts) for s in range(attempts + 1)})
        got = [table.value("k", str(s)) for s in range(attempts + 1)]
        assert got == [q12(s / attempts) for s in range(attempts + 1)]


@given(st.integers(1, 2**62).flatmap(lambda a: st.tuples(st.integers(0, a), st.just(a))))
def test_utility_values_are_exact_ratios_of_large_counts(counts):
    successes, attempts = counts
    table = UtilityTable({("k", "t"): counts})
    assert table.get("k", "t") == (q12(successes / attempts), attempts)
    assert table.value("k", "t") == q12(successes / attempts)


def test_the_ratio_memo_stays_within_its_bound_over_a_wide_panel():
    ratio.cache_clear()
    pack = parse_scenario(wide_text(96, 400), name="wide96")
    for seed in range(7000, 7010):
        run_experiment(pack.scenario, pack.seed_state, seed, 10, pack.config)
    info = ratio.cache_info()
    assert info.maxsize is not None
    assert info.hits > 0
    assert info.currsize <= info.maxsize


def test_a_round_diagnoses_each_retained_failure_once(monkeypatch):
    diagnosed = []
    real = retention.diagnose
    monkeypatch.setattr(retention, "diagnose", lambda shape: diagnosed.append(shape) or real(shape))
    pack = load_preset("mismatch")
    _, report, batch = run_round(pack.seed_state, pack.scenario, pack.config, seed=3)
    retained = {k for entries in report.retained_entries.values() for k in entries}
    failures = [batch.shapes[k] for k in sorted(retained) if batch.shapes[k].outcome == 0]
    assert failures
    assert sorted(map(id, diagnosed)) == sorted(map(id, failures))


def test_a_round_retrieves_cards_only_for_locally_diagnosable_failures(monkeypatch):
    """`collect_proposals` looks up policy cards once per retained failure
    whose diagnosis allows a local repair, and for no other shape."""
    asked = []
    real = orchestrator.retrieve_policy_cards
    monkeypatch.setattr(
        orchestrator, "retrieve_policy_cards",
        lambda index, task_id, cause: asked.append((task_id, cause)) or real(index, task_id, cause),
    )
    pack = load_preset("favorable")
    _, report, batch = run_round(pack.seed_state, pack.scenario, pack.config, seed=1)
    retained = sorted({k for entries in report.retained_entries.values() for k in entries})
    want = [
        (batch.shapes[k].task_type.id, d.cause)
        for k in retained
        if batch.shapes[k].outcome == 0
        for d in [retention.diagnose(batch.shapes[k])]
        if d.locally_diagnosable
    ]
    assert want and len(want) < len(retained)
    assert asked == want


def test_the_parser_is_built_once():
    assert build_parser() is build_parser()
