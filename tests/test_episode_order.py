"""Generation order is batch order, past fixed-width ids too.

Episode ids are `r{round:04d}e{index:05d}`; past 10^5 episodes or 10^4
rounds they grow wider, and plain string order no longer follows generation
order.  No stage orders episodes by id: a batch holds episode i's shape at
`index[i]`, the report's `retained` ids and the trace log's index line read
that sequence, and `collect_proposals` and `skill_evolve` keep the order they
are given.  `learn` reads only the batch's tally, so its result does not
depend on the order at all.
"""

from __future__ import annotations

import dataclasses
import json
import re
from array import array

import pytest
from hypothesis import example, given, settings, strategies as st

from skillmas.cli import main
from skillmas.config import EngineConfig
from skillmas.evolution import Proposal, proposal_index, skill_evolve
from skillmas.model import (
    Batch,
    ExecutorSlice,
    SkillStatus,
    StateError,
    TaskType,
    TraceShape,
    UtilityTable,
)
from skillmas.orchestrator import run_round
from skillmas.presets import load_preset
from skillmas.store import encode_trace_log
from skillmas.utility import learn
from skillmas.world import exec_round

from conftest import batch_of, make_skill
from reference import episodes_of, expand_log, expand_retained, reference_learn

TASK = TaskType("t", ("p",))
SLICE = ExecutorSlice("w", "p", frozenset({"s"}), frozenset({"s"}), frozenset())
PAD = TraceShape(
    TaskType("pad", ("p",)),
    (ExecutorSlice("v", "p", frozenset({"q"}), frozenset({"q"}), frozenset()),),
    1,
    1.0,
)

# generation order across the 10^5 boundary, with mixed outcomes
ACROSS = range(99996, 100004)
OUTCOMES = [0, 0, 0, 1, 0, 0, 1, 1]


def shape(outcome: int = 0, sl: ExecutorSlice = SLICE) -> TraceShape:
    return TraceShape(TASK, (sl,), outcome, float(outcome))


def across_batch() -> Batch:
    """Episodes 99996..100003 of task t with OUTCOMES, after episodes of
    another task that credit nothing of t's."""
    failed, succeeded = shape(0), shape(1)
    index = [0] * ACROSS[0] + [1 + outcome for outcome in OUTCOMES]
    return Batch(0, (PAD, failed, succeeded), array("L", index))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 9999), st.integers(0, 99999), st.integers(0, 9999), st.integers(0, 99999))
def test_fixed_width_ids_order_as_strings(r1, i1, r2, i2):
    # why dropping the id sorts moved no byte: below the width, string order
    # of a run's ids is generation order
    a, b = f"r{r1:04d}e{i1:05d}", f"r{r2:04d}e{i2:05d}"
    assert (a < b) == ((r1, i1) < (r2, i2))


def test_fixed_width_batch_keeps_its_order():
    pack = load_preset("tiny")
    state = dataclasses.replace(pack.seed_state, round_index=3)
    batch = exec_round(state, pack.scenario, 50, 3, pack.config)
    assert len(batch.index) == 50
    assert [batch.episode_id(i) for i in range(50)] == [f"r0003e{i:05d}" for i in range(50)]


def test_batch_index_holds_every_32_bit_position():
    pack = load_preset("tiny")
    batch = exec_round(pack.seed_state, pack.scenario, 5, 3, pack.config)
    assert array(batch.index.typecode, [2**32 - 1])[0] == 2**32 - 1


TASKS = (TaskType("t", ("p", "q")), TaskType("u", ("p",)))
SLICE_A = ExecutorSlice("w", "p", frozenset({"a"}), frozenset({"a"}), frozenset())
PRIOR = UtilityTable({("a", "t"): (2, 5), ("w", "t"): (1, 3), ("v", "u"): (4, 4)})


@st.composite
def trace_shapes(draw) -> TraceShape:
    """A shape over two tasks, two executors and three skills, so that one
    skill can be used in two executors' slices of one episode."""
    task = draw(st.sampled_from(TASKS))
    ids = st.frozensets(st.sampled_from("abc"))
    slices = []
    for phase in task.phases[: draw(st.integers(1, len(task.phases)))]:
        selected = draw(ids)
        executor = draw(st.sampled_from("wv"))
        invoked, pattern = selected & draw(ids), selected & draw(ids)
        slices.append(ExecutorSlice(executor, phase, selected, invoked, pattern))
    outcome = draw(st.integers(0, 1))
    return TraceShape(task, tuple(slices), outcome, float(outcome))


# each episode's shape, drawn from a few shapes so that shapes repeat
EPISODES = st.lists(trace_shapes(), min_size=1, max_size=5).flatmap(
    lambda table: st.lists(st.sampled_from(table), min_size=1, max_size=40)
)

# OUTCOMES on one skill and one executor, and the order that puts its last
# four episodes first: a running mean re-quantized at each update ends on
# different values in the two orders
SAME_KEYS = [TraceShape(TASKS[1], (SLICE_A,), o, float(o)) for o in (0, 1)]
OUTCOME_EPISODES = [SAME_KEYS[o] for o in OUTCOMES]
LAST_FOUR_FIRST = [4, 5, 6, 7, 0, 1, 2, 3]


@settings(max_examples=150, deadline=None)
@given(EPISODES.flatmap(lambda eps: st.tuples(st.just(eps), st.permutations(range(len(eps))))))
@example((OUTCOME_EPISODES, LAST_FOUR_FIRST))
def test_learn_is_independent_of_episode_order(case):
    episodes, order = case
    batch = batch_of(episodes)
    shuffled = Batch(0, batch.shapes, array("L", [batch.index[i] for i in order]))
    assert learn(PRIOR, PRIOR, shuffled) == learn(PRIOR, PRIOR, batch)


@settings(max_examples=150, deadline=None)
@given(EPISODES.flatmap(
    lambda eps: st.tuples(st.just(eps), st.lists(st.booleans(), min_size=len(eps),
                                                  max_size=len(eps)))
))
@example((OUTCOME_EPISODES, [i in LAST_FOUR_FIRST[:4] for i in range(8)]))
def test_learn_over_halves_equals_learn_over_the_batch(case):
    # the halves split the episodes in any way, each half keeping its order
    episodes, in_first = case
    first = batch_of([e for e, f in zip(episodes, in_first) if f])
    second = batch_of([e for e, f in zip(episodes, in_first) if not f])
    assert learn(*learn(PRIOR, PRIOR, first), second) == learn(PRIOR, PRIOR, batch_of(episodes))


@settings(max_examples=150, deadline=None)
@given(EPISODES, st.sampled_from([None, "ab", "abc"]), st.sampled_from([None, "w", "wv"]))
def test_learn_matches_the_per_episode_reference(episodes, known_skills, known_executors):
    batch = batch_of(episodes)
    known = {"known_skills": known_skills, "known_executors": known_executors}
    try:
        want = reference_learn(PRIOR, PRIOR, episodes_of(batch), **known)
    except StateError as exc:
        with pytest.raises(StateError, match=re.escape(str(exc))):
            learn(PRIOR, PRIOR, batch, **known)
    else:
        assert learn(PRIOR, PRIOR, batch, **known) == want


def test_learn_names_the_first_offender_in_generation_order():
    unknown = ExecutorSlice("w", "p", frozenset({"x"}), frozenset({"x"}), frozenset())
    batch = Batch(
        0,
        (shape(), shape(sl=unknown), shape(sl=unknown)),
        array("L", [0] * 99999 + [1, 2]),
    )
    with pytest.raises(StateError, match=r"trace r0000e99999 references unknown skills \['x'\]"):
        learn(UtilityTable(), UtilityTable(), batch, known_skills={"s"})


def test_skill_evolve_keeps_the_earliest_proposal_past_the_width():
    # one cluster, two create proposals in generation order: the first wins
    drafts = [
        make_skill(f"d{k}", steps=(f"step-{k}", "do"), status=SkillStatus.POOLED)
        for k in range(2)
    ]
    proposals = [
        Proposal(source_trace=source, target_cluster="new:d",
                 task_type="t1", drafts=(draft,))
        for source, draft in zip(("r0000e99999", "r0000e100000"), drafts)
    ]
    config = EngineConfig()
    index = proposal_index(load_preset("tiny").scenario, {}, config)
    delta = skill_evolve(proposals, {}, (), UtilityTable(), config, index)
    (action,) = delta.actions
    assert action.action == "create"
    assert action.source_trace == "r0000e99999"
    assert action.skills == ("d0",)


def test_log_reads_past_the_width_in_generation_order():
    # the index line lists each episode's table entry in generation order,
    # and each entry's line carries what a per-(task, cause) failure count
    # needs
    batch = across_batch()
    text = encode_trace_log(batch)
    *table, index = [json.loads(line) for line in text.splitlines()]
    assert index == {"index": list(batch.index), "round": 0}
    assert [
        (table[k]["task"]["id"], table[k]["outcome"], table[k]["cause"])
        for k in index["index"][ACROSS[0]:]
    ] == [("t", o, None) for o in OUTCOMES]
    # re-expanded, the ids run on past the width in the same order
    ids = re.findall(r'"episode":"([^"]*)"', expand_log(text))
    assert ids == [f"r0000e{i:05d}" for i in range(len(batch.index))]
    assert ids[99_999:100_001] == ["r0000e99999", "r0000e100000"]


def test_retained_lists_stay_in_generation_order_past_the_width():
    pack = load_preset("tiny")
    config = pack.config.replace(episodes_per_round=ACROSS[-1] + 1)
    _, report, batch = run_round(pack.seed_state, pack.scenario, config, seed=8)
    retained = expand_retained(report.round_index, report.retained_entries, batch.index)
    assert retained
    for ids in retained.values():
        positions = [int(i[len("r0000e"):]) for i in ids]
        assert all(i == f"r0000e{p:05d}" for i, p in zip(ids, positions))
        assert positions == sorted(set(positions))  # generation order, each once
        assert positions[0] < 100_000 <= positions[-1]  # across the width
        assert sorted(ids) != ids  # where string order differs
    assert len(batch.index) == ACROSS[-1] + 1


def row(round_index: int, successes: int, episodes: int, family: str = "t") -> dict:
    return {
        "round": round_index,
        "episodes": episodes,
        "successes": successes,
        "per_family": {family: {"successes": successes, "attempts": episodes}},
        "active_skills": 1,
        "active_executors": 2,
        "restructure": {"action": "keep"},
    }


def test_report_picks_the_checkpoint_round_not_its_prefix(tmp_path, capsys):
    run = tmp_path / "run"
    run.mkdir()
    checkpoint = 1000
    trajectory = {
        "format": 2,
        "scenario": "episode-order",
        "seed": 0,
        "rounds": [
            row(0, 0, 2),
            row(checkpoint, 2, 2),
            # round 10000 shares the 'r1000' id prefix with the checkpoint round
            row(10000, 0, 1, family="other"),
        ],
        "checkpoint": {"round": checkpoint, "successes": 2},
    }
    (run / "trajectory.json").write_text(json.dumps(trajectory), encoding="utf-8")
    assert main(["report", "--run", str(run)]) == 0
    out = capsys.readouterr().out
    breakdown = out.split("\n\n", 1)[1]
    assert "other" not in breakdown
    assert "0/2 (0.0%)" in breakdown and "2/2 (100.0%)" in breakdown
