"""Generation order is batch order, past fixed-width ids too.

Episode ids are `r{round:04d}e{index:05d}`; past 10^5 episodes or 10^4
rounds they grow wider, and plain string order no longer follows generation
order.  No stage orders episodes by id: a batch holds episode i's shape at
`index[i]`, `learn`, the report's `retained` lists and the trace-log writer
read that sequence, and `collect_proposals` and `skill_evolve` keep the
order they are given.
"""

from __future__ import annotations

import dataclasses
import json
import re
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from skillmas.cli import main
from skillmas.config import EngineConfig
from skillmas.evolution import Proposal, skill_evolve
from skillmas.model import (
    Batch,
    ExecutorSlice,
    SkillStatus,
    StateError,
    TaskType,
    TraceShape,
    UtilityTable,
    cluster_key_map,
)
from skillmas.orchestrator import run_round
from skillmas.presets import load_preset
from skillmas.store import encode_trace_log
from skillmas.utility import learn, mc_update
from skillmas.world import exec_round

from conftest import batch_of, make_skill

TASK = TaskType("t", ("p",))
SLICE = ExecutorSlice("w", "p", frozenset({"s"}), frozenset({"s"}), frozenset())
PAD = TraceShape(
    TaskType("pad", ("p",)),
    (ExecutorSlice("v", "p", frozenset({"q"}), frozenset({"q"}), frozenset()),),
    1,
    1.0,
)

# generation order across the 10^5 boundary, and outcomes whose running
# mean rounds differently when folded in plain string order
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


def fold(outcomes) -> tuple[float, int]:
    entry = None
    for outcome in outcomes:
        entry = mc_update(entry, outcome)
    return entry


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


def test_learn_credits_in_generation_order_past_the_width():
    ids = {i: f"r0000e{i:05d}" for i in ACROSS}
    by_id = dict(zip(ids.values(), OUTCOMES))
    in_string_order = [by_id[i] for i in sorted(by_id)]
    assert fold(OUTCOMES) != fold(in_string_order)  # the order is observable

    q_skill, q_exec = learn(UtilityTable(), UtilityTable(), across_batch())
    assert q_skill.get("s", "t") == fold(OUTCOMES)
    assert q_exec.get("w", "t") == fold(OUTCOMES)


def test_learn_folds_in_the_order_given():
    # the table lists the first outcome's shape first; the index order is
    # what counts
    outcomes = OUTCOMES[::-1]
    failed, succeeded = shape(0), shape(1)
    batch = batch_of([succeeded if o else failed for o in outcomes])
    assert fold(outcomes) != fold(OUTCOMES)
    q_skill, q_exec = learn(UtilityTable(), UtilityTable(), batch)
    assert q_skill.get("s", "t") == fold(outcomes)
    assert q_exec.get("w", "t") == fold(outcomes)


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
    delta = skill_evolve(
        proposals, {}, (), UtilityTable(), config,
        cluster_keys=cluster_key_map({}, config.cluster_threshold),
    )
    (action,) = delta.actions
    assert action.action == "create"
    assert action.source_trace == "r0000e99999"
    assert action.skills == ("d0",)


def test_log_reads_past_the_width_in_generation_order():
    # each line carries what a per-(task, cause) failure count needs
    batch = across_batch()
    text = encode_trace_log(batch)
    ids = re.findall(r'"episode":"([^"]*)"', text)
    assert ids == [f"r0000e{i:05d}" for i in range(len(batch.index))]
    records = [json.loads(line) for line in text.splitlines()[ACROSS[0]:]]
    assert [r["episode"] for r in records] == ids[ACROSS[0]:]
    assert [(r["task"]["id"], r["outcome"], r["cause"]) for r in records] == [
        ("t", o, None) for o in OUTCOMES
    ]


def test_retained_lists_stay_in_generation_order_past_the_width():
    pack = load_preset("tiny")
    config = pack.config.replace(episodes_per_round=ACROSS[-1] + 1)
    _, report, batch = run_round(pack.seed_state, pack.scenario, config, seed=8)
    assert report.retained
    for ids in report.retained.values():
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
