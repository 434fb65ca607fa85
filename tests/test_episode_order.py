"""Episode order past fixed-width ids.

Episode ids are `r{round:04d}e{index:05d}`; past 10^5 episodes or 10^4
rounds they grow wider, and plain string order no longer follows generation
order.  `episode_order` compares digit runs as integers, and every stage that
orders episodes uses it.
"""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from skillmas.cli import main
from skillmas.model import (
    EpisodeTrace,
    ExecutorSlice,
    StateError,
    TaskType,
    UtilityTable,
    episode_order,
    episode_sorted,
)
from skillmas.store import StoreError, encode_trace_log, read_trace_log
from skillmas.utility import learn, mc_update

TASK = TaskType("t", ("p",))
SLICE = ExecutorSlice("w", "p", frozenset({"s"}), frozenset({"s"}), frozenset())

# generation order across the 10^5 boundary, and outcomes whose running
# mean rounds differently when folded in plain string order
ACROSS = [f"r0000e{i:05d}" for i in range(99996, 100004)]
OUTCOMES = [0, 0, 0, 1, 0, 0, 1, 1]


def trace(episode_id: str, outcome: int = 0, sl: ExecutorSlice = SLICE) -> EpisodeTrace:
    return EpisodeTrace(episode_id, TASK, (sl,), outcome, float(outcome))


def fold(outcomes) -> tuple[float, int]:
    entry = None
    for outcome in outcomes:
        entry = mc_update(entry, outcome)
    return entry


def test_digit_runs_compare_as_integers():
    assert episode_order("r0000e99999") < episode_order("r0000e100000")
    assert episode_order("r9999e00000") < episode_order("r10000e00000")
    assert episode_order("r1000e00001") < episode_order("r10000e00000")
    # equal integers fall back to the string
    assert episode_order("e007") < episode_order("e7")
    assert episode_order("e7") != episode_order("e007")


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 9999), st.integers(0, 99999), st.integers(0, 9999), st.integers(0, 99999))
def test_fixed_width_ids_order_as_strings(r1, i1, r2, i2):
    a, b = f"r{r1:04d}e{i1:05d}", f"r{r2:04d}e{i2:05d}"
    assert (episode_order(a) < episode_order(b)) == (a < b)
    assert (episode_order(f"ve{i1:05d}") < episode_order(f"ve{i2:05d}")) == (i1 < i2)


ID_PARTS = st.sampled_from(["r", "e", "v", "-", "é", "日", "0", "00", "7", "9", "10", "99999", "100000"])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(ID_PARTS, min_size=1, max_size=5).map("".join), max_size=12, unique=True),
       st.randoms(use_true_random=False), st.booleans())
def test_episode_sorted_is_sorted_by_key(ids, rnd, presort):
    if presort:
        ids = sorted(ids)  # string order, the input that takes the unsorted path most
    else:
        rnd.shuffle(ids)
    traces = [trace(i) for i in ids]
    got = episode_sorted(traces)
    want = sorted(traces, key=lambda t: episode_order(t.episode_id))
    assert [id(t) for t in got] == [id(t) for t in want]


def test_fixed_width_batch_keeps_its_order():
    traces = [trace(f"r0003e{i:05d}") for i in range(50)]
    assert episode_sorted(traces) == traces
    assert episode_sorted(list(reversed(traces))) == traces


def test_learn_credits_in_generation_order_past_the_width():
    traces = [trace(i, o) for i, o in zip(ACROSS, OUTCOMES)]
    in_string_order = [t.outcome for t in sorted(traces, key=lambda t: t.episode_id)]
    assert fold(OUTCOMES) != fold(in_string_order)  # the order is observable

    shuffled = traces[:]
    random.Random(5).shuffle(shuffled)
    q_skill, q_exec = learn(UtilityTable(), UtilityTable(), shuffled)
    assert q_skill.get("s", "t") == fold(OUTCOMES)
    assert q_exec.get("w", "t") == fold(OUTCOMES)


def test_learn_names_the_first_offender_in_generation_order():
    unknown = ExecutorSlice("w", "p", frozenset({"x"}), frozenset({"x"}), frozenset())
    traces = [trace("r0000e100000", sl=unknown), trace("r0000e99999", sl=unknown)]
    with pytest.raises(StateError, match=r"trace r0000e99999 references unknown skills \['x'\]"):
        learn(UtilityTable(), UtilityTable(), traces, known_skills={"s"})


def test_log_reads_past_the_width_in_generation_order(tmp_path):
    path = tmp_path / "traces.jsonl"
    traces = [trace(i, o) for i, o in zip(ACROSS, OUTCOMES)]
    path.write_text(encode_trace_log(traces), encoding="utf-8")  # e99999, then e100000
    decoded = read_trace_log(path)
    assert [t.episode_id for t in decoded] == ACROSS
    q_skill, _ = learn(UtilityTable(), UtilityTable(), decoded)
    assert q_skill.get("s", "t") == fold(OUTCOMES)

    lines = path.read_text(encoding="utf-8").splitlines()
    lines[3], lines[4] = lines[4], lines[3]  # e100000 before e99999
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(StoreError, match=r"line 5: episode 'r0000e99999' out of order"):
        read_trace_log(path)


def test_log_in_string_order_still_reads(tmp_path):
    # hand-written ids sorted as plain strings are a valid log too
    path = tmp_path / "traces.jsonl"
    ids = ["a10", "a9", "b"]
    path.write_text(encode_trace_log([trace(i) for i in ids]), encoding="utf-8")
    assert [t.episode_id for t in read_trace_log(path)] == ids


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
