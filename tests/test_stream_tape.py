"""Shared episode streams: one seeded generator, one tape, several readers.

`exec_shared` seeds each episode's generator once, draws the task once, and
lets every frozen state walk the stream to its outcome through its own
`TapeCursor`.  A cursor must draw exactly what `random.Random` draws,
whatever the other cursors have read, and every state's tasks and success
flags must equal the tasks and outcomes of `exec_round` on that state.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from skillmas.config import EngineConfig
from skillmas.model import StateError
from skillmas.orchestrator import (
    TRANSPLANT_ROWS,
    evaluate_transplants,
    run_experiment,
    transplant_variants,
)
from skillmas.presets import PRESETS, load_preset
from skillmas.store import parse_scenario
from skillmas.streams import (
    StreamTape,
    TapeCursor,
    check_stream_tape,
    derive_seed,
    episode_streams,
    substream,
)
from skillmas.world import exec_round, exec_shared

from conftest import random_scenario

# n = 1, n = 2**k + 1 (about half the tries rejected) and the largest n
SIZES = st.sampled_from([1, 2, 3, 5, 17, 2**16 + 1, 2**31 + 1, 2**32 - 1]) | st.integers(1, 2**32 - 1)
DRAWS = st.just("random") | SIZES


def draw(source, op):
    return source.random() if op == "random" else source.randrange(op)


def replayed(seed, ops):
    ref = random.Random(seed)
    return [draw(ref, op) for op in ops]


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 2**64 - 1),
    st.integers(1, 9),
    st.lists(st.tuples(st.integers(0, 3), DRAWS), max_size=150),
)
def test_cursors_reading_at_any_pace_each_equal_a_fresh_generator(seed, width, schedule):
    tape = StreamTape(width)
    cursors = [tape.cursor() for _ in range(4)]
    tape.load(random.Random(seed))
    ops: list[list] = [[] for _ in cursors]
    drawn: list[list] = [[] for _ in cursors]
    for reader, op in schedule:
        ops[reader].append(op)
        drawn[reader].append(draw(cursors[reader], op))
    for reader_ops, values in zip(ops, drawn):
        assert values == replayed(seed, reader_ops)
    assert all(cursor.words is tape.words for cursor in cursors)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 2**64 - 1),
    st.lists(st.integers(0, 10**6), min_size=1, max_size=4),
    st.lists(DRAWS, max_size=40),
)
def test_each_load_rewinds_every_cursor_onto_the_episode_stream(seed, indexes, ops):
    stream = episode_streams(seed)
    tape = StreamTape(3)
    first, second = tape.cursor(), tape.cursor()
    for i in indexes:
        tape.load(stream(i))
        ahead = [draw(first, op) for op in ops]
        behind = [draw(second, op) for op in ops[: len(ops) // 2]]
        ref = substream(seed, "episode", i)
        assert ahead == [draw(ref, op) for op in ops]
        assert behind == ahead[: len(behind)]


def test_reads_far_past_the_tape_extend_one_word_list():
    seed = 20260501
    tape = StreamTape(2)
    fast, slow = tape.cursor(), tape.cursor()
    tape.load(random.Random(seed))
    ops = [2**31 + 1, "random", 17] * 100
    assert [draw(fast, op) for op in ops] == replayed(seed, ops)
    assert len(tape.words) > 300  # about one rejection per two tries
    assert [draw(slow, op) for op in ops] == replayed(seed, ops)


@pytest.mark.parametrize("n", [0, -1, 2**32])
def test_randrange_outside_one_word_is_refused(n):
    tape = StreamTape(1)
    cursor = tape.cursor()
    tape.load(random.Random(1))
    with pytest.raises(ValueError):
        cursor.randrange(n)


def test_probe_refuses_a_tape_that_diverges(monkeypatch):
    check_stream_tape()
    random_draw = TapeCursor.random
    monkeypatch.setattr(TapeCursor, "random", lambda self: random_draw(self) / 2)
    with pytest.raises(StateError, match="diverge"):
        check_stream_tape()


def test_exec_shared_checks_the_tape_before_it_executes(monkeypatch):
    pack = load_preset("tiny")
    monkeypatch.setattr(TapeCursor, "randrange", lambda self, n: 0)
    with pytest.raises(StateError, match="diverge"):
        next(exec_shared([pack.seed_state], pack.scenario, 3, 1, pack.config))


# ---------------------------------------------------------------------------
# `exec_shared` against `exec_round`, state by state

# every phase covered by four or five executors and explored 90% of the
# time: randrange(4) rejects half its tries, so episodes read past the tape
NOISY = """\
[tasks]
assay = prep run check | 1.0
build = frame wire | 2.0

[difficulty]
assay/prep  = 0.6
assay/run   = -0.4
assay/check = 0.9
build/frame = 0.2
build/wire  = -0.8

[latent]
ls-run  = assay/run 2.0 missing-precondition
ls-wire = build/wire 1.6 wrong-action-order

[penalties]
interference     = 0.3
overload         = 0.4
routing-noise    = 0.9
cause-confidence = 0.7

[seed-state]
executor manager = * capacity=4 manager
executor w1 = assay/prep,assay/run,assay/check,build/frame,build/wire capacity=3
executor w2 = assay/prep,assay/run,assay/check,build/frame,build/wire capacity=2
executor w3 = assay/prep,assay/run,assay/check,build/frame,build/wire capacity=2
executor w4 = assay/run,build/wire capacity=1
skill sk-go = owner=w1 applies=assay/run,build/wire steps=go,look checks=ok

[thresholds]
episodes-per-round = 60
"""

WORLDS = dict(PRESETS) | {"noisy": NOISY}


def frozen_states(text, name):
    pack = parse_scenario(text, name=name)
    result = run_experiment(pack.scenario, pack.seed_state, 11, 3, pack.config)
    variants = transplant_variants(result.checkpoint_state, pack.seed_state)
    return pack, [variants[label] for label in TRANSPLANT_ROWS]


@pytest.mark.parametrize("name", sorted(WORLDS))
def test_each_state_reads_what_exec_round_reads(name, monkeypatch):
    pack, states = frozen_states(WORLDS[name], name)
    extended = []
    extend = StreamTape.extend
    monkeypatch.setattr(
        StreamTape, "extend", lambda tape, length: (extended.append(length), extend(tape, length))
    )
    shared = list(exec_shared(states, pack.scenario, 300, 9001, pack.config))
    assert len(shared) == 300 and all(len(flags) == len(states) for _, flags in shared)
    for k, state in enumerate(states):
        alone = exec_round(state, pack.scenario, 300, 9001, pack.config)
        assert [(task, flags[k]) for task, flags in shared] == [
            (t.shape.task_type, t.shape.outcome == 1) for t in alone
        ]
    if name == "noisy":
        assert extended  # rejections ran past the tape
        alone = exec_round(states[0], pack.scenario, 300, 9001, pack.config)
        assert any(len(set(t.shape.executors())) > 1 for t in alone)
        assert any(not flags[0] for _, flags in shared)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 10**6), st.integers(1, 40))
def test_transplant_counts_are_exec_round_sums(world_seed, seed, episodes):
    scenario, seed_state = random_scenario(random.Random(world_seed))
    config = EngineConfig(episodes_per_round=12)
    result = run_experiment(scenario, seed_state, seed, 2, config)
    table = evaluate_transplants(
        scenario, result.checkpoint_state, seed_state, seed, episodes, config
    )
    variants = transplant_variants(result.checkpoint_state, seed_state)
    eval_seed = derive_seed(seed, "transplant-eval")
    assert [(row.label, row.successes, row.episodes) for row in table.rows] == [
        (
            label,
            sum(
                t.shape.outcome
                for t in exec_round(variants[label], scenario, episodes, eval_seed, config)
            ),
            episodes,
        )
        for label in TRANSPLANT_ROWS
    ]
    assert all(type(row.successes) is int for row in table.rows)
