"""Shared episode streams: one seeded generator, one word list, several readers.

`exec_shared` seeds each episode's generator once, takes the stream's
leading 32-bit words as one list (the episode's tape), draws the task once,
and walks every frozen state to its outcome by reading that list by index
through the word rules `streams.word_random` and `streams.word_randrange`.
A reader must draw exactly what `random.Random` draws, whatever the other
readers have read, and every state's tasks and success flags must equal the
tasks and outcomes of `exec_round` on that state.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

import skillmas.streams as streams
from skillmas.config import EngineConfig
from skillmas.model import StateError, TraceShape
from skillmas.orchestrator import (
    TRANSPLANT_ROWS,
    evaluate_transplants,
    run_experiment,
    transplant_variants,
)
from skillmas.presets import PRESETS, load_preset
from skillmas.store import parse_scenario
from skillmas.streams import (
    derive_seed,
    episode_streams,
    probed_word_rules,
    stream_words,
    word_random,
    word_randrange,
)
from skillmas.world import exec_round, exec_shared

from conftest import NOISY, random_scenario
from reference import substream

# n = 1, n = 2**k + 1 (about half the tries rejected) and the largest n
SIZES = st.sampled_from([1, 2, 3, 5, 17, 2**16 + 1, 2**31 + 1, 2**32 - 1]) | st.integers(1, 2**32 - 1)
DRAWS = st.just("random") | SIZES

extend_words = streams._extend  # the list extension, before any test patches it


def draw(source, op):
    return source.random() if op == "random" else source.randrange(op)


class Reader:
    """One reader's position on a word list, drawing through the word rules."""

    def __init__(self, words, rng):
        self.words, self.rng, self.pos = words, rng, 0

    def random(self):
        value = word_random(self.words, self.pos, self.rng)
        self.pos += 2
        return value

    def randrange(self, n):
        value, self.pos = word_randrange(self.words, self.pos, n, self.rng)
        return value


def replayed(seed, ops):
    ref = random.Random(seed)
    return [draw(ref, op) for op in ops]


def stream_prefix(seed, length):
    return stream_words(length)(random.Random(seed))


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 2**64 - 1),
    st.integers(1, 9),
    st.lists(st.tuples(st.integers(0, 3), DRAWS), max_size=150),
)
def test_readers_at_any_pace_each_equal_a_fresh_generator(seed, width, schedule):
    rng = random.Random(seed)
    words = stream_words(width)(rng)
    readers = [Reader(words, rng) for _ in range(4)]
    ops: list[list] = [[] for _ in readers]
    drawn: list[list] = [[] for _ in readers]
    for reader, op in schedule:
        ops[reader].append(op)
        drawn[reader].append(draw(readers[reader], op))
    for reader_ops, values in zip(ops, drawn):
        assert values == replayed(seed, reader_ops)
    assert words == stream_prefix(seed, len(words))


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 2**64 - 1),
    st.lists(st.integers(0, 10**6), min_size=1, max_size=4),
    st.lists(DRAWS, max_size=40),
)
def test_each_episode_list_reads_as_its_stream(seed, indexes, ops):
    stream = episode_streams(seed)
    load = stream_words(3)
    for i in indexes:
        rng = stream(i)
        words = load(rng)
        first, second = Reader(words, rng), Reader(words, rng)
        ahead = [draw(first, op) for op in ops]
        behind = [draw(second, op) for op in ops[: len(ops) // 2]]
        ref = substream(seed, "episode", i)
        assert ahead == [draw(ref, op) for op in ops]
        assert behind == ahead[: len(behind)]


def test_reads_far_past_the_tape_extend_one_word_list(monkeypatch):
    seed = 20260501
    extended = []
    monkeypatch.setattr(
        streams, "_extend", lambda words, end, rng: (extended.append(end), extend_words(words, end, rng))
    )
    rng = random.Random(seed)
    words = stream_words(2)(rng)
    fast, slow = Reader(words, rng), Reader(words, rng)
    ops = [2**31 + 1, "random", 17] * 100
    assert [draw(fast, op) for op in ops] == replayed(seed, ops)
    assert len(words) > 300 and len(extended) > 100  # about one rejection per two tries
    assert [draw(slow, op) for op in ops] == replayed(seed, ops)
    assert slow.words is words and words == stream_prefix(seed, len(words))


@pytest.mark.parametrize("n", [0, -1, 2**32])
def test_randrange_outside_one_word_is_refused(n):
    rng = random.Random(1)
    words = stream_words(1)(rng)
    with pytest.raises(ValueError):
        word_randrange(words, 0, n, rng)
    assert words == stream_prefix(1, 1)


def _halved(words, pos, rng):
    return word_random(words, pos, rng) / 2


def _first_try(words, pos, n, rng):  # keeps a rejected value's remainder
    if pos >= len(words):
        extend_words(words, pos + 1, rng)
    return words[pos] % n, pos + 1


def _reversed(count):
    load = stream_words(count)
    return lambda rng: load(rng)[::-1]


def _skipping(words, end, rng):  # drops one word of the stream
    rng.getrandbits(32)
    extend_words(words, end, rng)


BROKEN_RULES = [
    ("word_random", _halved),
    ("word_randrange", _first_try),
    ("stream_words", _reversed),
    ("_extend", _skipping),
]


def test_probe_refuses_a_tape_that_diverges(monkeypatch):
    # the probe hands out the very functions it checked
    assert probed_word_rules() == (stream_words, word_random, word_randrange)
    for name, broken in BROKEN_RULES:
        with monkeypatch.context() as patch:
            patch.setattr(streams, name, broken)
            with pytest.raises(StateError, match="diverge"):
                probed_word_rules()


def test_exec_shared_checks_the_tape_before_it_executes(monkeypatch):
    pack = load_preset("tiny")
    seeded = []
    seed_mt = streams._seed_mt
    monkeypatch.setattr(streams, "_seed_mt", lambda rng, s: (seeded.append(s), seed_mt(rng, s)))
    for name, broken in BROKEN_RULES:
        with monkeypatch.context() as patch:
            patch.setattr(streams, name, broken)
            with pytest.raises(StateError, match="diverge"):
                next(exec_shared([pack.seed_state], pack.scenario, 3, 1, pack.config))
    assert seeded == []  # refused before its first episode


# ---------------------------------------------------------------------------
# `exec_shared` against `exec_round`, state by state

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
    monkeypatch.setattr(
        streams, "_extend", lambda words, end, rng: (extended.append(end), extend_words(words, end, rng))
    )
    probed_word_rules()
    probe_extensions = len(extended)  # the probe reads past its two words
    extended.clear()
    shared = list(exec_shared(states, pack.scenario, 300, 9001, pack.config))
    assert len(shared) == 300 and all(len(flags) == len(states) for _, flags in shared)
    for k, state in enumerate(states):
        alone = exec_round(state, pack.scenario, 300, 9001, pack.config)
        assert [(task, flags[k]) for task, flags in shared] == [
            (alone.shapes[j].task_type, alone.shapes[j].outcome == 1) for j in alone.index
        ]
    if name == "noisy":
        assert len(extended) > probe_extensions  # rejections ran past the leading words
        alone = exec_round(states[0], pack.scenario, 300, 9001, pack.config)
        assert any(len(set(shape.executors())) > 1 for shape in alone.shapes)
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
                shape.outcome * count
                for shape, count in exec_round(
                    variants[label], scenario, episodes, eval_seed, config
                ).tally()
            ),
            episodes,
        )
        for label in TRANSPLANT_ROWS
    ]
    assert all(type(row.successes) is int for row in table.rows)


# ---------------------------------------------------------------------------
# what `exec_shared` does per call and per episode


def test_exec_shared_refuses_an_empty_state_list():
    pack = load_preset("tiny")
    with pytest.raises(ValueError, match="at least one state"):
        next(exec_shared([], pack.scenario, 3, 1, pack.config))
    with pytest.raises(ValueError, match="at least one episode"):
        next(exec_shared([pack.seed_state], pack.scenario, 0, 1, pack.config))


@pytest.mark.parametrize("n_states", [1, 4])
def test_exec_shared_reseeds_once_per_episode(n_states, monkeypatch):
    pack, states = frozen_states(NOISY, "noisy")
    seeded = []
    seed_mt = streams._seed_mt
    monkeypatch.setattr(streams, "_seed_mt", lambda rng, s: (seeded.append(s), seed_mt(rng, s)))
    shared = list(exec_shared(states[:n_states], pack.scenario, 50, 9001, pack.config))
    derive = streams.seed_deriver(9001, "episode")
    assert len(shared) == 50 and seeded == [derive(i) for i in range(50)]


def test_exec_shared_builds_no_trace(monkeypatch):
    pack, states = frozen_states(NOISY, "noisy")

    def refuse(self, *args, **kwargs):
        raise AssertionError(f"built a {type(self).__name__}")

    monkeypatch.setattr(TraceShape, "__init__", refuse)
    shared = list(exec_shared(states, pack.scenario, 100, 9001, pack.config))
    assert len(shared) == 100 and any(not all(flags) for _, flags in shared)
    with pytest.raises(AssertionError, match="built a"):
        exec_round(states[0], pack.scenario, 100, 9001, pack.config)
