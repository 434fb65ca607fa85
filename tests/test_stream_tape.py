"""Shared episode streams: one word list, several readers.

Frozen evaluation runs several states on the same streams in one
`exec_shared` call, whose `end_episodes` derives each chunk's first blocks
once, reads the task draw and phase 0's draws once for every state, and
hands each state whose first words leave the episode undecided to
`walk_episode` on the episode's one word list.  Readers read that list by
index through the word rules `streams.word_random` and
`streams.word_randrange`; a read past the list appends the episode's next
block.  A reader must draw what an independent reader of the same words
draws, whatever the other readers have read, and every state's batch must
equal `exec_round`'s batch on that state, record by record and index by
index.
"""

from __future__ import annotations

import dataclasses
import functools
import random
from bisect import bisect_right

import pytest
from hypothesis import given, settings, strategies as st

import skillmas.world as world
from skillmas.config import EngineConfig
from skillmas.orchestrator import (
    TRANSPLANT_ROWS,
    evaluate_transplants,
    run_experiment,
    transplant_variants,
)
from skillmas.presets import PRESETS, load_preset
from skillmas.store import parse_scenario, trace_to_record
from skillmas.streams import (
    derive_seed,
    episode_blocks,
    word_cut,
    word_random,
    word_randrange,
    word_window,
)
from skillmas.world import CHUNK, ExecutionTable, exec_round, exec_shared

from conftest import NOISY, random_scenario
from reference import episode_stream, mt_blocks, reference_blocks

# n = 1, n = 2**k + 1 (about half the tries rejected) and the largest n
SIZES = st.sampled_from([1, 2, 3, 5, 17, 2**16 + 1, 2**31 + 1, 2**32 - 1]) | st.integers(1, 2**32 - 1)
DRAWS = st.just("random") | SIZES
WORD = st.integers(0, 2**32 - 1)


def draw(source, op):
    return source.random() if op == "random" else source.randrange(op)


class Reader:
    """One reader's position on an episode's word list, drawing through the
    word rules."""

    def __init__(self, words, blocks, episode):
        self.words, self.blocks, self.episode, self.pos = words, blocks, episode, 0

    def random(self):
        value = word_random(self.words, self.pos, self.blocks, self.episode)
        self.pos += 2
        return value

    def randrange(self, n):
        value, self.pos = word_randrange(self.words, self.pos, n, self.blocks, self.episode)
        return value


def replayed(seed, episode, ops):
    ref = random.Random(derive_seed(seed, "episode", episode))
    return [draw(ref, op) for op in ops]


def stream_prefix(blocks, episode, length):
    return [w for b in range(-(-length // 16)) for w in blocks(episode, b)][:length]


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**64 - 1),
    st.integers(0, 10**6),
    st.lists(st.tuples(st.integers(0, 3), DRAWS), max_size=150),
)
def test_readers_at_any_pace_each_equal_a_fresh_generator(seed, episode, schedule):
    # on Mersenne Twister words the rules draw what `random.Random` draws
    blocks = mt_blocks(seed)
    words = blocks(episode, 0)
    readers = [Reader(words, blocks, episode) for _ in range(4)]
    ops: list[list] = [[] for _ in readers]
    drawn: list[list] = [[] for _ in readers]
    for reader, op in schedule:
        ops[reader].append(op)
        drawn[reader].append(draw(readers[reader], op))
    for reader_ops, values in zip(ops, drawn):
        assert values == replayed(seed, episode, reader_ops)
    assert words == stream_prefix(blocks, episode, len(words))


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 2**64 - 1),
    st.lists(st.integers(0, 10**6), min_size=1, max_size=4),
    st.lists(DRAWS, max_size=40),
)
def test_each_episode_list_reads_as_its_stream(seed, indexes, ops):
    blocks = episode_blocks(seed)
    for i in indexes:
        words = blocks(i, 0)
        first, second = Reader(words, blocks, i), Reader(words, blocks, i)
        ahead = [draw(first, op) for op in ops]
        behind = [draw(second, op) for op in ops[: len(ops) // 2]]
        ref = episode_stream(seed, i)
        assert ahead == [draw(ref, op) for op in ops]
        assert behind == ahead[: len(behind)]
        assert list(words) == stream_prefix(reference_blocks(seed), i, len(words))


def test_reads_far_past_the_tape_extend_one_word_list():
    seed, episode = 20260501, 3
    fetched = []

    def blocks(i, b):
        fetched.append((i, b))
        return mt_blocks(seed)(i, b)

    words = blocks(episode, 0)
    fast, slow = Reader(words, blocks, episode), Reader(words, blocks, episode)
    ops = [2**31 + 1, "random", 17] * 100
    assert [draw(fast, op) for op in ops] == replayed(seed, episode, ops)
    assert len(words) > 300  # about one rejection per two tries
    assert [draw(slow, op) for op in ops] == replayed(seed, episode, ops)
    # each block appended once, in order, whichever reader reached it
    assert slow.words is words and fetched == [(episode, b) for b in range(len(words) // 16)]


@pytest.mark.parametrize("n", [0, -1, 2**32])
def test_randrange_outside_one_word_is_refused(n):
    blocks = episode_blocks(1)
    words = blocks(0, 0)
    with pytest.raises(ValueError):
        word_randrange(words, 0, n, blocks, 0)
    assert words == blocks(0, 0)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([1, 2, 2**32 - 1]) | st.integers(0, 31).map(lambda k: 2**k + 1),
    st.lists(st.lists(WORD, min_size=16, max_size=16), min_size=1, max_size=6),
    st.integers(1, 6),
    st.integers(0, 96),
)
def test_randrange_takes_the_first_top_bits_below_n(n, stream, held, pos):
    # try the top n.bit_length() bits of each word from `pos` on, past the
    # blocks the list holds too, and return the first value below n
    held = min(held, len(stream))
    words = [w for block in stream[:held] for w in block]
    pos = min(pos, len(words))
    flat = [w for block in stream for w in block]
    shift = 32 - n.bit_length()
    accepted = [k for k in range(pos, len(flat)) if flat[k] >> shift < n]

    def blocks(episode, b):
        return list(stream[b])  # an IndexError past the end of the stream

    if not accepted:
        with pytest.raises(IndexError):
            word_randrange(words, pos, n, blocks, 0)
        return
    k = accepted[0]
    assert word_randrange(words, pos, n, blocks, 0) == (flat[k] >> shift, k + 1)
    assert words == flat[: 16 * max(held, k // 16 + 1)]


# ---------------------------------------------------------------------------
# `exec_shared` against `exec_round`, state by state

WORLDS = dict(PRESETS) | {"noisy": NOISY}


def counted_blocks(monkeypatch) -> list:
    """Record every (episode, block) the engine derives from here on, each
    episode a call covers in order."""
    fetched = []

    def counting(seed):
        blocks = episode_blocks(seed)

        def counted(first, b, count=1):
            fetched.extend((i, b) for i in range(first, first + count))
            return blocks(first, b, count)

        return counted

    monkeypatch.setattr(world, "episode_blocks", counting)
    return fetched


def counted_walks(monkeypatch) -> list:
    """Record (episode, state) of every `walk_episode` call from here on."""
    walked = []
    walk = world.walk_episode

    def counting(table, root, words, blocks, episode):
        walked.append((episode, table.state))
        return walk(table, root, words, blocks, episode)

    monkeypatch.setattr(world, "walk_episode", counting)
    return walked


def undecided(table, words) -> bool:
    """Whether `end_episodes` must walk an episode whose first block is
    `words` on `table`, by the rule, from the raw words: a first word that
    phase 0 needs is in its threshold's window; every executor try of an
    exploring phase 0 up to word 12 is rejected; or phase 0 succeeds on a
    task with more phases.  The task is the one the float draw picks."""
    scenario = table.scenario

    def window(threshold):
        lo, hi = word_window(word_cut(threshold))
        return range(lo, hi)

    cumulative = scenario.cumulative_weights
    position = bisect_right(cumulative, word_random(words, 0, None, 0) * cumulative[-1])
    routing = window(scenario.routing_noise)
    if words[2] in routing:
        return True
    _, phases, _, _, _ = table.roots[position]
    pair, route = phases[0]
    executor, success = route.greedy, 4
    if words[2] < routing.start:  # phase 0 explores: word_randrange's tries
        n = len(route.eligible)
        shift = 32 - n.bit_length()
        tries = [j for j in range(4, 13) if words[j] >> shift < n]
        if not tries:
            return True
        executor, success = route.eligible[words[tries[0]] >> shift], tries[0] + 1
    slot = table.slot(pair, executor)
    s, succeeds = words[success], window(slot.success_prob)
    if s in succeeds:
        return True
    if s < succeeds.start:
        return len(phases) > 1
    return slot.deficit is not None and words[success + 2] in window(scenario.cause_confidence)


def undecided_walks(states, scenario, config, seed, n) -> list:
    """(episode, position of its state) for every episode of `exec_shared(
    states, ...)` that `undecided` says is walked, sorted."""
    tables = [ExecutionTable(state, scenario, config) for state in states]
    blocks = episode_blocks(seed)
    return [
        (i, k) for i in range(n) for k, table in enumerate(tables)
        if undecided(table, blocks(i, 0))
    ]


@functools.lru_cache(maxsize=None)
def frozen_states(name):
    """The pack of world `name` and its four transplant variants after a
    short run, each a distinct object, so a walk's state names its variant."""
    pack = parse_scenario(WORLDS[name], name=name)
    result = run_experiment(pack.scenario, pack.seed_state, 11, 3, pack.config)
    variants = transplant_variants(result.checkpoint_state, pack.seed_state)
    return pack, [dataclasses.replace(variants[label]) for label in TRANSPLANT_ROWS]


def walked_pairs(walked, states) -> list:
    """Each recorded walk as (episode, position of its state), sorted."""
    return sorted((i, next(k for k, s in enumerate(states) if s is state)) for i, state in walked)


def assert_same_batch(shared, alone):
    assert shared.round_index == alone.round_index
    assert [trace_to_record(s) for s in shared.shapes] == [trace_to_record(s) for s in alone.shapes]
    assert shared.index == alone.index


@pytest.mark.parametrize("name", sorted(WORLDS))
def test_each_state_reads_what_exec_round_reads(name, monkeypatch):
    pack, states = frozen_states(name)
    fetched = counted_blocks(monkeypatch)
    shared = exec_shared(states, pack.scenario, 300, 9001, pack.config)
    extended = [b for _, b in fetched if b > 0]
    assert len(shared) == len(states) and all(len(b.index) == 300 for b in shared)
    for batch, state in zip(shared, states):
        assert_same_batch(batch, exec_round(state, pack.scenario, 300, 9001, pack.config))
    if name == "noisy":
        assert extended  # walks ran past an episode's first block
        assert any(len(set(shape.executors())) > 1 for shape in shared[0].shapes)
        assert any(shape.outcome == 0 for shape in shared[0].shapes)


@pytest.mark.parametrize("noise", [0.0, 1.0, None])
@pytest.mark.parametrize("name", ["favorable", "mismatch", "noisy"])
def test_states_walk_only_from_an_exploring_draw(name, noise, monkeypatch):
    # the states read phase 0's draws once, exploring ones included; an
    # episode is walked for exactly the states its first words leave
    # undecided, most of them succeeding at phase 0 of a task with more phases
    pack, states = frozen_states(name)
    scenario = pack.scenario
    if noise is not None:
        scenario = dataclasses.replace(scenario, routing_noise=noise)
    walked = counted_walks(monkeypatch)
    n = 200
    shared = exec_shared(states, scenario, n, 9001, pack.config)
    calls = walked_pairs(walked, states)
    ends = [[batch.shapes[j] for j in batch.index] for batch in shared]
    for k, state in enumerate(states):
        walked.clear()
        alone = exec_round(state, scenario, n, 9001, pack.config)
        assert_same_batch(shared[k], alone)
        if noise == 0.0:  # `exec_round` walks the same episodes of this state
            assert [i for i, _ in walked] == [
                i for i, shape in enumerate(ends[k]) if len(shape.slices) >= 2
            ]
    assert calls == undecided_walks(states, scenario, pack.config, 9001, n)
    if noise == 0.0:  # every route is greedy: exactly the states past phase 0 are walked
        assert calls == [
            (i, k) for i in range(n) for k, shapes in enumerate(ends) if len(shapes[i].slices) >= 2
        ]
    if name != "mismatch":  # mismatch's tasks have one phase each
        assert 0 < len(calls) < n * len(states)
    if name == "favorable":  # two phases each: some states run past the first
        assert any(len(shape.slices) == 2 for shape in ends[0])


@pytest.mark.parametrize("n", [CHUNK - 1, 2 * CHUNK + 1])
@pytest.mark.parametrize("noise", [None, 0.0, 1.0])
@pytest.mark.parametrize("name", sorted(WORLDS))
def test_every_batch_is_exec_round_s_across_chunks(name, noise, n, monkeypatch):
    # on either side of a chunk's end, each state's batch is the one it
    # gets alone, and exactly the undecided states are walked
    pack, states = frozen_states(name)
    scenario = pack.scenario
    if noise is not None:
        scenario = dataclasses.replace(scenario, routing_noise=noise)
    walked = counted_walks(monkeypatch)
    shared = exec_shared(states, scenario, n, 9001, pack.config)
    calls = walked_pairs(walked, states)
    for batch, state in zip(shared, states):
        assert_same_batch(batch, exec_round(state, scenario, n, 9001, pack.config))
    assert calls == undecided_walks(states, scenario, pack.config, 9001, n)


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
        exec_shared([], pack.scenario, 3, 1, pack.config)
    with pytest.raises(ValueError, match="at least one episode"):
        exec_shared([pack.seed_state], pack.scenario, 0, 1, pack.config)


@pytest.mark.parametrize("n_states", [1, 4])
def test_exec_shared_derives_each_block_once(n_states, monkeypatch):
    pack, states = frozen_states("noisy")
    fetched = counted_blocks(monkeypatch)
    shared = exec_shared(states[:n_states], pack.scenario, 50, 9001, pack.config)
    # every state reads one list per episode: no block is derived twice
    assert len(shared) == n_states and len(set(fetched)) == len(fetched)
    # the chunk's first blocks at once, then each block after the one before it
    assert fetched[:50] == [(i, 0) for i in range(50)]
    assert all(fetched.index((i, b - 1)) < k for k, (i, b) in enumerate(fetched) if b > 0)
    assert any(b > 0 for _, b in fetched)
