"""The episode block source against its specification.

Episode i's stream is a list of blocks of sixteen 32-bit words, and block b
is a pure function of (seed, i, b): `streams.episode_blocks` hashes the
`(seed, "episode")` prefix once, so every block must equal the reference
derivation whatever was derived before it, and distinct triples must give
distinct blocks.  Block b of a run of consecutive episodes, derived in one
call, must be their blocks b in episode order.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from skillmas.streams import episode_blocks
from skillmas.world import CHUNK

from reference import reference_blocks

SEEDS = st.integers(0, 2**64 - 1)
INDEXES = st.one_of(st.integers(0, 2_000_000), st.sampled_from([0, 99_999, 100_000, 10**6, 10**6 + 1]))
BLOCKS = st.integers(0, 3)


@settings(max_examples=150, deadline=None)
@given(SEEDS, st.lists(st.tuples(INDEXES, BLOCKS), min_size=1, max_size=8))
def test_a_block_does_not_depend_on_earlier_calls(seed, calls):
    blocks = episode_blocks(seed)
    spec = reference_blocks(seed)
    for i, b in calls:  # any order, repeats included
        words = blocks(i, b)
        assert len(words) == 16 and all(0 <= w < 2**32 for w in words)
        assert list(words) == spec(i, b) == list(episode_blocks(seed)(i, b))


@settings(max_examples=50, deadline=None)
@given(st.sets(st.tuples(st.integers(0, 3), st.integers(0, 40), BLOCKS), min_size=2, max_size=40))
def test_distinct_triples_give_distinct_blocks(triples):
    derived = {tuple(episode_blocks(seed)(i, b)) for seed, i, b in triples}
    assert len(derived) == len(triples)


@settings(max_examples=40, deadline=None)
@given(SEEDS, INDEXES, st.integers(0, 1), st.sampled_from([1, CHUNK - 1, CHUNK, CHUNK + 1]))
def test_a_run_of_blocks_is_each_episode_block_in_order(seed, first, b, count):
    spec = reference_blocks(seed)
    words = episode_blocks(seed)(first, b, count)
    assert list(words) == [w for i in range(first, first + count) for w in spec(i, b)]
