"""The reseeded batch stream against the reference derivation.

`episode_streams` hashes the `(seed, "episode")` prefix once and reseeds one
generator per episode; both must reproduce `derive_seed` and a fresh
`substream` exactly, whatever the generator drew before.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st

from skillmas.streams import derive_seed, episode_streams, seed_deriver, substream

PARTS = st.one_of(
    st.integers(-(2**70), 2**70),
    st.text(max_size=8),
    st.sampled_from(["episode", "round", "eval", "\x1f", "é"]),
)
INDEXES = st.one_of(st.integers(0, 2_000_000), st.sampled_from([0, 99_999, 100_000, 10**6, 10**6 + 1]))


@settings(max_examples=300, deadline=None)
@given(st.lists(PARTS, max_size=3), st.one_of(INDEXES, PARTS))
def test_prefix_derivation_equals_derive_seed(prefix, last):
    assert seed_deriver(*prefix)(last) == derive_seed(*prefix, last)


def test_prefix_derivation_is_reusable():
    derive = seed_deriver(7, "episode")
    for i in (3, 0, 3, 10**6 + 7):
        assert derive(i) == derive_seed(7, "episode", i)


def draws(rng: random.Random) -> list:
    return [
        rng.random(),
        rng.randrange(7),
        rng.getrandbits(61),
        rng.gauss(0.0, 1.0),
        rng.gauss(0.0, 1.0),
        rng.randrange(1, 10**9),
        rng.random(),
    ]


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 2**64 - 1),
    st.lists(INDEXES, min_size=1, max_size=6),
    st.lists(st.sampled_from(["random", "gauss", "randrange", "getrandbits"]), max_size=5),
)
def test_reseeded_generator_equals_fresh_substream(seed, indexes, earlier):
    derive = seed_deriver(seed, "episode")
    rng = random.Random()
    for i in indexes:
        for name in earlier:  # leave state behind, a cached gauss value included
            if name == "random":
                rng.random()
            elif name == "gauss":
                rng.gauss(0.0, 1.0)
            elif name == "randrange":
                rng.randrange(3)
            else:
                rng.getrandbits(17)
        rng.seed(derive(i))
        assert draws(rng) == draws(substream(seed, "episode", i))


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 2**64 - 1),
    st.lists(INDEXES, min_size=1, max_size=6),
    st.lists(st.sampled_from(["random", "randrange", "getrandbits"]), max_size=5),
)
def test_episode_stream_state_equals_fresh_substream(seed, indexes, earlier):
    # reseeding skips `random.Random.seed`, which also clears the gauss
    # cache; no episode draws gauss, so the whole state must still match
    stream = episode_streams(seed)
    for i in indexes:
        rng = stream(i)
        assert rng.getstate() == substream(seed, "episode", i).getstate()
        for name in earlier:  # leave state behind for the next reseed
            if name == "random":
                rng.random()
            elif name == "randrange":
                rng.randrange(3)
            else:
                rng.getrandbits(17)
