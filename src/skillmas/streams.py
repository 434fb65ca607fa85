"""Deterministic RNG stream derivation.

Streams are derived by hashing a label path, never by sharing generator
state, so every episode owns an independent stream reproducible from
(seed, round, episode index) alone.  Parallel and serial execution of a
round therefore produce identical trace sets.

`episode_streams` reseeds one generator per episode.  When several readers
consume the same episode stream, they read one plain list of its 32-bit
words (`stream_words`) through two word rules, each defined once here:
`word_random` takes 53 bits from two words, and `word_randrange(n)` takes
the top `n.bit_length()` bits of one word per try, rejecting values >= n.
Each computes exactly what `random.Random` computes from those words.  A
rule that reads past the list extends it from the same generator, so the
list always holds a prefix of the stream, whatever each reader has read.
`probed_word_rules` checks the rules against `random.Random` before handing
them out.
"""

from __future__ import annotations

import _random
import hashlib
import random
import struct
from typing import Callable

from .model import StateError


def derive_seed(*parts: int | str) -> int:
    """Derive a 64-bit seed from a label path, stable across platforms."""
    text = "\x1f".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def seed_deriver(*prefix: int | str) -> Callable[[int | str], int]:
    """`part -> derive_seed(*prefix, part)`, with the prefix hashed once.

    SHA-256 consumes its input in order, so a copy of the prefix state fed
    the last part yields exactly the digest of the joined label path.
    """
    head = hashlib.sha256(
        ("\x1f".join(str(p) for p in prefix) + "\x1f" if prefix else "").encode("utf-8")
    )

    def derive(part: int | str) -> int:
        digest = head.copy()
        digest.update(str(part).encode("utf-8"))
        return int.from_bytes(digest.digest()[:8], "big")

    return derive


_seed_mt = _random.Random.seed  # the C seeding, without `random.Random.seed`


def episode_streams(seed: int) -> Callable[[int], random.Random]:
    """`i -> random.Random(derive_seed(seed, "episode", i))`, through one
    reseeded generator.

    The `(seed, "episode")` prefix is hashed once.  Reseeding calls the C
    seeding directly: `random.Random.seed` only adds clearing the `gauss`
    cache, and no episode draws `gauss`, so `getstate()` equals that of a
    freshly seeded generator.  Each call reseeds the generator the previous
    call returned.
    """
    derive = seed_deriver(seed, "episode")
    rng = random.Random()

    def stream(index: int) -> random.Random:
        _seed_mt(rng, derive(index))
        return rng

    return stream


_TWO_M53 = 1.0 / 9007199254740992.0  # 2 ** -53


def stream_words(count: int) -> Callable[[random.Random], list[int]]:
    """`rng -> ` a list of the generator's next `count` 32-bit words, in
    stream order."""
    unpack = struct.Struct(f"<{count}I").unpack
    bits, size = 32 * count, 4 * count
    # getrandbits fills its result from the least significant word up
    return lambda rng: list(unpack(rng.getrandbits(bits).to_bytes(size, "little")))


def _extend(words: list[int], end: int, rng: random.Random) -> None:
    """Append the stream's next words to `words` until it holds `end`."""
    words += stream_words(end - len(words))(rng)


def word_random(words: list[int], pos: int, rng: random.Random) -> float:
    """`random.Random.random()` read from `words[pos:pos + 2]`: 53 bits from
    the tops of two words."""
    if pos + 2 > len(words):
        _extend(words, pos + 2, rng)
    return ((words[pos] >> 5) * 67108864.0 + (words[pos + 1] >> 6)) * _TWO_M53


def word_randrange(words: list[int], pos: int, n: int, rng: random.Random) -> tuple[int, int]:
    """`random.Random.randrange(n)` read from `words[pos:]`, for 0 < n < 2**32,
    and the position after the last word read: the top `n.bit_length()` bits
    of one word per try, rejecting values >= n."""
    if not 0 < n <= 0xFFFFFFFF:
        raise ValueError(f"word_randrange draws for 0 < n < 2**32, not {n}")
    shift = 32 - n.bit_length()
    while True:
        if pos >= len(words):
            _extend(words, pos + 1, rng)
        value = words[pos] >> shift
        pos += 1
        if value < n:
            return value, pos


_PROBE_SEED = derive_seed("word-rules", "probe")
# random(), randrange(1), and randrange(2**k + 1), which rejects almost half
# its tries; 24 draws read far past a two-word list
_PROBE_DRAWS = ("random", 1, 17, "random", 2**31 + 1, 3) * 4


def probed_word_rules() -> tuple[Callable, Callable, Callable]:
    """`(stream_words, word_random, word_randrange)`, once two readers of one
    two-word list, one after the other as `exec_shared`'s states read, have
    each drawn with them what a fresh `random.Random` on the same seed draws.

    Raises `StateError` when they diverge.  A caller that reads only through
    the returned functions reads exactly what was probed.
    """
    load, draw_random, draw_randrange = rules = stream_words, word_random, word_randrange
    ref = random.Random(_PROBE_SEED)
    expected = [ref.random() if draw == "random" else ref.randrange(draw) for draw in _PROBE_DRAWS]
    rng = random.Random(_PROBE_SEED)
    words = load(2)(rng)
    for _ in range(2):  # the first reader extends the list, the second reads it
        pos, drawn = 0, []
        for draw in _PROBE_DRAWS:
            if draw == "random":
                drawn.append(draw_random(words, pos, rng))
                pos += 2
            else:
                value, pos = draw_randrange(words, pos, draw, rng)
                drawn.append(value)
        if drawn != expected:
            raise StateError("word rules diverge from random.Random")
    return rules
