"""Deterministic stream derivation.

Streams are derived by hashing a label path, never by sharing generator
state, so every episode owns an independent stream reproducible from
(seed, round, episode index) alone.  Parallel and serial execution of a
round therefore produce identical trace sets.

Episode streams are counter-based, after Salmon et al., "Parallel Random
Numbers: As Easy as 1, 2, 3" (SC 2011): episode i's stream is a list of
32-bit words in blocks of sixteen, and block b is one BLAKE2b digest of
(seed, i, b), a pure function of the three.  So block b of a run of
consecutive episodes can be derived in one call: `episode_blocks(seed)(i,
b, count)` returns block b of episodes i to i + count - 1, concatenated in
one `array("I")`, and `(i, b)` returns episode i's block b alone.  Readers
read the words by index through two word rules, each defined once here:
`word_random` takes 53 bits from two words, and `word_randrange(n)` takes
the top `n.bit_length()` bits of one word per try, rejecting values >= n.
`world`'s one fast path, `end_episodes`, reads the task draw and phase 0's
draws by `word_random`'s rule in place, as columns of a chunk's first
blocks (tests pin every in-place read to the rule); its episode walk calls
the rules.  A rule that reads past the list appends the episode's next
block, so the list always holds a prefix of the stream, whatever each
reader has read.
"""

from __future__ import annotations

import hashlib
import struct
import sys
from array import array
from typing import Callable


def derive_seed(*parts: int | str) -> int:
    """Derive a 64-bit seed from a label path, stable across platforms."""
    text = "\x1f".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


_COUNTER = struct.Struct("<QQ")
# (first episode, block, count=1) -> 16 * count words, episode by episode
Blocks = Callable[..., array]


def episode_blocks(seed: int) -> Blocks:
    """`(first, index, count=1) -> ` block `index` of episodes `first` to
    `first + count - 1` (count >= 1), sixteen words each, concatenated in
    episode order.  Block b of episode i is the BLAKE2b-512 digest of the
    label path `(seed, "episode")`, a separator, then i and b as two
    little-endian 64-bit integers, read as sixteen little-endian 32-bit
    words on any byte order.

    The words are one `array("I")`, converted from the joined digests at
    once: a reader appends them to an episode's list or slices columns
    from them.  The prefix is hashed once: BLAKE2b consumes its input in
    order, so a copy of the prefix state fed the counters yields the digest
    of the whole message.  A block depends on nothing but (seed, i, b).
    """
    copy = hashlib.blake2b(f"{seed}\x1fepisode\x1f".encode("utf-8")).copy
    counter = _COUNTER.pack

    def blocks(first: int, index: int, count: int = 1) -> array:
        digests = []
        for episode in range(first, first + count):
            digest = copy()
            digest.update(counter(episode, index))
            digests.append(digest.digest())
        words = array("I", b"".join(digests))
        if sys.byteorder == "big":
            words.byteswap()
        return words

    return blocks


_TWO_M53 = 1.0 / 9007199254740992.0  # 2 ** -53


def word_random(words: list[int], pos: int, blocks: Blocks, episode: int) -> float:
    """A float in [0, 1) from `words[pos:pos + 2]`, episode `episode`'s words
    from `blocks`: 53 bits from the tops of two words."""
    while pos + 2 > len(words):
        words += blocks(episode, len(words) >> 4)
    return ((words[pos] >> 5) * 67108864.0 + (words[pos + 1] >> 6)) * _TWO_M53


def word_randrange(
    words: list[int], pos: int, n: int, blocks: Blocks, episode: int
) -> tuple[int, int]:
    """An int in [0, n) from `words[pos:]`, for 0 < n < 2**32, and the position
    after the last word read: the top `n.bit_length()` bits of one word per
    try, rejecting values >= n."""
    if not 0 < n <= 0xFFFFFFFF:
        raise ValueError(f"word_randrange draws for 0 < n < 2**32, not {n}")
    shift = 32 - n.bit_length()
    while True:
        if pos >= len(words):
            words += blocks(episode, len(words) >> 4)
        value = words[pos] >> shift
        pos += 1
        if value < n:
            return value, pos
