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
A rule that reads past the list appends the episode's next block, so the
list always holds a prefix of the stream, whatever each reader has read.

A draw is a pure function of its words, so comparing words with integer
thresholds gives `word_random`'s decisions exactly.  The draw from words a
and b is `x * 2**-53` for x = `(a >> 5) << 26 | b >> 6`, below a threshold
t exactly when x < T = `word_cut(t)` = ceil(t * 2**53), and a first word
outside `word_window(T)`, 32 words from lo = `(T >> 26) << 5`, decides that
alone.  A weighted draw has one cut per running sum, `weight_cuts`, and
picks position `bisect_right(cuts, x)`; `world` tables that position by
the first word's top 12 bits, the top 12 of x's 53, and bisects x only
in a bucket a cut falls inside.  `world`'s one fast path, `end_episodes`,
decides the task draw so, phase 0's draws from their first words, an
exploring phase's executor draw by `word_randrange`'s rule on the words of
block 0, and walks an episode when a first word it needs falls in its
window, or every executor try in block 0 is rejected, calling the rules
(tests pin the decisions to the rules at every window's edges).
"""

from __future__ import annotations

import hashlib
import math
import struct
import sys
from array import array
from bisect import bisect_left
from typing import Callable, Sequence


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


def word_cut(threshold: float) -> int:
    """T = ceil(threshold * 2**53), for a threshold in [0, 1]: the draw
    `word_random` makes from words a and b is `x * 2**-53` for the integer
    x = `(a >> 5) << 26 | b >> 6`, so it is below the threshold exactly
    when x < T."""
    return math.ceil(threshold * 9007199254740992.0)


def weight_cuts(cumulative: Sequence[float]) -> tuple[int, ...]:
    """For each running sum c of weights totalling the last, the least k in
    [0, 2**53] with `k * 2**-53 * total >= c`, rounded as `word_random`
    rounds it: the product rises with k, so the draw `x * 2**-53` picks
    position `bisect_right(cuts, x)`, as `bisect_right(cumulative, u *
    total)` does.  Each cut is to a weighted draw what `word_cut` is to a
    threshold."""
    total = cumulative[-1]
    return tuple(
        bisect_left(range(2**53 + 1), True, key=lambda k: k * _TWO_M53 * total >= c)
        for c in cumulative
    )


def word_window(cut: int) -> tuple[int, int]:
    """The window [lo, hi) of first words that cannot decide a draw's x <
    `cut` alone: a first word below lo draws below the cut and one at or
    above hi does not, whatever the second word, and a first word in the
    window leaves it to the second."""
    lo = (cut >> 26) << 5
    return lo, lo + 32


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
