"""Deterministic RNG stream derivation.

Streams are derived by hashing a label path, never by sharing generator
state, so every episode owns an independent stream reproducible from
(seed, round, episode index) alone.  Parallel and serial execution of a
round therefore produce identical trace sets.

`episode_streams` reseeds one generator per episode.  When several readers
consume the same episode stream, a `StreamTape` holds the stream's 32-bit
words and each reader draws from it through its own `TapeCursor`, whose
`random()` and `randrange(n)` reproduce `random.Random` bit for bit.
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


class StreamTape:
    """The leading 32-bit words of one generator's stream, shared by cursors.

    `load(rng)` takes the generator's next `width` words in one
    `getrandbits` call and rewinds every cursor.  A cursor that reads past
    the end extends the one word list in place from the same generator, so
    each cursor sees the stream's words in stream order, whatever the other
    cursors have read.
    """

    __slots__ = ("words", "_bits", "_bytes", "_unpack", "_rng", "_cursors")

    def __init__(self, width: int):
        if width < 1:
            raise ValueError("a tape holds at least one word")
        self.words: list[int] = []
        self._bits = 32 * width
        self._bytes = 4 * width
        self._unpack = struct.Struct(f"<{width}I").unpack
        self._rng: random.Random | None = None
        self._cursors: list[TapeCursor] = []

    def cursor(self) -> TapeCursor:
        cursor = TapeCursor(self)
        self._cursors.append(cursor)
        return cursor

    def _next_words(self) -> tuple[int, ...]:
        # getrandbits fills its result from the least significant word up
        return self._unpack(self._rng.getrandbits(self._bits).to_bytes(self._bytes, "little"))

    def load(self, rng: random.Random) -> None:
        self._rng = rng
        self.words[:] = self._next_words()
        for cursor in self._cursors:
            cursor.pos = 0

    def extend(self, length: int) -> None:
        """Draw further words from the generator until the tape holds `length`."""
        while len(self.words) < length:
            self.words.extend(self._next_words())


class TapeCursor:
    """One reader's position on a `StreamTape`, drawing like `random.Random`."""

    __slots__ = ("tape", "words", "pos")

    def __init__(self, tape: StreamTape):
        self.tape = tape
        self.words = tape.words
        self.pos = 0

    def random(self) -> float:
        """`random.Random.random`: 53 bits from the tops of two words."""
        pos = self.pos
        words = self.words
        end = pos + 2
        if end > len(words):
            self.tape.extend(end)
        self.pos = end
        return ((words[pos] >> 5) * 67108864.0 + (words[pos + 1] >> 6)) * _TWO_M53

    def randrange(self, n: int) -> int:
        """`random.Random.randrange(n)` for 0 < n < 2**32: the top
        `n.bit_length()` bits of one word per try, rejecting values >= n."""
        if not 0 < n <= 0xFFFFFFFF:
            raise ValueError(f"a tape cursor draws randrange(n) for 0 < n < 2**32, not {n}")
        shift = 32 - n.bit_length()
        words = self.words
        pos = self.pos
        while True:
            if pos >= len(words):
                self.tape.extend(pos + 1)
            value = words[pos] >> shift
            pos += 1
            if value < n:
                self.pos = pos
                return value


_PROBE_SEED = derive_seed("stream-tape", "probe")
# random(), randrange(1), and randrange(2**k + 1), which rejects almost half
# its tries; 24 draws read far past a two-word tape
_PROBE_DRAWS = ("random", 1, 17, "random", 2**31 + 1, 3) * 4


def _draw(source: random.Random | TapeCursor, draw: str | int) -> float | int:
    return source.random() if draw == "random" else source.randrange(draw)


def check_stream_tape() -> None:
    """Raise `StateError` unless two cursors reading one tape at different
    paces each draw what a fresh `random.Random` on the same seed draws."""
    tape = StreamTape(2)
    cursors = (tape.cursor(), tape.cursor())
    tape.load(random.Random(_PROBE_SEED))
    drawn: tuple[list[float | int], ...] = ([], [])
    for k in range(3 * len(_PROBE_DRAWS)):
        reader = 1 if k % 3 == 2 else 0  # the first reads two draws per one of the second
        values = drawn[reader]
        if len(values) < len(_PROBE_DRAWS):
            values.append(_draw(cursors[reader], _PROBE_DRAWS[len(values)]))
    ref = random.Random(_PROBE_SEED)
    expected = [_draw(ref, draw) for draw in _PROBE_DRAWS]
    if drawn[0] != expected or drawn[1] != expected:
        raise StateError("stream tape draws diverge from random.Random")
