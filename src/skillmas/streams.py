"""Deterministic RNG stream derivation.

Streams are derived by hashing a label path, never by sharing generator
state, so every episode owns an independent stream reproducible from
(seed, round, episode index) alone.  Parallel and serial execution of a
round therefore produce identical trace sets.
"""

from __future__ import annotations

import hashlib
import random
from typing import Callable


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


def substream(*parts: int | str) -> random.Random:
    """A fresh generator seeded from the label path.

    Reseeding one generator with `rng.seed(derive_seed(*parts))` gives the
    same state, `gauss` cache included, without building a new object.
    """
    return random.Random(derive_seed(*parts))
