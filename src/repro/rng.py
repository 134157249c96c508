"""Named deterministic RNG streams (a ``SeedSequence``-based registry).

Every component that needs randomness used to derive its generator with an
ad-hoc constant offset -- ``np.random.default_rng(seed + 23)`` and friends.
That scheme has two real failure modes:

* **collisions**: component A at ``seed=23`` with offset 0 consumes the very
  stream component B consumes at ``seed=0`` with offset 23, so two unrelated
  samplers silently share draws the moment seeds are reused across
  components (exactly what happens when one experiment seed configures the
  whole pipeline);
* **non-shardability**: an offset scheme gives one linear stream per
  component, so work split across workers either shares a stream (order
  dependent, non-deterministic under concurrency) or needs yet more ad-hoc
  offsets that can collide with sibling components.

This module replaces offsets with :class:`numpy.random.SeedSequence` spawn
keys.  A stream is addressed by the user seed plus a *path* of component
names (and optional integer indices); names are hashed to 32-bit words that
form the ``spawn_key``, so streams for different paths are statistically
independent for every seed, and a stream can be further
:meth:`~numpy.random.SeedSequence.spawn`-split into per-chunk children whose
draws do not depend on how many workers consume them.

Bulk per-item draws -- the ego sampler's neighbour truncation, one draw per
``(centre, level, parent, slot)`` for thousands of centres at once -- do not
build a generator per item.  They come from :func:`counter_hash`, a
vectorised ``uint64`` SplitMix64 finaliser that absorbs one counter word per
call (the counter-based scheme of Salmon et al., "Parallel Random Numbers:
As Easy as 1, 2, 3", SC'11): a draw is a pure function of a 64-bit key
taken from one named stream plus the item's coordinates, so it does not
depend on which batch, chunk or worker computes it.

Examples
--------
>>> from repro.rng import stream
>>> rng = stream(0, "tgae", "trainer")
>>> rng2 = stream(0, "tgae", "trainer")
>>> float(rng.random()) == float(rng2.random())
True
"""

from __future__ import annotations

import hashlib
from typing import List, Union

import numpy as np

__all__ = ["bounded_draws", "counter_hash", "key_from", "seed_sequence", "stream", "spawn_streams"]

PathPart = Union[str, int, np.integer]


def _key_word(part: PathPart) -> int:
    """One spawn-key word per path component.

    Non-negative integers (chunk indices, timestamps) are used directly and
    unmodified -- ``SeedSequence`` splits arbitrarily large words itself, so
    no lossy truncation ever aliases two distinct components.  Strings are
    hashed with SHA-256 (stable across processes and Python versions,
    unlike the salted builtin ``hash``) down to 32 bits.
    """
    if isinstance(part, (int, np.integer)):
        value = int(part)
        if value < 0:
            raise ValueError(f"integer stream-path components must be >= 0, got {value}")
        return value
    digest = hashlib.sha256(str(part).encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "little")


def seed_sequence(seed: int, *path: PathPart) -> np.random.SeedSequence:
    """The :class:`~numpy.random.SeedSequence` of stream ``path`` under ``seed``.

    ``path`` must be non-empty: the bare user seed (empty path) is reserved
    for whatever the caller owning the seed does with it directly.
    """
    if not path:
        raise ValueError("a stream path of at least one component is required")
    return np.random.SeedSequence(
        entropy=int(seed), spawn_key=tuple(_key_word(part) for part in path)
    )


def stream(seed: int, *path: PathPart) -> np.random.Generator:
    """A fresh :class:`~numpy.random.Generator` for stream ``path`` under ``seed``."""
    return np.random.default_rng(seed_sequence(seed, *path))


def spawn_streams(
    root: np.random.SeedSequence, count: int
) -> List[np.random.SeedSequence]:
    """``count`` child sequences of ``root``, one per independent work chunk.

    Children are derived purely from ``root`` and the child index, so the
    draws of chunk ``i`` are identical no matter how many workers the chunks
    are later distributed over -- the property the sharded generation
    engine's bit-reproducibility rests on.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    return list(root.spawn(count))


_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)


def counter_hash(state, word) -> np.ndarray:
    """Absorb counter ``word`` into ``state``: one SplitMix64 round, vectorised.

    Both arguments broadcast as ``uint64`` arrays and the result is a
    ``uint64`` array of their broadcast shape.  Chaining calls --
    ``counter_hash(counter_hash(key, a), b)`` -- addresses one independent
    64-bit draw per coordinate tuple ``(key, a, b)``; every round is the
    full SplitMix64 avalanche, so neighbouring counters give unrelated
    outputs.  Wrap-around multiplication is the intended arithmetic.
    """
    with np.errstate(over="ignore"):
        z = (np.asarray(state, dtype=np.uint64) ^ np.asarray(word, dtype=np.uint64)) + _GOLDEN
        z = (z ^ (z >> np.uint64(30))) * _MIX_1
        z = (z ^ (z >> np.uint64(27))) * _MIX_2
        return np.atleast_1d(z ^ (z >> np.uint64(31)))


def bounded_draws(words: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Map 64-bit hash ``words`` to integers in ``[0, counts)`` (int64).

    Multiply-shift on the top 32 bits (Lemire's range reduction without the
    rejection step): the bias is below ``counts / 2**32``, negligible for
    the neighbour-list lengths it indexes, which must stay below ``2**32``.
    """
    high = np.asarray(words, dtype=np.uint64) >> np.uint64(32)
    return ((high * np.asarray(counts, dtype=np.uint64)) >> np.uint64(32)).astype(np.int64)


def key_from(rng: np.random.Generator) -> int:
    """One 64-bit hash key drawn from ``rng`` (a single raw draw)."""
    return int(rng.integers(0, 2**64, dtype=np.uint64))
