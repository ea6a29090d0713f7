"""Deterministic named RNG substreams.

Every random draw in the toolkit comes from a substream derived from a user
seed plus a stream name (and optional index), so independent components
(initial states, excitation inputs, sensor noise, SAC batches) never share or
perturb each other's randomness.  Re-running with the same seed reproduces
every draw bit for bit.
"""

from __future__ import annotations

import functools
import hashlib
import itertools

import numpy as np

__all__ = ["substream", "substream_seed", "chunked"]

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1
# SeedSequence's pool size: entropy shorter than this is zero-padded to it
# before a spawn key is appended
_POOL_WORDS = 4
# values per draw() call in chunked()
CHUNK = 64


def _name_tag(name: str) -> int:
    return int.from_bytes(hashlib.sha256(name.encode("utf-8")).digest()[:8], "little")


def _words(n: int) -> tuple:
    """n < 2**64 as SeedSequence reads an int: its little-endian uint32 words, at least one."""
    hi = n >> 32
    return (n & _MASK32, hi) if hi else (n,)


@functools.lru_cache(maxsize=256)
def _tag_words(name: str) -> tuple:
    return _words(_name_tag(name))


def substream(seed: int, name: str, index: int = 0) -> np.random.Generator:
    """Generator for the substream ``name``/``index`` of ``seed``.

    Equal draw for draw to ``SeedSequence(entropy=seed & MASK64,
    spawn_key=(tag, index & MASK64))``: the entropy array is assembled here
    as numpy would (seed words zero-padded to the pool size, then the tag
    words, then the index words), skipping numpy's per-call int coercion.
    """
    seed_words = _words(int(seed) & _MASK64)
    words = (seed_words + (0,) * (_POOL_WORDS - len(seed_words))
             + _tag_words(name) + _words(int(index) & _MASK64))
    ss = np.random.SeedSequence(np.array(words, dtype=np.uint32))
    return np.random.Generator(np.random.PCG64(ss))


def substream_seed(seed: int, name: str, index: int = 0) -> int:
    """A 64-bit seed derived from the named substream (for nested seeding)."""
    return int(substream(seed, name, index).integers(0, 2**63 - 1))


def chunked(draw):
    """Python floats from ``draw(CHUNK)`` arrays, one per ``next()``.

    A numpy Generator gives the same values in the same order whether they
    are drawn one at a time or in arrays, so the values are those of one
    scalar draw per ``next()``; the Generator itself ends up advanced to
    the end of the last chunk drawn.
    """
    return itertools.chain.from_iterable(iter(lambda: draw(CHUNK).tolist(), None))
