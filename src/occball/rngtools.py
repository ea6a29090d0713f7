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

import numpy as np

__all__ = ["substream", "substream_seed"]

_MASK64 = (1 << 64) - 1


@functools.lru_cache(maxsize=256)
def _name_tag(name: str) -> int:
    return int.from_bytes(hashlib.sha256(name.encode("utf-8")).digest()[:8], "little")


def substream(seed: int, name: str, index: int = 0) -> np.random.Generator:
    """Generator for the substream ``name``/``index`` of ``seed``."""
    ss = np.random.SeedSequence(
        entropy=int(seed) & _MASK64,
        spawn_key=(_name_tag(name), int(index) & _MASK64),
    )
    return np.random.Generator(np.random.PCG64(ss))


def substream_seed(seed: int, name: str, index: int = 0) -> int:
    """A 64-bit seed derived from the named substream (for nested seeding)."""
    return int(substream(seed, name, index).integers(0, 2**63 - 1))
