"""Deterministic named RNG substreams.

Every random draw in the toolkit comes from a substream derived from a user
seed plus a stream name (and optional index), so independent components
(initial states, excitation inputs, sensor noise, SAC batches) never share or
perturb each other's randomness.  Re-running with the same seed reproduces
every draw bit for bit.

Indexed runs (excitation runs, evaluation and training episodes) take their
generators from ``substreams``, which seeds index after index in blocks with
numpy array arithmetic; the generators are those ``substream`` gives.
"""

from __future__ import annotations

import functools
import hashlib
import itertools

import numpy as np

__all__ = ["substream", "substreams", "substream_seed", "chunked"]

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1
# SeedSequence's pool size: entropy shorter than this is zero-padded to it
# before a spawn key is appended
_POOL_WORDS = 4
# values per draw() call in chunked(), and indices per seeding block in substreams()
CHUNK = 64

# SeedSequence's hash constants (numpy/random/bit_generator.pyx, not shipped
# with the wheel): entropy is mixed into the pool with the INIT_A/MULT_A
# hash, and generate_state hashes the pool with INIT_B/MULT_B
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16


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


def substreams(seed: int, name: str):
    """Generators of the substreams ``name``/0, 1, 2, ... of ``seed``, in order.

    Each equals ``substream(seed, name, index)`` draw for draw.  The seed and
    name words are mixed once per iterator; each block of CHUNK indices then
    has its index words mixed in and its PCG64 states generated as uint64
    arrays, and a PCG64 is built only when its index is drawn.  A block that
    reaches 2**32 (two-word indices) is seeded by ``substream`` one index at
    a time.
    """
    # a virtual subclass, so that importing occball does not load numpy.random
    # (about 10 ms of a cold start that may never draw)
    np.random.bit_generator.ISeedSequence.register(_PoolState)
    seed = int(seed) & _MASK64
    # held by the iterator, not a module cache: a (seed, name) pair seldom
    # recurs, and mixing it costs about 15 us against 64 draws per block
    mix = _index_mix(seed, name)
    for start in itertools.count(0, CHUNK):
        yield from _block(seed, name, start, mix)


def _block(seed: int, name: str, start: int, mix):
    """Generators of indices start .. start + CHUNK - 1, given ``_index_mix(seed, name)``."""
    if start + CHUNK > 1 << 32:
        for index in range(start, start + CHUNK):
            yield substream(seed, name, index)
        return
    xor, mult, pool_terms = mix
    # the index word's hashmix into each pool word, then mix(pool word, it)
    v = ((np.arange(start, start + CHUNK, dtype=np.uint64)[:, None] ^ xor) * mult) & _MASK32
    v ^= v >> _XSHIFT
    pool = (pool_terms - _MIX_MULT_R * v) & _MASK32
    pool ^= pool >> _XSHIFT
    # generate_state(4, uint64): 8 hashed uint32 words cycling the pool, paired
    # little-endian; PCG64 reads each row's memory, so the rows must be contiguous
    out = ((pool[:, _STATE_SRC] ^ _STATE_XOR) * _STATE_MULT) & _MASK32
    out ^= out >> _XSHIFT
    states = np.ascontiguousarray(out[:, 0::2] | (out[:, 1::2] << 32))
    for row in states:
        yield np.random.Generator(np.random.PCG64(_PoolState(row)))


class _PoolState:
    """A numpy ``ISeedSequence`` that hands PCG64 the 4 uint64 state words computed for it."""

    __slots__ = ("_words",)

    def __init__(self, words: np.ndarray):
        self._words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"holds 4 uint64 words only, asked for {n_words} {np.dtype(dtype)}")
        return self._words


def _index_mix(seed: int, name: str):
    """What mixing one index word into the substream entropy needs, for ``seed``/``name``.

    SeedSequence hashes the first pool-size entropy words (the seed words,
    zero-padded) into the pool, hashes each pool word into the others, then
    each further word (the name tag, then the index) into every pool word,
    the hash constant advancing by MULT_A at each hash.  A SeedSequence of
    the words before the index gives the pool; the hash count gives the
    constant.  Returned as uint64 arrays: the xor and multiplier of the index
    word's hash into each pool word, and MIX_MULT_L times each pool word.
    """
    seed_words = _words(seed)
    words = seed_words + (0,) * (_POOL_WORDS - len(seed_words)) + _tag_words(name)
    pool = np.random.SeedSequence(np.array(words, dtype=np.uint32)).pool.astype(np.uint64)
    # 1 + (POOL - 1) hashes per pool word, POOL per further word: POOL per word in all
    hashes = _POOL_WORDS * len(words)
    xor, mult = _hash_constants(_INIT_A * pow(_MULT_A, hashes, 1 << 32) & _MASK32,
                                _MULT_A, _POOL_WORDS)
    return xor, mult, (_MIX_MULT_L * pool) & _MASK32


def _hash_constants(h: int, multiplier: int, n: int):
    """The xor and multiplier of n successive hashes from hash constant h, as uint64 arrays."""
    xor, mult = [], []
    for _ in range(n):
        xor.append(h)
        h = h * multiplier & _MASK32
        mult.append(h)
    return np.array(xor, dtype=np.uint64), np.array(mult, dtype=np.uint64)


# generate_state(4, uint64) hashes 8 uint32 words, cycling through the pool
_STATE_SRC = np.arange(2 * _POOL_WORDS) % _POOL_WORDS
_STATE_XOR, _STATE_MULT = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_WORDS)


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
