import itertools

import numpy as np
import pytest

from occball import rngtools
from occball.rngtools import CHUNK, chunked, substream, substream_seed, substreams

SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, -1, -12345]
# the first block's ends and the second block's start
BLOCK_INDICES = [0, CHUNK - 1, CHUNK, CHUNK + 1]


def reference(seed, name, index):
    """The substream as numpy assembles it from entropy and spawn_key."""
    ss = np.random.SeedSequence(
        entropy=seed & rngtools._MASK64,
        spawn_key=(rngtools._name_tag(name), index & rngtools._MASK64),
    )
    return np.random.Generator(np.random.PCG64(ss))


def assert_same_draws(a, b):
    assert np.array_equal(a.random(3), b.random(3))
    assert np.array_equal(a.standard_normal(5), b.standard_normal(5))
    assert a.integers(0, 2**63 - 1) == b.integers(0, 2**63 - 1)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("index", [0, 7, 2**32, 2**64 - 1])
def test_substream_matches_seed_sequence(seed, index):
    for name in ("init", "sensor", "sysid-excite"):
        assert_same_draws(substream(seed, name, index), reference(seed, name, index))


def drawn(seed, name, indices):
    """The generators of substreams(seed, name) at the given indices."""
    gens = list(itertools.islice(substreams(seed, name), max(indices) + 1))
    return [gens[i] for i in indices]


@pytest.mark.parametrize("seed", SEEDS)
def test_substreams_match_seed_sequence(seed):
    for name in ("init", "sensor", "sysid-excite"):
        for index, rng in zip(BLOCK_INDICES, drawn(seed, name, BLOCK_INDICES)):
            assert_same_draws(rng, reference(seed, name, index))


def test_block_reaching_two_word_indices_falls_back():
    # the last block of one-word indices is mixed as arrays; the next block
    # holds 2**32 and is seeded by substream one index at a time
    mix = rngtools._index_mix(7, "init")
    for start in (2**32 - 2 * CHUNK, 2**32 - CHUNK, 2**32 - 3):
        block = list(itertools.islice(rngtools._block(7, "init", start, mix), CHUNK))
        for offset in (0, 1, 2, CHUNK - 1):
            assert_same_draws(block[offset], reference(7, "init", start + offset))


def test_precomputed_state_serves_only_pcg64():
    state = rngtools._PoolState(np.arange(4, dtype=np.uint64))
    assert np.array_equal(state.generate_state(4, np.uint64), np.arange(4))
    for n_words, dtype in ((4, np.uint32), (8, np.uint64), (2, np.uint64)):
        with pytest.raises(ValueError, match="4 uint64 words only"):
            state.generate_state(n_words, dtype)


@pytest.mark.parametrize("tag", [0, 1, 2**32 - 1])
def test_short_name_tag(monkeypatch, tag):
    # hashed tags are almost always two words; a one-word tag must be
    # assembled the same way numpy assembles it
    monkeypatch.setattr(rngtools, "_name_tag", lambda name: tag)
    rngtools._tag_words.cache_clear()
    try:
        for seed, index in ((0, 0), (2**32, 3), (2**64 - 1, 2**32)):
            assert_same_draws(substream(seed, "short", index), reference(seed, "short", index))
        for seed in (0, 2**32, 2**64 - 1):
            for index, rng in zip(BLOCK_INDICES, drawn(seed, "short", BLOCK_INDICES)):
                assert_same_draws(rng, reference(seed, "short", index))
    finally:
        rngtools._tag_words.cache_clear()


def test_substream_seed_draws_from_its_substream():
    assert substream_seed(5, "x", 2) == int(reference(5, "x", 2).integers(0, 2**63 - 1))


@pytest.mark.parametrize("n", [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5])
def test_chunked_draws_equal_scalar_draws(n):
    scalar, chunks = substream(3, "chunk"), substream(3, "chunk")
    normals = chunked(chunks.standard_normal)
    assert [next(normals) for _ in range(n)] == [scalar.standard_normal() for _ in range(n)]
    scalar, chunks = substream(4, "chunk"), substream(4, "chunk")
    forces = chunked(lambda k: -10.0 + 20.0 * chunks.random(k))
    assert [next(forces) for _ in range(n)] == [-10.0 + 20.0 * scalar.random() for _ in range(n)]
