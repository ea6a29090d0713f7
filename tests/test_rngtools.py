import numpy as np
import pytest

from occball import rngtools
from occball.rngtools import CHUNK, chunked, substream, substream_seed


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


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1, -1, -12345])
@pytest.mark.parametrize("index", [0, 7, 2**32, 2**64 - 1])
def test_substream_matches_seed_sequence(seed, index):
    for name in ("init", "sensor", "sysid-excite"):
        assert_same_draws(substream(seed, name, index), reference(seed, name, index))


@pytest.mark.parametrize("tag", [0, 1, 2**32 - 1])
def test_short_name_tag(monkeypatch, tag):
    # hashed tags are almost always two words; a one-word tag must be
    # assembled the same way numpy assembles it
    monkeypatch.setattr(rngtools, "_name_tag", lambda name: tag)
    rngtools._tag_words.cache_clear()
    try:
        for seed, index in ((0, 0), (2**32, 3), (2**64 - 1, 2**32)):
            assert_same_draws(substream(seed, "short", index), reference(seed, "short", index))
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
