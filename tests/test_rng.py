"""Determinism and independence of the named random streams."""

import numpy as np
import pytest

from rachsim.rng import STREAM_NAMES, RandomSource


def test_same_seed_same_streams():
    a = RandomSource.from_seed(42)
    b = RandomSource.from_seed(42)
    for name in STREAM_NAMES:
        x = getattr(a, name).random(100)
        y = getattr(b, name).random(100)
        assert np.array_equal(x, y)


def test_different_seeds_differ():
    a = RandomSource.from_seed(1)
    b = RandomSource.from_seed(2)
    assert not np.array_equal(a.preamble.random(50), b.preamble.random(50))


def test_streams_are_mutually_distinct():
    src = RandomSource.from_seed(7)
    draws = {name: tuple(getattr(src, name).random(20)) for name in STREAM_NAMES}
    assert len(set(draws.values())) == len(STREAM_NAMES)


def test_consuming_one_stream_leaves_others_untouched():
    a = RandomSource.from_seed(5)
    b = RandomSource.from_seed(5)
    a.placement.random(1000)
    assert np.array_equal(a.harq.random(64), b.harq.random(64))


def test_replaced_substitutes_only_named_streams():
    src = RandomSource.from_seed(3)
    sub = np.random.Generator(np.random.PCG64(999))
    out = src.replaced(backoff=sub)
    assert out.backoff is sub
    assert out.preamble is src.preamble
    with pytest.raises(ValueError):
        src.replaced(nonsense=sub)


@pytest.mark.parametrize("r", [1, 3, 27, 53])
def test_batched_draws_equal_scalar_draws(r):
    """Under PCG64 a batch of k draws equals k scalar draws, bit for bit.

    The engine draws preambles in per-opportunity batches
    (`integers(lo, hi, k)`); this pins that any batching or splitting of
    those draws leaves the stream, and so every result, unchanged.
    """
    for lo, hi in ((0, 54), (0, r), (r, 54)):
        for k in (1, 2, 3, 7, 40):
            batch = np.random.Generator(np.random.PCG64(11))
            scalar = np.random.Generator(np.random.PCG64(11))
            drawn = batch.integers(lo, hi, k).tolist()
            assert drawn == [int(scalar.integers(lo, hi)) for _ in range(k)]
            # Both generators are left in the same state.
            assert batch.integers(0, 2**62) == scalar.integers(0, 2**62)
    for k in (1, 2, 5, 64):
        batch = np.random.Generator(np.random.PCG64(12))
        scalar = np.random.Generator(np.random.PCG64(12))
        assert batch.random(k).tolist() == [scalar.random() for _ in range(k)]
        assert batch.random() == scalar.random()
