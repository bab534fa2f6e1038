"""Determinism and independence of the named random streams."""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rachsim.rng import (
    BLOCK,
    BlockStream,
    RandomSource,
    buffered,
    bulk_integers,
    doubles,
    integers_in,
)


STREAM_NAMES = [f.name for f in fields(RandomSource)]
# Stream i of `from_seed(s)` is child i of `SeedSequence(s)`, so this order
# is part of every seed's draws; it is pinned here, apart from the fields.
SPAWN_ORDER = ("placement", "arrivals", "preamble", "detection", "harq",
               "backoff")


@pytest.mark.parametrize("i", range(len(SPAWN_ORDER)), ids=SPAWN_ORDER)
def test_streams_spawn_in_the_pinned_order(i):
    for seed in (0, 1, 2**64 - 1):
        child = np.random.SeedSequence(seed).spawn(len(SPAWN_ORDER))[i]
        want = np.random.Generator(np.random.PCG64(child)).bit_generator.state
        got = getattr(RandomSource.from_seed(seed), SPAWN_ORDER[i])
        assert got.bit_generator.state == want, (SPAWN_ORDER[i], seed)


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

    The golden fixtures were written when the engine drew each
    opportunity's preambles in one batch (`integers(lo, hi, k)`). It now
    serves them from `rng.BlockStream`: one bulk draw per pool range, and
    one scalar draw for a lone contender's single copy. This pins that
    batched and scalar draws give the same stream, and so every result.
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


def twin_generators(seed, half_word=False):
    """Two Generators in the same state; with `half_word`, each has made
    one scalar draw, which leaves half of a 64-bit output buffered."""
    gen = np.random.Generator(np.random.PCG64(seed))
    twin = np.random.Generator(np.random.PCG64(seed))
    if half_word:
        gen.integers(0, 54)
        twin.integers(0, 54)
    return gen, twin


def twins(seed):
    """A BlockStream and a Generator in the same state as the one it reads."""
    gen, twin = twin_generators(seed)
    return BlockStream(gen), twin


@pytest.mark.parametrize("r", [1, 3, 27, 53])
def test_block_stream_integers_equal_scalar_draws(r):
    # Interleaved ranges over several blocks; (0, 1) consumes no word.
    ranges = [(0, 54), (0, r), (r, 54), (0, 1), (0, 2)]
    pick = np.random.default_rng(r).integers(0, len(ranges), 4 * BLOCK)
    stream, twin = twins(20 + r)
    for c in pick.tolist():
        lo, hi = ranges[c]
        assert stream.integers(lo, hi) == twin.integers(lo, hi)


def test_block_stream_integers_equal_scalar_draws_under_rejection():
    # For n = 2**31 + 1 numpy's Lemire rule rejects about half of all
    # words, so the reader must redraw exactly when numpy does.
    ranges = [(0, 2**31 + 1), (7, 7 + 3 * 2**30 + 5), (0, 2**32 - 1), (0, 54)]
    stream, twin = twins(31)
    for i in range(3 * BLOCK):
        lo, hi = ranges[i % len(ranges)]
        assert stream.integers(lo, hi) == twin.integers(lo, hi)
    # Both are aligned on the next raw word (n = 2**32 never rejects).
    assert stream.integers(0, 2**32) == twin.integers(0, 2**32)


def test_block_stream_starts_on_a_buffered_half_word():
    gen, twin = twin_generators(41, half_word=True)
    stream = BlockStream(gen)
    for _ in range(2 * BLOCK + 3):
        assert stream.integers(0, 54) == twin.integers(0, 54)


# A range width: small ones like the preamble pools, n = 1 (no word is
# consumed), and widths in [2**31, 2**32), where numpy's Lemire rule
# rejects up to half of all words.
_WIDTHS = st.one_of(
    st.integers(2, 200), st.just(1), st.integers(2**31, 2**32 - 1)
)
# k values include runs that end on, or cross, a block boundary.
_COUNTS = st.one_of(
    st.integers(0, 300), st.sampled_from([BLOCK - 1, BLOCK, BLOCK + 1])
)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    ranges=st.lists(
        st.tuples(st.integers(0, 2**40), _WIDTHS), min_size=1, max_size=4
    ),
    calls=st.lists(
        st.tuples(
            st.sampled_from(["integers", "integers_bulk", "random"]),
            st.integers(0, 3),
            _COUNTS,
        ),
        min_size=1, max_size=40,
    ),
)
def test_bulk_draw_equals_scalar_draws(seed, ranges, calls):
    """Bulk and scalar draws, interleaved over several ranges, mapped or
    word by word, across block ends, against scalar draws of a twin
    generator; `random` reads a second stream through `doubles`, as the
    engine's detection and HARQ streams do."""
    ints, twin = twins(seed)
    gen, twin_doubles = twin_generators(seed + 1)
    double = doubles(gen)
    for kind, r, k in calls:
        lo, n = ranges[r % len(ranges)]
        if kind == "integers":
            for _ in range(min(k, 50)):  # short: the twin's draws are slow
                assert ints.integers(lo, lo + n) == twin.integers(lo, lo + n)
        elif kind == "integers_bulk":
            scalar = [int(twin.integers(lo, lo + n)) for _ in range(k)]
            assert ints.integers_bulk(lo, lo + n, k) == scalar
        else:
            for _ in range(k):
                assert double() == twin_doubles.random()
    # Both are aligned on the next raw word (n = 2**32 never rejects).
    assert ints.integers(0, 2**32) == twin.integers(0, 2**32)
    assert double() == twin_doubles.random()


def test_bulk_integers_makes_scalar_calls_on_other_streams():
    class Counting:
        def __init__(self):
            self.calls = []

        def integers(self, lo, hi):
            self.calls.append((lo, hi))
            return lo + len(self.calls)

    stub = Counting()
    assert bulk_integers(stub)(10, 20, 3) == [11, 12, 13]
    assert stub.calls == [(10, 20)] * 3
    assert bulk_integers(stub)(0, 5, 0) == []
    stream, _ = twins(71)
    assert bulk_integers(stream) == stream.integers_bulk


def test_doubles_equal_scalar_draws():
    for half_word in (False, True):
        gen, twin = twin_generators(51, half_word)
        draw = doubles(gen)
        # The callable reads nothing until its first draw.
        assert gen.bit_generator.state == twin.bit_generator.state
        for _ in range(3 * BLOCK + 5):
            assert draw() == twin.random()


# (lo, hi) of a single-range stream: n = 1 (no word is consumed), n = 2,
# the engine's default backoff range, and widths in [2**31, 2**32), where
# numpy's Lemire rule rejects up to half of all words.
SINGLE_RANGES = [
    (3, 4), (0, 2), (0, 1121), (7, 7 + 2**31 + 1), (0, 2**32 - 1),
    (-5, -5 + 3 * 2**30 + 5),
]


@pytest.mark.parametrize("half_word", [False, True])
@pytest.mark.parametrize("lo, hi", SINGLE_RANGES)
def test_integers_in_equals_scalar_draws(lo, hi, half_word):
    gen, twin = twin_generators(81, half_word)
    draw = integers_in(gen, lo, hi)
    assert gen.bit_generator.state == twin.bit_generator.state
    # Over three blocks of words, or more where words are rejected.
    for _ in range(3 * BLOCK + 5):
        assert draw() == twin.integers(lo, hi)


def test_single_kind_callables_fall_back_to_stub_methods():
    class Stub:
        def __init__(self):
            self.calls = []

        def random(self):
            self.calls.append("random")
            return 0.25

        def integers(self, lo, hi):
            self.calls.append((lo, hi))
            return lo + len(self.calls)

    stub = Stub()
    draw_double, draw_int = doubles(stub), integers_in(stub, 10, 20)
    assert stub.calls == []
    assert [draw_double(), draw_int(), draw_int()] == [0.25, 12, 13]
    assert stub.calls == ["random", (10, 20), (10, 20)]


def test_block_stream_rejects_empty_range():
    stream, _ = twins(61)
    with pytest.raises(ValueError):
        stream.integers(5, 5)
    # Beyond int64, as numpy's own draw; a mapped value would wrap.
    with pytest.raises(ValueError):
        stream.integers_bulk(2**63 - 3, 2**63 + 2, 4)


def test_buffered_wraps_only_generators():
    gen = np.random.Generator(np.random.PCG64(1))
    assert isinstance(buffered(gen), BlockStream)

    class Stub:
        def random(self):
            return 0.0

    stub = Stub()
    assert buffered(stub) is stub
