"""Deterministic named random streams.

One master seed fans out into independent generators, one per consumer, so
that adding or removing draws in one part of the simulator never shifts the
sequences seen by another. Equal seed means equal streams, bit for bit.

`BlockStream` serves integer draws over several ranges from block draws;
`doubles` and `integers_in` serve a stream read by one kind of draw only
as a C-level `__next__` over per-block lists. Each value is the
generator's own scalar draw, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import partial
from itertools import chain

import numpy as np


@dataclass
class RandomSource:
    """Bundle of independent per-purpose generators. `from_seed` spawns
    them in field order, so the field order is part of every seed's draws.

    `engine.run` reads preamble by `BlockStream`, detection and harq by
    `doubles` and backoff by `integers_in`, all in blocks, so after a run
    those generators end up to one block past the draws the run used.
    """

    placement: np.random.Generator
    arrivals: np.random.Generator
    preamble: np.random.Generator
    detection: np.random.Generator
    harq: np.random.Generator
    backoff: np.random.Generator

    @classmethod
    def from_seed(cls, seed: int) -> "RandomSource":
        seeds = np.random.SeedSequence(seed).spawn(len(fields(cls)))
        return cls(*(np.random.Generator(np.random.PCG64(s)) for s in seeds))

    def replaced(self, **streams) -> "RandomSource":
        """Copy with some streams substituted (testing hook)."""
        current = {f.name: getattr(self, f.name) for f in fields(self)}
        unknown = set(streams) - set(current)
        if unknown:
            raise ValueError(f"unknown stream names: {sorted(unknown)}")
        current.update(streams)
        return RandomSource(**current)


# Values fetched per block draw of a BlockStream.
BLOCK = 1024
_WORD = 1 << 32
_LOW = _WORD - 1
_INT64 = 1 << 63


class BlockStream:
    """Scalar `integers(lo, hi)` and bulk `integers_bulk(lo, hi, k)` served
    from block draws, by numpy's Lemire rule for ranges up to 2**32 on the
    raw 32-bit words of `gen.integers(0, 2**32, BLOCK, dtype=np.uint32)`,
    read through a position pointer into the current block. The first
    draw of a range in a block maps the whole block at once, `lo + (word *
    n) >> 32`, into a list of values, and the maps are dropped at each
    refill. So a scalar draw is one list index and a bulk draw of k values
    is one slice.

    A word with `(word * n) mod 2**32 < n` could be a Lemire rejection. A
    block that holds one for a range gets no map for it, and that range
    is read word by word in that block, with numpy's rejections. A bulk
    draw that crosses the block's end takes the rest of the block and goes
    on in the next one; n = 1 consumes no word. Each value therefore
    equals the one the generator's own scalar call would return, bit for
    bit, as long as nothing else reads the generator, which itself runs up
    to one block ahead.
    """

    __slots__ = ("_gen", "_block", "_pos", "_maps")

    def __init__(self, gen: np.random.Generator):
        self._gen = gen
        self._block = np.zeros(0, dtype=np.uint32)
        self._pos = BLOCK  # the first draw refills
        # (lo, hi) -> the current block mapped into that range; [] when a
        # word of the block could be rejected (the word-by-word path).
        self._maps: dict[tuple[int, int], list[int]] = {}

    def integers(self, lo: int, hi: int) -> int:
        vals = self._maps.get((lo, hi))
        if vals:
            pos = self._pos
            if pos < BLOCK:
                self._pos = pos + 1
                return vals[pos]
        return self._draw(lo, hi, 1)[0]

    def integers_bulk(self, lo: int, hi: int, k: int) -> list[int]:
        vals = self._maps.get((lo, hi))
        if vals:
            pos = self._pos
            end = pos + k
            if end <= BLOCK:
                self._pos = end
                return vals[pos:end]
        return self._draw(lo, hi, k)

    def _draw(self, lo: int, hi: int, k: int) -> list[int]:
        """The next k values of range (lo, hi) when no map serves them all:
        map the block first, or take the rest of the block and go on in
        the next one, or go word by word."""
        n = hi - lo
        if n <= 1:
            if n == 1:  # numpy returns lo without consuming a word
                return [lo] * k
            raise ValueError("low >= high")
        if n > _WORD:
            raise ValueError("range wider than 2**32")
        if lo < -_INT64 or hi > _INT64:  # numpy's int64 bounds; maps are int64
            raise ValueError("range outside int64")
        out: list[int] = []
        while k:
            if self._pos == BLOCK:
                self._refill_words()
            vals = self._maps.get((lo, hi))
            if vals is None:
                vals = self._maps[lo, hi] = self._map(lo, n)
            if not vals:
                out += [self._exact(lo, n) for _ in range(k)]
                break
            pos = self._pos
            end = min(pos + k, BLOCK)
            out += vals[pos:end]
            k -= end - pos
            self._pos = end
        return out

    def _map(self, lo: int, n: int) -> list[int]:
        block = self._block
        # The low word of word * n, wrapped in uint32; n = 2**32 leaves 0.
        if n == _WORD or (block * np.uint32(n)).min() < n:
            return []
        high = (block.astype(np.uint64) * np.uint64(n)) >> np.uint64(32)
        if lo:
            high = high.astype(np.int64) + lo
        return high.tolist()

    def _exact(self, lo: int, n: int) -> int:
        """One value by numpy's Lemire rule, rejections included."""
        threshold = (_WORD - n) % n
        while True:
            if self._pos == BLOCK:
                self._refill_words()
            m = int(self._block[self._pos]) * n
            self._pos += 1
            if m & _LOW >= threshold:
                return lo + (m >> 32)

    def _refill_words(self) -> None:
        self._block = self._gen.integers(0, _WORD, BLOCK, dtype=np.uint32)
        self._pos = 0
        self._maps = {}


def buffered(gen):
    """A BlockStream over a numpy Generator; any other object as it is."""
    if isinstance(gen, np.random.Generator):
        return BlockStream(gen)
    return gen


def doubles(gen):
    """Next-double callable: `__next__` of a chain over `gen.random(BLOCK)`
    lists on a numpy Generator, else `gen.random`."""
    if isinstance(gen, np.random.Generator):
        blocks = iter(lambda: gen.random(BLOCK).tolist(), None)
        return chain.from_iterable(blocks).__next__
    return gen.random


def integers_in(gen, lo: int, hi: int):
    """Next-value callable of the one range (lo, hi): `__next__` of a chain
    over `BlockStream.integers_bulk(lo, hi, BLOCK)` lists on a numpy
    Generator, else `gen.integers(lo, hi)`."""
    if isinstance(gen, np.random.Generator):
        block = partial(BlockStream(gen).integers_bulk, lo, hi, BLOCK)
        return chain.from_iterable(iter(block, None)).__next__
    return partial(gen.integers, lo, hi)


def bulk_integers(stream):
    """(lo, hi, k) -> the next k values of `stream.integers(lo, hi)`: one
    call on a BlockStream, k scalar calls on any other stream."""
    if isinstance(stream, BlockStream):
        return stream.integers_bulk
    return lambda lo, hi, k: [stream.integers(lo, hi) for _ in range(k)]
