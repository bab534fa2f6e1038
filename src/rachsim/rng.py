"""Deterministic named random streams.

One master seed fans out into independent generators, one per consumer, so
that adding or removing draws in one part of the simulator never shifts the
sequences seen by another. Equal seed means equal streams, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

STREAM_NAMES = (
    "placement",
    "arrivals",
    "preamble",
    "detection",
    "harq",
    "backoff",
)


@dataclass
class RandomSource:
    """Bundle of independent per-purpose generators.

    `engine.run` reads the four contention streams (preamble, detection,
    harq, backoff) through `BlockStream`, so after a run those generators
    end up to one block past the draws the run used.
    """

    placement: np.random.Generator
    arrivals: np.random.Generator
    preamble: np.random.Generator
    detection: np.random.Generator
    harq: np.random.Generator
    backoff: np.random.Generator

    @classmethod
    def from_seed(cls, seed: int) -> "RandomSource":
        children = np.random.SeedSequence(seed).spawn(len(STREAM_NAMES))
        gens = {
            name: np.random.Generator(np.random.PCG64(child))
            for name, child in zip(STREAM_NAMES, children)
        }
        return cls(**gens)

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


class BlockStream:
    """Scalar `random()` and `integers(lo, hi)` served from block draws.

    Doubles come from `gen.random(BLOCK)`; integers apply numpy's Lemire
    rule for ranges up to 2**32 to raw 32-bit words from
    `gen.integers(0, 2**32, BLOCK, dtype=np.uint32)`. Each value therefore
    equals the one the generator's own scalar call would return, bit for
    bit, as long as a stream is read by one kind of draw only; the
    generator itself runs up to one block ahead. `integers_bulk(lo, hi, k)`
    gives the next k values of `integers(lo, hi)`: it maps k buffered words
    at once when the block holds them and none could be a Lemire rejection,
    and otherwise makes k scalar draws.
    """

    __slots__ = ("_gen", "_doubles", "_words")

    def __init__(self, gen: np.random.Generator):
        self._gen = gen
        self._doubles: list[float] = []
        self._words: list[int] = []

    def random(self) -> float:
        return (self._doubles or self._refill_doubles()).pop()

    def integers(self, lo: int, hi: int) -> int:
        n = hi - lo
        if n <= 1:
            if n == 1:  # numpy returns lo without consuming a word
                return lo
            raise ValueError("low >= high")
        m = (self._words or self._refill_words()).pop() * n
        if m & _LOW < n:  # the threshold is below n; skip its modulo
            if n > _WORD:
                raise ValueError("range wider than 2**32")
            threshold = (_WORD - n) % n
            while m & _LOW < threshold:
                m = (self._words or self._refill_words()).pop() * n
        return lo + (m >> 32)

    def integers_bulk(self, lo: int, hi: int, k: int) -> list[int]:
        n = hi - lo
        words = self._words
        if n > 1 and 0 < k <= len(words):
            prods = [w * n for w in words[-k:]]
            if min([m & _LOW for m in prods]) >= n:  # no word can be rejected
                del words[-k:]
                return [lo + (m >> 32) for m in reversed(prods)]
        return [self.integers(lo, hi) for _ in range(k)]

    def _refill_doubles(self) -> list[float]:
        self._doubles = self._gen.random(BLOCK).tolist()[::-1]
        return self._doubles

    def _refill_words(self) -> list[int]:
        block = self._gen.integers(0, _WORD, BLOCK, dtype=np.uint32)
        self._words = block.tolist()[::-1]
        return self._words


def buffered(gen):
    """A BlockStream over a numpy Generator; any other object as it is."""
    if isinstance(gen, np.random.Generator):
        return BlockStream(gen)
    return gen


def bulk_integers(stream):
    """(lo, hi, k) -> the next k values of `stream.integers(lo, hi)`: one
    call on a BlockStream, k scalar calls on any other stream."""
    if isinstance(stream, BlockStream):
        return stream.integers_bulk
    return lambda lo, hi, k: [stream.integers(lo, hi) for _ in range(k)]
