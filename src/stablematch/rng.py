"""Deterministic pseudo-random streams for reproducible simulations.

The generator is SplitMix64: a 64-bit counter advanced by the golden-ratio
increment, finalized with an xor-shift-multiply mix. It is tiny, passes
standard statistical batteries, and produces bit-identical output on every
platform and Python version, so simulation traces are stable forever.
Independent child streams for parallel trials are derived by hashing a
(master seed, index...) path through the same finalizer.

Because each output depends only on its own counter value, `Rng.draws`
computes many outputs at once: k counters are packed into one Python int as
64-bit lanes spaced 128 bits apart, so each step of the finalizer is a single
big-integer operation over all lanes. A 64-bit by 64-bit product fits in its
lane's 128 bits, and every shift is masked back to the low 64 bits of each
lane, so no bit ever crosses into a neighbouring lane and the outputs are
exactly those of successive calls to `next_u64`.
"""

from __future__ import annotations

import sys
from array import array
from functools import lru_cache
from itertools import chain
from typing import Iterator

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_BIG_ENDIAN = sys.byteorder == "big"


def mix64(z: int) -> int:
    """SplitMix64 output function: one increment plus finalizer."""
    z = (z + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(master: int, *path: int) -> int:
    """Derive a child seed from a master seed and an index path.

    Distinct paths give statistically independent streams; the derivation is
    pure arithmetic, so any worker can compute the seed for any trial.
    """
    s = master & _MASK64
    for idx in path:
        s = mix64(s ^ mix64(idx & _MASK64))
    return s


def derive_seeds(prefix: int, start: int, stop: int) -> Iterator[int]:
    """derive_seed(master, *path, i) for i = start..stop-1, where prefix is
    derive_seed(master, *path): each adds the last index's fold to it."""
    return (mix64(prefix ^ mix64(i)) for i in range(start, stop))


def index_limit(m: int) -> int:
    """The rejection bound of a uniform index below m: a draw u is kept, as
    index u % m, exactly when u < index_limit(m), as in `Rng.randrange`."""
    return 2**64 - 2**64 % m


def coin_limit(k: int) -> int:
    """The bound of a 1/k coin: a draw u comes up heads exactly when
    u < coin_limit(k), that is when `Rng.random`'s (u >> 11) * 2.0**-53 * k
    < 1.0. Below 1 that product is an integer under 2**53 times 2**-53, so
    it is exact, and the rule holds when (u >> 11) * k < 2**53."""
    return -(-(2**53) // k) << 11


@lru_cache(maxsize=16)
def coin_limits(n: int) -> tuple[int, ...]:
    """coin_limit(k) at index k, for k = 1..n (index 0 is unused)."""
    return (0, *map(coin_limit, range(1, n + 1)))


@lru_cache(maxsize=16)
def _lanes(k: int) -> tuple[int, int, int]:
    """Per-lane constants for a k-lane block, lane i at bit 128*i: a 1 in
    every lane, a 64-bit mask in every lane, and (i + 1) * golden in lane i."""
    ones = int.from_bytes(b"\x01".ljust(16, b"\x00") * k, "little")
    steps = b"".join(((i + 1) * _GOLDEN).to_bytes(16, "little") for i in range(k))
    return ones, ones * _MASK64, int.from_bytes(steps, "little")


def _blocks(state: int, k: int) -> Iterator[list[int]]:
    """The outputs that follow counter `state`, as a list of k draws (k
    clamped to 1..2048), then lists twice as long each time, up to 2048."""
    while True:
        k = k if 0 < k <= 2048 else 1 if k < 1 else 2048
        ones, mask, steps = _lanes(k)
        z = (state * ones + steps) & mask
        z = ((z ^ (z >> 30)) & mask) * 0xBF58476D1CE4E5B9 & mask
        z = ((z ^ (z >> 27)) & mask) * 0x94D049BB133111EB & mask
        z ^= z >> 31
        # Each lane is two 64-bit words, low word first; the high word
        # holds only bits shifted in from the next lane.
        words = array("Q", z.to_bytes(16 * k, "little"))
        if _BIG_ENDIAN:
            words.byteswap()
        yield words[::2].tolist()
        state = (state + k * _GOLDEN) & _MASK64
        k += k


class Rng:
    """A seeded SplitMix64 stream with the few draws the simulators need."""

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def draws(self, first: int) -> Iterator[int]:
        """The outputs of `next_u64` from the stream's current state, without
        end; the stream itself does not move, so a reader that takes j of
        them then calls `skip(j)`.

        Computed lazily in blocks: first `first` draws, the number a reader
        expects to read, clamped to 1..2048; then each block doubles, to 2048.
        """
        return chain.from_iterable(_blocks(self._state, first))

    def skip(self, k: int) -> None:
        """Move the stream forward by k draws."""
        self._state = (self._state + k * _GOLDEN) & _MASK64

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n), unbiased via rejection sampling."""
        if n <= 0:
            raise ValueError("randrange requires n >= 1")
        limit = _MASK64 + 1 - ((_MASK64 + 1) % n)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n
