"""Counter-based splittable random number generator.

The generator is a fixed, named design so that ports to other languages
reproduce byte-identical draws:

    GAMMA = 0x9E3779B97F4A7C15                     (64-bit golden gamma)
    mix64 = SplitMix64 finalizer (variant 13):
        z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
        z ^= z >> 27;  z *= 0x94D049BB133111EB
        z ^= z >> 31
    key(seed, stream) = mix64(seed XOR mix64((stream + 1) * GAMMA))
    raw(counter)      = mix64(key + (counter + 1) * GAMMA)
    uniform(counter)  = (raw(counter) >> 11) * 2^-53

All arithmetic is modulo 2^64.  Every draw is a pure function of
(seed, stream, counter): streams are independent substreams for parallel
work, and the counter indexes draws within a stream, so any draw can be
produced out of order.  The numpy forms evaluate the same function with
uint64 vector arithmetic and are bit-identical to ``raw``:

    raw_block(key, start, count) = raw(start) .. raw(start + count - 1)
                                   of the one stream with this key
    raw_with_keys(keys, counter) = raw(counter) of many streams at once

Each returns a new array and leaves the caller's arrays as they were.
``raw_block`` lets a consumer that reads a run of consecutive counters
(the Metropolis chain, the W-random sampler's pair uniforms) draw them
with one numpy call instead of one Python call per counter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB

TWO_NEG_53 = 2.0 ** -53


def mix64(z: int) -> int:
    z &= MASK64
    z = ((z ^ (z >> 30)) * _M1) & MASK64
    z = ((z ^ (z >> 27)) * _M2) & MASK64
    return z ^ (z >> 31)


def stream_key(seed: int, stream: int) -> int:
    return mix64((seed ^ mix64(((stream + 1) * GAMMA) & MASK64)) & MASK64)


@dataclass(frozen=True)
class SampleSeed:
    """Seed plus substream id; identical pairs reproduce identical bits."""

    seed: int
    stream: int = 0

    def __post_init__(self):
        if not 0 <= self.seed <= MASK64:
            raise ValidationError("seed must fit in 64 bits")
        if self.stream < 0:
            raise ValidationError("stream id must be nonnegative")

    def with_stream(self, stream: int) -> "SampleSeed":
        return SampleSeed(self.seed, stream)


class CounterStream:
    """Random access to the draws of one (seed, stream) pair."""

    def __init__(self, seed: SampleSeed):
        self.seed = seed
        self.key = stream_key(seed.seed, seed.stream)

    def raw(self, counter: int) -> int:
        return mix64((self.key + (counter + 1) * GAMMA) & MASK64)

    def uniform(self, counter: int) -> float:
        """The design's uniform(counter), in [0, 1).

        Public API although the library itself does not call it: it is
        the scalar statement of the published formula for user code and
        ports that read a stream; the sampler applies the same formula to
        ``raw_block`` arrays.
        """
        return (self.raw(counter) >> 11) * TWO_NEG_53


class SequentialDraws(CounterStream):
    """Counter stream consumed in order, with a uniform-integer helper."""

    def __init__(self, seed: SampleSeed):
        super().__init__(seed)
        self.position = 0

    def next_raw(self) -> int:
        value = self.raw(self.position)
        self.position += 1
        return value

    def next_below(self, bound: int) -> int:
        """Uniform integer in [0, bound) by rejection; exact, no modulo bias."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            value = self.next_raw()
            if value < limit:
                return value % bound


def stream_keys_array(seed: int, streams: np.ndarray) -> np.ndarray:
    """key(seed, stream) for many streams; matches stream_key bit for bit."""
    s = np.asarray(streams, dtype=np.uint64)
    keys = _mix64_np((s + np.uint64(1)) * np.uint64(GAMMA))
    return _mix64_np(np.uint64(seed & MASK64) ^ keys)


def raw_block(key: int, start: int, count: int) -> np.ndarray:
    """raw(start) .. raw(start + count - 1) of the stream with this key;
    bit-identical to ``CounterStream.raw``."""
    counters = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    return _mix64_np(counters * np.uint64(GAMMA) + np.uint64(key))


def raw_with_keys(keys: np.ndarray, counter: int) -> np.ndarray:
    """raw(counter) for precomputed stream keys; bit-identical to raw."""
    return _mix64_np(keys + np.uint64(((counter + 1) * GAMMA) & MASK64))


def _mix64_np(z: np.ndarray) -> np.ndarray:
    """mix64 of each element, computed in place: every caller hands it a
    fresh array, so no input of the public functions is overwritten."""
    z ^= z >> np.uint64(30)
    z *= np.uint64(_M1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_M2)
    z ^= z >> np.uint64(31)
    return z
