"""Seeded, index-addressed random streams for reproducible ensembles."""

from __future__ import annotations

import numpy as np


def stream(seed: int, *key: int) -> np.random.Generator:
    """Return the counter-based random stream addressed by ``(seed, *key)``.

    Streams with distinct addresses are statistically independent and
    bit-stable across platforms and processes, so replications keyed by run
    index can execute in any order and still aggregate identically.
    """
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


class RawDraws:
    """numpy's scalar ``Generator.random()`` and ``integers(r)``, replayed from raw 64-bit words.

    For a Philox ``Generator`` built by ``stream``, ``random()`` is
    ``(w >> 11) * 2**-53`` of the next raw word ``w``.  ``integers(r)`` is
    numpy's 32-bit Lemire rule (Lemire, TOMACS 2019) for ``1 <= r < 2**32``:
    it reads one half-word ``h`` at a time, the low half of a fresh word
    first and the high half kept for the next bounded draw (doubles leave it
    pending), rejects ``h`` while ``h * r mod 2**32 < 2**32 mod r`` and
    returns ``h * r >> 32``; ``r = 1`` reads nothing.

    ``words[pos:]`` are drawn but not yet read, and ``half`` is the pending
    high half or None.  Block readers may read ``words`` directly and move
    ``pos`` and ``half`` past what they read.
    """

    def __init__(self, bit_generator: np.random.BitGenerator):
        self.bit_generator = bit_generator
        self.words = np.zeros(0, np.uint64)
        self.pos = 0
        self.half: int | None = None

    def word(self) -> int:
        if self.pos == len(self.words):
            self.top_up(1)
        self.pos += 1
        return int(self.words[self.pos - 1])

    def random(self) -> float:
        return (self.word() >> 11) * 2.0**-53

    def integers(self, r: int) -> int:
        if r == 1:
            return 0
        threshold = (1 << 32) % r
        while True:
            if self.half is None:
                w = self.word()
                h, self.half = w & 0xFFFFFFFF, w >> 32
            else:
                h, self.half = self.half, None
            m = h * r
            if m & 0xFFFFFFFF >= threshold:
                return m >> 32

    def top_up(self, n: int) -> None:
        """Draw words until at least ``n`` are unread; while a half is pending, ``words[pos - 1]`` stays."""
        keep = self.pos - (self.pos > 0 and self.half is not None)
        fresh = self.bit_generator.random_raw(max(n - (len(self.words) - self.pos), 0))
        self.words = np.concatenate([self.words[keep:], fresh])
        self.pos -= keep
