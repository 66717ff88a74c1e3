"""Deterministic splitmix-style generator for reproducible sampling.

Every "random" choice of test parameters (h-triples, moduli, residues) comes
from this generator with an explicit seed, so any reported failure can be
replayed exactly.  Not a cryptographic RNG.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1


class SplitMix64:
    """64-bit splitmix generator with a fixed, platform-independent stream."""

    def __init__(self, seed: int = 0):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection (exact, unbiased)."""
        if n <= 0:
            raise ValueError("below() needs n >= 1")
        if n & (n - 1) == 0:
            return self.next_u64() & (n - 1)
        lim = _MASK - (_MASK % n)
        while True:
            v = self.next_u64()
            if v <= lim:
                return v % n

    def in_range(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] inclusive."""
        return lo + self.below(hi - lo + 1)

    def unit(self) -> float:
        return self.next_u64() / 2**64
