"""Segmented prime sieve, prime counting, von Mangoldt, rough-number counts.

The sieve is the one performance-critical path in the package: odd-only
numpy segments of 2**18 entries, so counting primes to 1e8 takes seconds.
Constructed tables are immutable; all queries are pure.

The least-prime-factor table is one process-wide, read-only int64 array that
only grows: every ``least_prime_factor_table(limit)`` call returns a slice of
it.  It holds 8 bytes x (largest limit requested + 1) for the life of the
process.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .arith import FactoredInt, P_MINUS_ONE_SENTINEL, _as_factored

SEGMENT = 1 << 18


def _odd_sieve_block(lo: int, hi: int, base: np.ndarray) -> np.ndarray:
    """Boolean primality of odd numbers lo, lo+2, ..., < hi (lo odd, lo >= 3)."""
    size = (hi - lo + 1) // 2
    mask = np.ones(size, dtype=bool)
    for p in base:
        p = int(p)
        if p == 2:
            continue
        if p * p >= hi:
            break
        start = max(p * p, ((lo + p - 1) // p) * p)
        if start % 2 == 0:
            start += p
        if start >= hi:
            continue
        mask[(start - lo) // 2 :: p] = False
    return mask


@lru_cache(maxsize=8)
def sieve_upto(n: int) -> np.ndarray:
    """Ascending array of all primes <= n."""
    if n < 2:
        return np.empty(0, dtype=np.int64)
    # small direct sieve for the base primes
    root = math.isqrt(n)
    base_limit = max(root + 1, 32)
    small = np.ones(base_limit + 1, dtype=bool)
    small[:2] = False
    for p in range(2, math.isqrt(base_limit) + 1):
        if small[p]:
            small[p * p :: p] = False
    base = np.nonzero(small)[0]
    if n <= base_limit:
        return base[base <= n].astype(np.int64)

    chunks = [base.astype(np.int64)]
    lo = base_limit + 1 if (base_limit + 1) % 2 == 1 else base_limit + 2
    while lo <= n:
        hi = min(lo + 2 * SEGMENT, n + 1)
        mask = _odd_sieve_block(lo, hi, base)
        vals = lo + 2 * np.nonzero(mask)[0]
        chunks.append(vals.astype(np.int64))
        lo = hi if hi % 2 == 1 else hi + 1
    return np.concatenate(chunks)


def primes_in(lo: int, hi: int) -> list[int]:
    """Primes in the half-open-above range (lo, hi], ascending."""
    if lo > hi:
        raise ValueError(f"reversed range ({lo}, {hi}]")
    if hi < 2 or lo >= hi:
        return []
    table = PrimeTable(lo + 1, hi)
    return table.primes()


class PrimeTable:
    """Bit-indexed primality over the closed interval [lo, hi]."""

    def __init__(self, lo: int, hi: int):
        if lo < 0 or lo > hi:
            raise ValueError(f"bad PrimeTable range [{lo}, {hi}]")
        self.lo = lo
        self.hi = hi
        base = sieve_upto(math.isqrt(hi) + 1)
        size = hi - lo + 1
        mask = np.ones(size, dtype=bool)
        for k in range(max(lo, 0), min(hi, 1) + 1):
            mask[k - lo] = False  # 0, 1 are not prime
        for p in base:
            p = int(p)
            start = max(p * p, ((lo + p - 1) // p) * p)
            if start > hi:
                continue
            mask[start - lo :: p] = False
        self._mask = mask

    def is_prime(self, n: int) -> bool:
        if not (self.lo <= n <= self.hi):
            raise ValueError(f"{n} outside table range [{self.lo}, {self.hi}]")
        return bool(self._mask[n - self.lo])

    def primes(self) -> list[int]:
        return [int(v) for v in self.lo + np.nonzero(self._mask)[0]]

    def count(self) -> int:
        return int(self._mask.sum())


def pi(x: int) -> int:
    """Number of primes <= x."""
    if x < 2:
        return 0
    return int(len(sieve_upto(int(x))))


def von_mangoldt(n: int | FactoredInt) -> float:
    """log p if n is a positive power of the prime p, else 0."""
    f = _as_factored(n)
    if len(f.factors) != 1:
        return 0.0
    return math.log(f.factors[0][0])


def rough_count(t: int, z: int) -> int:
    """#{n <= t : P^-(n) >= z}; n = 1 always counts (P^-(1) = +infinity).

    Marks multiples of each prime below z in numpy segments; no Meissel-style
    acceleration, so intended for t up to ~1e7.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    if z < 2:
        raise ValueError("z must be >= 2")
    small = [int(p) for p in sieve_upto(z - 1)]
    total = 0
    lo = 1
    while lo <= t:
        hi = min(lo + 8 * SEGMENT - 1, t)
        mask = np.ones(hi - lo + 1, dtype=bool)
        for p in small:
            start = ((lo + p - 1) // p) * p
            if start <= hi:
                mask[start - lo :: p] = False
        total += int(mask.sum())
        lo = hi + 1
    return total


_lpf = np.empty(0, dtype=np.int64)


def least_prime_factor_table(limit: int) -> np.ndarray:
    """lpf[n] for 0 <= n <= limit; lpf[0] = 0 and lpf[1] is the P^-(1) sentinel.

    A read-only view of one process-wide table.  The table is rebuilt, to
    exactly ``limit``, only when ``limit`` exceeds every limit requested so
    far, so it holds 8 bytes x (largest limit requested + 1) for the life of
    the process.
    """
    global _lpf
    if limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    if limit >= len(_lpf):
        lpf = np.arange(limit + 1, dtype=np.int64)  # primes are their own lpf
        # descending, so the smallest prime dividing n writes lpf[n] last
        for p in sieve_upto(math.isqrt(limit))[::-1]:
            p = int(p)
            lpf[p * p :: p] = p
        if limit >= 1:
            lpf[1] = P_MINUS_ONE_SENTINEL
        lpf.flags.writeable = False
        _lpf = lpf
    return _lpf[: limit + 1]
