"""Segmented prime sieve, prime counting, von Mangoldt, rough-number counts.

The sieve is the one performance-critical path in the package: odd-only
numpy segments of SEGMENT = 2**20 entries, so counting primes to 1e8 takes
well under a second.  Constructed tables are immutable; all queries are pure.

One segment loop lists every prime.  ``prime_segments(lo, hi)`` yields the
primes in [lo, hi] one segment at a time, so a consumer that drops each
segment holds O(SEGMENT) bytes whatever the width; ``primes_in``, the one
call that returns a list of primes, concatenates it.  Every segment loop and
the least-prime-factor table take their base primes up to sqrt(hi) from
``primes_in`` afresh: the one cached list of primes is the 168 primes
below 1e3 that ``arith.factorize`` trial-divides by.  Prime counts up to x
read ``prime_bitmap(x)``, a packed odd-only bitmap of about x/16 bytes packed
by the same loop, not an array of the primes themselves.

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

SEGMENT = 1 << 20


def _odd_sieve_block(lo: int, hi: int, base: list[int]) -> np.ndarray:
    """Boolean primality of odd numbers lo, lo+2, ..., < hi (lo odd, lo >= 1).

    ``base`` holds every prime <= isqrt(hi - 1).  With lo = 1 the entry for 1
    comes out True; the caller clears it.
    """
    size = (hi - lo + 1) // 2
    mask = np.ones(size, dtype=bool)
    for p in base:
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


def _odd_blocks(lo: int, hi: int):
    """(start, mask) per SEGMENT of odd numbers in [lo, hi], lo odd and >= 1.

    mask[i] is the primality of start + 2i, sieved by ``_odd_sieve_block``
    from the primes <= isqrt(hi); with lo = 1 the caller clears the entry for
    1.  One SEGMENT-byte mask is alive at a time.  The base primes are listed
    only for a nonempty range, which ends the recursion through primes_in.
    """
    if lo > hi:
        return
    base = primes_in(0, math.isqrt(hi))
    while lo <= hi:
        top = min(lo + 2 * SEGMENT, hi + 1)
        yield lo, _odd_sieve_block(lo, top, base)
        lo = top


def prime_segments(lo: int, hi: int):
    """Ascending int64 arrays that concatenate to the primes in [lo, hi].

    The first array is [2] or empty, so even an empty range concatenates;
    then one array per SEGMENT of odd numbers from max(lo, 3).  A consumer
    that drops each array holds one SEGMENT-byte mask and one segment of
    primes at a time.
    """
    yield np.array([2] if lo <= 2 <= hi else [], dtype=np.int64)
    for start, mask in _odd_blocks(max(lo, 3) | 1, hi):
        yield start + 2 * np.flatnonzero(mask)


def primes_in(lo: int, hi: int) -> list[int]:
    """Primes in the half-open-above range (lo, hi], ascending; lo >= -1."""
    if lo < -1:
        raise ValueError(f"lo must be >= -1, got {lo}")
    if lo > hi:
        raise ValueError(f"reversed range ({lo}, {hi}]")
    return np.concatenate(list(prime_segments(lo + 1, hi))).tolist()


@lru_cache(maxsize=8)
def prime_bitmap(x: int) -> np.ndarray:
    """Packed odd-only primality to x: bit k is set iff 2k + 1 is a prime <= x.

    Bits are little-endian within each byte, and zero bits pad the bytes to
    whole 8-byte words, so ``.view("<u8")`` holds bit k as bit k % 64 of word
    k // 64: (x + 1) // 2 bits in about x/16 read-only bytes.  It is packed
    one SEGMENT of odd numbers at a time, so no array of the primes <= x is
    ever made.  The cache keeps the bitmaps of the 8 most recent x: at most
    8 * x/16 bytes, plus one SEGMENT-byte block while a bitmap is built.
    """
    x = max(x, 0)
    bits = np.zeros(8 * -(-((x + 1) // 2) // 64), dtype=np.uint8)
    for start, block in _odd_blocks(1, x):
        if start == 1:
            block[0] = False  # 1 is not prime
        k = (start - 1) // 2  # a multiple of SEGMENT, so of 8
        packed = np.packbits(block, bitorder="little")
        bits[k // 8 : k // 8 + len(packed)] = packed
    bits.flags.writeable = False
    return bits


def pi(x: int) -> int:
    """Number of primes <= x.

    Popcounts the cached prime_bitmap(x) SEGMENT/8 uint64 words at a time.
    Memory: the bitmap, x/16 bytes per cached x (8 cached), plus one
    SEGMENT/8-byte popcount buffer; no array of the primes is made.
    """
    if x < 2:
        return 0
    words = prime_bitmap(int(x)).view("<u8")
    step = SEGMENT // 8
    return 1 + sum(  # 1 counts the prime 2
        int(np.bitwise_count(words[i : i + step]).sum()) for i in range(0, len(words), step)
    )


def von_mangoldt(n: int | FactoredInt) -> float:
    """log p if n is a positive power of the prime p, else 0."""
    f = _as_factored(n)
    if len(f.factors) != 1:
        return 0.0
    return math.log(f.factors[0][0])


def von_mangoldt_upto(n_max: int) -> list[float]:
    """von_mangoldt(n) at each index n <= n_max (0.0 at 0): log p at each power of p."""
    out = [0.0] * (n_max + 1)
    for p in primes_in(0, n_max):
        pk = p
        while pk <= n_max:
            out[pk], pk = math.log(p), pk * p
    return out


def rough_count(t: int, z: int) -> int:
    """#{n <= t : P^-(n) >= z}; n = 1 always counts (P^-(1) = +infinity).

    Reads the shared least-prime-factor table, so a t above every earlier
    request grows that table to 8 * (t + 1) bytes, held for the life of the
    process.
    """
    if t < 1:
        raise ValueError("t must be >= 1")
    if z < 2:
        raise ValueError("z must be >= 2")
    return int(np.count_nonzero(least_prime_factor_table(t)[1:] >= z))


_lpf = np.empty(0, dtype=np.int64)


def least_prime_factor_table(limit: int) -> np.ndarray:
    """lpf[n] for 0 <= n <= limit; lpf[0] = 0 and lpf[1] is the P^-(1) sentinel.

    A read-only view of one process-wide table.  The table is rebuilt, to
    exactly ``limit``, only when ``limit`` exceeds every limit requested so
    far, so it holds 8 bytes x (largest limit requested + 1) for the life of
    the process.  The old table is released before the new one is built, so
    growth too holds at most that many bytes, unless a caller still keeps a
    slice of the old table.
    """
    global _lpf
    if limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    if limit >= len(_lpf):
        _lpf = np.empty(0, dtype=np.int64)  # drop the old table before building
        lpf = np.arange(limit + 1, dtype=np.int64)  # primes are their own lpf
        # descending, so the smallest prime dividing n writes lpf[n] last
        for p in reversed(primes_in(0, math.isqrt(limit))):
            lpf[p * p :: p] = p
        if limit >= 1:
            lpf[1] = P_MINUS_ONE_SENTINEL
        lpf.flags.writeable = False
        _lpf = lpf
    return _lpf[: limit + 1]
