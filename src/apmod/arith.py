"""Integer and modular arithmetic primitives plus multiplicative functions.

Everything here is exact integer arithmetic; no floating point.  Factorization
is deterministic (trial division by the primes below _TRIAL_LIMIT, then
Brent-Pollard rho with a deterministic Miller-Rabin) and covers the full
64-bit range used elsewhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

# Trial division stops below 1e3; rho splits the cofactor.  Per n on a 2-vCPU
# Xeon, limits 1e6 / 1e4 / 1e3: near 1e12 1010 / 126 / 100 us, near 1e15
# 2932 / 287 / 261 us, from 2**62 5971 / 733 / 689 us, below 1e6 within
# noise; the 168 primes take 0.2 ms to list, the 78,498 below 1e6 take 4-5 ms.
_TRIAL_LIMIT = 10**3


@lru_cache(maxsize=1)
def _trial_primes() -> tuple[int, ...]:
    from .primes import primes_in

    return tuple(primes_in(0, _TRIAL_LIMIT))


@dataclass(frozen=True)
class FactoredInt:
    """A positive integer together with its full prime factorization.

    ``factors`` is ordered by strictly increasing prime; n == 1 iff it is
    empty.  The invariants are enforced at construction.
    """

    n: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"FactoredInt needs n >= 1, got {self.n}")
        prod = 1
        last_p = 0
        for p, e in self.factors:
            if p <= last_p:
                raise ValueError("primes must be strictly increasing")
            if e < 1:
                raise ValueError("exponents must be >= 1")
            prod *= p**e
            last_p = p
        if prod != self.n:
            raise ValueError(f"factorization product {prod} != n {self.n}")

    def is_squarefree(self) -> bool:
        return all(e == 1 for _, e in self.factors)


def _is_prime_u64(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n < 3.3e24."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """Brent's cycle variant with a deterministic sequence of constants."""
    if n % 2 == 0:
        return 2
    for c in range(1, 1000):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = 0
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"rho failed to split {n}")  # unreachable in 64 bits


def factorize(n: int) -> FactoredInt:
    """Full prime factorization of ``1 <= n < 2**63``."""
    if n < 1:
        raise ValueError(f"cannot factor n = {n}")
    if n >= 1 << 63:
        raise ValueError("inputs above 2**63 are out of contract")
    m = n
    fac: dict[int, int] = {}
    for p in _trial_primes():
        if p * p > m:
            if m > 1:  # no prime up to sqrt(m) divides m, so m is prime
                fac[m] = 1
            break
        while m % p == 0:
            fac[p] = fac.get(p, 0) + 1
            m //= p
    else:  # the cofactor may be composite, with every prime factor above _TRIAL_LIMIT
        stack = [m] if m > 1 else []
        while stack:
            v = stack.pop()
            if v == 1:
                continue
            if _is_prime_u64(v):
                fac[v] = fac.get(v, 0) + 1
                continue
            d = _pollard_rho(v)
            stack.append(d)
            stack.append(v // d)
    return FactoredInt(n, tuple(sorted(fac.items())))


def divisors(n: int | FactoredInt) -> list[int]:
    """All positive divisors of n, ascending, built from its factorization."""
    divs = [1]
    for p, e in _as_factored(n).factors:
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def _as_factored(n: int | FactoredInt) -> FactoredInt:
    return n if isinstance(n, FactoredInt) else factorize(n)


def mod_inv(a: int, q: int) -> int:
    """Inverse of a modulo q, in [0, q).  Requires gcd(a, q) = 1; q = 1 gives 0."""
    if q < 1:
        raise ValueError(f"modulus must be >= 1, got {q}")
    if q == 1:
        return 0
    g = math.gcd(a, q)
    if g != 1:
        raise ValueError(f"{a} is not invertible mod {q} (gcd = {g})")
    return pow(a, -1, q)


def bezout_split(a, q1: int, q2: int):
    """Numerators (n1, n2) with a/(q1*q2) = n1/q2 + n2/q1 modulo 1.

    n1 = a*inv(q1, q2) mod q2 and n2 = a*inv(q2, q1) mod q1, so that
    n1*q1 + n2*q2 = a (mod q1*q2).  a may also be an integer array; the
    numerators are then arrays of the same shape.
    """
    if q1 < 1 or q2 < 1:
        raise ValueError("moduli must be >= 1")
    if math.gcd(q1, q2) != 1:
        raise ValueError(f"moduli must be coprime, gcd({q1},{q2}) > 1")
    return a % q2 * mod_inv(q1, q2) % q2, a % q1 * mod_inv(q2, q1) % q1


# ---------------------------------------------------------------------------
# multiplicative functions


def euler_phi(n: int | FactoredInt) -> int:
    f = _as_factored(n)
    out = 1
    for p, e in f.factors:
        out *= (p - 1) * p ** (e - 1)
    return out


def mobius(n: int | FactoredInt) -> int:
    f = _as_factored(n)
    if any(e > 1 for _, e in f.factors):
        return 0
    return -1 if len(f.factors) % 2 else 1


def tau_k(n: int | FactoredInt, k: int) -> int:
    """k-fold divisor function: number of ordered k-tuples with product n."""
    if k < 1:
        raise ValueError("tau_k needs k >= 1")
    f = _as_factored(n)
    out = 1
    for _, e in f.factors:
        out *= math.comb(e + k - 1, k - 1)
    return out


# ---------------------------------------------------------------------------
# coprime-set partition


def coprime_partition(pairs: Sequence[tuple[int, int]]) -> list[list[int]]:
    """Partition indices of internally-coprime pairs into cross-coprime classes.

    Within each returned class, every two members (a, b), (a', b') satisfy
    gcd(a, b') = gcd(a', b) = 1 (including a pair with itself, which is why
    inputs must have gcd(a, b) = 1).  Greedy colouring of the conflict graph:
    indices in input order, lowest-numbered admissible class.
    """
    for i, (a, b) in enumerate(pairs):
        if a < 1 or b < 1:
            raise ValueError(f"pair #{i} = ({a},{b}) must be positive")
        if math.gcd(a, b) != 1:
            raise ValueError(f"pair #{i} = ({a},{b}) is not internally coprime")
    classes: list[list[int]] = []
    for i, (a, b) in enumerate(pairs):
        placed = False
        for cls in classes:
            ok = True
            for j in cls:
                aj, bj = pairs[j]
                if math.gcd(a, bj) != 1 or math.gcd(aj, b) != 1:
                    ok = False
                    break
            if ok:
                cls.append(i)
                placed = True
                break
        if not placed:
            classes.append([i])
    return classes


def random_coprime_pairs(count: int, seed: int = 0) -> list[tuple[int, int]]:
    """Deterministic internally-coprime pairs, each side a product of one or
    two primes below 100."""
    from .primes import primes_in
    from .rng import SplitMix64

    rng = SplitMix64(seed)
    pool = primes_in(0, 100)
    pairs: list[tuple[int, int]] = []
    while len(pairs) < count:
        a = 1
        for _ in range(rng.in_range(1, 2)):
            a *= pool[rng.below(len(pool))]
        b = 1
        for _ in range(rng.in_range(1, 2)):
            b *= pool[rng.below(len(pool))]
        if math.gcd(a, b) == 1:
            pairs.append((a, b))
    return pairs


def check_coprime_partition(
    pairs: Sequence[tuple[int, int]], classes: Iterable[Iterable[int]]
) -> bool:
    """Exhaustively re-check the defining property of a produced partition."""
    seen: set[int] = set()
    for cls in classes:
        cls = list(cls)
        for i in cls:
            if i in seen:
                return False
            seen.add(i)
        for i in cls:
            for j in cls:
                if (
                    math.gcd(pairs[i][0], pairs[j][1]) != 1
                    or math.gcd(pairs[j][0], pairs[i][1]) != 1
                ):
                    return False
    return seen == set(range(len(pairs)))
