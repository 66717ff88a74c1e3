"""Exact combinatorial sieve identities.

Heath-Brown's decomposition of the von Mangoldt function, the combinatorial
fundamental-lemma weights lambda+/-, the alpha/beta reduction sequences, and
the exact Buchstab identity on S-values.  Everything here is checked by exact
arithmetic: the identities are exact, so the verifiers are too.

Convention that makes the Buchstab bookkeeping exact at prime powers: when a
sum is split on the least prime factor p of the cofactor, the subtracted
terms carry the inclusive roughness condition P^-(m) >= p (the cofactor may
still be divisible by p).  Displays that use the strict condition on both
sides differ from the exact identity on terms divisible by p^2, which are
invisible asymptotically but not at desk scale.

Sieve-weight sums are held in the narrowest signed type holding the sum of |term|
over the terms added, so no partial sum overflows: int8, n_max + 1 bytes per array,
for every table the CLI checks.  ``_dirichlet`` holds one DIRICHLET_CHUNK (~2 MB).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arith import divisors, mobius
from .primes import least_prime_factor_table, lpf_bound, primes_in
from .progressions import SValue, s_values
from .rng import SplitMix64

DIRICHLET_CHUNK = 1 << 15  # (d, e) pairs per np.add.at; 2^15 ran 1.7x faster than 2^18
PERIOD = 30030  # 2*3*5*7*11*13: the d | PERIOD fill one period of sums_over_range, tiled

# ---------------------------------------------------------------------------
# Heath-Brown identity

def heath_brown_decompose(n: int, k: int, x: int) -> float:
    """Evaluate the k-fold expansion of Lambda(n) with cutoff m_i <= 2 x^(1/k).

    sum_{j=1..k} (-1)^(j-1) C(k,j) sum_{n = m_1..m_j n_1..n_j,
    m_i <= 2 x^(1/k)} mu(m_1)..mu(m_j) log n_1,

    computed by Dirichlet convolutions on the divisor lattice of n.  Exact up
    to float log arithmetic; equals Lambda(n) for n <= 2x.  heath_brown_range
    evaluates every n up to a bound at once; this per-n route is its oracle.
    """
    if not 1 <= k <= 4:
        raise ValueError("k must be in 1..4 at desk scale")
    if n < 1 or n > 2 * x:
        raise ValueError("requires 1 <= n <= 2x")
    cutoff = 2.0 * x ** (1.0 / k)
    divs = divisors(n)
    pos = {d: i for i, d in enumerate(divs)}
    nd = len(divs)

    f_mu = np.array(
        [mobius(d) if d <= cutoff else 0 for d in divs], dtype=np.int64
    )
    one = np.ones(nd, dtype=np.int64)
    logv = np.log(np.array(divs, dtype=float))

    def conv(a, b):
        out = np.zeros(nd, dtype=a.dtype)
        for i, d1 in enumerate(divs):
            if a[i] == 0:
                continue
            lim = n // d1
            for j, d2 in enumerate(divs):
                if d2 > lim:
                    break
                if lim % d2 == 0:
                    out[pos[d1 * d2]] += a[i] * b[j]
        return out

    total = 0.0
    mu_pow = None  # mu-restricted convolution power f_mu^(*j)
    for j in range(1, k + 1):
        mu_pow = f_mu if mu_pow is None else conv(mu_pow, f_mu)
        # tau_{j-1} on the lattice (# ordered (j-1)-factorizations)
        tau_prev = np.zeros(nd, dtype=np.int64)
        tau_prev[0] = 1  # identity of Dirichlet convolution
        for _ in range(j - 1):
            tau_prev = conv(tau_prev, one)
        # L_j = log * tau_{j-1}
        lconv = conv(logv, tau_prev)
        term = 0.0
        for i, d in enumerate(divs):
            if mu_pow[i]:
                term += mu_pow[i] * lconv[pos[n // d]]
        total += (-1) ** (j - 1) * math.comb(k, j) * term
    return total


def _dirichlet(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(a * b)(n) = sum over d e = n of a(d) b(e), for 1 <= n < len(a); index 0 unused.

    Pairs (d, e), a(d) != 0, go by ascending d, then e, DIRICHLET_CHUNK at a time
    to np.add.at, which adds in input order: each n adds its terms over ascending
    d, as the per-n lattice of heath_brown_decompose does, so floats agree bit for bit.
    """
    n_max = len(a) - 1
    out = np.zeros(n_max + 1, dtype=np.result_type(a, b))
    ds = np.flatnonzero(a[1:]) + 1
    starts = np.concatenate(([0], np.cumsum(n_max // ds)))  # d's pairs: [starts[i], starts[i+1])
    for lo in range(0, int(starts[-1]), DIRICHLET_CHUNK):
        hi = min(lo + DIRICHLET_CHUNK, int(starts[-1]))
        i0, i1 = np.searchsorted(starts, [lo, hi - 1], side="right")  # runs i0-1 .. i1-1
        runs = np.diff(np.clip(starts[i0 - 1 : i1 + 1], lo, hi))  # pairs of each d in [lo, hi)
        d = np.repeat(ds[i0 - 1 : i1], runs)
        e = np.arange(lo + 1, hi + 1) - np.repeat(starts[i0 - 1 : i1], runs)
        np.add.at(out, d * e, a[d] * b[e])
    return out


def heath_brown_range(n_max: int, k: int, x: int) -> np.ndarray:
    """heath_brown_decompose(n, k, x) for every 1 <= n <= n_max at once.

    Index n of the result holds the value at n (index 0 is unused).  The same
    expansion over whole-range arrays: mu cut at 2 x^(1/k), tau_{j-1} and log,
    combined by Dirichlet convolutions over ascending d, so every value equals
    the per-n one exactly.  Memory: a few arrays of n_max + 1 entries plus
    one _dirichlet chunk; time O(k n_max log n_max).
    """
    if not 1 <= k <= 4:
        raise ValueError("k must be in 1..4 at desk scale")
    if n_max < 1 or n_max > 2 * x:
        raise ValueError("requires 1 <= n_max <= 2x")
    cut = min(n_max, math.floor(2.0 * x ** (1.0 / k)))
    mu = np.zeros(n_max + 1, dtype=np.int64)
    mu[1 : cut + 1] = 1
    for p in primes_in(0, cut):
        mu[p : cut + 1 : p] *= -1
        mu[p * p : cut + 1 : p * p] = 0
    logv = np.zeros(n_max + 1)
    logv[1:] = np.log(np.arange(1, n_max + 1, dtype=float))
    tau_prev = np.zeros(n_max + 1, dtype=np.int64)
    tau_prev[1] = 1  # tau_0, the identity of Dirichlet convolution
    total = np.zeros(n_max + 1)
    mu_pow = mu
    for j in range(1, k + 1):
        if j > 1:
            mu_pow = _dirichlet(mu_pow, mu)
            tau_prev = _dirichlet(tau_prev, np.ones_like(tau_prev))
        term = _dirichlet(mu_pow, _dirichlet(logv, tau_prev))
        total += (-1) ** (j - 1) * math.comb(k, j) * term
    return total


def _signed_chains(primes: list[int], admit) -> dict[int, int]:
    """mu(d) on the products d of distinct ``primes`` that ``admit`` keeps.

    Chains take primes in list order.  ``admit(d, depth, p)`` decides whether
    the chain d extends to d * p at the given new depth; a rejected p ends
    that extension only, later primes are still tried.  Walked depth first,
    so the dict's insertion order is the walk's.
    """
    out = {1: 1}
    stack = [(1, 0, 0)]  # (product, depth, first index into primes)
    while stack:
        d, depth, idx = stack.pop()
        for i in range(idx, len(primes)):
            p = primes[i]
            if admit(d, depth + 1, p):
                out[d * p] = -out[d]
                stack.append((d * p, depth + 1, i + 1))
    return out


# ---------------------------------------------------------------------------
# fundamental-lemma weights (combinatorial sieve, truncated Buchstab iteration)


@dataclass
class SieveWeights:
    """Upper/lower combinatorial sieve weights of level y sifting primes <= z.

    lambda_plus / lambda_minus map squarefree d (primes <= z, d <= y) to
    mu(d) on the retained truncation chains.  Contract, for every n:
      - P^-(n) > z  =>  sum_{d|n} lambda+_d = sum_{d|n} lambda-_d = 1
      - P^-(n) <= z =>  sum_{d|n} lambda-_d <= 0 <= sum_{d|n} lambda+_d
    """

    z: float
    y: float
    lambda_plus: dict[int, int]
    lambda_minus: dict[int, int]

    def divisor_sum(self, n: int, side: str) -> int:
        table = self.lambda_plus if side == "+" else self.lambda_minus
        total = 0
        for d, w in table.items():
            if n % d == 0:
                total += w
        return total

    def sums_over_range(self, n_max: int, side: str) -> np.ndarray:
        """sum_{d|n} lambda_d for all n <= n_max, in the narrowest type holding sum |lambda_d|."""
        table = self.lambda_plus if side == "+" else self.lambda_minus
        period = np.zeros(PERIOD, dtype=np.min_scalar_type(-1 - sum(map(abs, table.values()))))
        for d, w in table.items():
            if PERIOD % d == 0:
                period[::d] += w
        out = np.resize(period, n_max + 1)
        out[0] = 0
        for d, w in table.items():
            if PERIOD % d and d <= n_max:
                out[d::d] += w
        return out


def fundamental_lemma_weights(z: float, y: float) -> SieveWeights:
    """Build lambda+/- by truncating the Buchstab iteration at level y.

    Chains are squarefree d = p_1 > p_2 > ... > p_r with all p_i <= z.  A
    chain is retained for lambda+ iff every odd-position prefix satisfies
    p_1...p_{m-1} p_m^3 <= y, and for lambda- iff every even-position prefix
    does.  Exits then happen only at odd (resp. even) depth, which gives the
    upper (resp. lower) majorant property; the cube cushion keeps every
    retained chain, including the forced even extensions, at or below y.
    """
    if z < 2:
        raise ValueError("z must be >= 2")
    if y < z:
        raise ValueError("level y must be >= z")
    ps = primes_in(0, int(z))[::-1]  # descending

    def admit(parity: int):
        # parity 1 conditions odd depths (lambda+), 0 even ones (lambda-): a
        # chain exits there once d p^3 > y.  The cube cushion keeps every
        # chain at or below y, so d * p <= y is only a guard.
        return lambda d, depth, p: d * p <= y and (depth % 2 != parity or d * p**3 <= y)

    return SieveWeights(
        z=z,
        y=y,
        lambda_plus=_signed_chains(ps, admit(1)),
        lambda_minus=_signed_chains(ps, admit(0)),
    )


# ---------------------------------------------------------------------------
# reduction to fundamental-lemma-type condition (alpha/beta sequences)


@dataclass
class ReductionSequences:
    """1-bounded alpha/beta turning P^-(n) > z1 into P^-(m) > z2 conditions.

    alpha_d = (-1)^r on squarefree d = p_1 > ... > p_r with all primes in
    (z2, z1] (alpha_1 = 1), else 0; beta_d = -alpha_d.  The exact identity,
    for every n and level y:

      1[P^-(n) > z1] = sum_{n = d m, d <= y} alpha_d 1[P^-(m) > z2]
                     + sum_{n = d p m, z2 < p <= z1, P^-(d) > p,
                            d <= y < d p} beta_d 1[P^-(m) >= p]

    The exact form needs strictly decreasing chains (squarefree d), strict
    P^-(d) > p, and the inclusive condition P^-(m) >= p; the non-strict /
    strict variants seen in asymptotic displays fail on prime powers.
    """

    z1: float
    z2: float
    y: float
    alpha: dict[int, int]

    def identity_sides(self, n_max: int) -> tuple[np.ndarray, np.ndarray]:
        """(lhs, rhs) of the identity for all 1 <= n <= n_max, exactly, in the
        narrowest type holding sum |alpha_d| plus the number of (d, p) pairs."""
        lpf = least_prime_factor_table(n_max)
        window = [p for p in primes_in(0, int(min(self.z1, n_max))) if p > self.z2]
        # (d, alpha_d, the (d p, p) of its beta part); lpf[d] = P^-(d), above every p at d = 1
        terms = [
            (d, w, [(d * p, p) for p in window if p < lpf[d] and self.y < d * p <= n_max])
            for d, w in self.alpha.items() if d <= min(self.y, n_max)
        ]
        dt = np.min_scalar_type(-1 - sum(abs(w) + len(dps) for _, w, dps in terms))
        lhs = (lpf >= lpf_bound(self.z1)).astype(dt)
        lhs[0] = 0
        rhs = np.zeros(n_max + 1, dtype=dt)
        rough = (lpf >= lpf_bound(self.z2)).view(np.int8)
        for d, w, dps in terms:
            add, sub = (np.add, np.subtract) if w > 0 else (np.subtract, np.add)
            # alpha part: rhs[d*m] for m = 1 .. n_max // d is the stride-d view
            add(rhs[d::d], rough[1 : n_max // d + 1], out=rhs[d::d])
            for dp, p in dps:  # beta part, beta_d = -alpha_d
                sub(rhs[dp::dp], (lpf[1 : n_max // dp + 1] >= p).view(np.int8), out=rhs[dp::dp])
        return lhs, rhs

    def rhs_at(self, n: int) -> int:
        """The right side at one n, term by term from the display: identity_sides' reference."""
        lpf = least_prime_factor_table(n)  # lpf[d] = P^-(d), above every p at d = 1
        # a p dividing n is at most n, which bounds the window when z1 is huge
        window = primes_in(math.floor(min(self.z2, n)), math.floor(min(self.z1, n)))
        total = 0
        for d, w in self.alpha.items():
            if d <= self.y and n % d == 0:
                total += w * (lpf[n // d] >= lpf_bound(self.z2))
                for p in window:
                    if lpf[d] > p and d * p > self.y and n % (d * p) == 0:
                        total -= w * (lpf[n // (d * p)] >= p)
        return int(total)


def reduction_sequences(z1: float, z2: float, y: float) -> ReductionSequences:
    if z2 > z1:
        raise ValueError("needs z2 <= z1")
    if y < 1:
        raise ValueError("needs y >= 1")
    window = [p for p in primes_in(0, int(z1)) if p > z2]
    # the identity only reads alpha at d <= y, so the support is capped there
    alpha = _signed_chains(window, lambda d, depth, p: d * p <= y)
    return ReductionSequences(z1=z1, z2=z2, y=y, alpha=alpha)


# ---------------------------------------------------------------------------
# exact Buchstab identity on S-values


def buchstab_terms(
    x: int, d: int, z1: float, z2: float, q1: int, q2: int, a: int
) -> tuple[SValue, SValue, list[SValue]]:
    """(S_d(z2), S_d(z1), [subtracted dp-terms]) of the exact Buchstab split.

    S_d(z2) = S_d(z1) - sum over primes z1 < p <= z2 of the dp-term, where
    the dp-term sums over m ~ x/(dp) with the inclusive condition
    P^-(m) >= p.
    """
    terms = [(d, z2, False), (d, z1, False)]
    terms += [(d * p, p, True) for p in primes_in(math.floor(z1), math.floor(z2))]
    in_class, coprime, total = s_values(x, terms, q1, q2, a)
    vals = [SValue(ic, cp, total.phi_q) for ic, cp in zip(in_class.tolist(), coprime.tolist())]
    return vals[0], vals[1], vals[2:]


def verify_buchstab(
    x: int, d: int, z1: float, z2: float, q1: int, q2: int, a: int
) -> bool:
    """Exact integer-triple check of the Buchstab identity; no tolerance."""
    if z1 > z2:
        raise ValueError("needs z1 <= z2")
    left, right, subtracted = buchstab_terms(x, d, z1, z2, q1, q2, a)
    acc = right
    for t in subtracted:
        acc = acc - t
    return left.triple() == acc.triple()


def random_buchstab_configs(trials: int, x_max: int, seed: int = 0):
    """Deterministic stream of (x, d, z1, z2, q1, q2, a) configurations."""
    rng = SplitMix64(seed)
    out = []
    while len(out) < trials:
        x = rng.in_range(50, x_max)
        d = rng.in_range(1, 4)
        z1 = 1.5 + rng.unit() * 8.0
        z2 = z1 + rng.unit() * (math.sqrt(2 * x / d) - z1 if math.sqrt(2 * x / d) > z1 else 5.0)
        q1 = rng.in_range(1, 12)
        q2 = rng.in_range(1, 8)
        a = rng.in_range(0, q1 * q2 - 1) if q1 * q2 > 1 else 0
        if math.gcd(a, q1 * q2) != 1:
            continue
        out.append((x, d, z1, z2, q1, q2, a))
    return out
