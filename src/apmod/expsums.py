"""Complete exponential sums: Ramanujan, Kloosterman, Kl3, and the F-sum.

All evaluators are direct enumerations over units with phases drawn from a
precomputed table of q-th roots of unity (one sin/cos per residue class), so
no phase drift accumulates across the O(q^2) loops.  Verification sweeps use
the deterministic splitmix generator; every failure report carries a concrete
witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .arith import (
    FactoredInt,
    _as_factored,
    divisors,
    euler_phi,
    factorize,
    mod_inv,
    mobius,
    tau_k,
)
from .primes import sieve_upto
from .rng import SplitMix64


@lru_cache(maxsize=4096)
def _roots(q: int) -> np.ndarray:
    return np.exp(2j * np.pi * np.arange(q) / q)


@lru_cache(maxsize=4096)
def _units(q: int) -> np.ndarray:
    if q == 1:
        return np.zeros(1, dtype=np.int64)
    r = np.arange(q, dtype=np.int64)
    return r[np.gcd(r, q) == 1]


@lru_cache(maxsize=4096)
def _inv_table(q: int) -> np.ndarray:
    """inv[u] for units u mod q (0 elsewhere)."""
    inv = np.zeros(q, dtype=np.int64)
    if q == 1:
        return inv
    for u in _units(q):
        inv[u] = pow(int(u), -1, q)
    return inv


@lru_cache(maxsize=512)
def _pair_tables(q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flattened unit pairs (b1, b2) and inv(b1*b2) mod q."""
    u = _units(q)
    b1 = np.repeat(u, len(u))
    b2 = np.tile(u, len(u))
    ip = _inv_table(q)[(b1 * b2) % q]
    return b1, b2, ip


@dataclass(frozen=True)
class FSumKey:
    """Arguments of the three-phase unit-product sum F(h1,h2,h3; a; q)."""

    h1: int
    h2: int
    h3: int
    a: int
    q: int

    def __post_init__(self):
        if self.q < 1:
            raise ValueError("modulus must be >= 1")


def ramanujan(q: int, n: int) -> complex:
    """Ramanujan sum c_q(n) = sum over units b of e(b*n/q).  Real-valued."""
    if q < 1:
        raise ValueError("modulus must be >= 1")
    if q == 1:
        return 1 + 0j
    idx = (_units(q) * (n % q)) % q
    return complex(_roots(q)[idx].sum())


def ramanujan_exact(q: int, n: int) -> int:
    """Closed form mu(q/g) * phi(q) / phi(q/g) with g = gcd(n, q); exact oracle."""
    if q == 1:
        return 1
    g = math.gcd(n % q, q)
    return mobius(q // g) * euler_phi(q) // euler_phi(q // g)


def kloosterman(m: int, n: int, c: int) -> complex:
    """S(m, n; c) = sum over units b mod c of e((m*b + n*inv(b))/c)."""
    if c < 1:
        raise ValueError("modulus must be >= 1")
    if c == 1:
        return 1 + 0j
    u = _units(c)
    idx = ((m % c) * u + (n % c) * _inv_table(c)[u]) % c
    return complex(_roots(c)[idx].sum())


def kl3(a: int, q: int) -> complex:
    """Hyper-Kloosterman Kl3(a; q) = (1/q) * sum over b1*b2*b3 = a of e((b1+b2+b3)/q).

    The triple ranges over all of Z/q; triples whose pair (b1, b2) is
    non-invertible cancel in complete residue systems, so the enumeration
    runs over unit pairs with b3 solved.  Valid for every a, unit or not
    (kl3_full_loop is the definition-level oracle for that reduction).
    """
    if q < 1:
        raise ValueError("modulus must be >= 1")
    if q == 1:
        return 1 + 0j
    b1, b2, ip = _pair_tables(q)
    b3 = ((a % q) * ip) % q
    idx = (b1 + b2 + b3) % q
    return complex(_roots(q)[idx].sum()) / q


def kl3_full_loop(a: int, q: int) -> complex:
    """O(q^3) definition-level oracle; intended only for q <= ~100."""
    if q == 1:
        return 1 + 0j
    roots = _roots(q)
    total = 0j
    for b1 in range(q):
        for b2 in range(q):
            for b3 in range(q):
                if (b1 * b2 * b3 - a) % q == 0:
                    total += roots[(b1 + b2 + b3) % q]
    return total / q


@lru_cache(maxsize=2048)
def kl3_prime_table(p: int) -> np.ndarray:
    """Kl3(a; p) for all residues a mod p at once (inverse DFT of pair sums)."""
    if p == 1:
        return np.ones(1, dtype=complex)
    b1, b2, ip = _pair_tables(p)
    roots = _roots(p)
    t = np.zeros(p, dtype=complex)
    np.add.at(t, ip, roots[(b1 + b2) % p])
    # Kl3(a; p) = (1/p) * sum_c t[c] e(a c / p) = ifft(t)[a]
    return np.fft.ifft(t)


def kl3_squarefree(a: int, q: int | FactoredInt) -> complex:
    """Kl3(a; q) for squarefree q and (a, q) = 1 via the prime tables.

    Uses Kl3(a; q1*q2) = Kl3(a*inv(q1)^3; q2) * Kl3(a*inv(q2)^3; q1), so
    large squarefree moduli cost one table lookup per prime factor.
    """
    f = _as_factored(q)
    q = f.n
    if not f.is_squarefree():
        raise ValueError(f"{q} is not squarefree")
    if math.gcd(a, q) != 1:
        raise ValueError("residue must be a unit")
    out = 1 + 0j
    for p, _ in f.factors:
        m = q // p
        ap = a % p if m == 1 else (a * pow(mod_inv(m, p), 3, p)) % p
        out *= complex(kl3_prime_table(p)[ap])
    return out


def f_sum(key: FSumKey) -> complex:
    """F(h1,h2,h3; a; q): sum over unit triples with product a of the 3-phase."""
    h1, h2, h3, a, q = key.h1, key.h2, key.h3, key.a, key.q
    if q == 1:
        return 1 + 0j
    if math.gcd(a, q) != 1:
        return 0j
    b1, b2, ip = _pair_tables(q)
    b3 = ((a % q) * ip) % q
    idx = (b1 * (h1 % q) + b2 * (h2 % q) + b3 * (h3 % q)) % q
    return complex(_roots(q)[idx].sum())


# ---------------------------------------------------------------------------
# verification sweeps


@dataclass
class SweepReport:
    """Outcome of a verification sweep; failures carry concrete witnesses."""

    name: str
    tested: int
    failures: list[dict] = field(default_factory=list)
    max_ratio: float = 0.0
    witness: dict = field(default_factory=dict)
    seed: int = 0
    note: str = ""

    @property
    def passed(self) -> bool:
        return not self.failures


def _sample_unit(rng: SplitMix64, q: int) -> int:
    if q == 1:
        return 0
    u = _units(q)
    return int(u[rng.below(len(u))])


def _sample_coprime(rng: SplitMix64, q: int, lo: int, hi: int) -> int:
    while True:
        v = rng.in_range(lo, hi)
        if math.gcd(v, q) == 1:
            return v


def _coprime_splittings(q: int) -> list[tuple[int, int]]:
    """Nontrivial unordered coprime factorizations q = q1 * q2."""
    ps = [p**e for p, e in factorize(q).factors]
    out = []
    for bits in range(1, 1 << (len(ps) - 1)):
        q1 = 1
        for i, pe in enumerate(ps):
            if bits >> i & 1:
                q1 *= pe
        out.append((min(q1, q // q1), max(q1, q // q1)))
    return sorted(set(out))


def _sample_p7_triple(rng: SplitMix64, q: int, assignment=None):
    """h-triple with q | h1*h2*h3 and gcd(h1, h2, h3, q) = 1, q squarefree.

    Each prime of q is assigned to exactly one slot and multipliers stay
    coprime to q, so (h_i, q) equals the product of the slot's primes.  Pass
    ``assignment`` to force the same (h_i, q) triple with fresh multipliers.
    """
    if assignment is None:
        assignment = [1, 1, 1]
        for p, _ in factorize(q).factors:
            assignment[rng.below(3)] *= p
    h = [assignment[i] * _sample_coprime(rng, q, 1, 2 * q + 1) for i in range(3)]
    return h, tuple(assignment)


def f_property_check(
    q_max: int,
    property_id: int,
    samples_per_q: int = 200,
    tol: float | None = None,
    seed: int = 0,
) -> SweepReport:
    """Verify one statement of the F-sum structure lemma on all q <= q_max.

    Statements, each checked on the moduli satisfying its hypotheses with
    deterministically sampled h-triples and residues:

      1. multiplicativity across coprime splittings q = q1 * q2
      2. twist invariance: F(h;a;q) = F(b h1, b h2, b h3; a inv(b)^3; q)
      3. vanishing unless (a, q) = 1
      4. d = gcd(h1,h2,h3,q) pulls out as phi(q)^2/phi(q/d)^2 times F at q/d
      5. F = q * Kl3(a h1 h2 h3; q) when (h1 h2 h3, q) = 1
      6. vanishing at prime-square moduli: F = 0 when some prime p has
         p^2 | q, p | h1 h2 h3 and gcd(h1, h2, h3, q) = 1
      7. for squarefree q | h1 h2 h3 with gcd(h1,h2,h3,q) = 1 the value
         depends only on ((h1,q), (h2,q), (h3,q)), with
         |F| <= (h1,q)(h2,q)(h3,q)/q

    The default tolerance is 1e-6 * q^2, the trivial-bound scale of F.

    Note on 6: the blanket hypothesis "q not squarefree and (h1 h2 h3, q) > 1"
    admits counterexamples where the shared prime divides only the squarefree
    part of q (q = 12, h = (3, 1, 1)); the hypothesis enforced here is the one
    the prime-power factorization argument supports.
    """
    if property_id not in range(1, 8):
        raise ValueError("property_id must be in 1..7")
    if q_max > 200:
        raise ValueError("q_max above 200 is out of contract (O(q^2) per value)")
    tol_of = (lambda q: 1e-6 * q * q) if tol is None else (lambda q: tol)
    report = SweepReport(name=f"f-property-{property_id}", tested=0, seed=seed)
    if property_id == 6:
        report.note = "hypothesis: exists p with p^2 | q and p | h1*h2*h3"

    for q in range(1, q_max + 1):
        fq = factorize(q)
        squarefree = fq.is_squarefree()
        if property_id == 1 and len(fq.factors) < 2:
            continue
        if property_id == 3 and q == 1:
            continue
        if property_id == 6 and squarefree:
            continue
        if property_id == 7 and not squarefree:
            continue
        tested, failures, max_ratio = _check_f_property_at_q(
            q, property_id, samples_per_q, tol_of, seed
        )
        report.tested += tested
        report.failures.extend(failures)
        report.max_ratio = max(report.max_ratio, max_ratio)
    return report


def _check_f_property_at_q(q, property_id, samples_per_q, tol_of, seed):
    """One modulus of the property sweep; rng seeded per (seed, property, q)."""
    rng = SplitMix64((seed * 1_000_003 + property_id) * 1_000_003 + q)
    fq = factorize(q)
    tested = 0
    failures = []
    max_ratio = 0.0

    def record(q, h, a, lhs, rhs):
        nonlocal tested, max_ratio
        tested += 1
        dev = abs(lhs - rhs)
        max_ratio = max(max_ratio, dev / tol_of(q))
        if dev > tol_of(q):
            failures.append(
                {"q": q, "h": tuple(h), "a": a, "lhs": lhs, "rhs": rhs, "dev": dev}
            )

    for t in range(samples_per_q):
        a = _sample_unit(rng, q)
        if property_id == 1:
            h = [rng.in_range(1, 3 * q) for _ in range(3)]
            splits = _coprime_splittings(q)
            q1, q2 = splits[t % len(splits)]
            a2 = (a * pow(mod_inv(q1, q2), 3, q2)) % q2
            a1 = (a * pow(mod_inv(q2, q1), 3, q1)) % q1
            lhs = f_sum(FSumKey(*h, a, q))
            rhs = f_sum(FSumKey(*h, a2, q2)) * f_sum(FSumKey(*h, a1, q1))
        elif property_id == 2:
            h = [rng.in_range(1, 3 * q) for _ in range(3)]
            b = _sample_unit(rng, q) if q > 1 else 1
            ab = a if q == 1 else (a * pow(mod_inv(b, q), 3, q)) % q
            lhs = f_sum(FSumKey(*h, a, q))
            rhs = f_sum(FSumKey(b * h[0], b * h[1], b * h[2], ab, q))
        elif property_id == 3:
            h = [rng.in_range(1, 3 * q) for _ in range(3)]
            bad = [r for r in range(q) if math.gcd(r, q) != 1]
            a = bad[rng.below(len(bad))]
            lhs, rhs = f_sum(FSumKey(*h, a, q)), 0j
        elif property_id == 4:
            divs = divisors(fq)
            d = divs[t % len(divs)]
            qd = q // d
            while True:
                hp = [rng.in_range(1, 3 * q) for _ in range(3)]
                g = math.gcd(math.gcd(hp[0], hp[1]), math.gcd(hp[2], qd))
                if g == 1:
                    break
            h = [d * v for v in hp]
            scale = euler_phi(q) ** 2 // euler_phi(qd) ** 2
            lhs = f_sum(FSumKey(*h, a, q))
            rhs = scale * f_sum(FSumKey(*hp, a % qd, qd))
        elif property_id == 5:
            h = [_sample_coprime(rng, q, 1, 3 * q) for _ in range(3)]
            lhs = f_sum(FSumKey(*h, a, q))
            rhs = q * kl3((a * h[0] * h[1] * h[2]) % q, q)
        elif property_id == 6:
            sq_primes = [p for p, e in fq.factors if e >= 2]
            p = sq_primes[t % len(sq_primes)]
            while True:
                h = [rng.in_range(1, 3 * q) for _ in range(3)]
                h[t % 3] = p * rng.in_range(1, 2 * q)
                if math.gcd(math.gcd(h[0], h[1]), math.gcd(h[2], q)) == 1:
                    break
            lhs, rhs = f_sum(FSumKey(*h, a, q)), 0j
        else:  # property 7
            h, assignment = _sample_p7_triple(rng, q)
            h2, _ = _sample_p7_triple(rng, q, assignment=assignment)
            a2 = _sample_unit(rng, q)
            lhs = f_sum(FSumKey(*h, a, q))
            rhs = f_sum(FSumKey(*h2, a2, q))
            bound = assignment[0] * assignment[1] * assignment[2] / q
            if abs(lhs) > bound * (1 + 1e-9) + tol_of(q):
                failures.append(
                    {"q": q, "h": tuple(h), "a": a, "lhs": lhs, "bound": bound}
                )
        record(q, h, a, lhs, rhs)
    return tested, failures, max_ratio


def weil_check(c_max: int, trials_per_c: int = 50, seed: int = 0) -> SweepReport:
    """Weil bound with explicit constant 1: |S(m,n;c)| <= tau(c) sqrt(c*(m,n,c)).

    Sweeps 2 <= c <= c_max (the modulus-1 sum is identically 1 and equals its
    bound, so it is excluded as trivial) over deterministic (m, n) samples
    plus the degenerate corners (0,0), (0,1), (1,1).  Reports the maximum
    observed ratio; any ratio >= 1 is a failure, not a tolerance bump.
    """
    if c_max > 2000:
        raise ValueError("c_max above 2000 is out of contract")
    report = SweepReport(name="weil", tested=0, seed=seed)

    def job(c: int):
        rng = SplitMix64(seed * 7919 + c)
        tau_c = tau_k(c, 2)
        pairs = [(0, 0), (0, 1), (1, 1)]
        while len(pairs) < trials_per_c:
            pairs.append((rng.in_range(0, 3 * c), rng.in_range(0, 3 * c)))
        best = (0.0, {})
        fails = []
        for m, n in pairs[:trials_per_c]:
            s = kloosterman(m, n, c)
            g = math.gcd(math.gcd(m, n), c)
            ratio = abs(s) / (tau_c * math.sqrt(c * g))
            if ratio > best[0]:
                best = (ratio, {"c": c, "m": m, "n": n, "abs": abs(s)})
            if ratio >= 1.0:
                fails.append({"c": c, "m": m, "n": n, "ratio": ratio})
        return len(pairs[:trials_per_c]), best, fails

    for tested, best, fails in map(job, range(2, c_max + 1)):
        report.tested += tested
        report.failures.extend(fails)
        if best[0] > report.max_ratio:
            report.max_ratio = best[0]
            report.witness = best[1]
    return report


def deligne_check(p_max: int, squarefree_max: int | None = None) -> SweepReport:
    """Deligne bound: |Kl3(a; p)| <= 3 at primes, <= tau_3(q) for squarefree q.

    Prime moduli are checked for every unit a via the DFT table; squarefree
    composites up to ``squarefree_max`` (default 2 * p_max) for every unit a
    through the multiplicativity identity.  A slack of 1e-9 absorbs float
    rounding only.
    """
    if p_max > 500:
        raise ValueError("p_max above 500 is out of contract")
    if squarefree_max is None:
        squarefree_max = 2 * p_max
    report = SweepReport(name="deligne", tested=0)
    slack = 1e-9

    def prime_job(p: int):
        vals = np.abs(kl3_prime_table(p)[_units(p)])
        return p, len(vals), float(vals.max())

    for p, n, worst in map(prime_job, sieve_upto(p_max).tolist()):
        report.tested += n
        if worst / 3.0 > report.max_ratio:
            report.max_ratio = worst / 3.0
            report.witness = {"q": p, "abs": worst, "bound": 3.0}
        if worst > 3.0 + slack:
            report.failures.append({"q": p, "abs": worst, "bound": 3.0})

    for f in map(factorize, range(2, squarefree_max + 1)):
        if not f.is_squarefree() or len(f.factors) < 2:
            continue
        worst = max(abs(kl3_squarefree(int(a), f)) for a in _units(f.n))
        report.tested += euler_phi(f)
        bound = float(tau_k(f, 3))
        if worst > bound + slack:
            report.failures.append({"q": f.n, "abs": worst, "bound": bound})
    return report


def kl3_correlation(H: float, a1: int, a2: int, r1: int, r2: int, s: int) -> dict:
    """Smoothed correlation of Kl3 twists against the reference bound.

    lhs = sum over (h, s r1 r2) = 1 of psi0(h/H) Kl3(a1 h; r1 s)
    conj(Kl3(a2 h; r2 s)), evaluated directly.  rhs_bound is the comparison
    quantity (H/([r1,r2] s) + 1) sqrt(s [r1,r2] (a2-a1, r1, r2)
    (a2 r1^3 - a1 r2^3, s)) with implied constant 1 and no epsilon power;
    the ratio is DIAGNOSTIC ONLY since the true implied constant is unknown.
    """
    from .completion import psi0_eval

    for name, v in (("r1", r1), ("r2", r2), ("s", s)):
        if mobius(v) == 0:
            raise ValueError(f"{name} = {v} must be squarefree")
    if math.gcd(s, r1) != 1 or math.gcd(s, r2) != 1:
        raise ValueError("s must be coprime to r1 and r2")
    if math.gcd(a1, r1 * s) != 1 or math.gcd(a2, r2 * s) != 1:
        raise ValueError("a_i must be units modulo r_i * s")
    lcm = r1 * r2 // math.gcd(r1, r2)
    if s * lcm > 10**4:
        raise ValueError("moduli too large for direct evaluation (s*[r1,r2] > 1e4)")
    m1, m2 = r1 * s, r2 * s
    lhs = 0j
    h_lo = max(1, math.floor(H / 2))
    h_hi = math.ceil(5 * H / 2)
    for h in range(h_lo, h_hi + 1):
        w = psi0_eval(h / H)
        if w == 0.0 or math.gcd(h, s * r1 * r2) != 1:
            continue
        lhs += (
            w
            * kl3_squarefree((a1 * h) % m1, m1)
            * np.conj(kl3_squarefree((a2 * h) % m2, m2))
        )
    g_r = math.gcd(math.gcd(a2 - a1, r1), r2)
    g_s = math.gcd(a2 * r1**3 - a1 * r2**3, s)
    rhs_bound = (H / (lcm * s) + 1.0) * math.sqrt(s * lcm * g_r * g_s)
    return {
        "lhs": complex(lhs),
        "rhs_bound": float(rhs_bound),
        "ratio": float(abs(lhs) / rhs_bound),
    }
