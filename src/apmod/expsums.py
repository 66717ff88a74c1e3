"""Complete exponential sums: Ramanujan, Kloosterman, Kl3, and the F-sum.

All evaluators are direct enumerations over units with phases drawn from a
precomputed table of q-th roots of unity (one sin/cos per residue class), so
no phase drift accumulates across the O(q^2) loops.  One cached table per
modulus holds those roots, the units and their inverses.  Verification sweeps use
the deterministic splitmix generator; every failure report carries a concrete
witness.

Kl3, the F-sum and the prime Kl3 table run over the phi(q)^2 unit pairs
(b1, b2) mod q.  One kernel, _pair_sums, evaluates any number of coefficient
triples at one modulus and returns one sum per triple; kl3 and f_sum are its
one-row calls, and the F-sum sweep makes one call per modulus.  It takes
time proportional to phi(q)^2 phases per row, but never holds the pair
grid: phases are generated and summed in leaves of at most _LEAF values per
row, in chunks of at most _CHUNK phases over all rows, so one call
allocates O(_CHUNK + q) memory at a time besides its results, whatever q
is, and nothing of size phi(q)^2 is retained.  Phases are built in int32
while they fit (q <= 26,755), else in int64, and reduced mod q by one
floor division by the scalar q.  The leaves are cut where numpy's pairwise
summation cuts the whole row (_tree_sum), so every sum is bit-identical to
summing that row's whole grid at once.
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
from .rng import SplitMix64


@lru_cache(maxsize=4096)
def _unit_table(q: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(roots, units, inverses) mod q: e(r/q) for 0 <= r < q, the units in
    ascending order, and each unit's inverse.  For q = 1 the only unit is 0.
    The arrays are cached, so they are read-only."""
    roots = np.exp(2j * np.pi * np.arange(q) / q)
    r = np.arange(q, dtype=np.int64)
    units = r[np.gcd(r, q) == 1]
    # Euler: inv(u) = u^(phi(q) - 1) mod q, squared and multiplied on all
    # units at once; every product stays below q^2
    inverses, base, e = np.ones_like(units), units, len(units) - 1
    while e:
        if e & 1:
            inverses = inverses * base % q
        base = base * base % q
        e >>= 1
    out = roots, units, inverses % q
    for arr in out:
        arr.flags.writeable = False
    return out


# Unit-pair phases are generated and summed in leaves of at most this many
# values per row.  Leaves of 2^12 pay about 1.4x in per-leaf overhead at
# q = 2027; 2^18 gains about 10% for 16x the memory.
_LEAF = 1 << 14
# _pair_sums evaluates its rows in chunks of at most this many phases at once
# (at most 24 bytes per phase: 3 MB; an intp index and a complex root, or
# while a phase is built, the phase and two temporaries of its dtype).
_CHUNK = 8 * _LEAF

# The largest sweeps the checks accept: f_property_check's q_max (O(q^2) per
# value), weil_check's c_max and deligne_check's p_max.
F_Q_MAX = 200
WEIL_C_MAX = 2000
DELIGNE_P_MAX = 500


def _pair_phases(q: int, coeffs):
    """phases(lo, hi): for each triple (c1, c2, c3) of ``coeffs``, one row of
    (c1*b1 + c2*b2 + c3*inv(b1*b2)) mod q at flat positions lo..hi-1 of the
    b1-major grid of unit pairs (b1, b2) mod q; a C-contiguous intp array of
    shape (len(coeffs), hi - lo).

    The per-unit rows c1*b, c2*b and (c3*inv(b) mod q), with every c
    reduced mod q first, are built once, here.  A span is cut into at most
    three row blocks (the tail of a row, whole rows, the head of a row),
    each filled in place by one broadcast of those rows; writing
    inv(b1*b2) = inv(b1)*inv(b2) keeps every product below q^2, so every
    phase stays below 3q^2 until its one reduction mod q: in int32 when
    3(q-1)^2 < 2^31, else in int64.
    """
    _, u, iu = _unit_table(q)
    n = len(u)
    dt = np.int32 if 3 * (q - 1) ** 2 < 2**31 else np.int64
    u, iu = u.astype(dt), iu.astype(dt)
    c = np.array([[v % q for v in row] for row in coeffs], dtype=dt)
    row1, col2, row3 = c[:, :1] * u, c[:, 1:2] * u, c[:, 2:] * iu % q

    def phases(lo: int, hi: int) -> np.ndarray:
        out = np.empty((len(c), hi - lo), dtype=dt)
        pos = lo
        while pos < hi:
            r, j = divmod(pos, n)
            if j == 0 and hi - pos >= n:
                nr, end = (hi - pos) // n, n
            else:
                nr, end = 1, min(n, j + hi - pos)
            rows, cols = slice(r, r + nr), slice(j, end)
            span = out[:, pos - lo : pos - lo + nr * (end - j)]
            # a view (numpy >= 2.1 raises rather than copy), so filled in place
            blk = span.reshape(len(c), nr, end - j, copy=False)
            np.multiply(row3[:, rows, None], iu[cols], out=blk)
            blk += row1[:, rows, None]
            blk += col2[:, None, cols]
            pos += nr * (end - j)
        out -= out // q * q  # one scalar divisor: numpy's fast integer divide
        return out.astype(np.intp, copy=False)  # an intp index gathers twice as fast

    return phases


def _tree_sum(n: int, leaf):
    """The sum of n complex values, added in exactly numpy's order.

    ``leaf(lo, hi)`` returns the numpy sum of values lo..hi-1, a scalar or a
    vector of independent sums added elementwise.  numpy's pairwise
    ``add.reduce`` splits a node of m scalars (two per complex value) after
    m//2 - (m//2) % 8 of them; splitting the same way until a node holds at
    most _LEAF values, and summing that node with numpy, reproduces the sum
    of the whole array bit for bit.
    """

    def node(lo: int, m: int):
        if m <= _LEAF:
            return leaf(lo, lo + m)
        h = (m - m % 8) // 2
        return node(lo, h) + node(lo + h, m - h)

    return node(0, n)


def _pair_sums(q: int, coeffs) -> list[complex]:
    """Sum over unit pairs (b1, b2) mod q of e((c1*b1 + c2*b2 + c3*inv(b1*b2))/q),
    one sum for each coefficient triple (c1, c2, c3) of ``coeffs``.

    Each row is summed on its own in numpy's order, so every value is bit
    for bit the numpy sum of that row's whole grid of phi(q)^2 roots.  Rows
    are evaluated in chunks of at most _CHUNK phases (per row a leaf of at
    most min(phi(q)^2, _LEAF) values): time phi(q)^2 phases per row, memory
    O(_CHUNK + q) at a time besides the len(coeffs) results, whatever q is;
    nothing of size phi(q)^2 is retained.
    """
    roots, u, _ = _unit_table(q)
    n = len(u) ** 2
    k = max(1, _CHUNK // min(n, _LEAF))
    out = []
    for i in range(0, len(coeffs), k):
        phases = _pair_phases(q, coeffs[i : i + k])
        # roots[...] of a C-contiguous index array is C-contiguous, so numpy
        # reduces each row pairwise, exactly as it reduces that row alone
        out += _tree_sum(n, lambda lo, hi: roots[phases(lo, hi)].sum(axis=1)).tolist()
    return out


def ramanujan(q: int, n: int) -> complex:
    """Ramanujan sum c_q(n) = S(n, 0; q) = sum over units b of e(b*n/q).  Real-valued."""
    return kloosterman(n, 0, q)


def ramanujan_exact(q: int, n: int) -> int:
    """Closed form mu(q/g) * phi(q) / phi(q/g) with g = gcd(n, q); exact oracle."""
    if q == 1:
        return 1
    g = math.gcd(n % q, q)
    return mobius(q // g) * euler_phi(q) // euler_phi(q // g)


def kloosterman(m, n, c: int) -> complex | np.ndarray:
    """S(m, n; c) = sum over units b mod c of e((m*b + n*inv(b))/c).

    m and n may also be equal-length integer arrays; the result is then the
    array of S(m[i], n[i]; c).  Each row is summed on its own, so every value
    equals the scalar call bit for bit.  Memory: len(m) * phi(c) phases.
    """
    if c < 1:
        raise ValueError("modulus must be >= 1")
    roots, u, iu = _unit_table(c)
    idx = (np.multiply.outer(m % c, u) + np.multiply.outer(n % c, iu)) % c
    s = roots[idx].sum(axis=-1)
    return complex(s) if s.ndim == 0 else s


def kl3(a: int, q: int) -> complex:
    """Hyper-Kloosterman Kl3(a; q) = (1/q) * sum over b1*b2*b3 = a of e((b1+b2+b3)/q).

    The triple ranges over all of Z/q; triples whose pair (b1, b2) is
    non-invertible cancel in complete residue systems, so the enumeration
    runs over unit pairs with b3 solved.  Valid for every a, unit or not
    (kl3_full_loop is the definition-level oracle for that reduction).

    Time: phi(q)^2 phases.  Memory: O(_LEAF + q); no pair table is kept.
    """
    if q < 1:
        raise ValueError("modulus must be >= 1")
    return _pair_sums(q, [(1, 1, a)])[0] / q


def kl3_full_loop(a: int, q: int) -> complex:
    """O(q^3) definition-level oracle; intended only for q <= ~100."""
    roots = _unit_table(q)[0]
    total = 0j
    for b1 in range(q):
        for b2 in range(q):
            for b3 in range(q):
                if (b1 * b2 * b3 - a) % q == 0:
                    total += roots[(b1 + b2 + b3) % q]
    return total / q


@lru_cache(maxsize=2048)
def kl3_prime_table(p: int) -> np.ndarray:
    """Kl3(a; p) for all residues a mod p at once (inverse DFT of pair sums).

    The pair sums are accumulated _LEAF pairs at a time in grid order: time
    phi(p)^2 phases, memory O(_LEAF + p); the O(p) result is cached, so it
    is read-only.
    """
    roots, u, _ = _unit_table(p)
    # rows: inv(b1*b2) and b1 + b2
    phases = _pair_phases(p, [(0, 0, 1), (1, 1, 0)])
    t = np.zeros(p, dtype=complex)
    n = len(u) ** 2
    for lo in range(0, n, _LEAF):
        inv_pair, pair_sum = phases(lo, min(n, lo + _LEAF))
        # t[inv(b1*b2)] += e((b1 + b2)/p), in the order of the pair grid
        np.add.at(t, inv_pair, roots[pair_sum])
    # Kl3(a; p) = (1/p) * sum_c t[c] e(a c / p) = ifft(t)[a]; t = [1] at p = 1
    t = np.fft.ifft(t)
    t.flags.writeable = False
    return t


def kl3_squarefree(q: int | FactoredInt) -> np.ndarray:
    """Kl3(a; q) at every residue a mod squarefree q, indexed by a.

    For a prime (or q = 1) this is the cached, read-only kl3_prime_table(q).
    Otherwise it is the product over p | q, ascending, of the prime tables
    at a * inv(q/p)^3 mod p (twisted multiplicativity, which holds at every
    a, unit or not), written out in real parts: O(q) time and memory per p.
    """
    f = _as_factored(q)
    if not f.is_squarefree():
        raise ValueError(f"q = {f.n} must be squarefree")
    q = f.n
    if len(f.factors) <= 1:
        return kl3_prime_table(q)
    a = np.arange(q)
    out, *rest = (kl3_prime_table(p)[a * pow(mod_inv(q // p, p), 3, p) % p]
                  for p, _ in f.factors)
    for t in rest:
        re, im = out.real, out.imag
        out.real, out.imag = re * t.real - im * t.imag, re * t.imag + im * t.real
    return out


def f_sum(h1: int, h2: int, h3: int, a: int, q: int) -> complex:
    """F(h1,h2,h3; a; q): sum over unit triples with product a of the 3-phase.

    Time: phi(q)^2 phases.  Memory: O(_LEAF + q); no pair table is kept.
    """
    if q < 1:
        raise ValueError("modulus must be >= 1")
    if math.gcd(a, q) != 1:
        return 0j
    return _pair_sums(q, [(h1, h2, a * h3)])[0]


# ---------------------------------------------------------------------------
# verification sweeps


@dataclass
class SweepReport:
    """Outcome of a verification sweep; failures carry concrete witnesses."""

    tested: int
    failures: list[dict] = field(default_factory=list)
    max_ratio: float = 0.0
    witness: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.failures


def _sample_unit(rng: SplitMix64, q: int) -> int:
    if q == 1:
        return 0
    u = _unit_table(q)[1]
    return int(u[rng.below(len(u))])


def _sample_coprime(rng: SplitMix64, q: int, lo: int, hi: int) -> int:
    while True:
        v = rng.in_range(lo, hi)
        if math.gcd(v, q) == 1:
            return v


def _coprime_splittings(fq: FactoredInt) -> list[tuple[int, int]]:
    """Nontrivial unordered coprime factorizations q = q1 * q2."""
    q = fq.n
    ps = [p**e for p, e in fq.factors]
    out = []
    for bits in range(1, 1 << (len(ps) - 1)):
        q1 = 1
        for i, pe in enumerate(ps):
            if bits >> i & 1:
                q1 *= pe
        out.append((min(q1, q // q1), max(q1, q // q1)))
    return sorted(set(out))


def _sample_p7_triple(rng: SplitMix64, fq: FactoredInt, assignment=None):
    """h-triple with q | h1*h2*h3 and gcd(h1, h2, h3, q) = 1, q squarefree.

    Each prime of q is assigned to exactly one slot and multipliers stay
    coprime to q, so (h_i, q) equals the product of the slot's primes.  Pass
    ``assignment`` to force the same (h_i, q) triple with fresh multipliers.
    """
    q = fq.n
    if assignment is None:
        assignment = [1, 1, 1]
        for p, _ in fq.factors:
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

    Each modulus draws all its samples first, then evaluates every F-sum
    they need in one batched _pair_sums call per modulus involved (q, and
    q1 and q2 or q/d for statements 1 and 4): time samples_per_q * phi(q)^2
    phases per value, memory O(_CHUNK + q) at a time plus a few values per
    sample.

    Note on 6: the blanket hypothesis "q not squarefree and (h1 h2 h3, q) > 1"
    admits counterexamples where the shared prime divides only the squarefree
    part of q (q = 12, h = (3, 1, 1)); the hypothesis enforced here is the one
    the prime-power factorization argument supports.
    """
    if property_id not in range(1, 8):
        raise ValueError("property_id must be in 1..7")
    if q_max > F_Q_MAX:
        raise ValueError(f"q_max above {F_Q_MAX} is out of contract (O(q^2) per value)")
    tol_of = (lambda q: 1e-6 * q * q) if tol is None else (lambda q: tol)
    report = SweepReport(tested=0)

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
            fq, property_id, samples_per_q, tol_of, seed
        )
        report.tested += tested
        report.failures.extend(failures)
        report.max_ratio = max(report.max_ratio, max_ratio)
    return report


def _check_f_property_at_q(fq, property_id, samples_per_q, tol_of, seed):
    """One modulus of the property sweep; rng seeded per (seed, property, q).

    Two passes: every sample is drawn first, in one rng stream, queueing the
    pair sums it needs; then each modulus involved (q, and q1 and q2 for
    property 1 or q/d for property 4) is evaluated in one _pair_sums call,
    and the samples are recorded in the order they were drawn.
    """
    q = fq.n
    rng = SplitMix64((seed * 1_000_003 + property_id) * 1_000_003 + q)
    rows: dict[int, list] = {}  # modulus -> queued coefficient triples
    sums: dict[int, list] = {}  # modulus -> their pair sums, once evaluated

    def pair_sum(m, c1, c2, c3):
        """Queue one pair sum at modulus m; returns a reader of its value."""
        queue = rows.setdefault(m, [])
        queue.append((c1, c2, c3))
        i = len(queue) - 1
        return lambda: sums[m][i]

    def f(h, a, m):
        """F(h; a; m), queued exactly as f_sum evaluates it."""
        if math.gcd(a, m) != 1:
            return lambda: 0j
        return pair_sum(m, h[0], h[1], a * h[2])

    # per-modulus invariants
    if property_id == 1:
        splits = [
            (q1, q2, pow(mod_inv(q1, q2), 3, q2), pow(mod_inv(q2, q1), 3, q1))
            for q1, q2 in _coprime_splittings(fq)
        ]
    elif property_id == 3:
        bad = [r for r in range(q) if math.gcd(r, q) != 1]
    elif property_id == 4:
        phi_q = euler_phi(fq)
        scaled = [(d, phi_q**2 // euler_phi(q // d) ** 2) for d in divisors(fq)]
    elif property_id == 6:
        sq_primes = [p for p, e in fq.factors if e >= 2]

    def draw(t):
        """(h, a, lhs, rhs, bound) of sample t; lhs and rhs are readers."""
        a = _sample_unit(rng, q)
        if property_id == 1:
            h = [rng.in_range(1, 3 * q) for _ in range(3)]
            q1, q2, m2, m1 = splits[t % len(splits)]
            lhs, r2, r1 = f(h, a, q), f(h, a * m2 % q2, q2), f(h, a * m1 % q1, q1)
            return h, a, lhs, lambda: r2() * r1(), None
        if property_id == 2:
            h = [rng.in_range(1, 3 * q) for _ in range(3)]
            b = _sample_unit(rng, q) if q > 1 else 1
            ab = a if q == 1 else (a * pow(mod_inv(b, q), 3, q)) % q
            return h, a, f(h, a, q), f([b * v for v in h], ab, q), None
        if property_id == 3:
            h = [rng.in_range(1, 3 * q) for _ in range(3)]
            a = bad[rng.below(len(bad))]
            return h, a, f(h, a, q), lambda: 0j, None
        if property_id == 4:
            d, scale = scaled[t % len(scaled)]
            qd = q // d
            while True:
                hp = [rng.in_range(1, 3 * q) for _ in range(3)]
                g = math.gcd(math.gcd(hp[0], hp[1]), math.gcd(hp[2], qd))
                if g == 1:
                    break
            h = [d * v for v in hp]
            rhs = f(hp, a % qd, qd)
            return h, a, f(h, a, q), lambda: scale * rhs(), None
        if property_id == 5:
            h = [_sample_coprime(rng, q, 1, 3 * q) for _ in range(3)]
            # q * kl3(a h1 h2 h3; q), with kl3's own division by q
            s = pair_sum(q, 1, 1, (a * h[0] * h[1] * h[2]) % q)
            return h, a, f(h, a, q), lambda: q * (s() / q), None
        if property_id == 6:
            p = sq_primes[t % len(sq_primes)]
            while True:
                h = [rng.in_range(1, 3 * q) for _ in range(3)]
                h[t % 3] = p * rng.in_range(1, 2 * q)
                if math.gcd(math.gcd(h[0], h[1]), math.gcd(h[2], q)) == 1:
                    break
            return h, a, f(h, a, q), lambda: 0j, None
        # property 7
        h, assignment = _sample_p7_triple(rng, fq)
        h2, _ = _sample_p7_triple(rng, fq, assignment=assignment)
        a2 = _sample_unit(rng, q)
        bound = assignment[0] * assignment[1] * assignment[2] / q
        return h, a, f(h, a, q), f(h2, a2, q), bound

    samples = [draw(t) for t in range(samples_per_q)]
    sums.update((m, _pair_sums(m, r)) for m, r in rows.items())

    failures = []
    max_ratio = 0.0
    tol = tol_of(q)
    for h, a, lhs, rhs, bound in samples:
        lhs, rhs = lhs(), rhs()
        if bound is not None and abs(lhs) > bound * (1 + 1e-9) + tol:
            failures.append({"q": q, "h": tuple(h), "a": a, "lhs": lhs, "bound": bound})
        dev = abs(lhs - rhs)
        # tol = 0 demands an exact match: any deviation is infinitely over it
        max_ratio = max(max_ratio, dev / tol if tol else math.inf if dev else 0.0)
        if dev > tol:
            failures.append({"q": q, "h": tuple(h), "a": a, "lhs": lhs, "rhs": rhs, "dev": dev})
    return len(samples), failures, max_ratio


def weil_check(c_max: int, trials_per_c: int = 50, seed: int = 0) -> SweepReport:
    """Weil bound with explicit constant 1: |S(m,n;c)| <= tau(c) sqrt(c*(m,n,c)).

    Sweeps 2 <= c <= c_max (the modulus-1 sum is identically 1 and equals its
    bound, so it is excluded as trivial) over deterministic (m, n) samples
    plus the degenerate corners (0,0), (0,1), (1,1).  Reports the maximum
    observed ratio; any ratio >= 1 is a failure, not a tolerance bump.
    One kloosterman call per modulus holds trials_per_c * phi(c) phases.
    """
    if c_max > WEIL_C_MAX:
        raise ValueError(f"c_max above {WEIL_C_MAX} is out of contract")
    report = SweepReport(tested=0)
    for c in range(2, c_max + 1):
        rng = SplitMix64(seed * 7919 + c)
        tau_c = tau_k(c, 2)
        pairs = [(0, 0), (0, 1), (1, 1)]
        while len(pairs) < trials_per_c:
            pairs.append((rng.in_range(0, 3 * c), rng.in_range(0, 3 * c)))
        ms, ns = np.array(pairs[:trials_per_c], dtype=np.int64).reshape(-1, 2).T
        sums = kloosterman(ms, ns, c).tolist()
        for (m, n), s in zip(pairs, sums):
            g = math.gcd(math.gcd(m, n), c)
            ratio = abs(s) / (tau_c * math.sqrt(c * g))
            report.tested += 1
            if ratio > report.max_ratio:
                report.max_ratio = ratio
                report.witness = {"c": c, "m": m, "n": n, "abs": abs(s)}
            if ratio >= 1.0:
                report.failures.append({"c": c, "m": m, "n": n, "ratio": ratio})
    return report


def deligne_check(p_max: int) -> SweepReport:
    """Deligne bound: |Kl3(a; q)| <= tau_3(q) for every unit a of squarefree q.

    One sweep of the kl3_squarefree tables of the squarefree q <= 2 * p_max,
    primes only up to p_max.  A composite's ratio is a product of its
    primes' ratios, so the maximum ratio and its witness are a prime's.  A
    slack of 1e-9 absorbs float rounding only.
    """
    if p_max > DELIGNE_P_MAX:
        raise ValueError(f"p_max above {DELIGNE_P_MAX} is out of contract")
    report = SweepReport(tested=0)
    slack = 1e-9
    for f in map(factorize, range(2, 2 * p_max + 1)):
        if not f.is_squarefree() or (len(f.factors) == 1 and f.n > p_max):
            continue
        vals = np.abs(kl3_squarefree(f)[_unit_table(f.n)[1]])
        worst = float(vals.max())
        bound = float(tau_k(f, 3))
        report.tested += len(vals)
        if worst / bound > report.max_ratio:
            report.max_ratio = worst / bound
            report.witness = {"q": f.n, "abs": worst, "bound": bound}
        if worst > bound + slack:
            report.failures.append({"q": f.n, "abs": worst, "bound": bound})
    return report
