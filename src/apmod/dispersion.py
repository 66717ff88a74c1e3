"""Dispersion-method expansion of the smoothed mean-square discrepancy.

The opened-square sum over residue classes equals S1 - 2 Re(S2) + S3 with
the three dispersion sums carrying the SAME weights (no majorant extension
anywhere); this is pure algebra (|z|^2 = z conj(z) plus evaluation of the
residue-class sum) and is verified here by definition-level enumeration on
tiny instances.  One walk over (e, q, d) evaluates both sides, each into its
own accumulators, so neither side reuses a partial sum of the other.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .arith import euler_phi, mobius
from .completion import _support_range, psi0_eval


@dataclass
class DispersionInstance:
    """A tiny fully-explicit instance of the smoothed dispersion setup.

    Scales E, Q, D, R, N, M are all <= 30: e ~ E, d ~ D, r ~ R, n ~ N run
    over dyadic ranges (T, 2T]; q and m are smoothed by psi0(q/Q), psi0(m/M).
    alpha maps n to a complex weight, lam maps (q, d, r) triples.  The
    sequences eliminated by Cauchy-Schwarz before the square is opened do
    not enter the identity, so they are not carried.
    """

    a: int
    E: int
    Q: int
    D: int
    R: int
    N: int
    M: int
    alpha: dict[int, complex]
    lam: dict[tuple[int, int, int], complex]

    def ranges(self):
        dy = lambda T: range(T + 1, 2 * T + 1)  # noqa: E731
        sm = _support_range
        return dy(self.E), sm(self.Q), dy(self.D), dy(self.R), dy(self.N), sm(self.M)


@dataclass
class DispersionResult:
    lhs: float
    s1: float
    s2: complex
    s3: float

    @property
    def combination(self) -> float:
        return self.s1 - 2.0 * self.s2.real + self.s3

    @property
    def relative_error(self) -> float:
        denom = max(abs(self.lhs), abs(self.s1) + 2 * abs(self.s2) + abs(self.s3), 1e-300)
        return abs(self.lhs - self.combination) / denom


def _work_estimate(inst: DispersionInstance) -> int:
    """Loop steps of ``dispersion_expand``'s walk, an upper bound.

    Per (e, q, d): the opened square visits e residues b for each m, and sums
    over the (r, n) pairs at each; the dispersion sums visit the m for each
    (r1, r2) and for each (r1, r2, n1, n2).  Every loop level counts a step
    even when the level below it is empty, so an instance with no r or no n
    still pays for its (e, q, d, m, b) walk.
    """
    e_r, q_r, d_r, r_r, n_r, m_r = inst.ranges()
    r, n, m = len(r_r), len(n_r), len(m_r)
    per_eqd = 1 + r + m + r * r * (1 + m + n * (1 + n * (1 + m)))
    return len(q_r) * len(d_r) * (len(e_r) * per_eqd + sum(e_r) * m * (1 + r * n))


def dispersion_expand(inst: DispersionInstance) -> DispersionResult:
    """Evaluate the opened-square sum and the three dispersion sums directly.

    lhs  = sum over squarefree e ~ E, (q, a) = 1, d ~ D, (d, a) = 1, m with
           (m, q d) = 1, residues b mod q d e with b = a inv(m) mod q d and
           (b, q d e) = 1, of psi0(q/Q) psi0(m/M) |inner|^2, where

    inner = sum over r ~ R, (r, a e) = 1, n ~ N, (n, e) = 1 of
            lam[q,d,r] alpha[n] (1[m n = a mod q d r, n = b mod q d e]
                                 - 1[(m n, q d r) = 1] / phi(q d r e))

    and s1, s2, s3 are the same-weight sums produced by performing the b
    summation on the three indicator products.  Exact identity:
    lhs = s1 - 2 Re(s2) + s3.
    """
    if any(t > 30 for t in (inst.E, inst.Q, inst.D, inst.R, inst.N, inst.M)):
        raise ValueError("instance ranges must all be <= 30")
    if _work_estimate(inst) > 10**8:
        raise ValueError("instance too large for brute force (> 1e8 loop steps)")
    a = inst.a
    e_r, q_r, d_r, r_r, n_r, m_r = inst.ranges()
    qs = [(q, w) for q in q_r if math.gcd(q, a) == 1 and (w := psi0_eval(q / inst.Q)) != 0.0]
    ds = [d for d in d_r if math.gcd(d, a) == 1]
    ms = [(m, w) for m in m_r if (w := psi0_eval(m / inst.M)) != 0.0]
    alphas = [(n, an) for n in n_r if (an := inst.alpha.get(n, 0j)) != 0j]
    lhs = s1 = s3 = 0.0
    s2 = 0j
    for e in e_r:
        if mobius(e) == 0:
            continue
        ns = [(n, an) for n, an in alphas if math.gcd(n, e) == 1]
        for q, wq in qs:
            for d in ds:
                qd = q * d
                qde = qd * e
                lams = [
                    (r, lr, euler_phi(qd * r * e))
                    for r in r_r
                    if math.gcd(r, a * e) == 1 and (lr := inst.lam.get((q, d, r), 0j)) != 0j
                ]
                # lhs: the opened square over (m, b)
                for m, wm in ms:
                    if math.gcd(m, qd) != 1:
                        continue
                    for b in range(a * pow(m, -1, qd) % qd, qde, qd):
                        if math.gcd(b, qde) != 1:
                            continue
                        inner = 0j
                        for r, lr, phi_qdre in lams:
                            qdr = qd * r
                            for n, an in ns:
                                ind = (
                                    1.0
                                    if (m * n - a) % qdr == 0 and (n - b) % qde == 0
                                    else 0.0
                                )
                                cop = 1.0 / phi_qdre if math.gcd(m * n, qdr) == 1 else 0.0
                                inner += lr * an * (ind - cop)
                        lhs += wq * wm * abs(inner) ** 2
                # s1, s2, s3: the b-sum done on the three indicator products
                phi_qde = euler_phi(qde)
                phi_qd = euler_phi(qd)
                for r1, l1, phi1 in lams:
                    for r2, l2, phi2 in lams:
                        w_l = l1 * np.conj(l2)
                        # m-sums shared by all (n1, n2) pairs
                        m_cop = 0.0  # (m, q d r1 r2) = 1
                        for m, wm in ms:
                            if math.gcd(m, qd * r1 * r2) == 1:
                                m_cop += wm
                        for n1, a1 in ns:
                            if math.gcd(n1, qd * r1 * e) != 1:
                                continue
                            for n2, a2 in ns:
                                if math.gcd(n2, qd * r2 * e) != 1:
                                    continue
                                base = wq * w_l * (a1 * np.conj(a2))
                                s1 += (base * phi_qde / (phi_qd * phi1 * phi2) * m_cop).real
                                # S2 term: m n1 = a mod q d r1, (m, r2) = 1
                                m_s2 = 0.0
                                # S3 term: both congruences, n1 = n2 mod qde
                                m_s3 = 0.0
                                need_s3 = (n1 - n2) % qde == 0
                                for m, wm in ms:
                                    if (m * n1 - a) % (qd * r1) == 0:
                                        if math.gcd(m, r2) == 1:
                                            m_s2 += wm
                                        if need_s3 and (m * n2 - a) % (qd * r2) == 0:
                                            m_s3 += wm
                                s2 += base / phi2 * m_s2
                                if need_s3:
                                    s3 += (base * m_s3).real
    return DispersionResult(lhs=lhs, s1=s1, s2=complex(s2), s3=s3)


def fixed_seed_instances(count: int = 10, seed: int = 0) -> list[DispersionInstance]:
    """Deterministic family of tiny instances for the identity check."""
    from .rng import SplitMix64

    rng = SplitMix64(seed * 271828 + 17)
    out = []
    while len(out) < count:
        # odd residues and odd-capable r/n ranges keep the coprimality
        # filters against e = 2 from emptying the sums
        inst = DispersionInstance(
            a=2 * rng.in_range(0, 3) + 1, E=1, Q=rng.in_range(2, 4), D=1,
            R=rng.in_range(2, 3), N=rng.in_range(5, 9), M=rng.in_range(6, 12),
            alpha={}, lam={},
        )
        _, q_r, d_r, r_r, n_r, _ = inst.ranges()
        for n in n_r:
            inst.alpha[n] = complex(rng.in_range(-3, 3), rng.in_range(-3, 3))
        for key in itertools.product(q_r, d_r, r_r):
            inst.lam[key] = complex(rng.in_range(-2, 2), rng.in_range(-2, 2))
        live_r = any(math.gcd(r, 2 * inst.a) == 1 for r in r_r)
        if live_r and _work_estimate(inst) <= 10**7:
            out.append(inst)
    return out
