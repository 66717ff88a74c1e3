import math

import mpmath as mp
import numpy as np
import pytest

from apmod.completion import (
    QUAD_TOL,
    completed_ap_sum,
    completed_inverse_sum,
    coprime_smooth_sum,
    partition_of_unity,
    psi0_deriv_vec,
    psi0_eval,
    psi0_hat,
)
from apmod.rng import SplitMix64


class TestPsi0:
    def test_exact_zero_and_one_sets(self):
        for t in np.linspace(-1.0, 0.5, 2000):
            assert psi0_eval(float(t)) == 0.0
        for t in np.linspace(2.5, 4.0, 2000):
            assert psi0_eval(float(t)) == 0.0
        for t in np.linspace(1.0, 2.0, 2000):
            assert psi0_eval(float(t)) == 1.0

    def test_plateau_example(self):
        assert psi0_eval(1.5) == 1.0
        assert psi0_eval(0.3) == 0.0
        assert 0.0 < psi0_eval(0.75) < 1.0

    def test_strictly_monotone_ramps(self):
        # the exponentials saturate float64 within ~2e-2 of the ramp ends
        # (exp(-1/u) underflows at the foot, s rounds to 1.0 at the top), so
        # strictness is asserted on the representable interior and plain
        # monotonicity across the full ramps
        whole_up = [psi0_eval(t) for t in np.linspace(0.5, 1.0, 10**4)]
        assert all(b >= a for a, b in zip(whole_up, whole_up[1:]))
        whole_dn = [psi0_eval(t) for t in np.linspace(2.0, 2.5, 10**4)]
        assert all(b <= a for a, b in zip(whole_dn, whole_dn[1:]))
        up = [psi0_eval(t) for t in np.linspace(0.52, 0.98, 10**4)]
        assert all(b > a for a, b in zip(up, up[1:]))
        dn = [psi0_eval(t) for t in np.linspace(2.02, 2.48, 10**4)]
        assert all(b < a for a, b in zip(dn, dn[1:]))

    def test_range(self):
        for t in np.linspace(0.0, 3.0, 3001):
            assert 0.0 <= psi0_eval(float(t)) <= 1.0

    def test_finite_difference_derivatives(self):
        # orders 1-2: absolute 1e-4 at step 1e-4.  Order 3 at this step sits
        # on the float64 noise floor eps/h^3 ~ 1e-4 relative, so the match is
        # asserted relative to the derivative's magnitude.
        h = 1e-4
        pts = [0.6, 0.7, 0.75, 0.8, 0.9, 2.1, 2.2, 2.3, 2.4]
        a1, a2, a3 = (psi0_deriv_vec(pts, k) for k in (1, 2, 3))
        for t, e1, e2, e3 in zip(pts, a1, a2, a3):
            f = psi0_eval
            d1 = (f(t + h) - f(t - h)) / (2 * h)
            assert abs(d1 - e1) < 1e-4
            d2 = (f(t + h) - 2 * f(t) + f(t - h)) / h**2
            assert abs(d2 - e2) < 1e-4 * max(1.0, abs(e2))
            d3 = (f(t + 2 * h) - 2 * f(t + h) + 2 * f(t - h) - f(t - 2 * h)) / (
                2 * h**3
            )
            assert abs(d3 - e3) < 1e-4 * max(1.0, abs(e3))

    def test_deriv_zero_outside(self):
        for k in range(4):
            assert not psi0_deriv_vec([0.2, 3.0], k).any()


class TestPsi0Hat:
    def test_mass_between_one_and_two(self):
        v = psi0_hat(0.0)
        assert 1.0 <= v.real <= 2.0
        assert abs(v.imag) < 1e-12
        assert v.real == pytest.approx(1.5, abs=1e-9)  # ramps are antisymmetric

    def test_conjugate_symmetry(self):
        for xi in (0.3, 1.7, 5.2):
            assert psi0_hat(-xi) == pytest.approx(
                psi0_hat(xi).conjugate(), abs=1e-12
            )

    def test_decay(self):
        assert abs(psi0_hat(10.0)) <= 1e-2
        # |hat(xi)| * xi^2 stays bounded on a grid (integration by parts twice)
        vals = [abs(psi0_hat(xi)) * xi * xi for xi in np.linspace(1.0, 40.0, 79)]
        assert max(vals) < 10.0


def _mp_psi0_hat(xi):
    """psi0hat(xi) by mpmath quadrature at 30 digits, independent of apmod."""
    with mp.workdps(30):
        xi = mp.mpf(xi)

        def s(u):
            g, h = mp.exp(-1 / u), mp.exp(-1 / (1 - u))
            return g / (g + h)

        def e(t):
            return mp.expjpi(-2 * xi * t)

        plateau = mp.quad(e, [1, 2])
        up = mp.quad(lambda t: s(2 * t - 1) * e(t), mp.linspace(0.5, 1, 5))
        down = mp.quad(lambda t: s(5 - 2 * t) * e(t), mp.linspace(2, 2.5, 5))
        return complex(plateau + up + down)


class TestPsi0HatOracle:
    @pytest.mark.parametrize("xi", [0.0, 0.3, 2.5, 7.0, 20.0])
    def test_matches_mpmath(self, xi):
        # QUAD_TOL per ramp; measured 1.6e-15 at xi = 0
        assert abs(psi0_hat(xi) - _mp_psi0_hat(xi)) <= 2 * QUAD_TOL


class TestPartitionOfUnity:
    def test_sum_is_one_on_core(self):
        pieces = partition_of_unity(3.0, 50.0)
        L = math.log(50.0) ** 3
        assert len(pieces) <= L + 2
        for t in np.linspace(1.0, 2.0, 1000):
            s = sum(float(p(float(t))) for p in pieces)
            assert abs(s - 1.0) <= 1e-9

    def test_vanishing_outside_fattening(self):
        pieces = partition_of_unity(3.0, 50.0)
        L = math.log(50.0) ** 3
        for t in (1.0 - 1.0 / L, 0.5, 2.0 + 1.0 / L, 3.0):
            s = sum(float(p(float(t))) for p in pieces)
            assert s == 0.0 or t > 1.0 - 1.0 / L and t < 2.0 + 1.0 / L

    def test_bounded_between(self):
        pieces = partition_of_unity(3.0, 20.0)
        for t in np.linspace(0.9, 2.1, 500):
            s = sum(float(p(float(t))) for p in pieces)
            assert -1e-12 <= s <= 1.0 + 1e-12

    def test_pieces_nonnegative(self):
        pieces = partition_of_unity(4.0, 10.0)
        for p in pieces:
            for t in np.linspace(0.9, 2.2, 400):
                assert float(p(float(t))) >= 0.0

    def test_c_validation(self):
        with pytest.raises(ValueError):
            partition_of_unity(2.0, 100.0)


class TestCompletedApSum:
    def test_q1_small_error(self):
        r = completed_ap_sum(100.0, 1, 0, 5)
        assert r.error < 1e-6

    def test_example(self):
        r = completed_ap_sum(100.0, 7, 3, 100)
        assert r.error < 1e-6

    def test_error_nonincreasing_in_h(self):
        M, q, a = 100.0, 31, 4
        h0 = max(1, math.ceil(q / M * math.log(M) ** 5))
        prev = None
        h = h0
        for _ in range(6):
            err = completed_ap_sum(M, q, a, h).error
            if prev is not None:
                assert err <= prev + 1e-9
            prev = err
            h *= 2

    def test_criterion_grid(self):
        for M in (100.0, 1000.0, 10000.0):
            for q in (3, 7, 30, 210):
                H = math.ceil(10 * q * math.log(M) ** 2 / M)
                r = completed_ap_sum(M, q, 2 % q, H)
                assert r.error < 1e-8, (M, q, H, r.error)


def _inverse_instances(count=20, seed=0):
    rng = SplitMix64(seed * 613 + 5)
    out = []
    while len(out) < count:
        N = float(rng.in_range(100, 400))
        q = rng.in_range(3, 17)
        d = rng.in_range(1, 9)
        if math.gcd(d, q) != 1:
            continue
        n0 = rng.in_range(0, d - 1) if d > 1 else 0
        b = rng.in_range(1, q - 1) if q > 1 else 0
        H = max(20, math.ceil(60.0 * d * q / N))
        out.append((N, q, d, n0, b, H))
    return out


class TestCompletedInverseSum:
    def test_degenerate_phase(self):
        # b = 0 mod q: the exponential is 1
        r = completed_inverse_sum(150.0, 5, 2, 1, 0, 60)
        assert r.error < 1e-6

    def test_example(self):
        r = completed_inverse_sum(200.0, 5, 3, 1, 2, 100)
        assert r.error < 1e-6

    def test_non_coprime_rejected(self):
        with pytest.raises(ValueError):
            completed_inverse_sum(100.0, 6, 3, 1, 1, 10)

    def test_twenty_instances(self):
        for inst in _inverse_instances():
            N, q, d, n0, b, H = inst
            r = completed_inverse_sum(N, q, d, n0, b, H)
            assert r.error < 1e-6, inst

    def test_monotone_in_h(self):
        for inst in _inverse_instances(5, seed=3):
            N, q, d, n0, b, _ = inst
            prev = None
            h = 2
            for _ in range(7):
                err = completed_inverse_sum(N, q, d, n0, b, h).error
                if prev is not None:
                    assert err <= prev + 1e-9, (inst, h)
                prev = err
                h *= 2

    def test_h0_vs_h100(self):
        r0 = completed_inverse_sum(200.0, 13, 7, 1, 2, 0)
        r100 = completed_inverse_sum(200.0, 13, 7, 1, 2, 100)
        assert r0.error > r100.error

    def test_exact_matches_direct_enumeration(self):
        from apmod.arith import mod_inv

        for N, q, b in ((150.0, 11, 3), (200.0, 12, 5), (120.0, 17, 0)):
            r = completed_inverse_sum(N, q, 1, 0, b, 12)
            direct = 0j
            for n in range(1, math.ceil(2.5 * N) + 1):
                if math.gcd(n, q) != 1:
                    continue
                w = psi0_eval(n / N)
                if w:
                    direct += w * np.exp(2j * np.pi * ((b * mod_inv(n, q)) % q) / q)
            assert abs(r.exact - direct) < 1e-9
            assert r.error < 1e-6


class TestCoprimeSmoothSum:
    def test_q1(self):
        r = coprime_smooth_sum(10**4, 1)
        assert r.error < 1e-3

    def test_q6_envelope(self):
        r = coprime_smooth_sum(1000.0, 6)
        assert r.error <= 16.0  # 4 * tau(6), generous explicit envelope

    def test_empty_support(self):
        r = coprime_smooth_sum(0.3, 5)
        assert r.exact == 0.0
