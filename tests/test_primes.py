import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

from apmod.buchstab import STEP, buchstab_omega, solve_buchstab
from apmod.primes import (
    LPF_SENTINEL,
    SEGMENT,
    least_prime_factor_table,
    pi,
    primes_in,
    rough_count,
    von_mangoldt,
    von_mangoldt_upto,
)
from apmod.rng import SplitMix64

EULER_GAMMA = 0.5772156649015329


def _trial_is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class TestPrimesIn:
    def test_empty(self):
        assert primes_in(0, 1) == []

    def test_small_window(self):
        assert primes_in(10, 20) == [11, 13, 17, 19]

    def test_count_to_100(self):
        assert len(primes_in(0, 100)) == 25

    def test_reversed_rejected(self):
        with pytest.raises(ValueError):
            primes_in(10, 5)

    def test_lo_below_minus_one_rejected(self):
        with pytest.raises(ValueError):
            primes_in(-2, 10)

    def test_lo_below_minus_one_rejected_on_empty_range(self):
        # checked before the hi < 2 early return, with a message naming lo
        with pytest.raises(ValueError, match="lo must be >= -1"):
            primes_in(-2, 1)

    @pytest.mark.parametrize("lo", [-1, 0, 1, 2, 3, 4])
    def test_low_starts(self, lo):
        for hi in range(lo, 100):
            assert primes_in(lo, hi) == [n for n in range(lo + 1, hi + 1) if _trial_is_prime(n)]

    def test_across_segment_seams(self):
        span = 2 * SEGMENT  # integers per odd-only segment
        ref = _eratosthenes(3 * span + 1100)
        for lo in (-1, 0, 1, 2, 3, 4, 1000, 1001):
            for width in (span - 1, span, span + 1, 2 * span, 2 * span + 1):
                hi = lo + width
                assert primes_in(lo, hi) == ref[(ref > lo) & (ref <= hi)].tolist()
        # from lo = 0 the odd segments start at 3, so one ends at k * span + 1
        # and the next starts at k * span + 3
        seams = [k * span + s for k in (1, 2) for s in (1, 2, 3, 4)]
        for n in seams + [span + 725, span + 726, span + 727, span + 728, 3 * span + 1025]:
            assert primes_in(0, n) == ref[ref <= n].tolist()

    def test_exhaustive_vs_trial_division(self):
        got = set(primes_in(0, 10**5))
        for n in range(10**5 + 1):
            assert (n in got) == _trial_is_prime(n)

    def test_membership_sampled(self):
        got = set(primes_in(10**6 - 1, 10**6 + 10**4))
        rng = SplitMix64(3)
        for _ in range(300):
            n = rng.in_range(10**6, 10**6 + 10**4)
            assert (n in got) == _is_prime_fast(n)

    @pytest.mark.parametrize("lo, hi", [(0, 0), (0, 2), (0, 300), (24, 28), (90, 97)])
    def test_small_ranges_exhaustive(self, lo, hi):
        assert primes_in(lo - 1, hi) == [n for n in range(lo, hi + 1) if _trial_is_prime(n)]

    def test_random_windows_below_1e9(self):
        rng = SplitMix64(13)
        for _ in range(1000):
            lo = rng.in_range(10**6, 10**9 - 200)
            hi = lo + 64
            got = primes_in(lo, hi)
            want = [n for n in range(lo + 1, hi + 1) if _is_prime_fast(n)]
            assert got == want


def _eratosthenes(n: int) -> np.ndarray:
    """Reference: primes <= n from one full-width sieve."""
    mask = np.ones(n + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.flatnonzero(mask)


def _is_prime_fast(n: int) -> bool:
    from apmod.arith import _is_prime_u64

    return _is_prime_u64(n)


class TestPi:
    def test_values(self):
        assert pi(1) == 0
        assert pi(100) == 25
        assert pi(10**6) == 78498

    def test_sieve_1e8_performance(self):
        import time

        t0 = time.time()
        assert pi(10**8) == 5761455
        assert time.time() - t0 < 10.0

    def test_monotone_and_consistent_with_windows(self):
        rng = SplitMix64(2)
        for _ in range(50):
            lo = rng.in_range(0, 5000)
            hi = lo + rng.in_range(0, 5000)
            assert pi(hi) - pi(lo) == len(primes_in(lo, hi))
            assert pi(hi) >= pi(lo)


def _trial_lpf(n: int) -> float:
    """P^-(n) by trial division; P^-(1) = +inf, and 0 at n = 0."""
    if n < 2:
        return math.inf if n == 1 else 0
    d = 2
    while d * d <= n:
        if n % d == 0:
            return d
        d += 1
    return n


LPF_LIMITS = [0, 1, 2, 3, 4, 25, 97, 1000, 4096, 20000]
TRIAL_LPF = np.array([_trial_lpf(k) for k in range(max(LPF_LIMITS) + 1)])
# the table stores P^-(1) = +inf as LPF_SENTINEL
TABLE_LPF = np.where(np.isinf(TRIAL_LPF), LPF_SENTINEL, TRIAL_LPF)


class TestLeastPrimeFactorTable:
    @pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
    def test_matches_trial_division_in_any_request_order(self, order, fresh_lpf_table):
        limits = sorted(LPF_LIMITS, reverse=order == "descending")
        if order == "shuffled":
            limits = [limits[i] for i in (5, 9, 0, 7, 2, 8, 1, 6, 4, 3)]
        for n in limits:
            assert np.array_equal(least_prime_factor_table(n), TABLE_LPF[: n + 1])
        for n in LPF_LIMITS:
            assert np.array_equal(least_prime_factor_table(n), TABLE_LPF[: n + 1])

    @pytest.mark.parametrize("limit", [0, 1, 1000])
    def test_four_bytes_per_entry(self, limit, fresh_lpf_table):
        lpf = least_prime_factor_table(limit)
        assert lpf.dtype == np.int32
        assert lpf.nbytes == 4 * (limit + 1)

    def test_limit_at_the_sentinel_refused_before_allocating(self, fresh_lpf_table):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="limit must be in"):
                least_prime_factor_table(2**31 - 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_read_only(self):
        lpf = least_prime_factor_table(100)
        with pytest.raises(ValueError):
            lpf[10] = 3

    def test_negative_limit_rejected(self):
        with pytest.raises(ValueError):
            least_prime_factor_table(-1)

    def test_smaller_request_is_a_view_of_the_larger(self, fresh_lpf_table):
        large = least_prime_factor_table(5000)
        small = least_prime_factor_table(300)
        assert len(small) == 301
        assert np.shares_memory(large, small)

    def test_growth_holds_one_table_at_a_time(self, fresh_lpf_table):
        # the old table is released before the larger one is built, so the
        # peak while growing from L to 2L is the new table, not old + new
        tracemalloc.start()
        try:
            least_prime_factor_table(100_000)
            tracemalloc.reset_peak()
            grown = least_prime_factor_table(200_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.2 * grown.nbytes


class TestVonMangoldt:
    def test_values(self):
        assert von_mangoldt(6) == 0.0
        assert von_mangoldt(8) == pytest.approx(math.log(2))
        assert von_mangoldt(97) == pytest.approx(math.log(97))
        assert von_mangoldt(1) == 0.0

    @pytest.mark.parametrize("n_max", [0, 1, 2, 4, 10**4])
    def test_upto_equals_per_n(self, n_max):
        # the one-pass table is the per-n value, bit for bit
        assert von_mangoldt_upto(n_max) == [0.0] + [von_mangoldt(n) for n in range(1, n_max + 1)]


class TestRoughCount:
    def test_trivia(self):
        assert rough_count(10, 11) == 1  # only n = 1
        assert rough_count(10, 10**19) == 1  # P^-(1) = +inf, past any table entry
        assert rough_count(57, 2) == 57

    def test_example(self):
        assert rough_count(100, 11) == 22

    def test_exhaustive_in_t(self):
        z = 11
        run = 0
        for t in range(1, 10**4 + 1):
            run += 1 if TRIAL_LPF[t] >= z else 0
            assert rough_count(t, z) == run

    @pytest.mark.parametrize("z", [2, 3, 7, 37, 97])
    def test_sampled_against_bruteforce(self, z):
        counts = np.cumsum(TRIAL_LPF[: 10**4 + 1] >= z)
        rng = SplitMix64(z)
        for _ in range(40):
            t = rng.in_range(1, 10**4)
            assert rough_count(t, z) == int(counts[t])

    def test_non_increasing_in_z(self):
        prev = None
        for z in (2, 3, 5, 7, 11, 31, 97):
            c = rough_count(5000, z)
            if prev is not None:
                assert c <= prev
            prev = c


def _buchstab_step_loop(u_max):
    """W = u * omega on the solver's grid up to u_max, one Simpson step at a
    time: the slow route the run-at-a-time solver must reproduce."""
    n = round((u_max - 1.0) / STEP)
    w = np.empty(n + 1)
    per_unit = round(1.0 / STEP)
    w[: per_unit + 1] = 1.0
    u = 1.0 + np.arange(n + 1) * STEP

    def w_hist(t, upto):
        idx = (t - 1.0) / STEP
        k = min(int(idx), upto - 1)
        frac = idx - k
        return (1 - frac) * w[k] + frac * w[k + 1]

    for k in range(per_unit, n):
        uk = u[k]
        g0 = w_hist(uk - 1.0, k) / (uk - 1.0)
        gm = w_hist(uk - 1.0 + STEP / 2, k) / (uk - 1.0 + STEP / 2)
        g1 = w_hist(uk - 1.0 + STEP, k) / (uk - 1.0 + STEP)
        w[k + 1] = w[k] + STEP / 6.0 * (g0 + 4.0 * gm + g1)
    return w


def _mp_omega(u):
    """omega(u) for u in [2, 4] in closed form, by mpmath at 30 digits."""
    with mp.workdps(30):
        u = mp.mpf(u)
        if u <= 3:
            return float((1 + mp.log(u - 1)) / u)
        integral = mp.quad(lambda t: (1 + mp.log(t - 2)) / (t - 1), [3, u])
        return float((1 + mp.log(2) + integral) / u)


class TestBuchstabOmega:
    def test_closed_form_first_interval(self):
        for u in np.linspace(1.0, 2.0, 101):
            assert abs(buchstab_omega(float(u)) - 1.0 / u) < 1e-6

    def test_closed_form_second_interval(self):
        for u in np.linspace(2.0001, 3.0, 101):
            want = (1.0 + math.log(u - 1.0)) / u
            assert abs(buchstab_omega(float(u)) - want) < 1e-6

    def test_omega_seven(self):
        w7 = buchstab_omega(7.0)
        assert w7 < 4.0 / 7.0
        assert 0.5609 < w7 < 0.5619
        assert abs(w7 - math.exp(-EULER_GAMMA)) < 1e-3

    def test_domain(self):
        with pytest.raises(ValueError):
            buchstab_omega(0.5)
        with pytest.raises(ValueError):
            buchstab_omega(21.0)

    def test_grid_continuity(self):
        grid = solve_buchstab()
        w = grid / (1.0 + np.arange(len(grid)) * STEP)
        assert np.all(np.abs(np.diff(w)) < 1e-3)

    def test_runs_equal_the_step_loop(self):
        # four run seams below u = 6; the grid is bit-for-bit the loop's
        want = _buchstab_step_loop(6.0)
        assert np.array_equal(solve_buchstab()[: len(want)], want)

    def test_matches_mpmath_on_two_to_four(self):
        # the 1e-6 contract; measured 4.4e-11
        for u in np.linspace(2.0, 4.0, 81):
            assert abs(buchstab_omega(float(u)) - _mp_omega(float(u))) < 1e-6, u

    def test_limit_value_far_out(self):
        assert abs(buchstab_omega(20.0) - math.exp(-EULER_GAMMA)) < 1e-9
