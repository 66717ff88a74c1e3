import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from apmod.arith import _trial_primes, euler_phi, factorize
from apmod.constants import (
    BV_DYADIC_100_200_TOTAL_1E6,
    EXCEPTIONAL_FRACTION_Q512,
)
import apmod.primes
import apmod.progressions
from apmod.identities import ReductionSequences
from apmod.primes import SEGMENT, lpf_bound, pi, prime_bitmap, primes_in, rough_count
from apmod.progressions import (
    _CHUNK,
    _ROW,
    _SPARSE,
    Q_MAX,
    SValue,
    bifactor_box_family,
    box_constraints,
    bv_aggregate,
    divisor_window,
    divisor_window_family,
    dyadic_family,
    exceptional_fraction,
    pi_ap,
    s_value,
    s_values,
)
from apmod.rng import SplitMix64
from test_primes import TRIAL_LPF


class TestPiAp:
    def test_full_progression(self):
        assert pi_ap(100, 1, 0) == 25

    def test_examples(self):
        assert pi_ap(20, 3, 2) == 4  # 2, 5, 11, 17
        assert pi_ap(100, 4, 1) == 11

    def test_non_unit_residue_allowed(self):
        assert pi_ap(100, 10, 5) == 1  # only p = 5

    def test_up_to_q_max(self):
        # q > x: the class of a holds the one prime a, or nothing
        assert pi_ap(1000, Q_MAX - 1, 997) == 1 and pi_ap(1000, Q_MAX - 1, 999) == 0
        with pytest.raises(ValueError, match="modulus must be in"):
            pi_ap(1000, Q_MAX + 1, 3)

    def test_unit_sum_identity(self):
        # sum over units a of pi(x; q, a) = pi(x) - #{p | q}, for x >= q^2
        for x in (2500, 10**4):
            for q in range(1, 51):
                if x < q * q:
                    continue
                total = sum(
                    pi_ap(x, q, a) for a in range(q) if math.gcd(a, q) == 1
                )
                prime_divisors = sum(1 for p in primes_in(0, q) if q % p == 0)
                assert total == len(primes_in(0, x)) - prime_divisors


class TestSValue:
    def test_trivial_modulus(self):
        sv = s_value(20, 1, 6, 1, 1, 0)
        assert sv.in_class == sv.coprime and sv.phi_q == 1
        assert sv.value == 0

    def test_example(self):
        sv = s_value(20, 1, 6, 3, 1, 1)
        assert sv.triple() == (2, 4, 2)
        assert sv.value == 0

    def test_empty_range(self):
        sv = s_value(20, 50, 2, 3, 1, 1)
        assert sv.triple() == (0, 0, 2)

    def test_non_coprime_rejected(self):
        with pytest.raises(ValueError):
            s_value(20, 1, 2, 6, 1, 3)

    def test_partition_additivity(self):
        # a kernel call over a term list equals the sum over its two halves
        # and the sum of one-term calls
        rng = SplitMix64(9)
        for _ in range(25):
            x = rng.in_range(50, 2000)
            q1, q2 = rng.in_range(1, 6), rng.in_range(1, 5)
            a = next(
                v for v in range(q1 * q2) if math.gcd(v, q1 * q2) == 1
            ) if q1 * q2 > 1 else 0
            terms = [
                (rng.in_range(1, 60), 1.5 + rng.unit() * 10, rng.below(2) == 1)
                for _ in range(rng.in_range(0, 12))
            ]
            cut = rng.in_range(0, len(terms))
            whole = s_values(x, terms, q1, q2, a)[2]
            halves = s_values(x, terms[:cut], q1, q2, a)[2] + s_values(x, terms[cut:], q1, q2, a)[2]
            singles = SValue.zero(euler_phi(q1 * q2))
            for d, z, inclusive in terms:
                singles = singles + s_value(x, d, z, q1, q2, a, inclusive=inclusive)
            assert whole.triple() == halves.triple() == singles.triple()

    def test_addition_requires_same_modulus(self):
        with pytest.raises(ValueError):
            SValue(1, 1, 2) + SValue(1, 1, 4)

    def test_inclusive_threshold_semantics(self):
        # for a prime threshold p, inclusive P^- >= p equals strict P^- > p-1
        rng = SplitMix64(21)
        for _ in range(20):
            x = rng.in_range(100, 3000)
            d = rng.in_range(1, 3)
            p = (2, 3, 5, 7, 11, 13)[rng.below(6)]
            inc = s_value(x, d, p, 3, 1, 1, inclusive=True)
            strict_below = s_value(x, d, p - 0.5, 3, 1, 1)
            assert inc.triple() == strict_below.triple()
            # and it differs from the strict version whenever multiples of p
            # with rough cofactor fall in range
            strict = s_value(x, d, p, 3, 1, 1)
            assert inc.in_class >= strict.in_class


def _brute_s(x, d, z, inclusive, q, a):
    """(in_class, coprime) of S_d(z) by a per-n loop over the trial-division LPF."""
    in_class = coprime = 0
    for n in range(x // d + 1, 2 * x // d + 1):
        p = TRIAL_LPF[n]  # P^-(1) = +inf
        if p >= z if inclusive else p > z:
            in_class += d * n % q == a % q
            coprime += math.gcd(d * n, q) == 1
    return in_class, coprime


def _is_wide(x, d):
    """Whether s_values reads the window (x/d, 2x/d] on its strided path."""
    return 2 * x // d - x // d >= apmod.progressions._WIDE


class TestSValuesOracle:
    """s_values against _brute_s, per term."""

    def check(self, x, terms, q1, q2, a):
        in_class, coprime, total = s_values(x, terms, q1, q2, a)
        want = [_brute_s(x, d, z, inc, q1 * q2, a) for d, z, inc in terms]
        assert list(zip(in_class.tolist(), coprime.tolist())) == want
        assert total.triple() == (
            sum(w[0] for w in want), sum(w[1] for w in want), euler_phi(q1 * q2)
        )

    @pytest.mark.parametrize("inclusive", [False, True])
    def test_integer_thresholds(self, inclusive):
        # P^- >= z against P^- > z at integer z, prime and composite
        for z in (2, 3, 4, 5, 6, 7, 11, 12.0):
            self.check(3000, [(d, z, inclusive) for d in (1, 2, 3, 7, 40)], 5, 2, 3)

    def test_windows_holding_one(self):
        # d in (x, 2x] leaves the window {1}, and P^-(1) is +infinity
        x = 500
        self.check(x, [(d, z, inc) for d in (x + 1, 2 * x - 1, 2 * x) for z in (2, 1e9)
                       for inc in (False, True)], 3, 1, 2)

    def test_empty_windows_and_unit_modulus(self):
        x = 400
        self.check(x, [(2 * x + 1, 2, False), (10**6, 3, True)], 3, 1, 1)
        self.check(x, [(1, 5, False), (3, 7, True), (2 * x + 5, 2, False)], 1, 1, 0)
        assert s_values(x, [], 4, 3, 5)[2].triple() == (0, 0, 4)

    def test_thresholds_past_the_table(self):
        # z = +-inf, nan and z above the P^-(1) sentinel compare as floats do
        x = 300
        self.check(x, [(d, z, inc) for d in (1, 7, x + 1)
                       for z in (math.inf, -math.inf, math.nan, 1e30, -1e30, 2.0**63)
                       for inc in (False, True)], 5, 1, 2)

    def test_huge_modulus(self):
        # nothing on either path is sized by q = 2^6 5^6 101 9901: the d = 1
        # windows are read by strided slices, the d = 5 one gathered, by n % q
        # and n % p for the four primes p of q; the prime 1009 is in the d = 1
        # windows
        terms = [(1, 3, False), (5, 2, True), (1, 1e9, False)]
        assert [_is_wide(1000, d) for d, _, _ in terms] == [True, False, True]
        for a in (7, 1009):
            self.check(1000, terms, 10**6, 10**6 + 1, a)

    @pytest.mark.parametrize("q1, q2", [(30, 1), (7, 12), (9, 10)])
    def test_three_prime_factors(self, q1, q2):
        # three primes struck from the coprime count; d = 1, 2, 7, 11 read
        # wide windows, the rest narrow ones, and d sharing a prime with q adds 0
        x, q = 3000, q1 * q2
        ds = (1, 2, 7, 11, 13, 40, 300)
        assert [_is_wide(x, d) for d in ds] == [True] * 4 + [False] * 3
        for a in (1, 11, q - 1):
            self.check(x, [(d, z, inc) for d in ds for z, inc in ((2, False), (5, True))],
                       q1, q2, a)

    def test_d_sharing_a_prime_with_q_on_a_wide_window(self):
        # d*n = a mod q and (d*n, q) = 1 both need (d, q) = 1
        x, q1, q2 = 20_000, 6, 5
        terms = [(d, z, inc) for d in (2, 3, 5, 6, 10) for z, inc in ((1, False), (7, True))]
        assert all(_is_wide(x, d) for d, _, _ in terms)
        in_class, coprime, total = s_values(x, terms, q1, q2, 7)
        assert not in_class.any() and not coprime.any()
        assert total.triple() == (0, 0, 8)
        self.check(x, terms + [(7, 3, False)], q1, q2, 7)

    @pytest.mark.parametrize("q1, q2, a", [(1, 1, 0), (2, 1, 1)])
    def test_tiny_moduli_on_the_wide_path(self, q1, q2, a):
        x = 2000
        terms = [(d, z, inc) for d in (1, 2, 3, 5) for z, inc in ((1, False), (3, True), (11, False))]
        assert all(_is_wide(x, d) for d, _, _ in terms)
        self.check(x, terms, q1, q2, a)

    @pytest.mark.parametrize("width_offset", [-1, 0, 1])
    @pytest.mark.parametrize("q1, q2, a", [(1, 1, 0), (3, 1, 2), (12, 8, 35), (30, 7, 11)])
    def test_wide_cutoff_seam(self, width_offset, q1, q2, a, monkeypatch):
        # the window (x, 2x] holds x integers, on the strided path from _WIDE
        # on, whatever omega(q); the narrow windows are the ones gathered
        x = apmod.progressions._WIDE + width_offset
        assert _is_wide(x, 1) == (width_offset >= 0)
        gathered, batches = [], apmod.progressions._window_batches
        monkeypatch.setattr(apmod.progressions, "_window_batches",
                            lambda lo, hi: gathered.extend(hi - lo + 1) or batches(lo, hi))
        self.check(x, [(1, 3, False), (1, 5, True), (11, 7, False)], q1, q2, a)
        assert gathered == [x, x, 2 * x // 11 - x // 11][2 * _is_wide(x, 1):]

    @pytest.mark.parametrize("width_offset", [-1, 0, 1])
    @pytest.mark.parametrize(
        "q1, q2, a", [(1, 1, 0), (8, 1, 3), (9, 1, 2), (49, 1, 5), (2, 5, 3), (7, 12, 5), (97, 6, 5)]
    )
    def test_largest_prime_of_q_seam(self, q1, q2, a, width_offset):
        # b = P^+(q) strikes the multiples of the primes of q from the
        # survivors, b = P^+(q) + 1 counts every survivor as coprime; strict
        # and inclusive, at the prime P^+(q), on a window of _WIDE - 1, _WIDE
        # or _WIDE + 1 integers (d = 1) and on narrow ones, some with (d, q) > 1
        big = max((p for p, _ in factorize(q1 * q2).factors), default=1)
        seam = [(big - 1, False), (big, True), (big, False), (big + 1, True)]
        assert [lpf_bound(z, inc) for z, inc in seam] == [big, big, big + 1, big + 1]
        x = apmod.progressions._WIDE + width_offset
        ds = (1, 2, 3, 5, 7, 11, 97)
        assert [_is_wide(x, d) for d in ds] == [width_offset >= 0] + [False] * 6
        self.check(x, [(d, z, inc) for d in ds for z, inc in seam], q1, q2, a)

    @pytest.mark.parametrize("q1, q2, a", [(1, 1, 0), (30, 1, 7), (7, 12, 5), (97, 6, 5)])
    def test_struck_primes_across_segment_edges(self, q1, q2, a, monkeypatch):
        # with SEGMENT = 300 the wide windows (5000, 1667 and 714 integers)
        # run over several chunks, each striking the multiples of the primes
        # of q from its own offset, and batch edges cut the narrow ones
        monkeypatch.setattr(apmod.progressions, "SEGMENT", 300)
        x, ds = 5000, (1, 3, 7, 19, 23, 29, 40)
        assert [_is_wide(x, d) for d in ds] == [True] * 4 + [False] * 3
        seams = ((2, True), (3, False), (5, True), (97, False), (97, True), (1e9, True))
        self.check(x, [(d, z, inc) for d in ds for z, inc in seams], q1, q2, a)

    def test_python_ints_past_int64(self):
        # a huge x or d is kept exact: d past int64, x past it with empty
        # windows and with the windows (10, 20] and (4096, 8192], and
        # windows past the LPF table's limit, read only when (d, q) = 1
        self.check(10**6, [(10**30, 5, False), (101, 5, True)], 3, 1, 1)
        self.check(-10**30, [(1, 2, False), (10**31, 3, True)], 3, 1, 1)
        self.check(10**30, [(10**29, 1, False), (10**29, 3, True), (3 * 10**28, 5, False),
                            (10**31, 2, False)], 7, 1, 3)
        self.check(2**62 + 5, [(2**50, 3, False), (2**50 + 1, 2, True), (2**64, 1, False)],
                   5, 1, 2)
        assert s_values(2**62, [(5, 2, False), (2**64, 1, False)], 5, 1, 2)[2].triple() == (0, 0, 4)
        with pytest.raises(ValueError, match="limit must be in"):
            s_values(2**62, [(3, 2, False)], 5, 1, 2)

    def test_pinned_answers(self):
        # pinned answers: d past int64, x past it with only empty windows, a
        # modulus near 10^18, and z = +-inf and nan on windows of 300, 43 and
        # 1 integers
        assert s_values(10**6, [(10**30, 5, False)], 3, 1, 1)[2].triple() == (0, 0, 2)
        assert s_values(10**30, [(10**31, 5, False)], 1, 1, 0)[2].triple() == (0, 0, 1)
        assert s_values(10**5, [(1, 5, False)], 10**9 + 7, 10**9 + 9, 1)[2].triple() == (
            0, 26668, 1000000014000000048)
        terms = [(d, z, inc) for d in (1, 7, 301) for z in (math.inf, -math.inf, math.nan)
                 for inc in (False, True)]
        in_class, coprime, total = s_values(300, terms, 5, 1, 2)
        assert in_class.tolist() == [0, 0, 60, 60, 0, 0, 0, 0, 8, 8, 0, 0] + [0] * 6
        assert coprime.tolist() == [0, 0, 240, 240, 0, 0, 0, 0, 34, 34, 0, 0, 0, 1, 1, 1, 0, 0]
        assert total.triple() == (136, 551, 4)

    def test_batches_cross_segment(self):
        # 600 windows of width 2000 overrun one SEGMENT batch, and one window
        # straddles the seam
        x = 10_000
        terms = [(5, z, inc) for z, inc in ((3, False), (7, True), (2.5, True))] * 200
        assert 600 * (2 * x // 5 - x // 5) > SEGMENT
        self.check(x, terms, 7, 1, 3)

    def test_small_segment_batches(self, monkeypatch):
        # with a tiny SEGMENT, wide windows are read in many chunks and
        # narrow ones in many batches, most of them cutting a window; a
        # window is wide from 20 integers on
        monkeypatch.setattr(apmod.progressions, "SEGMENT", 97)
        monkeypatch.setattr(apmod.progressions, "_WIDE", 20)
        rng = SplitMix64(17)
        for _ in range(20):
            x = rng.in_range(1, 5000)
            q1, q2 = rng.in_range(1, 9), rng.in_range(1, 4)
            a = next(v for v in range(q1 * q2) if math.gcd(v, q1 * q2) == 1) if q1 * q2 > 1 else 0
            terms = [
                ((2 * x + 2) // rng.in_range(1, 2 * x + 2), rng.in_range(1, 14) / 2,
                 rng.below(2) == 1)
                for _ in range(rng.in_range(0, 15))
            ]
            self.check(x, terms, q1, q2, a)


class TestWindowBatches:
    """_window_batches against the windows laid out one by one."""

    @staticmethod
    def layout(total):
        """(lo, hi) of seven windows totalling ``total`` integers: empty ones
        (hi < lo) first, in the middle and last, and the last nonempty one
        starting at position SEGMENT - 47, so it straddles the batch edge
        when total > SEGMENT."""
        lo = np.array([5, 900, 10, 3, 77, 50, 1])
        sizes = np.array([-2, -1, SEGMENT - 50, 0, 3, total - SEGMENT + 47, -3])
        return lo, lo + sizes - 1

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_every_pair_once_in_window_order(self, offset):
        lo, hi = self.layout(SEGMENT + offset)
        batches = list(apmod.progressions._window_batches(lo, hi))
        assert all(0 < len(t) == len(n) <= SEGMENT for t, n in batches)
        assert len(batches) == (2 if offset > 0 else 1)
        if offset > 0:  # the window ending the layout straddles the batch edge
            assert batches[0][0][-1] == batches[1][0][0] == 5
        widths = np.maximum(hi - lo + 1, 0)
        assert widths.sum() == SEGMENT + offset
        want_t = np.repeat(np.arange(len(lo)), widths)
        want_n = np.concatenate([np.arange(a, b + 1) for a, b in zip(lo, hi)])
        assert np.array_equal(np.concatenate([t for t, _ in batches]), want_t)
        assert np.array_equal(np.concatenate([n for _, n in batches]), want_n)

    def test_no_windows(self):
        empty = np.array([], dtype=np.int64)
        assert list(apmod.progressions._window_batches(empty, empty)) == []

    def test_readers_match_per_n_loops(self, monkeypatch):
        # windows (x/d, 2x/d] of 300, 100, 1 (n = 1 alone), 43 and 150
        # integers around three empty ones; a 593-integer batch cuts the last
        x = 300
        ds = [1000, 1, 3, 1000, 400, 7, 2, 1000]
        zs = [2, 3, 5.5, 7, 2, 2, 151, 3]
        monkeypatch.setattr(apmod.progressions, "SEGMENT", 593)
        assert sum(max(2 * x // d - x // d, 0) for d in ds) == 594
        self.check_s_values(x, [(d, z, i % 2 == 0) for i, (d, z) in enumerate(zip(ds, zs))])
        self.check_census(x, [(d, z, True) for d, z in zip(ds, zs) if z == int(z)])

    @staticmethod
    def check_s_values(x, terms):
        in_class, coprime, _ = s_values(x, terms, 11, 1, 4)
        want = [_brute_s(x, d, z, inc, 11, 4) for d, z, inc in terms]
        assert list(zip(in_class.tolist(), coprime.tolist())) == want

    @staticmethod
    def check_census(x, terms):
        from apmod.harman import _cofactor_census

        want = [0] * 5
        for d, z, _ in terms:
            for m in range(x // d + 1, 2 * x // d + 1):
                pm = TRIAL_LPF[m]
                if pm < z:
                    continue
                if m == 1:
                    want[0] += 1
                elif pm == m:
                    want[1] += m == z
                else:
                    cof = m // int(pm)
                    want[2] += 1
                    want[3] += TRIAL_LPF[cof] != cof
                    want[4] += TRIAL_LPF[cof] == cof and pm == z
        assert _cofactor_census(x, terms) == tuple(want)


@pytest.mark.parametrize("inclusive", [False, True])
@pytest.mark.parametrize("z", [2**31 - 2, 2**31 - 1, 2**31, 3e9, 1e30, 2.0**63, math.inf])
def test_pminus_one_across_the_sentinel(z, inclusive):
    """n = 1 passes z exactly when math.inf does, on every route that reads it."""
    want = math.inf >= z if inclusive else math.inf > z
    x = 300
    # d in (x, 2x] leaves the window {1}
    in_class, coprime, _ = s_values(x, [(x + 1, z, inclusive), (2 * x, z, inclusive)], 1, 1, 0)
    assert in_class.tolist() == coprime.tolist() == [want, want]
    if inclusive:
        assert rough_count(10, z) == want
    else:
        # the sequences reduction_sequences(z, z, 1) gives, without sieving to z
        rs = ReductionSequences(z1=z, z2=z, y=1, alpha={1: 1})
        lhs, rhs = rs.identity_sides(10)
        assert lhs[1] == rhs[1] == rs.rhs_at(1) == want
        assert not rhs[2:].any()


class TestBvAggregate:
    def test_trivial_family(self):
        pix, counts, phis, total = bv_aggregate(100, 1, dyadic_family(1, 1, 1))
        assert total == 0 and pix == 25
        assert counts.tolist() == [25] and phis.tolist() == [1]

    def test_box_example(self):
        q1, q2 = bifactor_box_family(1, 3, 1)
        pix, counts, phis, total = bv_aggregate(100, 1, q1 * q2)
        assert total == Fraction(5, 2)
        assert (q1 * q2).tolist() == [1, 2, 3]
        assert counts.tolist() == [25, 24, 11] and phis.tolist() == [1, 1, 2]

    def test_box_constraints_reported_not_enforced(self):
        cons = box_constraints(100, 50, 50)
        assert set(len(k.split("<")) for k in cons) == {2}
        assert any(not ok for ok in cons.values())  # violated at this shape
        q1, q2 = bifactor_box_family(50, 50, 1)
        assert len(q1) == len(q2) == 50 * 50  # but the family is still realized
        assert all(box_constraints(10**6, 2, 3).values())

    @pytest.mark.parametrize(
        "name, x, q1, q2",
        [
            ("Q1*Q2^2<x^(1-100eps)", 5 * 81**2, 5, 81),
            ("Q1^12*Q2^7<x^(4-100eps)", 273375, 5, 81),  # 5^12 81^7 = 273375^4
            ("Q1^20*Q2^19<x^(10-100eps)", 3**21, 3, 3**10),  # the 11/21 vertex
        ],
    )
    def test_box_constraints_exact_at_equality(self, name, x, q1, q2):
        # each constraint is strict: false at equality, true with x one above
        assert box_constraints(x, q1, q2)[name] is False
        assert box_constraints(x + 1, q1, q2)[name] is True

    def test_box_constraints_past_float_precision(self):
        # 2^53 + 1 rounds to the float 2^53, so a float x would fail this one
        assert box_constraints(2**53 + 1, 2**53, 1)["Q1*Q2^2<x^(1-100eps)"] is True

    def test_box_family_is_q1_major(self):
        q1, q2 = bifactor_box_family(4, 6, 5)
        assert q1.dtype == q2.dtype == np.int64
        want = [(a, b) for a in (1, 2, 3, 4) for b in (1, 2, 3, 4, 6)]
        assert list(zip(q1.tolist(), q2.tolist())) == want

    def test_dyadic_regression_1e6(self):
        _, _, _, total = bv_aggregate(10**6, 1, dyadic_family(100, 200, 1))
        assert float(total) == pytest.approx(BV_DYADIC_100_200_TOTAL_1E6, abs=1e-9)

    @pytest.mark.parametrize(
        "x, family",
        [
            (10**6, (1, dyadic_family(100, 200, 1))),
            (1000, (1, dyadic_family(1, 3000, 1))),
            (30_000, (10, dyadic_family(7, 500, 10))),
            (2 * SEGMENT + 1, (5, np.prod(bifactor_box_family(12, 9, 5), axis=0))),
        ],
    )
    def test_total_is_the_fraction_sum(self, x, family):
        a, moduli = family
        pix, counts, phis, total = bv_aggregate(x, a, moduli)
        assert pix == pi(x)
        assert phis.tolist() == [euler_phi(q) for q in moduli.tolist()]
        deltas = [abs(c - Fraction(pix, f)) for c, f in zip(counts.tolist(), phis.tolist())]
        assert total == sum(deltas, Fraction(0))

    def test_box_family_with_repeated_moduli(self):
        x = 2 * SEGMENT + 1
        for a in (1, 5):
            q1, q2 = bifactor_box_family(6, 6, a)
            qs = q1 * q2
            _, counts, _, _ = bv_aggregate(x, a, qs)
            assert len(counts) == len(qs) > len(set(qs.tolist()))  # e.g. 2*3 and 3*2
            assert counts.tolist() == [pi_ap(x, q, a % q) for q in qs.tolist()]

    @pytest.mark.parametrize(
        "moduli, a, msg",
        [
            ([3, 0, 5], 1, "moduli must be in [1,"),
            ([-4], 1, "moduli must be in [1,"),
            ([1, Q_MAX + 1], 1, "moduli must be in [1,"),
            ([5, 7, 9, 4], 6, "residue 6 not coprime to modulus 9"),
            ([10], -4, "residue -4 not coprime to modulus 10"),
        ],
    )
    def test_refuses_bad_moduli(self, moduli, a, msg):
        with pytest.raises(ValueError, match=re.escape(msg)):
            bv_aggregate(1000, a, moduli)

    def test_moduli_in_input_order(self):
        qs = [9, 4, 9, 1, 4, 7]
        _, counts, phis, _ = bv_aggregate(1000, 5, qs)
        assert counts.tolist() == [pi_ap(1000, q, 5 % q) for q in qs]
        assert phis.tolist() == [6, 2, 6, 1, 2, 6]

    def test_sparse_moduli_allocate_no_span(self):
        # phi(q) is sieved one 2^16-aligned block of moduli at a time, so
        # moduli from 3 to 2^58 - 5 take windows of width 1 or 6, not the span
        qs = np.array([3, Q_MAX - 5, 2**40 + 1, 3, SEGMENT - 1, SEGMENT + 1, Q_MAX])
        bv_aggregate(1000, 1, qs[:1])  # the cached bitmap of x = 1000
        tracemalloc.start()
        try:
            _, counts, phis, _ = bv_aggregate(1000, 1, qs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert phis.tolist() == [euler_phi(q) for q in qs.tolist()]
        assert counts.tolist() == [pi_ap(1000, q, 1) for q in qs.tolist()]
        assert peak < 1 << 18

    def test_passes_cross_segment_and_chunk_edges(self):
        # more than 2^16 moduli (two passes), in blocks on both sides of 2^20
        edge = dyadic_family(SEGMENT - 300, SEGMENT + 300, 7)
        reps = -(-(1 << 16) // len(edge)) + 1
        qs = np.tile(edge, reps)
        _, counts, phis, total = bv_aggregate(1000, 7, qs)
        phi = {q: euler_phi(q) for q in edge.tolist()}
        assert len(qs) > 1 << 16 and phis.tolist() == [phi[q] for q in qs.tolist()]
        assert counts.tolist() == [1] * len(qs)  # only the prime 7 itself
        assert total == reps * sum(Fraction(abs(f - 168), f) for f in phi.values())


# bit k of prime_bitmap(x) stands for 2k + 1, so the SEGMENT-bit blocks the
# bitmap is packed in meet at multiples of 2 * SEGMENT
SEAMS = [2 * k * SEGMENT + s for k in (1, 2) for s in (-1, 0, 1, 2)]
# (x + 1) // 2 bits = 64 m + e fill whole 64-bit words (e = 0), miss by one
# (e = -1) or spill one bit into a new word (e = 1), at both parities of x;
# e = 20 leaves a last word of 3 bytes
WORD_SEAMS = [2 * (64 * m + e) - d for m in (1, 300) for e in (-1, 0, 1, 20) for d in (0, 1)]


class TestCountOracle:
    """pi_ap's word counter against the O(pi(x)) residue scan."""

    @pytest.mark.parametrize("x", SEAMS)
    def test_across_chunk_seams(self, x):
        primes = np.array(primes_in(0, x))
        for q in (1, 2, 3, 4, 8, 30, 97):
            for a in range(q):  # non-units, a = 0 and a = 2 included
                assert pi_ap(x, q, a) == np.count_nonzero(primes % q == a), (q, a)
        q = x + 5
        for a in (0, 1, 2, int(primes[-1]), x, x + 4):
            assert pi_ap(x, q, a) == np.count_nonzero(primes % q == a), (q, a)

    @pytest.mark.parametrize("x", SEAMS)
    def test_pi_across_chunk_seams(self, x):
        assert pi(x) == len(primes_in(0, x))

    @pytest.mark.parametrize("x", WORD_SEAMS + [2 * 64 * _CHUNK + 1001])
    def test_word_counter_edges(self, x):
        # strides s = q (odd q) or q/2 (even q, odd a) just below, at and just
        # above each threshold; powers of two (one-word periods), 2 * odd,
        # multiples of 128 and q > x; every residue kind, a = 2 and even a
        primes = np.array(primes_in(0, x))
        strides = [t + e for t in (_ROW, _SPARSE) for e in (-1, 0, 1)]
        moduli = {2**k for k in range(13)} | {2 * s for s in strides}
        moduli |= {s for s in strides if s % 2} | {2 * 97, 3 * 128, 5 * 128, x + 5}
        for q in sorted(moduli):
            residues = primes % q
            for a in sorted({a % q for a in (0, 1, 2, 3, q // 2, q // 2 + 1, q - 1)}):
                assert pi_ap(x, q, a) == np.count_nonzero(residues == a), (q, a)

    @pytest.mark.parametrize("x", WORD_SEAMS)
    def test_bitmap_is_whole_words_zero_padded(self, x):
        bits = prime_bitmap(x)
        assert len(bits) % 8 == 0 and len(bits) * 8 - (x + 1) // 2 < 64
        assert not np.unpackbits(bits, bitorder="little")[(x + 1) // 2 :].any()
        assert pi(x) == len(primes_in(0, x))

    def test_counts_never_sieve_above_root(self, monkeypatch):
        # bv_aggregate and pi read the bitmap, which is sieved from the primes
        # <= isqrt(x) alone; no array of the primes <= x is built.  euler_phi's
        # fixed trial-division table (primes < 1e3, whatever x) is built first.
        _trial_primes()
        x = 2 * SEGMENT + 3
        calls = []
        for mod in (apmod.primes, apmod.progressions):
            if hasattr(mod, "primes_in"):
                real = getattr(mod, "primes_in")
                monkeypatch.setattr(
                    mod, "primes_in", lambda lo, hi, real=real: calls.append(hi) or real(lo, hi)
                )
        prime_bitmap.cache_clear()
        bv_aggregate(x, 1, dyadic_family(8, 15, 1))
        pi(x)
        assert calls and max(calls) <= math.isqrt(x) + 1


def _trial_window_divisor(q: int, lo: float, hi: float) -> bool:
    """Reference: trial division up to sqrt(q) for a divisor d with lo < d < hi."""
    d = 1
    while d * d <= q:
        if q % d == 0 and (lo < d < hi or lo < q // d < hi):
            return True
        d += 1
    return False


# (x, delta, eta): 2**20 and 2**25 put lo at exactly 2.0, so their families
# have flagged moduli; 10**4 with eta near its cap has an empty window
WINDOW_GRID = [
    (x, delta, eta)
    for x in (10**4, 10**5, 10**6)
    for delta, eta in ((0.005, 0.01), (0.01, 0.01), (0.02, 0.01), (0.005, 0.04))
] + [(2**20, 0.01, 0.03), (2**20, 0.02, 0.01), (2**25, 0.01, 0.02), (10**4, 0.0001, 0.24)]


class TestDivisorWindowSieve:
    """The multiples sieve against per-q trial division."""

    @pytest.mark.parametrize("x, delta, eta", WINDOW_GRID)
    def test_family_matches_trial_division(self, x, delta, eta):
        for a in (1, 2, 3, 6):
            members, flagged = divisor_window_family(x, delta, eta, a)
            lo, hi = divisor_window(x, delta, eta)
            wide = (math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf))
            narrow = (math.nextafter(lo, math.inf), math.nextafter(hi, -math.inf))
            units = [q for q in range(1, int(x ** (0.5 + delta)) + 1) if math.gcd(q, a) == 1]
            assert members.tolist() == [q for q in units if _trial_window_divisor(q, lo, hi)]
            assert flagged.tolist() == [
                q
                for q in units
                if _trial_window_divisor(q, *wide) != _trial_window_divisor(q, *narrow)
            ]

    def test_grid_has_flagged_and_empty_cases(self):
        fams = [divisor_window_family(x, d, e, 1) for x, d, e in WINDOW_GRID]
        assert any(len(flagged) for _, flagged in fams)
        assert not all(len(members) for members, _ in fams)

    @pytest.mark.parametrize("x, delta, eta", WINDOW_GRID[::3])
    def test_exceptional_fraction_matches_trial_division(self, x, delta, eta):
        lo, hi = divisor_window(x, delta, eta)
        for a in (1, 2, 3, 6):
            for Q in (0, 1, 64, 511):
                units = [q for q in range(Q, 2 * Q + 1) if math.gcd(q, a) == 1]
                r = exceptional_fraction(Q, x, delta, eta, a)
                assert r["total"] == len(units)
                assert r["exceptional"] == sum(
                    not _trial_window_divisor(q, lo, hi) for q in units
                )


class TestDivisorWindow:
    def test_even_family_example(self):
        members, _ = divisor_window_family(10**6, 0.01, 0.01, 1)
        lo, hi = divisor_window(10**6, 0.01, 0.01)
        assert 1.51 < lo < 1.52 and 2.85 < hi < 2.86
        assert members.tolist() == list(range(2, int((10**6) ** 0.51) + 1, 2))

    def test_members_recheck(self):
        members, _ = divisor_window_family(10**6, 0.01, 0.01, 1)
        lo, hi = divisor_window(10**6, 0.01, 0.01)
        for q in members[:200].tolist():
            assert any(lo < d < hi for d in range(1, q + 1) if q % d == 0)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            divisor_window_family(100, 0.2, 0.01, 1)
        with pytest.raises(ValueError):
            divisor_window_family(100, 0.01, 0.5, 1)

    def test_empty_window(self):
        # push eta near its cap so the min-exponent goes tiny
        members, _ = divisor_window_family(10**4, 0.0001, 0.24, 1)
        lo, hi = divisor_window(10**4, 0.0001, 0.24)
        if hi <= lo:
            assert len(members) == 0
        else:
            assert all(members >= 2)


class TestExceptionalFraction:
    def test_pinned(self):
        r = exceptional_fraction(512, 10**6, 0.01, 0.01, 1)
        assert r["fraction"] == pytest.approx(EXCEPTIONAL_FRACTION_Q512, abs=0)
        assert r["exceptional"] == 256 and r["total"] == 513

    def test_range(self):
        r = exceptional_fraction(64, 10**5, 0.02, 0.02, 3)
        assert 0.0 <= r["fraction"] <= 1.0
        assert r["reference_bound"] == pytest.approx(18 * 0.02 * euler_phi(3) / 3)
