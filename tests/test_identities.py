import math

import numpy as np
import pytest

from apmod import identities
from apmod.identities import (
    DIRICHLET_CHUNK,
    PERIOD,
    fundamental_lemma_weights,
    heath_brown_decompose,
    heath_brown_range,
    random_buchstab_configs,
    reduction_sequences,
    verify_buchstab,
)
from apmod.primes import least_prime_factor_table, primes_in, von_mangoldt
from apmod.progressions import s_value

# the (z1, z2, y) triples of `verify reduction`, and edge triples: y = 1 (pure
# one-step split), near-empty and empty windows
REDUCTION_TRIPLES = [(30, 5, 100), (20, 3, 50), (50, 7, 1000), (15, 2, 30), (40, 11, 400)]
EDGE_TRIPLES = [(30, 2, 1), (7, 6, 50), (100, 3, 300), (11, 11, 100)]


def _dirichlet_loop(a, b):
    """The strided form of _dirichlet: one strided add per d, ascending d."""
    n_max = len(a) - 1
    out = np.zeros(n_max + 1, dtype=np.result_type(a, b))
    for d in np.flatnonzero(a[1:]) + 1:
        out[d::d] += a[d] * b[1 : n_max // d + 1]
    return out


def _sums_by_strides(table, n_max):
    """sum_{d|n} lambda_d in int64, one strided add per d."""
    out = np.zeros(n_max + 1, dtype=np.int64)
    for d, w in table.items():
        if d <= n_max:
            out[d::d] += w
    return out


class TestHeathBrown:
    def test_lambda_of_one(self):
        assert heath_brown_decompose(1, 2, 100) == 0.0

    def test_primes_forced(self):
        for p in (2, 3, 5, 97):
            v = heath_brown_decompose(p, 3, 100)
            assert v == pytest.approx(math.log(p), rel=1e-12)

    def test_sign_normalization_is_unique(self):
        # with the sign (-1)^(j-1) the expansion reproduces Lambda(n) on
        # n <= 100; with the opposite sign it reproduces -Lambda(n), so the
        # choice is forced
        for k in (2, 3):
            for n in range(1, 101):
                lam = von_mangoldt(n)
                v = heath_brown_decompose(n, k, 100)
                assert abs(v - lam) <= 1e-9 * (1 + lam)
                if lam > 0:
                    assert abs(-v - lam) > 0.5  # opposite sign cannot match

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            heath_brown_decompose(300, 2, 100)
        with pytest.raises(ValueError):
            heath_brown_decompose(10, 7, 100)

    def test_range_against_lambda(self):
        for k in (2, 3):
            for n in range(1, 1500):
                v = heath_brown_decompose(n, k, 1500)
                lam = von_mangoldt(n)
                assert abs(v - lam) <= 1e-6 * (1 + lam), (n, k)


class TestHeathBrownRange:
    """The whole-range expansion against the per-n divisor lattice."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("x", [600, 1000])
    def test_equals_per_n(self, k, x):
        # the same float operations in the same order: equal, not close
        values = heath_brown_range(600, k, x)
        assert values.tolist()[1:] == [heath_brown_decompose(n, k, x) for n in range(1, 601)]

    @pytest.mark.parametrize("k", [2, 3])
    def test_chunks_equal_the_strided_loop(self, k, monkeypatch):
        # at 30,000 the pairs of a dense convolution cross the chunk seam
        n_max = 30_000
        assert sum(n_max // d for d in range(1, n_max + 1)) > DIRICHLET_CHUNK
        fast = heath_brown_range(n_max, k, n_max)
        monkeypatch.setattr(identities, "_dirichlet", _dirichlet_loop)
        slow = heath_brown_range(n_max, k, n_max)
        assert np.array_equal(fast.view(np.int64), slow.view(np.int64))

    def test_reaches_2x(self):
        values = heath_brown_range(200, 3, 100)
        assert values[200] == heath_brown_decompose(200, 3, 100)

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            heath_brown_range(201, 2, 100)
        with pytest.raises(ValueError):
            heath_brown_range(0, 2, 100)
        with pytest.raises(ValueError):
            heath_brown_range(10, 5, 100)


class TestFundamentalLemma:
    def test_weight_one_at_unit(self):
        w = fundamental_lemma_weights(10, 100)
        assert w.lambda_plus[1] == 1 and w.lambda_minus[1] == 1

    def test_one_bounded_and_supported(self):
        w = fundamental_lemma_weights(20, 1000)
        for table in (w.lambda_plus, w.lambda_minus):
            for d, v in table.items():
                assert v in (-1, 1)
                assert d <= 1000

    def test_prime_above_z(self):
        w = fundamental_lemma_weights(10, 100)
        for p in (11, 13, 97):
            assert w.divisor_sum(p, "+") == 1
            assert w.divisor_sum(p, "-") == 1

    def test_two_prime_products_below_z(self):
        w = fundamental_lemma_weights(30, 1000)
        for n in (4, 6, 15, 77 * 1, 29 * 23):
            if n == 1:
                continue
            sp = w.divisor_sum(n, "+")
            sm = w.divisor_sum(n, "-")
            assert sm <= 0 <= sp

    @pytest.mark.parametrize("z,y", [(10, 100), (10, 1000), (20, 100), (30, 1000)])
    def test_exhaustive_properties(self, z, y):
        n_max = 10**5
        w = fundamental_lemma_weights(z, y)
        lpf = least_prime_factor_table(n_max)
        sp = w.sums_over_range(n_max, "+")
        sm = w.sums_over_range(n_max, "-")
        rough = lpf[: n_max + 1] > z
        rough[0] = False
        assert np.all(sp[1:][rough[1:]] == 1)
        assert np.all(sm[1:][rough[1:]] == 1)
        assert np.all(sp[1:][~rough[1:]] >= 0)
        assert np.all(sm[1:][~rough[1:]] <= 0)

    @pytest.mark.parametrize(
        "z,y,n_max",
        [(50, 5000, 2 * 10**4), (30, 30, 10**4), (10, 27, 10**4), (2, 2, 10**4)],
    )
    def test_edge_parameters(self, z, y, n_max):
        # level equal to the sifting bound, cube-starved levels, minimal z
        w = fundamental_lemma_weights(z, y)
        lpf = least_prime_factor_table(n_max)
        sp = w.sums_over_range(n_max, "+")
        sm = w.sums_over_range(n_max, "-")
        rough = lpf[: n_max + 1] > z
        rough[0] = False
        assert np.all(sp[1:][rough[1:]] == 1) and np.all(sm[1:][rough[1:]] == 1)
        assert np.all(sp[1:][~rough[1:]] >= 0) and np.all(sm[1:][~rough[1:]] <= 0)

    @pytest.mark.parametrize("z,y", [(10, 100), (20, 1000), (30, 1000)])
    @pytest.mark.parametrize("side", ["+", "-"])
    def test_sums_over_range_matches_divisor_sum(self, z, y, side):
        # divisor_sum is the per-n reference for the whole-range fast path
        n_max = 2000
        w = fundamental_lemma_weights(z, y)
        fast = w.sums_over_range(n_max, side)
        assert fast.tolist()[1:] == [w.divisor_sum(n, side) for n in range(1, n_max + 1)]

    @pytest.mark.parametrize(
        "z,y,dtype", [(20, 100, np.int8), (30, 1000, np.int8), (100, 10**5, np.int16)]
    )
    @pytest.mark.parametrize("n_max", [1, 13, PERIOD - 1, PERIOD, PERIOD + 1, 2 * PERIOD + 1])
    @pytest.mark.parametrize("side", ["+", "-"])
    def test_sums_over_range_type_seams(self, z, y, dtype, n_max, side):
        # two bench tables (int8) and a 516/660-weight one (int16), on both
        # sides of each seam of the tiled PERIOD.  lambda- of (20, 100) sums
        # to -1 over the divisors of PERIOD, so its period is nonzero at 0
        w = fundamental_lemma_weights(z, y)
        fast = w.sums_over_range(n_max, side)
        assert fast.dtype == dtype
        assert fast[0] == 0  # the tiled period writes index 0 before it is zeroed
        table = w.lambda_plus if side == "+" else w.lambda_minus
        assert np.array_equal(fast, _sums_by_strides(table, n_max))
        probe = sorted(
            {n for c in range(0, n_max + 1, PERIOD) for n in range(c - 20, c + 21) if 1 <= n <= n_max}
            | set(range(max(1, n_max - 20), n_max + 1))
        )
        assert fast[probe].tolist() == [w.divisor_sum(n, side) for n in probe]

    def test_validation(self):
        with pytest.raises(ValueError):
            fundamental_lemma_weights(1, 100)
        with pytest.raises(ValueError):
            fundamental_lemma_weights(10, 5)


class TestReductionSequences:
    def test_alpha_values(self):
        rs = reduction_sequences(30, 5, 100)
        assert rs.alpha[1] == 1
        for p in (7, 11, 13, 17, 19, 23, 29):
            assert rs.alpha[p] == -1
        assert 5 not in rs.alpha  # below the window
        assert rs.alpha[7 * 11] == 1

    def test_one_bounded(self):
        rs = reduction_sequences(50, 7, 1000)
        assert all(v in (-1, 1) for v in rs.alpha.values())

    def test_identity_exhaustive_example(self):
        rs = reduction_sequences(30, 5, 100)
        lhs, rhs = rs.identity_sides(10**5)
        assert np.array_equal(lhs[1:], rhs[1:])

    @pytest.mark.parametrize("z1,z2,y", EDGE_TRIPLES)
    def test_edge_triples(self, z1, z2, y):
        rs = reduction_sequences(z1, z2, y)
        lhs, rhs = rs.identity_sides(3 * 10**4)
        assert np.array_equal(lhs[1:], rhs[1:])

    @pytest.mark.parametrize("z1,z2,y", REDUCTION_TRIPLES + EDGE_TRIPLES)
    def test_rhs_equals_per_n(self, z1, z2, y):
        # rhs_at is the displayed identity term by term: the per-n reference
        rs = reduction_sequences(z1, z2, y)
        _, rhs = rs.identity_sides(3000)
        assert rhs.tolist()[1:] == [rs.rhs_at(n) for n in range(1, 3001)]

    @pytest.mark.parametrize(
        "z1,z2,y",
        REDUCTION_TRIPLES + EDGE_TRIPLES
        + [(z1, 5, 100) for z1 in (99, 100, 101, 1000)]
        + [(z1, 2, 30) for z1 in (29, 30, 31, 300)],
    )
    def test_window_stops_at_y(self, z1, z2, y):
        # reference: the chains over every prime in (z2, z1]; those above y
        # admit no chain, so the values and insertion order are the same
        window = [p for p in primes_in(0, int(z1)) if p > z2]
        want = identities._signed_chains(window, lambda d, depth, p: d * p <= y)
        assert list(reduction_sequences(z1, z2, y).alpha.items()) == list(want.items())

    def test_huge_z1_lists_no_prime_above_y(self):
        assert reduction_sequences(math.inf, math.inf, 10).alpha == {1: 1}
        assert reduction_sequences(math.inf, 5, 10).alpha == {1: 1, 7: -1}
        assert reduction_sequences(2e7, 2e7, 10).alpha == {1: 1}

    def test_validation(self):
        with pytest.raises(ValueError):
            reduction_sequences(5, 30, 100)
        with pytest.raises(ValueError):
            reduction_sequences(30, 5, 0)


class TestVerifyBuchstab:
    def test_degenerate_equal_thresholds(self):
        assert verify_buchstab(300, 1, 7, 7, 3, 1, 1)

    def test_spec_example(self):
        assert verify_buchstab(500, 1, 5, 20, 3, 1, 1)

    def test_covers_prime_squares(self):
        # exactness hinges on the inclusive threshold in the subtracted
        # terms; a window containing p with p^2 m in range exercises it
        assert verify_buchstab(500, 1, 5, 20, 3, 1, 1) is True
        left = s_value(500, 1, 20, 3, 1, 1)
        right = s_value(500, 1, 5, 3, 1, 1)

        def split(inclusive):
            acc = right
            for p in (7, 11, 13, 17, 19):
                acc = acc - s_value(500, p, p, 3, 1, 1, inclusive)
            return acc.triple()

        assert split(True) == left.triple()
        # and the strict version really does differ here
        assert split(False) != left.triple()

    def test_two_hundred_fixed_seed_configs(self):
        cfgs = random_buchstab_configs(200, 10**5, seed=0)
        assert len(cfgs) == 200
        for c in cfgs:
            assert verify_buchstab(*c), c

    def test_validation(self):
        with pytest.raises(ValueError):
            verify_buchstab(100, 1, 20, 5, 3, 1, 1)
