import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apmod.arith import (
    FactoredInt,
    bezout_split,
    check_coprime_partition,
    coprime_partition,
    divisors,
    euler_phi,
    factorize,
    mod_inv,
    random_coprime_pairs,
    tau_k,
)
from apmod.rng import SplitMix64


class TestFactorize:
    def test_unit(self):
        assert factorize(1).factors == ()

    def test_twelve(self):
        assert factorize(12).factors == ((2, 2), (3, 1))

    def test_prime(self):
        assert factorize(9973).factors == ((9973, 1),)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            factorize(0)

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            FactoredInt(12, ((3, 1), (2, 2)))
        with pytest.raises(ValueError):
            FactoredInt(12, ((2, 1), (3, 1)))

    def test_large_semiprime(self):
        n = 1000003 * 1000033
        f = factorize(n)
        assert f.factors == ((1000003, 1), (1000033, 1))

    @given(st.integers(min_value=1, max_value=10**12))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_product_reconstructs(self, n):
        f = factorize(n)
        prod = 1
        for p, e in f.factors:
            prod *= p**e
        assert prod == n


def _trial_factorization(n: int) -> tuple[tuple[int, int], ...]:
    """Reference: trial division by every d up to sqrt of the cofactor."""
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return tuple(out)


class TestFactorizeReference:
    def test_matches_trial_division(self):
        for n in range(1, 20_001):
            assert factorize(n).factors == _trial_factorization(n)

    def test_matches_trial_division_across_bound_squared(self):
        # 997**2 = 994009: above it a cofactor with no trial prime factor
        # leaves the trial loop without the p * p > m exit
        for n in range(993_000, 1_003_000):
            assert factorize(n).factors == _trial_factorization(n)

    @pytest.mark.parametrize(
        "factors",
        [
            ((999_983, 1), (1_000_003, 1)),  # cofactor certified prime by p * p > m
            ((1_000_003, 2),),  # square of a prime above the trial primes
            ((1_000_003, 1), (1_000_033, 1), (1_000_037, 1)),
            ((2, 1), (2_147_483_647, 2)),
            ((3, 1), (1_000_000_007, 1), (2_000_000_011, 1)),
            ((9_223_372_036_854_775_783, 1),),  # largest prime below 2**63
            # every prime factor between the trial primes (< 1e3) and 1e6: rho splits
            ((1_009, 1), (999_983, 1)),
            ((999_983, 2),),
            ((1_009, 1), (1_013, 1)),
            ((997, 1), (1_009, 1), (999_983, 1)),
            ((2_147_483_647, 1), (2_147_483_659, 1)),  # semiprime just above 2**62
        ],
    )
    def test_large_cofactors(self, factors):
        n = math.prod(p**e for p, e in factors)
        assert factorize(n).factors == factors


class TestDivisors:
    def test_bruteforce_small(self):
        for n in range(1, 2001):
            assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0]

    @pytest.mark.parametrize(
        "primes",
        [
            (2,) * 62,
            (1_000_003, 1_000_033),
            (2_147_483_647, 2_147_483_647),
            (1_000_003, 1_000_033, 1_000_037),
            (2, 2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43),
        ],
    )
    def test_64_bit(self, primes):
        want = {1}  # every product of a sub-multiset of the prime factors
        for p in primes:
            want |= {d * p for d in want}
        n = math.prod(primes)
        assert n < 2**63
        assert divisors(n) == sorted(want)


class TestModInv:
    def test_identity(self):
        for q in (2, 5, 97):
            assert mod_inv(1, q) == 1

    def test_examples(self):
        assert mod_inv(3, 5) == 2
        assert mod_inv(2, 9) == 5

    def test_q_one(self):
        assert mod_inv(7, 1) == 0

    def test_non_invertible(self):
        with pytest.raises(ValueError):
            mod_inv(6, 9)

    def test_involution_exhaustive(self):
        # inv(inv(a)) = a for every unit a mod q, all q <= 1000
        for q in range(2, 1001):
            for a in range(1, q):
                if math.gcd(a, q) == 1:
                    assert mod_inv(mod_inv(a, q), q) == a


class TestBezout:
    def test_degenerate_modulus(self):
        assert bezout_split(3, 1, 7) == (3, 0)
        assert bezout_split(3, 7, 1) == (0, 3)

    def test_examples(self):
        assert bezout_split(1, 3, 5) == (2, 2)  # 1/15 = 2/5 + 2/3 - 1
        assert bezout_split(2, 3, 5) == (4, 1)  # 2/15 = 4/5 + 1/3 - 1

    def test_non_coprime_rejected(self):
        with pytest.raises(ValueError):
            bezout_split(1, 6, 9)
        with pytest.raises(ValueError):
            bezout_split(1, 0, 9)

    def test_exhaustive_small(self):
        # n1*q1 + n2*q2 = a mod q1*q2, with 0 <= n1 < q2 and 0 <= n2 < q1, for
        # all coprime q1, q2 <= 50 and every residue a, negatives included
        for q1 in range(1, 51):
            for q2 in range(1, 51):
                if math.gcd(q1, q2) != 1:
                    continue
                q = q1 * q2
                a = np.arange(-q, q)
                n1, n2 = bezout_split(a, q1, q2)
                assert ((n1 * q1 + n2 * q2 - a) % q == 0).all()
                assert (0 <= n1).all() and (n1 < q2).all()
                assert (0 <= n2).all() and (n2 < q1).all()

    def test_array_matches_scalar(self):
        a = np.array([-10**12, -7, -1, 0, 1, 6, 10**12 + 3], dtype=np.int64)
        n1, n2 = bezout_split(a, 77, 90)
        assert [(int(u), int(v)) for u, v in zip(n1, n2)] == [
            bezout_split(int(b), 77, 90) for b in a
        ]

    @given(
        st.integers(min_value=-10**6, max_value=10**6),
        st.integers(min_value=1, max_value=300),
        st.integers(min_value=1, max_value=300),
    )
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_bezout_identity_property(self, a, q1, q2):
        if math.gcd(q1, q2) != 1:
            return
        n1, n2 = bezout_split(a, q1, q2)
        total = Fraction(n1, q2) + Fraction(n2, q1)
        assert (total - Fraction(a, q1 * q2)) % 1 == 0


class TestMultEval:
    def test_phi(self):
        assert euler_phi(12) == 4

    def test_tau3_prime_square(self):
        for p in (2, 3, 5):
            assert tau_k(p * p, 3) == 6

    def test_phi_multiplicative_sampled(self):
        rng = SplitMix64(5)
        done = 0
        while done < 10**4:
            m = rng.in_range(1, 3000)
            n = rng.in_range(1, 3000)
            if math.gcd(m, n) != 1:
                continue
            assert euler_phi(m * n) == euler_phi(m) * euler_phi(n)
            done += 1


class TestCoprimePartition:
    def test_singleton(self):
        assert coprime_partition([(2, 3)]) == [[0]]

    def test_conflict(self):
        assert coprime_partition([(2, 3), (3, 2)]) == [[0], [1]]

    def test_disjoint_primes(self):
        assert coprime_partition([(2, 3), (5, 7), (11, 13)]) == [[0, 1, 2]]

    def test_internally_non_coprime_rejected(self):
        with pytest.raises(ValueError):
            coprime_partition([(2, 3), (6, 9)])

    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_property_recheck(self, seed):
        pairs = random_coprime_pairs(120, seed=seed)
        classes = coprime_partition(pairs)
        assert check_coprime_partition(pairs, classes)
