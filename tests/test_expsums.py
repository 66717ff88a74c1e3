import cmath
import math
import os
import resource
import subprocess
import sys

import numpy as np
import pytest

from apmod.arith import euler_phi, factorize, mobius, tau_k
from apmod.constants import (
    KL3_CORRELATION_INSTANCE,
    KL3_CORRELATION_LHS,
)
from apmod.completion import kl3_correlation
from apmod.expsums import (
    _CHUNK,
    _LEAF,
    _pair_phases,
    _pair_sums,
    _tree_sum,
    _unit_table,
    deligne_check,
    f_property_check,
    f_sum,
    kl3,
    kl3_full_loop,
    kl3_prime_table,
    kl3_squarefree,
    kloosterman,
    ramanujan,
    ramanujan_exact,
    weil_check,
)
from apmod.rng import SplitMix64


class TestRamanujan:
    def test_n_zero_gives_phi(self):
        for q in (1, 2, 12, 30):
            assert ramanujan(q, 0).real == pytest.approx(euler_phi(q), abs=1e-9)

    def test_examples(self):
        assert ramanujan(5, 1).real == pytest.approx(-1.0, abs=1e-9)
        assert ramanujan(4, 2).real == pytest.approx(-2.0, abs=1e-9)

    def test_closed_form_oracle(self):
        for q in range(1, 101):
            for n in range(q):
                v = ramanujan(q, n)
                assert v.real == pytest.approx(ramanujan_exact(q, n), abs=1e-9)
                assert abs(v.imag) <= 1e-9 * max(euler_phi(q), 1)


class TestUnitTable:
    def test_units_and_inverses(self):
        for q in range(1, 601):
            roots, u, inv = _unit_table(q)
            assert u.tolist() == [r for r in range(q) if math.gcd(r, q) == 1]
            assert q == 1 or np.all((u * inv) % q == 1)
            assert len(roots) == q

    def test_q_one(self):
        roots, u, inv = _unit_table(1)
        assert roots.tolist() == [1] and u.tolist() == [0] and inv.tolist() == [0]


class TestKloosterman:
    def test_array_call_equals_scalar_calls(self):
        rng = SplitMix64(29)
        for c in range(1, 301):
            drawn = [rng.in_range(-3 * c, 3 * c) for _ in range(12)]
            m = [0, 1, -1, c, 2 * c + 1, -3 * c - 2] + drawn[:6]
            n = [0, 0, c - 1, -c, 5 * c, 1] + drawn[6:]
            got = kloosterman(np.array(m), np.array(n), c)
            assert got.tolist() == [kloosterman(a, b, c) for a, b in zip(m, n)]

    def test_reduces_to_ramanujan(self):
        for q in (3, 8, 15):
            for n in range(3):
                assert kloosterman(0, n, q) == pytest.approx(
                    ramanujan(q, n), abs=1e-9
                )

    def test_examples(self):
        assert kloosterman(1, 1, 2).real == pytest.approx(1.0, abs=1e-12)
        assert kloosterman(1, 1, 3).real == pytest.approx(-1.0, abs=1e-12)

    def test_hand_computed_values(self):
        # S(1,1;5): inverse pairs (1,1),(2,3),(3,2),(4,4) give
        # e(2/5) + e(0) + e(0) + e(3/5) = 2 + 2 cos(4 pi / 5)
        assert kloosterman(1, 1, 5).real == pytest.approx(
            2.0 + 2.0 * math.cos(4 * math.pi / 5), abs=1e-12
        )
        # S(1,2;7) = sum e((b + 2 inv(b))/7) over units
        want = sum(
            cmath.exp(2j * cmath.pi * ((b + 2 * pow(b, -1, 7)) % 7) / 7)
            for b in range(1, 7)
        )
        assert kloosterman(1, 2, 7) == pytest.approx(want, abs=1e-12)

    def test_symmetry(self):
        rng = SplitMix64(17)
        for c in range(1, 101):
            for _ in range(20):
                m = rng.in_range(0, 3 * c)
                n = rng.in_range(0, 3 * c)
                assert abs(kloosterman(m, n, c) - kloosterman(n, m, c)) <= 1e-9 * c

    def test_diagonal_real(self):
        # S(m, m; c) is real (b -> inv(b) change of variables)
        for c in range(2, 60):
            for m in (1, 2, 5):
                assert abs(kloosterman(m, m, c).imag) <= 1e-9 * c


class TestKl3:
    def test_q_one(self):
        assert kl3(7, 1) == 1 + 0j

    def test_examples(self):
        assert kl3(1, 2) == pytest.approx(-0.5 + 0j, abs=1e-12)
        want = (1 + 3 * cmath.exp(2j * cmath.pi * 2 / 3)) / 3
        assert kl3(1, 3) == pytest.approx(want, abs=1e-12)

    def test_full_loop_oracle(self):
        rng = SplitMix64(23)
        for q in list(range(1, 16)) + [20, 24, 30]:
            for _ in range(4):
                a = rng.in_range(0, q - 1) if q > 1 else 0
                assert abs(kl3(a, q) - kl3_full_loop(a, q)) <= 1e-9 * q

    def test_prime_table_matches_direct(self):
        for p in (2, 3, 5, 13, 31):
            table = kl3_prime_table(p)
            for a in range(1, p):
                assert abs(table[a] - kl3(a, p)) <= 1e-9 * p

    def test_squarefree_multiplicative_matches_direct(self):
        for a, q in ((1, 15), (2, 21), (4, 35), (1, 30), (7, 33), (11, 105)):
            assert abs(kl3_squarefree(q)[a] - kl3(a, q)) <= 1e-9 * q

    def test_squarefree_table_at_every_residue(self):
        # the twist holds at non-units too: every residue against the pair
        # route, and against the definition at the smallest composites
        for q in (1, 6, 10, 15, 30, 42):
            table = kl3_squarefree(factorize(q))
            assert len(table) == q
            for a in range(q):
                assert abs(table[a] - kl3(a, q)) <= 1e-9 * q, (q, a)
                if q <= 15:
                    assert abs(table[a] - kl3_full_loop(a, q)) <= 1e-9 * q, (q, a)

    def test_squarefree_prime_is_the_cached_table(self):
        for p in (2, 3, 97):
            assert kl3_squarefree(p) is kl3_prime_table(p)
            assert kl3_squarefree(factorize(p)) is kl3_prime_table(p)

    def test_squarefree_refuses_square_factor(self):
        for q in (4, 12, 49):
            with pytest.raises(ValueError, match="squarefree"):
                kl3_squarefree(q)

    def test_cached_tables_are_read_only(self):
        for arr in (*_unit_table(30), kl3_prime_table(7), kl3_prime_table(1)):
            with pytest.raises(ValueError):
                arr[0] = arr[0]


def _pair_grid(q):
    """The whole unit-pair grid at once, the reference for the streamed evaluators.

    b1-major (b1, b2) pairs of units mod q and ip = inv(b1*b2) mod q, three
    arrays of phi(q)^2 entries each.  The inverse of each product is looked
    up by the product itself.
    """
    _, u, inv = _unit_table(q)
    b1 = np.repeat(u, len(u))
    b2 = np.tile(u, len(u))
    return b1, b2, inv[np.searchsorted(u, (b1 * b2) % q)]


def _kl3_grid(a, q):
    b1, b2, ip = _pair_grid(q)
    b3 = ((a % q) * ip) % q
    return complex(_unit_table(q)[0][(b1 + b2 + b3) % q].sum()) / q


def _f_sum_grid(h1, h2, h3, a, q):
    b1, b2, ip = _pair_grid(q)
    b3 = ((a % q) * ip) % q
    idx = (b1 * (h1 % q) + b2 * (h2 % q) + b3 * (h3 % q)) % q
    return complex(_unit_table(q)[0][idx].sum())


def _kl3_prime_table_grid(p):
    b1, b2, ip = _pair_grid(p)
    roots = _unit_table(p)[0]
    t = np.zeros(p, dtype=complex)
    np.add.at(t, ip, roots[(b1 + b2) % p])
    return np.fft.ifft(t)


# phi(q)^2 below, at and across several multiples of _LEAF: primes, prime
# powers (243, 343, 256), squarefree and non-squarefree composites
STREAM_MODULI = (2, 12, 100, 127, 131, 243, 255, 256, 257, 343, 1000, 1540, 2310)
STREAM_PRIMES = (2, 3, 127, 131, 257, 499, 1999)

# (tested, len(failures), max_ratio.hex()) of f_property_check(48, pid, 200,
# seed=s), keyed (pid, s); captured with the per-sample scalar evaluation that
# preceded the batched kernel
F_SWEEP_48_PINS = {
    (1, 0): (5000, 0, "0x1.8434cc8b436d6p-34"),
    (2, 0): (9600, 0, "0x1.74b35594a517fp-34"),
    (3, 0): (9400, 0, "0x0.0p+0"),
    (4, 0): (9600, 0, "0x1.399dcc86fd426p-32"),
    (5, 0): (9600, 0, "0x1.0a368196e24a9p-34"),
    (6, 0): (3400, 0, "0x1.101871cb76605p-34"),
    (7, 0): (6200, 0, "0x1.e26d30f1c4760p-35"),
    (1, 1): (5000, 0, "0x1.633d8ca12d3cep-34"),
    (2, 1): (9600, 0, "0x1.2455e4c9c296dp-34"),
    (3, 1): (9400, 0, "0x0.0p+0"),
    (4, 1): (9600, 0, "0x1.399dcc86fd426p-32"),
    (5, 1): (9600, 0, "0x1.0a368196e24a9p-34"),
    (6, 1): (3400, 0, "0x1.10cdb4efc96d3p-34"),
    (7, 1): (6200, 0, "0x1.2851af56edf59p-34"),
}


def _coefficient_pool(q):
    """Coefficient triples with entries that are negative, >= q or = 0 mod q."""
    rng = SplitMix64(q)
    edge = [0, q, -q, 1, -1, 2 * q + 1, -3 * q - 2, q - 1]
    pool = [(edge[i], edge[-1 - i], edge[(3 * i + 1) % 8]) for i in range(8)]
    pool += [tuple(rng.in_range(-3 * q, 3 * q) for _ in range(3)) for _ in range(8)]
    return pool


class TestStreamedPairSums:
    """The streamed evaluators add the same terms in the same order as the grid."""

    def test_moduli_cover_leaf_boundaries(self):
        sizes = [euler_phi(q) ** 2 for q in STREAM_MODULI]
        assert any(n < _LEAF for n in sizes)
        assert _LEAF in sizes
        assert any(n > 4 * _LEAF and n % _LEAF for n in sizes)
        assert any(factorize(q).factors[0][1] > 1 for q in STREAM_MODULI)

    @pytest.mark.parametrize("q", STREAM_MODULI)
    def test_kl3_bit_identical(self, q):
        for a in (0, 1, 2, q - 1, 7 * q + 5):
            assert kl3(a, q) == _kl3_grid(a, q)

    @pytest.mark.parametrize("q", STREAM_MODULI)
    def test_f_sum_bit_identical(self, q):
        a = int(_unit_table(q)[1][-1])
        for h in ((1, 1, 1), (2, 3, 5), (q, 1, 7), (4, 6, 9), (-3, 11, 2 * q + 1)):
            assert f_sum(*h, a, q) == _f_sum_grid(*h, a, q)
            assert f_sum(*h, 1, q) == _f_sum_grid(*h, 1, q)

    @pytest.mark.parametrize("q", STREAM_MODULI)
    def test_pair_sums_rows_bit_identical(self, q):
        # one chunk holds at most _CHUNK phases; cover one row and a batch
        # just below, at and just past one chunk of rows
        chunk = max(1, _CHUNK // min(euler_phi(q) ** 2, _LEAF))
        pool = _coefficient_pool(q)
        want = [_f_sum_grid(*c, 1, q) for c in pool]
        for k in (1, chunk - 1, chunk, chunk + 1):
            got = _pair_sums(q, [pool[i % len(pool)] for i in range(k)])
            assert len(got) == k
            assert got == [want[i % len(pool)] for i in range(k)], k

    def test_pair_sums_rows_are_not_summed_column_by_column(self):
        # rows of 4 leaves each: a column-by-column (F-ordered) reduction of
        # the gathered leaf differs from the row sums in the last bits
        q, coeffs = 257, [(1, 1, 1), (2, -3, 262), (0, 7, -1)]
        leaf = _unit_table(q)[0][_pair_phases(q, coeffs)(0, _LEAF)]
        rows = [complex(row.sum()) for row in leaf]
        assert np.asfortranarray(leaf).sum(axis=1).tolist() != rows
        assert _pair_sums(q, coeffs) == [_f_sum_grid(*c, 1, q) for c in coeffs]

    @pytest.mark.parametrize("p", STREAM_PRIMES)
    def test_prime_table_bit_identical(self, p):
        assert np.array_equal(kl3_prime_table(p), _kl3_prime_table_grid(p))

    @pytest.mark.parametrize(
        "n", [1, 7, 8, _LEAF - 1, _LEAF, _LEAF + 1, 2 * _LEAF + 8, 3 * _LEAF + 5]
    )
    def test_tree_sum_is_numpy_sum(self, n):
        # a numpy release that changes its summation order fails here
        rng = np.random.default_rng(n)
        for _ in range(3):
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            assert _tree_sum(n, lambda lo, hi: v[lo:hi].sum()) == complex(v.sum())

    def test_kl3_memory_bound(self, tmp_path):
        # the whole grid at q = 4999 takes about 1.4 GB of pair arrays; the
        # streamed evaluation runs under a 512 MB address-space limit
        limit = 512 << 20
        path = tmp_path / "kl3.csv"
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        proc = subprocess.run(
            [sys.executable, "-m", "apmod.cli", "expsum", "kl3", "--a", "1", "--q", "4999",
             "--out", str(path)],
            capture_output=True,
            text=True,
            env=env,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )
        assert proc.returncode == 0, proc.stderr
        row = path.read_text().splitlines()[-1].split(",")
        assert row[:3] == ["kl3", "1", "4999"]
        v = complex(float(row[3]), float(row[4]))
        assert abs(v - kl3_prime_table(4999)[1]) <= 1e-12


class TestPairPhaseSeam:
    """_pair_phases builds phases in int32 up to q = 26,755, the last q with
    3(q-1)^2 < 2^31, and in int64 from q = 26,756 on."""

    @pytest.mark.parametrize("q", [26755, 26756])
    def test_phases_at_the_end_of_the_grid(self, q):
        u = _unit_table(q)[1]
        n = len(u) ** 2
        # (q-1, q-1, 1) reaches the phase bound 3(q-1)^2 at the last pair,
        # b1 = b2 = q-1; past 2^31 at q = 26,756
        coeffs = [(q - 1, q - 1, q - 1), (-1, -1, -1), (q - 1, q - 1, 1)]
        got = _pair_phases(q, coeffs)(n - 100, n)
        assert got.shape == (3, 100)
        for row, (c1, c2, c3) in zip(got.tolist(), coeffs):
            want = []
            for k in range(n - 100, n):
                b1, b2 = int(u[k // len(u)]), int(u[k % len(u)])
                want.append((c1 * b1 + c2 * b2 + c3 * pow(b1 * b2, -1, q)) % q)
            assert row == want
            assert all(0 <= v < q for v in row)


class TestFSum:
    def test_q_one(self):
        assert f_sum(5, -2, 9, 4, 1) == 1 + 0j

    def test_modulus_below_one_is_refused(self):
        with pytest.raises(ValueError, match="modulus must be >= 1"):
            f_sum(1, 1, 1, 1, 0)

    def test_non_unit_a_vanishes(self):
        assert f_sum(1, 1, 1, 2, 4) == 0j
        assert f_sum(3, 1, 2, 6, 9) == 0j

    def test_equals_q_times_kl3(self):
        assert f_sum(1, 1, 1, 1, 2) == pytest.approx(
            2 * kl3(1, 2), abs=1e-12
        )
        rng = SplitMix64(31)
        for q in range(1, 61):
            h = []
            while len(h) < 3:
                v = rng.in_range(1, 3 * q)
                if math.gcd(v, q) == 1:
                    h.append(v)
            a = next(v for v in range(1, q + 1) if math.gcd(v, q) == 1)
            lhs = f_sum(h[0], h[1], h[2], a, q)
            rhs = q * kl3((a * h[0] * h[1] * h[2]) % q, q)
            assert abs(lhs - rhs) <= 1e-6 * q * q

    def test_property3_example(self):
        assert f_sum(1, 2, 3, 2, 6) == 0j

    def test_multiplicativity_squarefree(self):
        rep = f_property_check(60, 1, samples_per_q=40, seed=1)
        assert rep.passed, rep.failures[:3]


class TestFPropertySweeps:
    @pytest.mark.parametrize("pid", list(range(1, 8)))
    def test_property_q24(self, pid):
        rep = f_property_check(24, pid, samples_per_q=60, seed=0)
        assert rep.tested > 0
        assert rep.passed, rep.failures[:3]

    def test_unknown_property(self):
        with pytest.raises(ValueError):
            f_property_check(10, 9)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_sweep_48_pinned(self, seed):
        for pid in range(1, 8):
            rep = f_property_check(48, pid, 200, seed=seed)
            got = (rep.tested, len(rep.failures), rep.max_ratio.hex())
            assert got == F_SWEEP_48_PINS[pid, seed], pid

    def test_paper_blanket_hypothesis_counterexample(self):
        # q = 12, h = (3, 1, 1): q is not squarefree, gcd(h1 h2 h3, q) = 3 > 1
        # and gcd(h1, h2, h3, q) = 1, yet F != 0 because the shared prime 3
        # divides only the squarefree part of 12.  The vanishing needs the
        # shared prime at a square factor, which is what property check 6
        # enforces.
        v = f_sum(3, 1, 1, 1, 12)
        assert abs(v) > 0.5


class TestWeil:
    def test_prime_moduli_ratio(self):
        rep = weil_check(97, trials_per_c=20, seed=0)
        assert rep.passed
        assert rep.max_ratio < 1.0

    def test_degenerate_corner(self):
        # c = 12, m = n = 0: S = phi(12) = 4 <= tau(12) sqrt(12 * 12) = 72
        v = kloosterman(0, 0, 12)
        assert v.real == pytest.approx(4.0, abs=1e-9)
        assert 4.0 <= tau_k(12, 2) * math.sqrt(12 * 12)

    def test_contract_bound(self):
        with pytest.raises(ValueError):
            weil_check(5000)


class TestDeligne:
    def test_small(self):
        rep = deligne_check(50)
        assert rep.passed
        assert rep.max_ratio < 1.0

    def test_kl3_mod2_value(self):
        assert abs(kl3(1, 2)) == pytest.approx(0.5, abs=1e-12)
        assert abs(kl3(1, 2)) <= 3.0

    def test_q1_bound(self):
        assert abs(kl3(1, 1)) <= tau_k(1, 3)

    def test_unit_table_matches_pair_route(self):
        # the multiplicative table against kl3's sum over unit pairs, at the
        # least unit, the largest and one drawn unit of every squarefree q
        rng = SplitMix64(29)
        for q in range(2, 401):
            f = factorize(q)
            if not f.is_squarefree():
                continue
            units = _unit_table(q)[1]
            table = kl3_squarefree(f)
            for i in (0, len(units) - 1, rng.below(len(units))):
                a = int(units[i])
                assert abs(table[a] - kl3(a, q)) <= 1e-9 * q, (q, a)


class TestCorrelation:
    def test_pinned_instance(self):
        H, a1, a2, r1, r2, s = KL3_CORRELATION_INSTANCE
        r = kl3_correlation(H, a1, a2, r1, r2, s)
        assert r["lhs"] == pytest.approx(KL3_CORRELATION_LHS, abs=1e-9)
        assert r["ratio"] == r["ratio"]  # finite

    def test_empty_support(self):
        # H so small that every h in [H/2, 5H/2] shares a factor with s r1 r2
        r = kl3_correlation(2.0, 1, 1, 2, 3, 5)
        assert r["lhs"] == 0j

    def test_conjugate_square_structure(self):
        r = kl3_correlation(12.0, 1, 1, 3, 3, 1)
        assert r["lhs"].imag == pytest.approx(0.0, abs=1e-9)
        assert r["lhs"].real >= 0.0

    def test_hypothesis_validation(self):
        with pytest.raises(ValueError):
            kl3_correlation(10.0, 1, 1, 4, 3, 5)  # r1 not squarefree
        with pytest.raises(ValueError):
            kl3_correlation(10.0, 1, 1, 3, 5, 3)  # gcd(s, r1) > 1
        with pytest.raises(ValueError):
            kl3_correlation(10.0, 3, 1, 3, 5, 7)  # a1 not unit mod r1 s

    def test_mobius_guard(self):
        assert mobius(4) == 0
