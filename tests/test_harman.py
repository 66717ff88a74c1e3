import math

import pytest

from apmod.constants import (
    HARMAN_X1E4_FLAG_SNAPSHOT,
    HARMAN_X1E4_LEAF_COUNT,
    HARMAN_X1E4_ROOT_TRIPLE,
    HARMAN_X1E4_TREE_SNAPSHOT,
)
from apmod.harman import dump_tree, harman_tree
from apmod.primes import primes_in


def spec_params(x=10**4):
    return dict(
        x=x,
        z1=x ** (1 / 7),
        z2=x ** (3 / 7),
        z3=x ** (4 / 7),
    )


class TestHarmanTree:
    def test_exact_at_reference_scale(self):
        _, rep = harman_tree(**spec_params(), q1=2, q2=1, a=1)
        assert rep.exact
        assert rep.root_value.triple() == HARMAN_X1E4_ROOT_TRIPLE
        assert rep.leaf_count == HARMAN_X1E4_LEAF_COUNT
        assert all(ok for _, ok in rep.split_checks)

    def test_flag_report_byte_stable(self):
        _, rep1 = harman_tree(**spec_params(), q1=2, q2=1, a=1)
        _, rep2 = harman_tree(**spec_params(), q1=2, q2=1, a=1)
        blob1 = "\n".join(rep1.flag_lines())
        blob2 = "\n".join(rep2.flag_lines())
        assert blob1 == blob2
        assert blob1 == HARMAN_X1E4_FLAG_SNAPSHOT

    def test_tree_dump_and_split_checks_pinned(self):
        rows, rep = harman_tree(**spec_params(), q1=2, q2=1, a=1)
        splits = [f"{name} {'exact' if ok else 'BROKEN'}" for name, ok in rep.split_checks]
        assert "\n".join([dump_tree(rows), *splits]) == HARMAN_X1E4_TREE_SNAPSHOT

    def test_exact_with_informative_modulus(self):
        # q = 3 gives in_class != coprime generally, so the triple equality
        # is a stronger statement than the q = 2 case
        _, rep = harman_tree(**spec_params(), q1=3, q2=1, a=1)
        assert rep.exact
        ic, cp, phi = rep.root_value.triple()
        assert phi == 2 and (ic, cp) != (0, 0)

    def test_exact_with_composite_modulus(self):
        _, rep = harman_tree(**spec_params(5000), q1=3, q2=5, a=2)
        assert rep.exact
        assert all(ok for _, ok in rep.split_checks)

    def test_large_scale_with_deep_groups(self):
        # x = 1e6 populates the four-variable terminal group; the root must
        # match an independent count of primes in (x, 2x] by residue class
        import numpy as np

        x = 10**6
        rows, rep = harman_tree(**spec_params(x), q1=3, q2=1, a=1)
        assert rep.exact
        g3 = next(sv for _, name, *_, sv in rows if name == "G3")
        assert g3.triple() != (0, 0, 2)  # deep group nonempty here
        ps = np.array(primes_in(0, 2 * x))
        ps = ps[ps > x]
        want = (
            int(np.count_nonzero(ps % 3 == 1)),
            int(np.count_nonzero(ps % 3 != 0)),
            2,
        )
        assert rep.root_value.triple() == want
        term_checks = [
            f for f in rep.flags if f.name.endswith("-terminal")
        ]
        assert all(f.ok for f in term_checks)

    def test_terminal_flags_count_cofactors(self):
        # at x = 100 with these thresholds the windows of the three- and
        # four-prime terminals hold m = 1, composite cofactors and a prime
        # cofactor equal to its threshold; each is counted per m here
        x, z1, z2, z3 = 100, 1.0, 20.0, 28.0
        _, rep = harman_tree(x, z1, z2, z3, 1, 1, 0, epsilon=1.0)
        ps = primes_in(1, 20)

        def classes(d, z):
            nonprime = at = 0
            for m in range(x // d + 1, 2 * x // d + 1):
                lpf = next((f for f in range(2, m + 1) if m % f == 0), math.inf)
                if lpf >= z:
                    if lpf == m:
                        at += m == z
                    else:
                        nonprime += 1
            return nonprime, at

        g1d = [(p, r) for p in ps for r in ps if r < p and p * r > z3 and r > x**0.25]
        g1c = [(p, r) for p in ps for r in ps if r < p and p * r > z3 and r <= x**0.25]
        g3c = [(p, r, s) for p, r in g1c for s in ps if s < r]
        three = [classes(p * r, r) for p, r in g1d]
        four = [classes(p * r * s, s) for p, r, s in g3c]
        np3, at3 = sum(c[0] for c in three), sum(c[1] for c in three)
        np4 = sum(c[0] for c in four)
        assert np3 and at3 and np4  # every class is populated
        flags = {f.name: f.detail for f in rep.flags}
        assert flags["three-prime-terminal"].endswith(
            f"nonprime_cofactors={np3} at_threshold={at3}"
        )
        assert flags["four-prime-terminal"].endswith(f"nonprime_cofactors={np4}")

    def test_five_six_flag_counts_cofactors(self):
        # with z1 = 1 and z2 = 100 at x = 3000 the five-or-six-prime windows
        # hold m = 1, composite cofactors and cofactors at the threshold t;
        # each m is classified by trial division here
        x, z2 = 3000, 100.0
        _, rep = harman_tree(x, 1.0, z2, 150.0, 1, 1, 0, epsilon=1.0)
        ps = primes_in(1, 100)

        def lpf(m):
            return next((f for f in range(2, math.isqrt(m) + 1) if m % f == 0), m)

        bad = at = 0
        g2 = [(p, r, s) for p in ps for r in ps for s in ps if s < r < p and p * r <= z2]
        for d, t in ((p * r * s * t, t) for p, r, s in g2 for t in ps if t < s):
            for m in range(x // d + 1, 2 * x // d + 1):
                if m == 1:
                    bad += 1
                elif lpf(m) >= t:
                    cof = m // lpf(m)
                    bad += cof > 1 and lpf(cof) != cof
                    at += (m == t) if cof == 1 else (lpf(cof) == cof and lpf(m) == t)
        assert bad and at
        detail = next(f.detail for f in rep.flags if f.name == "five-six-prime-terminal")
        assert detail.endswith(f"non_bi_prime={bad} at_threshold={at}")

    def test_degenerate_z1_equals_z2(self):
        x = 2000
        _, rep = harman_tree(x, 5.0, 5.0, 50.0, 3, 1, 1)
        assert rep.exact
        # middle group over (z1, z2] is empty, so B1/G1 collapse
        assert rep.root_value.phi_q == 2

    def test_epsilon_shrinks_residual(self):
        x = 10**4
        _, rep0 = harman_tree(**spec_params(), q1=2, q2=1, a=1, epsilon=0.0)
        _, rep1 = harman_tree(**spec_params(), q1=2, q2=1, a=1, epsilon=0.08)
        res0 = next(f for f in rep0.flags if f.name == "residual-empty")
        res1 = next(f for f in rep1.flags if f.name == "residual-empty")
        n0 = int(res0.detail.split()[0].split("=")[1])
        n1 = int(res1.detail.split()[0].split("=")[1])
        assert n1 <= n0
        assert rep1.exact

    def test_validation(self):
        with pytest.raises(ValueError):
            harman_tree(100, 5.0, 4.0, 10.0, 1, 1, 0)
        with pytest.raises(ValueError):
            harman_tree(100, 2.0, 3.0, 10**4, 1, 1, 0)
        with pytest.raises(ValueError):
            harman_tree(100, 2.0, 3.0, 5.0, 2, 1, 0)  # residue not coprime

    def test_random_free_parameters_stay_exact(self):
        # exactness is structural: it must hold for any admissible
        # (z1, z2, z3, q1, q2, a), not just the reference shape
        import math

        from apmod.rng import SplitMix64

        rng = SplitMix64(99)
        done = 0
        while done < 12:
            x = rng.in_range(500, 5000)
            top = 2.0 * math.sqrt(x)
            z1 = 2.0 + rng.unit() * 6.0
            z2 = z1 + rng.unit() * (top - z1)
            z3 = z2 + rng.unit() * (2.0 * math.sqrt(2 * x) - z2)
            q1 = rng.in_range(1, 6)
            q2 = rng.in_range(1, 4)
            a = rng.in_range(0, max(q1 * q2 - 1, 0))
            if math.gcd(a, q1 * q2) != 1:
                continue
            _, rep = harman_tree(x, z1, z2, z3, q1, q2, a)
            assert rep.exact, (x, z1, z2, z3, q1, q2, a)
            assert all(ok for _, ok in rep.split_checks)
            done += 1

    def test_terminal_census(self):
        # the tree shape fixes the terminal-class counts regardless of scale
        rows, _ = harman_tree(**spec_params(), q1=2, q2=1, a=1)
        # in pre-order a row is a leaf when the next row is no deeper
        census = {}
        for row, after in zip(rows, rows[1:] + [(0,)]):
            if after[0] <= row[0]:
                census[row[3]] = census.get(row[3], 0) + 1
        assert census == {
            "sieve-asymptotic": 5,
            "type-II": 2,
            "three-primes": 1,
            "four-primes": 1,
            "five-or-six-primes": 1,
            "residual": 1,
        }

    def test_dump_contains_all_nodes(self):
        rows, _ = harman_tree(**spec_params(2000), q1=3, q2=1, a=1)
        text = dump_tree(rows)
        for name in ("root", "A0", "M", "B1", "G1", "G1a", "B2a", "G2",
                     "B4a", "G3", "G1b", "G1c", "B3a", "G3c", "G1d", "G1e", "C0"):
            assert name in text
        assert text.count("\n") + 1 == 17  # 6 internal + 11 leaves
