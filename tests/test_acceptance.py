"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `[PASS]`/`[FAIL]` line (run with `pytest -s` to see them
live).  Tolerances are pinned here, not deferred: exact integer equality for
the combinatorial identities, the stated numeric windows everywhere else.
"""

import math
import time
from fractions import Fraction

import numpy as np

from apmod.arith import (
    check_coprime_partition,
    coprime_partition,
    euler_phi,
    random_coprime_pairs,
)
from apmod.buchstab import buchstab_omega
from apmod.completion import (
    completed_ap_sum,
    completed_inverse_sum,
    partition_of_unity,
)
from apmod.constants import (
    BV_MEAN_NORM_DISCREPANCY_1E6,
    BV_MEAN_NORM_ENVELOPE,
    COMPLETION_THRESHOLDS,
    HARMAN_X1E4_FLAG_SNAPSHOT,
    HARMAN_X1E4_ROOT_TRIPLE,
)
from apmod.dispersion import dispersion_expand, fixed_seed_instances
from apmod.expsums import deligne_check, f_property_check, weil_check
from apmod.harman import harman_tree
from apmod.identities import (
    fundamental_lemma_weights,
    heath_brown_decompose,
    random_buchstab_configs,
    reduction_sequences,
    verify_buchstab,
)
from apmod.primes import (
    least_prime_factor_table,
    primes_in,
    rough_count,
    von_mangoldt,
)
from apmod.rng import SplitMix64


def report(num: int, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_c01_exact_buchstab_identity():
    t0 = time.time()
    cfgs = random_buchstab_configs(200, 10**5, seed=0)
    bad = [c for c in cfgs if not verify_buchstab(*c)]
    elapsed = time.time() - t0
    report(
        1,
        not bad and elapsed < 60.0,
        f"200 fixed-seed configs exact, {elapsed:.1f}s (< 60s); failures={len(bad)}",
    )


def test_c02_reduction_sequences_identity():
    t0 = time.time()
    triples = ((30, 5, 100), (20, 3, 50), (50, 7, 1000), (15, 2, 30), (40, 11, 400))
    bad = []
    for z1, z2, y in triples:
        rs = reduction_sequences(z1, z2, y)
        lhs, rhs = rs.identity_sides(10**5)
        if not np.array_equal(lhs[1:], rhs[1:]):
            bad.append((z1, z2, y))
    elapsed = time.time() - t0
    report(
        2,
        not bad and elapsed < 120.0,
        f"identity exact for all n <= 1e5 on {len(triples)} triples, "
        f"{elapsed:.1f}s (< 120s); failures={bad}",
    )


def test_c03_fundamental_lemma_properties():
    n_max = 10**5
    lpf = least_prime_factor_table(n_max)
    violations = 0
    for z in (10, 20, 30):
        rough = lpf[: n_max + 1] > z
        rough[0] = False
        for y in (100, 1000):
            w = fundamental_lemma_weights(z, y)
            for d, v in {**w.lambda_plus, **w.lambda_minus}.items():
                if abs(v) > 1 or d > y:
                    violations += 1
            sp = w.sums_over_range(n_max, "+")
            sm = w.sums_over_range(n_max, "-")
            violations += int(np.count_nonzero(sp[1:][rough[1:]] != 1))
            violations += int(np.count_nonzero(sm[1:][rough[1:]] != 1))
            violations += int(np.count_nonzero(sp[1:][~rough[1:]] < 0))
            violations += int(np.count_nonzero(sm[1:][~rough[1:]] > 0))
    report(
        3,
        violations == 0,
        f"properties (1)-(3) exhaustive n <= 1e5, z in {{10,20,30}}, "
        f"y in {{1e2,1e3}}; violations={violations}",
    )


def test_c04_heath_brown_identity():
    worst = 0.0
    for k in (2, 3):
        for n in range(1, 5001):
            v = heath_brown_decompose(n, k, 5000)
            lam = von_mangoldt(n)
            worst = max(worst, abs(v - lam) / (1 + lam))
    report(4, worst <= 1e-6, f"max |decomposition - Lambda(n)|/(1+Lambda) = {worst:.2e} <= 1e-6")


def test_c05_f_sum_structure_lemma():
    failures = 0
    tested = 0
    for pid in range(1, 8):
        rep = f_property_check(48, pid, samples_per_q=200, seed=0)
        failures += len(rep.failures)
        tested += rep.tested
    report(
        5,
        failures == 0,
        f"all 7 properties, q <= 48, 200 deterministic h-triples/q, "
        f"tol 1e-6*q^2: tested={tested}, failures={failures}",
    )


def test_c06_weil_bound_constant_one():
    rep = weil_check(500, trials_per_c=50, seed=0)
    report(
        6,
        rep.passed and rep.max_ratio < 1.0,
        f"max |S(m,n;c)|/(tau(c) sqrt(c(m,n,c))) over c <= 500 = "
        f"{rep.max_ratio:.6f} < 1 at {rep.witness}",
    )


def test_c07_deligne_bound():
    rep = deligne_check(200)
    report(
        7,
        rep.passed,
        f"|Kl3(a;p)| <= 3 for p <= 200 (max ratio {rep.max_ratio:.6f}); "
        f"|Kl3(a;q)| <= tau_3(q) for squarefree q <= 400; failures={len(rep.failures)}",
    )


def test_c08_buchstab_omega_values():
    w7 = buchstab_omega(7.0)
    w25 = buchstab_omega(2.5)
    want25 = (1 + math.log(1.5)) / 2.5
    ok = (0.5609 < w7 < 0.5619) and (w7 < 4.0 / 7.0) and abs(w25 - want25) <= 1e-6
    report(
        8,
        ok,
        f"omega(7) = {w7:.6f} in (0.5609, 0.5619) and < 4/7; "
        f"|omega(2.5) - closed form| = {abs(w25 - want25):.2e} <= 1e-6",
    )


def test_c09_rough_count_calibration():
    t, z = 10**6, 100
    gamma = 1.0 / 3.0
    count = rough_count(t, z)
    predicted = buchstab_omega(1.0 / gamma) * t / (gamma * math.log(t))
    ratio = count / predicted
    report(9, 0.85 <= ratio <= 1.15, f"rough_count/prediction = {ratio:.4f} in [0.85, 1.15]")


def test_c10_completion_suites():
    worst_ap = 0.0
    for M in (100.0, 1000.0, 10000.0):
        for q in (3, 7, 30, 210):
            H = math.ceil(10 * q * math.log(M) ** 2 / M)
            worst_ap = max(worst_ap, completed_ap_sum(M, q, 2 % q, H).error)
    rng = SplitMix64(5 * 613 + 5)
    insts = []
    while len(insts) < 20:
        N = float(rng.in_range(100, 400))
        q = rng.in_range(3, 17)
        d = rng.in_range(1, 9)
        if math.gcd(d, q) != 1:
            continue
        n0 = rng.in_range(0, d - 1) if d > 1 else 0
        b = rng.in_range(1, q - 1)
        insts.append((N, q, d, n0, b, max(20, math.ceil(60.0 * d * q / N))))
    worst_inv = max(
        completed_inverse_sum(*inst).error for inst in insts
    )
    slack = COMPLETION_THRESHOLDS["h_monotone_slack"]
    monotone = True
    for N, q, d, n0, b, _ in insts[:6]:
        prev = None
        h = 2
        for _ in range(6):
            err = completed_inverse_sum(N, q, d, n0, b, h).error
            if prev is not None and err > prev + slack:
                monotone = False
            prev = err
            h *= 2
    tol_ap = COMPLETION_THRESHOLDS["ap_sum_grid"]
    tol_inv = COMPLETION_THRESHOLDS["inverse_sum"]
    ok = worst_ap < tol_ap and worst_inv < tol_inv and monotone
    report(
        10,
        ok,
        f"ap-sum grid worst {worst_ap:.2e} < {tol_ap}; inverse 20-instance "
        f"worst {worst_inv:.2e} < {tol_inv}; H-doubling monotone within "
        f"{slack}: {monotone}",
    )


def test_c11_dispersion_expansion_identity():
    worst = max(
        dispersion_expand(i).relative_error for i in fixed_seed_instances(10, seed=0)
    )
    report(11, worst <= 1e-9, f"lhs = s1 - 2 Re s2 + s3 worst relative error {worst:.2e} <= 1e-9")


def test_c12_partition_of_unity():
    C, x = 3.0, 50.0
    pieces = partition_of_unity(C, x)
    L = math.log(x) ** C
    sums = [
        sum(float(p(float(t))) for p in pieces) for t in np.linspace(1.0, 2.0, 1000)
    ]
    core_ok = max(abs(s - 1.0) for s in sums) <= 1e-9
    outside_ok = all(
        sum(float(p(float(t))) for p in pieces) == 0.0
        for t in (1.0 - 1.0 / L, 0.5, 2.0 + 1.0 / L, 3.0)
    )
    count_ok = len(pieces) <= L + 2
    nonneg_ok = all(
        float(p(float(t))) >= 0.0 for p in pieces for t in np.linspace(0.9, 2.2, 200)
    )
    report(
        12,
        core_ok and outside_ok and count_ok and nonneg_ok,
        f"sum = 1 on [1,2] within 1e-9 at 1000 points; 0 outside the fattened "
        f"interval; J = {len(pieces)} <= {L + 2:.1f}; pieces nonnegative",
    )


def test_c13_bv_regression():
    x = 10**6
    primes = np.array(primes_in(0, x))
    pix = len(primes)
    terms = []
    for q in range(50, 1001):
        cnt = int(np.count_nonzero(primes % q == 1))
        delta = abs(Fraction(cnt) - Fraction(pix, euler_phi(q)))
        terms.append(float(delta * euler_phi(q) / pix))
    mean = math.fsum(terms) / len(terms)
    drift = abs(mean - BV_MEAN_NORM_DISCREPANCY_1E6)
    ok = drift <= 1e-12 and mean < BV_MEAN_NORM_ENVELOPE
    report(
        13,
        ok,
        f"mean normalized discrepancy {mean!r}, drift from oracle {drift:.1e} "
        f"<= 1e-12, below envelope {BV_MEAN_NORM_ENVELOPE}",
    )


def test_c14_coprime_partition():
    pairs = random_coprime_pairs(500, seed=0)
    classes = coprime_partition(pairs)
    ok = check_coprime_partition(pairs, classes) and len(classes) <= 40
    report(
        14,
        ok,
        f"500 fixed-seed pairs -> {len(classes)} classes (<= 40), "
        f"defining property re-verified exhaustively",
    )


def test_c15_harman_tree():
    x = 10**4
    args = dict(x=x, z1=x ** (1 / 7), z2=x ** (3 / 7), z3=x ** (4 / 7), q1=2, q2=1, a=1)
    _, rep1 = harman_tree(**args)
    _, rep2 = harman_tree(**args)
    blob = "\n".join(rep1.flag_lines())
    ok = (
        rep1.exact
        and rep1.root_value.triple() == HARMAN_X1E4_ROOT_TRIPLE
        and blob == "\n".join(rep2.flag_lines())
        and blob == HARMAN_X1E4_FLAG_SNAPSHOT
    )
    report(
        15,
        ok,
        f"root {rep1.root_value.triple()} equals signed leaf-sum "
        f"{rep1.leaf_sum.triple()} exactly; flag report byte-stable "
        f"({len(rep1.flags)} flags)",
    )
