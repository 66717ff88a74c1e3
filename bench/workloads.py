"""The three benchmark workloads: seeded streams of ``apmod`` CLI jobs.

A job is one argv list for ``apmod.cli.main``.  Each workload has a fixed
pool of jobs, grouped below into job classes; the class sizes set the mix.
A *round* runs every job of the pool once, in an order drawn from the seed,
and a run is a whole number of rounds.  So every run does the same work per
round whatever its seed, while two seeds give different job lists; only the
order, and with it which cached tables are still live, changes.  A pool is
small enough to ship a reference output for every job
(``bench/reference``).

No job carries ``--threads`` or ``--config``: the benchmark measures the
default single-threaded CLI and must keep working when those flags go.

Why each workload was chosen
----------------------------
``sieve-identities``
    ``verify buchstab`` (x from 1e5 to 1e6, three seeded trials), ``decomp``
    (x from 1e4 to 3e5), ``verify heathbrown``, ``verify reduction`` and
    ``verify fundlemma`` (n up to 1e6), and a few ``omega`` jobs.  This is
    where the ``primes`` LPF table (many different limits, so heavy churn in
    its four-entry cache), ``progressions.s_value``, ``identities``,
    ``harman`` and the ``buchstab`` solver do their work.  It calls no
    ``expsums`` code, so an exponential-sum change must leave it flat.
``discrepancy-scan``
    ``bv-scan`` over dyadic q-windows at x from 1e6 to 1e7, eight-modulus
    windows at x = 1e8 (a fifth of the jobs; they form the latency tail),
    ``moduli-set --kind divisor-window`` and ``sieve --lo --hi`` intervals.
    It uses the ``primes`` layer differently: one large sorted prime array
    plus interval tables, with no LPF table.  Most of its time is
    per-modulus counting in ``progressions.bv_aggregate``.  A change to the
    LPF substrate should not move it; a change to the counting path should.
``expsum-sweeps``
    ``verify deligne``, ``verify weil``, ``verify fsum``, ``expsum kl3`` at q
    up to 3003, ``completion-demo`` and ``dispersion-demo``.  Here
    ``expsums`` (``_pair_tables``, ``kl3_prime_table``, ``kl3_squarefree``),
    ``arith.factorize``, ``completion`` quadrature and ``dispersion`` do the
    work, with almost no sieve work.  Five ``expsum kl3`` jobs use prime
    moduli near 2000; ``_pair_tables`` keeps O(phi(q)^2) arrays for each of
    them, so peak RSS reaches about 0.75 GB.  Those sizes are kept on
    purpose: that retention is the defect a later change removes.

Which per-layer metric should move which end-to-end metric
----------------------------------------------------------
See ``LAYER_MAP`` below; ``bench/run.py --trace 1`` reports every metric it
names, and later changes cite metrics and workloads by these names.
"""

from __future__ import annotations

import random

WHY = {
    "sieve-identities": (
        "Buchstab/Harman/Heath-Brown identity checks: LPF-table churn, s_value, "
        "harman tree, omega solver; calls no expsums code"
    ),
    "discrepancy-scan": (
        "bv-scan, divisor-window and interval sieve jobs: one large prime array and "
        "per-modulus counting in bv_aggregate, no LPF table; x = 1e8 jobs form the tail"
    ),
    "expsum-sweeps": (
        "Deligne/Weil/F-sum checks, Kl3 up to q = 3003, completion and dispersion: "
        "pair tables, Kl3 tables, factorize; pair-table retention sets peak RSS"
    ),
}

# (per-layer metrics, end-to-end metrics they should move, workload on which
# they should move them, workloads on which those end-to-end metrics should
# stay flat).  "a.b.{c,d}" stands for a.b.c and a.b.d.
LAYER_MAP = [
    (
        [
            "primes.least_prime_factor_table.{calls,self_s,hit_ratio,bytes_built}",
            "progressions.s_value.{calls,self_s}",
            "harman.harman_tree.self_s",
            "identities.verify_buchstab.self_s",
        ],
        "jobs_per_s, job_p50_ms (watch peak_rss_mb)",
        "sieve-identities",
        "expsum-sweeps, discrepancy-scan",
    ),
    (
        [
            "progressions.bv_aggregate.{calls,self_s}",
            "primes.sieve_upto.{calls,self_s,hit_ratio}",
            "primes.primes_in.self_s",
            "progressions.divisor_window_family.self_s",
        ],
        "jobs_per_s, job_p90_ms (x = 1e8 jobs form the tail)",
        "discrepancy-scan",
        "expsum-sweeps",
    ),
    (
        [
            "expsums.kl3_prime_table.{calls,self_s,hit_ratio}",
            "expsums.kl3_squarefree.{calls,self_s}",
            "expsums.pair_tables.{calls,hit_ratio,bytes_built}",
            "arith.factorize.{calls,self_s}",
        ],
        "job_p90_ms, peak_rss_mb",
        "expsum-sweeps",
        "sieve-identities",
    ),
    (
        [
            "expsums.f_sum.{calls,self_s}",
            "expsums.kl3.{calls,self_s}",
            "expsums.kloosterman.{calls,self_s}",
            "completion.hat.{calls,self_s}",
            "dispersion.dispersion_expand.{calls,self_s}",
        ],
        "jobs_per_s, job_p50_ms",
        "expsum-sweeps",
        "",
    ),
    (
        [
            "buchstab.solve_buchstab.{calls,self_s}",
            "identities.heath_brown_decompose.{calls,self_s}",
            "identities.identity_sides.self_s",
            "identities.fundamental_lemma_weights.self_s",
        ],
        "jobs_per_s",
        "sieve-identities",
        "",
    ),
    # job time outside every child span: argparse and CSV writing
    (["cli.self_s"], "job_p50_ms", "all three", ""),
    # traced span count times the per-span wrapper cost measured in the
    # traced process: what tracing added to the traced run's wall time
    (["trace.overhead_s"], "none; it qualifies the per-layer numbers", "all three", ""),
]


def _jobs(prefix: str, *axes) -> list[list[str]]:
    """``prefix`` plus one value of each ``(flag, values)`` axis, every combination."""
    out = [prefix.split()]
    for flag, values in axes:
        out = [job + [flag, str(v)] for job in out for v in values]
    return out


# workload -> {job class: the class's jobs}; one round runs each job once
WORKLOADS: dict[str, dict[str, list[list[str]]]] = {
    "sieve-identities": {
        # many mid-sized configurations, so the median job falls among
        # jobs of nearly the same cost
        "buchstab": _jobs(
            "verify buchstab",
            ("--x", (150_000, 200_000, 300_000, 400_000, 500_000)),
            ("--trials", (3,)),
            ("--seed", (0, 1, 2, 3, 4)),
        ) + _jobs(
            "verify buchstab",
            ("--x", (700_000, 1_000_000)),
            ("--trials", (3,)),
            ("--seed", (0, 1, 2)),
        ),
        "decomp": [
            ["decomp", "--x", str(x), "--q1", q1, "--q2", q2, "--a", a]
            for x in (10_000, 30_000, 100_000, 300_000)
            for q1, q2, a in (("2", "1", "1"), ("5", "2", "3"))
        ],
        "heathbrown": _jobs("verify heathbrown", ("--n-max", (200, 400, 600))),
        "reduction": _jobs("verify reduction", ("--n-max", (100_000, 300_000, 1_000_000))),
        "fundlemma": _jobs("verify fundlemma", ("--n-max", (100_000, 300_000, 1_000_000))),
        "omega": _jobs("omega", ("--u", (2, 3, 4.5, 6, 8, 10))),
    },
    "discrepancy-scan": {
        # windows of about 5e6 prime-modulus steps each (pi(x) * members),
        # so these jobs cost alike and the median job falls among them
        "bv-scan": [
            ["bv-scan", "--x", str(x), "--qlo", str(q), "--qhi", str(2 * q - 1), "--a", str(a)]
            for x, q, a in (
                (1_000_000, 64, 1), (1_000_000, 128, 2), (2_000_000, 32, 1), (2_000_000, 64, 2),
                (2_000_000, 48, 3), (3_000_000, 24, 1), (3_000_000, 48, 2), (5_000_000, 16, 1),
                (5_000_000, 32, 2), (10_000_000, 8, 1), (10_000_000, 16, 2), (10_000_000, 12, 3),
            )
        ],
        "bv-scan-1e8": [
            ["bv-scan", "--x", "100000000", "--qlo", str(q), "--qhi", str(q + 7)]
            for q in (8, 32, 128, 512, 2048, 8192)
        ],
        "divisor-window": _jobs(
            "moduli-set --kind divisor-window",
            ("--x", (100_000, 1_000_000, 10_000_000)),
            ("--delta", (0.005, 0.01)),
        ),
        # two upper ends only: with the six bv-scan x values that is eight
        # sieve_upto limits, which its eight-entry cache holds, so which
        # tables are rebuilt does not depend on the job order
        "sieve": [
            ["sieve", "--lo", str(hi - width), "--hi", str(hi)]
            for hi in (101_000_000, 1_001_000_000)
            for width in (250_000, 500_000, 1_000_000)
        ],
    },
    "expsum-sweeps": {
        "deligne": _jobs("verify deligne", ("--p-max", (60, 100, 150, 200))),
        "weil": _jobs(
            "verify weil", ("--c-max", (50, 100, 200)), ("--trials", (10,)), ("--seed", (0, 1))
        ),
        "fsum": _jobs(
            "verify fsum", ("--q-max", (12, 24, 32)), ("--trials", (10,)), ("--seed", (0, 1))
        ),
        # five primes near 2000 whose pair tables (about 96 MB each) all stay
        # cached; once built these jobs cost alike and hold the 90th percentile
        "kl3-large": _jobs("expsum kl3", ("--a", (1,)), ("--q", (1999, 2003, 2011, 2017, 2027))),
        "kl3": _jobs(
            "expsum kl3", ("--a", (1, 2)), ("--q", (97, 210, 499, 1000, 1155, 1540, 2310, 3003))
        ),
        "completion": _jobs(
            "completion-demo", ("--M", (30, 50, 100)), ("--q", (5, 7)), ("--H", (50,))
        ),
        "dispersion": _jobs("dispersion-demo", ("--count", (2, 4, 6)), ("--seed", (0, 1))),
    },
}


def pool(workload: str) -> list[list[str]]:
    """Every distinct job of the workload: the jobs of one round, in a fixed order."""
    return [job for grid in WORKLOADS[workload].values() for job in grid]


def rounds(workload: str, seed: int, count: int) -> list[list[list[str]]]:
    """The first ``count`` rounds of the job stream for ``workload`` and ``seed``.

    Each round runs every job of the pool once, in an order drawn from the
    seed, so all runs do the same work per round and equal seeds give equal
    job lists.
    """
    rng = random.Random(f"{workload}:{seed}")
    jobs = pool(workload)
    return [rng.sample(jobs, len(jobs)) for _ in range(count)]


def job_key(argv: list[str]) -> str:
    """The reference-table key of a job."""
    return " ".join(argv)
