"""Command-line surface: experiment runners, verification sweeps, CSV out.

Every subcommand writes CSV with a header row to stdout or --out.  The first
line is a `#` comment carrying the invocation and a timestamp; it is the only
nondeterministic output, so re-running with identical flags and seed yields
byte-identical CSV after dropping comment lines.  Exit codes: 0 success with
all assertions passing, 1 assertion failure (witness rows are still emitted),
2 usage error.

A row-per-modulus or row-per-prime body (``bv-scan``, ``moduli-set``,
``sieve --list``) is written a column at a time by ``Output.rows``: each
column of a chunk of rows is formatted in one pass and the chunk goes out in
one write, byte for byte what the row-at-a-time ``csv.writer`` path writes
for the same fields.  Rows that may need CSV quoting (witness rows) stay on
``Output.row``.

``COMMANDS`` is the whole surface: one row per subcommand with its help, its
handler and its flags, each flag with its type, default, help and accepted
range, which ``--help`` prints.  ``main`` builds the parser of the chosen
subcommand only, once per process, and checks every numeric flag against its
range before the handler runs, so a value outside it (NaN included) exits 2
with one line.  Bounds worked out from two flags stay in the handlers.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from datetime import datetime, timezone
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import __version__
from .arith import (
    bezout_split,
    check_coprime_partition,
    coprime_partition,
    euler_phi,
    random_coprime_pairs,
)
from .buchstab import U_MAX, buchstab_omega
from .completion import completed_ap_sum, completed_inverse_sum, coprime_smooth_sum
from .dispersion import dispersion_expand, fixed_seed_instances
from .expsums import (
    DELIGNE_P_MAX,
    F_Q_MAX,
    WEIL_C_MAX,
    deligne_check,
    f_property_check,
    f_sum,
    kl3,
    kl3_correlation,
    kloosterman,
    ramanujan,
    weil_check,
)
from .harman import dump_tree, harman_tree
from .identities import (
    fundamental_lemma_weights,
    heath_brown_range,
    random_buchstab_configs,
    reduction_sequences,
    verify_buchstab,
)
from .primes import arith_window, least_prime_factor_table, prime_segments
from .progressions import (
    Q_MAX,
    bifactor_box_family,
    box_constraints,
    bv_aggregate,
    check_window_params,
    divisor_window,
    divisor_window_family,
    dyadic_family,
)


def _fmt(v) -> str:
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    if isinstance(v, complex):
        return f"{v.real:.12g}{v.imag:+.12g}j"
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


# Output.rows formats this many rows at a time, so a family of FAMILY_MAX
# moduli never holds all its Python scalars and strings at once
ROWS_CHUNK = 1 << 12
_COLUMN = (np.ndarray, list)


def _cells(col) -> list[str]:
    """``_fmt`` of each entry of one column chunk, by one rule where all share a type."""
    if isinstance(col, np.ndarray):
        col = col.tolist()
    kinds = set(map(type, col))
    if kinds <= {int, str}:
        return list(map(str, col))
    if kinds == {float}:
        return [f"{v:.12g}" for v in col]
    return [_fmt(v) for v in col]


class Output:
    """CSV rows to ``path`` or stdout, opened at the first row.

    A run that fails before its first row therefore creates no file and
    leaves an existing one untouched.
    """

    def __init__(self, path: str | None, argv_desc: str, seed: int):
        self.path = path
        stamp = datetime.now(timezone.utc).isoformat()
        self.header = f"# apmod {__version__} {argv_desc} seed={seed} generated={stamp}\n"
        self.fh = None

    def _open(self):
        if self.fh is None:
            self.fh = open(self.path, "w", newline="") if self.path else sys.stdout
            self.fh.write(self.header)
            self.writer = csv.writer(self.fh, lineterminator="\n")

    def row(self, *vals):
        self._open()
        self.writer.writerow([_fmt(v) for v in vals])

    def rows(self, *cols):
        """One CSV row per index across equal-length columns, ROWS_CHUNK rows per write.

        A column is a numpy array or a list; any other argument is a scalar
        that repeats in every row, formatted once.  Each chunk of a column is
        formatted by ``_fmt``'s rules in one pass, and each chunk of rows is
        joined and written with one ``fh.write``.  That is byte for byte what
        ``row`` writes as long as ``csv.writer`` would quote no field: no
        field may hold a comma, a quote or a line break, and no row may be
        one empty field.  Numbers never do, nor do the callers' str fields:
        ``n/d``, and ``yes`` or an empty flag among four fields.
        """
        self._open()
        lengths = {len(c) for c in cols if isinstance(c, _COLUMN)}
        if len(lengths) != 1:
            raise ValueError(f"Output.rows needs columns of one length, got {sorted(lengths)}")
        (n,) = lengths
        fixed = [None if isinstance(c, _COLUMN) else _fmt(c) for c in cols]
        for i in range(0, n, ROWS_CHUNK):
            j = min(i + ROWS_CHUNK, n)
            cells = [_cells(c[i:j]) if f is None else [f] * (j - i) for c, f in zip(cols, fixed)]
            self.fh.write("".join(map("{}\n".format, map(",".join, zip(*cells)))))

    def note(self, text: str):
        """A ``#`` diagnostic line, outside the CSV body."""
        self._open()
        self.fh.write(f"# {text}\n")

    def close(self):
        if self.path and self.fh is not None:
            self.fh.close()


def _at_most(label: str, value, hi) -> None:
    """Reject a size worked out from flags above hi; the error names it."""
    if value > hi:
        raise ValueError(f"{label} must be <= {hi}, got {value}")


REQUIRED = ...  # a flag default: the flag must be given
INF = math.inf
SEED = ("--seed", int, 0, "deterministic sampling seed")
TOLERANCE = (0, sys.float_info.max)  # finite; 0 demands an exact match
# The sieve identities read the shared LPF table, 4 * (limit + 1) bytes:
# limit = --n-max <= 1e7 is 40 MB, limit = 2 * --x <= 2e7 is 80 MB.
LPF_LIMIT_MAX = 10**7
N_MAX = ("--n-max", int, 10**5, "exhaustive bound on n", (1, LPF_LIMIT_MAX))
Q_ARRAYS = ("--q", int, REQUIRED, "modulus", (-INF, 10**6))  # O(q) arrays: 85 MB at the cap
# Kl3 and F-sums stream phi(q)^2 phases, capped in the subcommand at
# PAIRS_MAX = phi(1e5)^2: 11 s at q = 1e5 (2 vCPUs, Intel Xeon).  The --q
# cap alone admits the prime 99991, 1e10 phases and 94 s.
Q_PAIRS = ("--q", int, REQUIRED, "modulus", (-INF, 10**5))
PAIRS_MAX = 40_000**2
# bv-scan and moduli-set hold their moduli in int64 columns, and bv-scan
# counts each up to Q_MAX (progressions); --qhi = --qlo - 1 is an empty
# range.  The residue meets the moduli in np.gcd, so it fits int64 too.
RESIDUE = ("--a", int, 1, "residue class", (-(2**63 - 1), 2**63 - 1))
# each moduli-set family (dyadic qhi - qlo, divisor-window x^(1/2+delta),
# box q1 * q2) peaks at 47, 48 and 56 MB at this many moduli, in 0.5 to 0.6,
# 0.5 to 0.8 and 0.9 to 1.1 s (2 vCPUs, Intel Xeon; divisor-window at
# x = 581707992331, delta = 0.01)
FAMILY_MAX = 10**6
# verify weil sums about 0.3 * c-max^2 * trials Kloosterman terms at about
# 20 ns each, in one kloosterman call per modulus: at this cap 3.6 s and
# 100 MB with --c-max 2000 --trials 125, 3.7 to 4.7 s and 71 MB with 707 and 1000
WEIL_WORK_MAX = 5 * 10**8
# verify fsum at this cap: 7.5 to 7.8 s with --q-max 200 --trials 60, 2.0
# to 2.2 s with 60 and 200, 1.3 to 1.4 s with 12 and 1000
FSUM_WORK_MAX = 12_000

GROUPS = {"expsum": "evaluate one exponential sum", "verify": "run a verification sweep"}

# (subcommand path, help, handler name, flags).  A flag is (name, type,
# default, help[, (lo, hi)]): type bool is a switch and a tuple of strings
# lists the choices.  A numeric flag without a range still refuses NaN.
# Every cost below was measured in one process from interpreter start.
COMMANDS = [
    (("sieve",), "primes in a range (lo, hi]", "cmd_sieve", (
        ("--lo", int, 0, "lower bound, exclusive", (-1, INF)),
        # keeps the base primes (<= sqrt(hi)) under 1 MB as int64; a block holds
        # their start offsets as Python ints too, 6 MB more at the cap
        ("--hi", int, REQUIRED, "upper bound, inclusive", (-INF, 10**12)),
        ("--list", bool, False, "emit one row per prime"),
    )),
    (("bv-scan",), "discrepancy scan over a modulus range", "cmd_bv_scan", (
        # norm_delta divides by pi(x); the cached prime bitmap takes x/16
        # bytes, 125 MB at the cap (94 MB peak at x = 1e9)
        ("--x", int, REQUIRED, "count primes up to x", (2, 2 * 10**9)),
        ("--qlo", int, REQUIRED, "lowest modulus", (1, Q_MAX)),
        ("--qhi", int, REQUIRED, "highest modulus", (0, Q_MAX)),
        RESIDUE,
    )),
    (("moduli-set",), "realize a moduli family", "cmd_moduli_set", (
        ("--kind", ("box", "divisor-window", "dyadic"), REQUIRED, "family to realize"),
        # the divisor-window kind caps it before forming x^(1/2+delta) as a float
        ("--x", int, REQUIRED, "scale parameter x", (0, INF)),
        RESIDUE,
        ("--q1", int, 10, "box kind: largest q1"),
        ("--q2", int, 10, "box kind: largest q2"),
        ("--delta", float, 0.01, "divisor-window exponent delta"),
        ("--eta", float, 0.01, "divisor-window exponent eta"),
        ("--qlo", int, 100, "dyadic kind: lowest modulus", (1, Q_MAX)),
        ("--qhi", int, 200, "dyadic kind: highest modulus", (0, Q_MAX)),
    )),
    (("expsum", "ramanujan"), "Ramanujan sum c_q(n)", "cmd_expsum_ramanujan", (
        Q_ARRAYS,
        ("--n", int, REQUIRED, "argument"),
    )),
    (("expsum", "kloosterman"), "Kloosterman sum S(m, n; c)", "cmd_expsum_kloosterman", (
        ("--m", int, REQUIRED, "first argument"),
        ("--n", int, REQUIRED, "second argument"),
        Q_ARRAYS,
    )),
    (("expsum", "kl3"), "hyper-Kloosterman sum Kl3(a; q)", "cmd_expsum_kl3", (
        ("--a", int, REQUIRED, "argument"),
        Q_PAIRS,
    )),
    (("expsum", "fsum"), "F-sum F(h1, h2, h3; a; q)", "cmd_expsum_fsum", (
        *((f"--{h}", int, REQUIRED, "frequency") for h in ("h1", "h2", "h3")),
        ("--a", int, REQUIRED, "residue"),
        Q_PAIRS,
    )),
    (("expsum", "correlation"), "correlation of two Kl3 twists", "cmd_expsum_correlation", (
        # one Kl3 table per modulus, read at each h <= 5H/2: 0.5 s at the cap,
        # 2.4 s with --s 9973 (2 vCPUs, Intel Xeon)
        ("--H", float, REQUIRED, "length of the smoothed h-sum", (1, 10**5)),
        *((f"--{n}", int, REQUIRED, "residue") for n in ("a1", "a2")),
        *((f"--{n}", int, REQUIRED, "squarefree modulus") for n in ("r1", "r2", "s")),
    )),
    (("verify", "buchstab"), "exact Buchstab identity", "cmd_verify_buchstab", (
        # configurations draw x from [50, --x] and read the LPF table to 2x
        ("--x", int, 10**5, "max x for configurations", (50, LPF_LIMIT_MAX)),
        # 0.3 to 0.4 s and 31 MB at the defaults, 0.4 s at the cap; at --x 1e7,
        # 2.0 to 2.2 s and 108 MB, 6.9 to 8.1 s and 109 MB at the cap (2 vCPUs, Intel Xeon)
        ("--trials", int, 200, "number of seeded configurations", (1, 1000)),
        SEED,
    )),
    (("verify", "heathbrown"), "Heath-Brown identity", "cmd_verify_heathbrown", (
        # a few arrays of n-max + 1 entries: 0.4 s and 46 MB at the cap (2 vCPUs, Intel Xeon)
        ("--n-max", int, 5000, "check every n up to this", (1, 10**5)),
        ("--verbose", bool, False, "emit one row per n"),
    )),
    (("verify", "fundlemma"), "fundamental-lemma weights", "cmd_verify_fundlemma", (N_MAX,)),
    (("verify", "reduction"), "reduction-sequence identity", "cmd_verify_reduction", (N_MAX,)),
    (("verify", "fsum"), "the seven F-sum properties", "cmd_verify_fsum", (
        # property 1 needs a modulus with two prime factors, the first is 6
        ("--q-max", int, 48, "largest modulus swept", (6, F_Q_MAX)),
        # --q-max times --trials is capped too, at FSUM_WORK_MAX
        ("--trials", int, 200, "h-triples per modulus", (1, 1000)),
        ("--tol", float, None, "largest deviation; 1e-6*q^2 at modulus q if omitted", TOLERANCE),
        SEED,
    )),
    (("verify", "weil"), "Weil bound for Kloosterman sums", "cmd_verify_weil", (
        ("--c-max", int, 500, "largest modulus swept", (2, WEIL_C_MAX)),
        # one list of pairs per modulus; --c-max squared times --trials is
        # capped too, at WEIL_WORK_MAX
        ("--trials", int, 50, "(m, n) pairs per modulus", (1, 1000)),
        SEED,
    )),
    (("verify", "deligne"), "Deligne bound for Kl3", "cmd_verify_deligne", (
        ("--p-max", int, 200, "largest prime modulus swept", (2, DELIGNE_P_MAX)),
    )),
    (("verify", "bezout"), "Bezout split for q1, q2 <= 50", "cmd_verify_bezout", ()),
    (("verify", "partition"), "coprime partition of 500 pairs", "cmd_verify_partition", (SEED,)),
    (("decomp",), "build and verify the decomposition tree", "cmd_decomp", (
        ("--x", int, REQUIRED, "dyadic scale: n ~ x", (1, LPF_LIMIT_MAX)),
        ("--z1", float, None, "first sifting limit; x^(1/7) when omitted", (0, INF)),
        ("--z2", float, None, "second sifting limit; x^(3/7) when omitted"),
        ("--z3", float, None, "product-size split; min(x^(4/7), 2*sqrt(2x)) when omitted"),
        ("--q1", int, 2, "first modulus factor"),
        ("--q2", int, 1, "second modulus factor"),
        ("--a", int, 1, "residue class"),
        ("--epsilon", float, 0.0, "exponent slack of the x^(1+2 epsilon) cuts"),
    )),
    (("dispersion-demo",), "dispersion expansion identity on tiny instances",
     "cmd_dispersion_demo", (
        # 0.33 ms per instance: 3.4-3.7 s and 60 MB at the cap on 2 vCPUs
        ("--count", int, 10, "number of fixed-seed instances", (1, 10**4)),
        ("--tol", float, 1e-9, "largest allowed relative error", TOLERANCE),
        SEED,
    )),
    (("completion-demo",), "completion-of-sums reports", "cmd_completion_demo", (
        # psi0(m/M) lives on M/2 < m < 5M/2: from M = 1 it weighs m = 1 and 2;
        # the enumeration refuses M above 1e6, and a subnormal M overflows m/M
        ("--M", float, 100.0, "length scale of the smoothed sum", (1, 10**6)),
        ("--q", int, 7, "modulus"),
        ("--a", int, 3, "residue of the progression sum"),
        ("--d", int, 3, "modulus of the inverse-sum congruence"),
        ("--n0", int, 1, "residue modulo d"),
        ("--b", int, 2, "numerator of the inverse phase"),
        # 4.9 s and 62 MB at the cap; 7.4 s and 102 MB with --M 4e5 --d 3
        ("--H", int, 100, "dual frequencies kept", (0, 10**5)),
    )),
    (("omega",), "Buchstab omega(u)", "cmd_omega", (("--u", float, REQUIRED, "u", (1, U_MAX)),)),
]


# ---------------------------------------------------------------------------
# subcommand implementations; each returns the exit code


def cmd_sieve(args, out: Output) -> int:
    # --list holds the primes of (lo, hi] and writes them a segment at a time:
    # at the 1e8 width cap 2.6-2.8 s and 78 MB from 0, 3.3-4.1 s and 73 MB
    # just below 1e12; the summary alone reads one segment at a time (37 MB
    # and 0.4 s from 0, 42 MB and 2.0 s below 1e12; 2 vCPUs, Intel Xeon)
    _at_most("--hi minus --lo", args.hi - args.lo, 10**8)
    if args.lo > args.hi:
        raise ValueError(f"reversed range ({args.lo}, {args.hi}]")
    segments = prime_segments(args.lo + 1, args.hi)
    if args.list:
        segments = list(segments)  # the summary row comes first
    count, first, last = 0, "", ""
    for seg in segments:
        if len(seg):
            if not count:
                first = int(seg[0])
            count += len(seg)
            last = int(seg[-1])
    out.row("lo", "hi", "count", "first", "last")
    out.row(args.lo, args.hi, count, first, last)
    if args.list:
        out.row("p")
        for seg in segments:
            out.rows(seg)
    return 0


def cmd_bv_scan(args, out: Output) -> int:
    # one row per modulus.  At x = 1000, 1e5 moduli from 1 take 43 MB and 1.3-1.8 s, near
    # 2e9 59 MB and 2.3-2.4 s, just below Q_MAX 58 MB and 53-56 s (factorize on the
    # cofactors), and 1e6 from 1 (bv_aggregate alone) 96 MB and 9 s (2 vCPUs, Intel Xeon)
    _at_most("--qhi minus --qlo", args.qhi - args.qlo, 10**5)
    qs = dyadic_family(args.qlo, args.qhi, args.a)
    pix, counts, phis, total = bv_aggregate(args.x, args.a, qs)
    out.row("x", "q", "a", "pi_ap", "expected", "delta", "norm_delta")
    norm = []
    # one Output.rows call per chunk, so no other column is held whole
    for i in range(0, len(qs), ROWS_CHUNK):
        q, cnt, phi = (c[i : i + ROWS_CHUNK] for c in (qs, counts, phis))
        g = np.gcd(phi, pix)  # pi(x)/phi(q) in lowest terms, as Fraction writes it
        expected = list(map("{}/{}".format, (pix // g).tolist(), (phi // g).tolist()))
        phi_ints = phi.tolist()
        delta = [abs(c * f - pix) / f for c, f in zip(cnt.tolist(), phi_ints)]  # Python ints
        norm_delta = [d * f / pix for d, f in zip(delta, phi_ints)]
        norm += norm_delta
        out.rows(args.x, q, args.a % q, cnt, expected, delta, norm_delta)
    out.row("total", float(total), "", "", "", "", "")
    if norm:
        out.row("mean_norm_delta", math.fsum(norm) / len(norm), "", "", "", "", "")
    return 0


def cmd_moduli_set(args, out: Output) -> int:
    # each kind builds (or refuses) its family before the first row
    if args.kind == "box":
        _at_most("--q1 times --q2", max(args.q1, 0) * max(args.q2, 0), FAMILY_MAX)
        q1, q2 = bifactor_box_family(args.q1, args.q2, args.a)
        constraints = box_constraints(args.x, args.q1, args.q2)
        out.row("q1", "q2", "q")
        for name, ok in constraints.items():
            out.row("constraint", name, "holds" if ok else "violated")
        out.rows(q1, q2, q1 * q2)
    elif args.kind == "divisor-window":
        # both before x^(1/2+delta) is formed
        _at_most("--x", args.x, 10**30)
        check_window_params(args.delta, args.eta)
        _at_most("x^(1/2+delta)", int(args.x ** (0.5 + args.delta)), FAMILY_MAX)
        members, flagged = divisor_window_family(args.x, args.delta, args.eta, args.a)
        lo, hi = divisor_window(args.x, args.delta, args.eta)
        is_flagged = np.isin(members, flagged)
        out.note(f"flagged non-members (no row): {len(flagged) - np.count_nonzero(is_flagged)}")
        out.row("q", "window_lo", "window_hi", "flagged")
        out.rows(members, lo, hi, np.where(is_flagged, "yes", ""))
    else:
        _at_most("--qhi minus --qlo", args.qhi - args.qlo, FAMILY_MAX)
        qs = dyadic_family(args.qlo, args.qhi, args.a)
        out.row("q")
        out.rows(qs)
    return 0


def cmd_expsum_ramanujan(args, out: Output) -> int:
    v = ramanujan(args.q, args.n)
    out.row("kind", "q", "n", "value_re", "value_im")
    out.row("ramanujan", args.q, args.n, v.real, v.imag)
    return 0


def cmd_expsum_kloosterman(args, out: Output) -> int:
    v = kloosterman(args.m, args.n, args.q)
    out.row("kind", "m", "n", "c", "value_re", "value_im", "abs")
    out.row("kloosterman", args.m, args.n, args.q, v.real, v.imag, abs(v))
    return 0


def _pairs_at_most(q: int) -> None:
    """Refuse a modulus with more than PAIRS_MAX unit pairs; the library
    refuses q < 1 itself."""
    if q >= 1:
        _at_most("phi(--q) squared", euler_phi(q) ** 2, PAIRS_MAX)


def cmd_expsum_kl3(args, out: Output) -> int:
    _pairs_at_most(args.q)
    v = kl3(args.a, args.q)
    out.row("kind", "a", "q", "value_re", "value_im", "abs")
    out.row("kl3", args.a, args.q, v.real, v.imag, abs(v))
    return 0


def cmd_expsum_fsum(args, out: Output) -> int:
    _pairs_at_most(args.q)
    v = f_sum(args.h1, args.h2, args.h3, args.a, args.q)
    out.row("kind", "h1", "h2", "h3", "a", "q", "value_re", "value_im", "abs")
    out.row("fsum", args.h1, args.h2, args.h3, args.a, args.q, v.real, v.imag, abs(v))
    return 0


def cmd_expsum_correlation(args, out: Output) -> int:
    r = kl3_correlation(args.H, args.a1, args.a2, args.r1, args.r2, args.s)
    out.row("kind", "H", "a1", "a2", "r1", "r2", "s", "lhs_re", "lhs_im", "rhs_bound", "ratio")
    out.row(
        "correlation", args.H, args.a1, args.a2, args.r1, args.r2, args.s,
        r["lhs"].real, r["lhs"].imag, r["rhs_bound"], r["ratio"],
    )
    return 0


def cmd_verify_buchstab(args, out: Output) -> int:
    failures = 0
    out.row("x", "d", "z1", "z2", "q1", "q2", "a", "ok")
    for c in random_buchstab_configs(args.trials, args.x, seed=args.seed):
        ok = verify_buchstab(*c)
        failures += not ok
        out.row(*c, "pass" if ok else "FAIL")
    return 1 if failures else 0


def cmd_verify_heathbrown(args, out: Output) -> int:
    failures = 0
    lams = [math.log(p) if p else 0.0 for p in arith_window(1, args.n_max)[2].tolist()]
    out.row("n", "k", "value", "lambda", "dev", "ok")
    for k in (2, 3):
        values = heath_brown_range(args.n_max, k, args.n_max).tolist()
        for n, lam in enumerate(lams, start=1):
            v = values[n]
            ok = abs(v - lam) <= 1e-6 * (1 + lam)
            failures += not ok
            if not ok or args.verbose:
                out.row(n, k, v, lam, abs(v - lam), "pass" if ok else "FAIL")
    out.row("tested", 2 * args.n_max, "", "", "", "pass" if not failures else "FAIL")
    return 1 if failures else 0


def cmd_verify_fundlemma(args, out: Output) -> int:
    failures = 0
    out.row("z", "y", "n_max", "rough_equal_one", "sign_property", "ok")
    lpf = least_prime_factor_table(args.n_max)
    for z in (10, 20, 30):
        rough = (lpf[1:] > z).view(np.int8)  # 1[P^-(n) > z] for n = 1 .. n_max
        smooth = 1 - rough
        for y in (100, 1000):
            w = fundamental_lemma_weights(z, y)
            sp = w.sums_over_range(args.n_max, "+")[1:]
            sm = w.sums_over_range(args.n_max, "-")[1:]
            # sm <= rough <= sp fails at few n: off the rough n that breaks v2,
            # on them v1, which also needs sp <= 1 <= sm there
            low, high = rough[sp < rough], rough[sm > rough]
            v1 = not (low.any() or high.any()) and bool(
                (sp * rough).max() <= 1 <= np.maximum(sm, smooth).min())
            v2 = bool(low.all() and high.all())
            failures += not (v1 and v2)
            out.row(z, y, args.n_max, v1, v2, "pass" if v1 and v2 else "FAIL")
    return 1 if failures else 0


def cmd_verify_reduction(args, out: Output) -> int:
    failures = 0
    out.row("z1", "z2", "y", "n_max", "ok")
    for (z1, z2, y) in ((30, 5, 100), (20, 3, 50), (50, 7, 1000), (15, 2, 30), (40, 11, 400)):
        rs = reduction_sequences(z1, z2, y)
        lhs, rhs = rs.identity_sides(args.n_max)
        ok = bool(np.array_equal(lhs[1:], rhs[1:]))
        failures += not ok
        out.row(z1, z2, y, args.n_max, "pass" if ok else "FAIL")
    return 1 if failures else 0


def cmd_verify_fsum(args, out: Output) -> int:
    _at_most("--q-max times --trials", args.q_max * args.trials, FSUM_WORK_MAX)
    reps = [
        f_property_check(args.q_max, pid, args.trials, tol=args.tol, seed=args.seed)
        for pid in range(1, 8)
    ]
    out.row("property", "tested", "failures", "max_dev_over_tol", "ok")
    for pid, rep in enumerate(reps, start=1):
        out.row(pid, rep.tested, len(rep.failures), rep.max_ratio, "pass" if rep.passed else "FAIL")
        for w in rep.failures[:10]:
            out.row("witness", str(w), "", "", "")
    return 1 if any(rep.failures for rep in reps) else 0


def _bound_sweep(rep, out: Output) -> int:
    out.row("tested", "max_ratio", "witness", "ok")
    out.row(rep.tested, rep.max_ratio, str(rep.witness), "pass" if rep.passed else "FAIL")
    return 1 if rep.failures else 0


def cmd_verify_weil(args, out: Output) -> int:
    _at_most("--c-max squared times --trials", args.c_max**2 * args.trials, WEIL_WORK_MAX)
    return _bound_sweep(weil_check(args.c_max, args.trials, seed=args.seed), out)


def cmd_verify_deligne(args, out: Output) -> int:
    return _bound_sweep(deligne_check(args.p_max), out)


def cmd_verify_bezout(args, out: Output) -> int:
    out.row("q1_max", "checked", "ok")
    checked = failures = 0
    for q1 in range(1, 51):
        for q2 in range(1, 51):
            if math.gcd(q1, q2) != 1:
                continue
            a = np.arange(q1 * q2)
            n1, n2 = bezout_split(a, q1, q2)
            for bad in a[(n1 * q1 + n2 * q2 - a) % (q1 * q2) != 0]:
                failures += 1
                out.row("witness", f"a={bad} q1={q1} q2={q2}", "FAIL")
            checked += len(a)
    out.row(50, checked, "pass" if not failures else "FAIL")
    return 1 if failures else 0


def cmd_verify_partition(args, out: Output) -> int:
    pairs = random_coprime_pairs(500, seed=args.seed)
    classes = coprime_partition(pairs)
    ok = check_coprime_partition(pairs, classes)
    out.row("pairs", "classes", "property_ok")
    out.row(len(pairs), len(classes), "pass" if ok else "FAIL")
    return 0 if ok else 1


def cmd_decomp(args, out: Output) -> int:
    x = args.x
    z1 = x ** (1 / 7) if args.z1 is None else args.z1
    z2 = x ** (3 / 7) if args.z2 is None else args.z2
    # x^(4/7) passes the tree's 2*sqrt(2x) limit above x = 2^21
    z3 = min(x ** (4 / 7), 2 * math.sqrt(2 * x)) if args.z3 is None else args.z3
    rows, rep = harman_tree(x, z1, z2, z3, args.q1, args.q2, args.a, args.epsilon)
    out.row("section", "content")
    for line in dump_tree(rows).splitlines():
        out.row("tree", line)
    for name, ok in rep.split_checks:
        out.row("split", f"{name} {'exact' if ok else 'BROKEN'}")
    for line in rep.flag_lines():
        out.row("flag", line)
    out.row("root", str(rep.root_value.triple()))
    out.row("leaf_sum", str(rep.leaf_sum.triple()))
    out.row("exact", str(rep.exact))
    return 0 if rep.exact and all(ok for _, ok in rep.split_checks) else 1


def cmd_dispersion_demo(args, out: Output) -> int:
    insts = fixed_seed_instances(args.count, seed=args.seed)
    out.row("i", "a", "E", "Q", "D", "R", "N", "M", "lhs", "s1", "s2_re", "s2_im", "s3", "rel_error")
    worst = 0.0
    for i, inst in enumerate(insts):
        r = dispersion_expand(inst)
        worst = max(worst, r.relative_error)
        out.row(
            i, inst.a, inst.E, inst.Q, inst.D, inst.R, inst.N, inst.M,
            r.lhs, r.s1, r.s2.real, r.s2.imag, r.s3, r.relative_error,
        )
    out.row("worst", worst, *[""] * 12)
    return 0 if worst <= args.tol else 1


def cmd_completion_demo(args, out: Output) -> int:
    r1 = completed_ap_sum(args.M, args.q, args.a, args.H)
    r2 = completed_inverse_sum(args.M, args.q, args.d, args.n0, args.b, args.H)
    r3 = coprime_smooth_sum(args.M, args.q)
    out.row("kind", "params", "exact", "truncated", "error", "H")
    out.row("ap", f"M={args.M} q={args.q} a={args.a}", r1.exact, r1.truncated, r1.error, r1.H_used)
    out.row(
        "inverse",
        f"N={args.M} q={args.q} d={args.d} n0={args.n0} b={args.b}",
        r2.exact, r2.truncated, r2.error, r2.H_used,
    )
    out.row("coprime", f"M={args.M} q={args.q}", r3.exact, r3.main_term, r3.error, 0)
    return 0


def cmd_omega(args, out: Output) -> int:
    omega = buchstab_omega(args.u)
    out.row("u", "omega")
    out.row(args.u, omega)
    return 0


# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def build_parser(path: tuple[str, ...] = ()) -> argparse.ArgumentParser:
    """The parser of every ``COMMANDS`` row whose path starts with ``path``.

    Built once per path and process: ``parse_args`` does not change a parser,
    so every ``main`` on that path shares it.
    """
    fmt = argparse.ArgumentDefaultsHelpFormatter
    ap = argparse.ArgumentParser(prog="apmod", formatter_class=fmt, description=(
        "Desk-scale prime-discrepancy, sieve-identity and exponential-sum toolkit"))
    ap.add_argument("--version", action="version", version=__version__)
    groups = {}

    def group(prefix):
        if prefix not in groups:
            parent = ap if not prefix else group(prefix[:-1]).add_parser(
                prefix[-1], help=GROUPS[prefix[-1]], formatter_class=fmt)
            # built for one leaf, a group still names all its choices in usage lines
            names = dict.fromkeys(r[len(prefix)] for r, *_ in COMMANDS if r[:len(prefix)] == prefix)
            groups[prefix] = parent.add_subparsers(
                dest="which" if prefix else "command", required=True,
                metavar="{" + ",".join(names) + "}" if path else None)
        return groups[prefix]

    for row in COMMANDS:
        if row[0][: len(path)] != path:
            continue
        p = group(row[0][:-1]).add_parser(row[0][-1], help=row[1], formatter_class=fmt)
        for name, kind, default, text, *rng in row[3]:
            if rng:
                text += f"; range [{rng[0][0]}, {rng[0][1]}]"
            if kind is bool:
                p.add_argument(name, action="store_true", help=text)
                continue
            choices = kind if isinstance(kind, tuple) else None
            p.add_argument(name, type=None if choices else kind, choices=choices, help=text,
                           default=None if default is REQUIRED else default,
                           required=default is REQUIRED)
        p.add_argument("--out", default=None, help="CSV output path; stdout when omitted")
        p.set_defaults(row=row)
    return ap


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # --version, a bare apmod, --help above a leaf and unknown names take the
    # whole table, so argparse's usage and choice errors read as before
    chosen = next((p for p, *_ in COMMANDS if tuple(argv[: len(p)]) == p), ())
    args = build_parser(chosen).parse_args(argv)
    path, _, handler, flags = args.row
    out = Output(args.out, " ".join(path), getattr(args, "seed", 0))
    try:
        for name, kind, _, _, *rng in flags:
            lo, hi = rng[0] if rng else (-INF, INF)
            value = getattr(args, name[2:].replace("-", "_"))
            if kind in (int, float) and value is not None and not lo <= value <= hi:
                rule = f">= {lo}" if value < lo else f"<= {hi}" if value > hi else "a number"
                raise ValueError(f"{name} must be {rule}, got {value}")
        # looked up per call, so a rebound cmd_* (a tracer, a test) is the one run
        code = globals()[handler](args, out)
    except (ValueError, OverflowError) as exc:
        # precondition violations surface as usage errors, not tracebacks
        print(f"apmod: parameter error: {exc}", file=sys.stderr)
        code = 2
    except OSError as exc:
        # an --out path that cannot be opened is a usage error too
        print(f"apmod: output error: {exc}", file=sys.stderr)
        code = 2
    finally:
        out.close()
    return code


if __name__ == "__main__":
    sys.exit(main())
