"""Command-line surface: experiment runners, verification sweeps, CSV out.

Every subcommand writes CSV with a header row to stdout or --out.  The first
line is a `#` comment carrying the invocation and a timestamp; it is the only
nondeterministic output, so re-running with identical flags and seed yields
byte-identical CSV after dropping comment lines.  Exit codes: 0 success with
all assertions passing, 1 assertion failure (witness rows are still emitted),
2 usage error.

Every subcommand takes --out.  --seed (default 0) exists only where a value
is drawn: verify buchstab|fsum|weil|partition and dispersion-demo.  --tol
exists only where a verdict compares against one: verify fsum (default
1e-6*q^2 per modulus q) and dispersion-demo (default 1e-9).  Values reach a
subcommand through argparse alone.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from datetime import datetime, timezone
from fractions import Fraction

from . import __version__
from .arith import (
    bezout_split,
    check_coprime_partition,
    coprime_partition,
    euler_phi,
    random_coprime_pairs,
)
from .buchstab import buchstab_omega
from .completion import PSI0, completed_ap_sum, completed_inverse_sum, coprime_smooth_sum
from .dispersion import dispersion_expand, fixed_seed_instances
from .expsums import (
    FSumKey,
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
from .primes import least_prime_factor_table, pi, prime_segments, von_mangoldt
from .progressions import (
    bifactor_box_family,
    bv_aggregate,
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

    def row(self, *vals):
        if self.fh is None:
            self.fh = open(self.path, "w", newline="") if self.path else sys.stdout
            self.fh.write(self.header)
            self.writer = csv.writer(self.fh, lineterminator="\n")
        self.writer.writerow([_fmt(v) for v in vals])

    def close(self):
        if self.path and self.fh is not None:
            self.fh.close()


def _at_least(args, name: str, lo) -> None:
    """Reject --name below lo with a parameter error that names the flag."""
    value = getattr(args, name)
    if value < lo:
        raise ValueError(f"--{name.replace('_', '-')} must be >= {lo}, got {value}")


def _at_most(label: str, value, hi) -> None:
    """Reject a flag, or a size worked out from flags, above hi; the error names it."""
    if value > hi:
        raise ValueError(f"{label} must be <= {hi}, got {value}")


# Size caps, each keeping one run within a stated memory (or time) bound:
# sieve: hi <= 1e12 keeps the base primes (<= sqrt(hi)) under 1 MB, and
# hi - lo <= 1e8 bounds --list, which holds the primes (83 MB peak at
# [0, 1e8]; the summary alone reads one segment at a time, 36 MB);
# bv-scan: x <= 2e9 keeps the cached prime bitmap at x/16 <= 125 MB (94 MB
# peak at x = 1e9), and qhi - qlo <= 1e5 moduli keeps one record per modulus
# at 85 MB and 5 s (1e6 moduli take 562 MB and 142 s); moduli-set: each
# family (dyadic qhi - qlo, divisor-window x^(1/2+delta), box q1 * q2) is
# capped at 1e6 moduli, 68, 80 and 159 MB peak at the cap; expsum:
# ramanujan and kloosterman build O(q) arrays, 85 MB at q = 1e6, and kl3
# and fsum sum phi(q)^2 phases, 16 s at q = 1e5; the sieve identities read
# the shared LPF table, 8 * (limit + 1) bytes: verify fundlemma|reduction
# take limit = --n-max <= 1e7 (80 MB), verify buchstab and decomp take
# limit = 2x with --x <= 1e7 (160 MB); verify heathbrown holds a few arrays
# of --n-max + 1 entries, and --n-max <= 1e5 keeps it at 3.6 s and 48 MB.
SIEVE_HI_MAX = 10**12
SIEVE_WIDTH_MAX = 10**8
BV_X_MAX = 2 * 10**9
BV_Q_WIDTH_MAX = 10**5
FAMILY_MAX = 10**6
LPF_LIMIT_MAX = 10**7
HEATHBROWN_N_MAX = 10**5
EXPSUM_Q_MAX = {"ramanujan": 10**6, "kloosterman": 10**6, "kl3": 10**5, "fsum": 10**5}


# ---------------------------------------------------------------------------
# subcommand implementations; each returns the exit code


def cmd_sieve(args, out: Output) -> int:
    _at_least(args, "lo", -1)
    _at_most("--hi", args.hi, SIEVE_HI_MAX)
    _at_most("--hi minus --lo", args.hi - args.lo, SIEVE_WIDTH_MAX)
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
            for p in seg.tolist():
                out.row(p)
    return 0


def cmd_bv_scan(args, out: Output) -> int:
    _at_least(args, "x", 2)  # norm_delta divides by pi(x)
    _at_most("--x", args.x, BV_X_MAX)
    _at_most("--qhi minus --qlo", args.qhi - args.qlo, BV_Q_WIDTH_MAX)
    fam = dyadic_family(args.x, args.qlo, args.qhi, args.a)
    total, records = bv_aggregate(args.x, fam)
    out.row("x", "q", "a", "pi_ap", "expected", "delta", "norm_delta")
    pix = pi(args.x)
    norm = []
    for r in records:
        nd = r.delta * euler_phi(r.q) / pix
        norm.append(nd)
        out.row(r.x, r.q, r.a, r.pi_ap, r.expected, r.delta, nd)
    out.row("total", total, "", "", "", "", "")
    if norm:
        out.row("mean_norm_delta", math.fsum(norm) / len(norm), "", "", "", "", "")
    return 0


def cmd_moduli_set(args, out: Output) -> int:
    if args.kind == "box":
        _at_most("--q1 times --q2", max(args.q1, 0) * max(args.q2, 0), FAMILY_MAX)
        fam = bifactor_box_family(args.x, args.q1, args.q2, args.a)
        out.row("q1", "q2", "q")
        for name, ok in fam.params["constraints"].items():
            out.row("constraint", name, "holds" if ok else "violated")
        for q1, q2 in fam.pairs:
            out.row(q1, q2, q1 * q2)
    elif args.kind == "divisor-window":
        _at_least(args, "x", 0)
        _at_most("x^(1/2+delta)", int(args.x ** (0.5 + args.delta)), FAMILY_MAX)
        fam = divisor_window_family(args.x, args.delta, args.eta, args.a)
        lo, hi = fam.params["window"]
        out.row("q", "window_lo", "window_hi", "flagged")
        for q in fam.members:
            out.row(q, lo, hi, "yes" if q in fam.flagged else "")
    else:
        _at_most("--qhi minus --qlo", args.qhi - args.qlo, FAMILY_MAX)
        fam = dyadic_family(args.x, args.qlo, args.qhi, args.a)
        out.row("q")
        for q in fam.members:
            out.row(q)
    return 0


def cmd_expsum(args, out: Output) -> int:
    if args.which in EXPSUM_Q_MAX:
        _at_most("--q", args.q, EXPSUM_Q_MAX[args.which])
    if args.which == "ramanujan":
        v = ramanujan(args.q, args.n)
        out.row("kind", "q", "n", "value_re", "value_im")
        out.row("ramanujan", args.q, args.n, v.real, v.imag)
    elif args.which == "kloosterman":
        v = kloosterman(args.m, args.n, args.q)
        out.row("kind", "m", "n", "c", "value_re", "value_im", "abs")
        out.row("kloosterman", args.m, args.n, args.q, v.real, v.imag, abs(v))
    elif args.which == "kl3":
        v = kl3(args.a, args.q)
        out.row("kind", "a", "q", "value_re", "value_im", "abs")
        out.row("kl3", args.a, args.q, v.real, v.imag, abs(v))
    elif args.which == "fsum":
        v = f_sum(FSumKey(args.h1, args.h2, args.h3, args.a, args.q))
        out.row("kind", "h1", "h2", "h3", "a", "q", "value_re", "value_im", "abs")
        out.row("fsum", args.h1, args.h2, args.h3, args.a, args.q, v.real, v.imag, abs(v))
    else:  # correlation
        r = kl3_correlation(args.H, args.a1, args.a2, args.r1, args.r2, args.s)
        out.row("kind", "H", "a1", "a2", "r1", "r2", "s", "lhs_re", "lhs_im", "rhs_bound", "ratio")
        out.row(
            "correlation", args.H, args.a1, args.a2, args.r1, args.r2, args.s,
            r["lhs"].real, r["lhs"].imag, r["rhs_bound"], r["ratio"],
        )
    return 0


def cmd_verify(args, out: Output) -> int:
    which = args.which
    failures = 0
    if which == "buchstab":
        _at_least(args, "x", 50)  # configurations draw x from [50, --x]
        _at_most("--x", args.x, LPF_LIMIT_MAX)
        cfgs = random_buchstab_configs(args.trials, args.x, seed=args.seed)
        out.row("x", "d", "z1", "z2", "q1", "q2", "a", "ok")
        for c in cfgs:
            ok = verify_buchstab(*c)
            failures += not ok
            out.row(*c, "pass" if ok else "FAIL")
    elif which == "heathbrown":
        _at_least(args, "n_max", 1)
        _at_most("--n-max", args.n_max, HEATHBROWN_N_MAX)
        lams = [von_mangoldt(n) for n in range(1, args.n_max + 1)]
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
    elif which == "fundlemma":
        import numpy as np

        _at_least(args, "n_max", 1)
        _at_most("--n-max", args.n_max, LPF_LIMIT_MAX)
        out.row("z", "y", "n_max", "rough_equal_one", "sign_property", "ok")
        lpf = least_prime_factor_table(args.n_max)
        for z in (10, 20, 30):
            rough = lpf[1:] > z  # n = 1 .. n_max
            for y in (100, 1000):
                w = fundamental_lemma_weights(z, y)
                sp = w.sums_over_range(args.n_max, "+")[1:]
                sm = w.sums_over_range(args.n_max, "-")[1:]
                v1 = not np.any(rough & ((sp != 1) | (sm != 1)))
                v2 = not np.any(~rough & ((sp < 0) | (sm > 0)))
                failures += not (v1 and v2)
                out.row(z, y, args.n_max, v1, v2, "pass" if v1 and v2 else "FAIL")
    elif which == "reduction":
        import numpy as np

        _at_least(args, "n_max", 1)
        _at_most("--n-max", args.n_max, LPF_LIMIT_MAX)
        out.row("z1", "z2", "y", "n_max", "ok")
        for (z1, z2, y) in ((30, 5, 100), (20, 3, 50), (50, 7, 1000), (15, 2, 30), (40, 11, 400)):
            rs = reduction_sequences(z1, z2, y)
            lhs, rhs = rs.identity_sides(args.n_max)
            ok = bool(np.array_equal(lhs[1:], rhs[1:]))
            failures += not ok
            out.row(z1, z2, y, args.n_max, "pass" if ok else "FAIL")
    elif which == "fsum":
        reps = [
            f_property_check(args.q_max, pid, args.trials, tol=args.tol, seed=args.seed)
            for pid in range(1, 8)
        ]
        out.row("property", "tested", "failures", "max_dev_over_tol", "ok")
        for pid, rep in enumerate(reps, start=1):
            failures += len(rep.failures)
            out.row(pid, rep.tested, len(rep.failures), rep.max_ratio,
                    "pass" if rep.passed else "FAIL")
            for w in rep.failures[:10]:
                out.row("witness", str(w), "", "", "")
    elif which == "weil":
        rep = weil_check(args.c_max, args.trials, seed=args.seed)
        failures += len(rep.failures)
        out.row("tested", "max_ratio", "witness", "ok")
        out.row(rep.tested, rep.max_ratio, str(rep.witness), "pass" if rep.passed else "FAIL")
    elif which == "deligne":
        rep = deligne_check(args.p_max)
        failures += len(rep.failures)
        out.row("tested", "max_ratio", "witness", "ok")
        out.row(rep.tested, rep.max_ratio, str(rep.witness), "pass" if rep.passed else "FAIL")
    elif which == "bezout":
        out.row("q1_max", "checked", "ok")
        checked = 0
        ok = True
        for q1 in range(1, 51):
            for q2 in range(1, 51):
                if math.gcd(q1, q2) != 1:
                    continue
                for a in range(q1 * q2):
                    f1, f2 = bezout_split(a, q1, q2)
                    s = f1.as_fraction() + f2.as_fraction()
                    if (s - Fraction(a, q1 * q2)) % 1 != 0:
                        ok = False
                        failures += 1
                        out.row("witness", f"a={a} q1={q1} q2={q2}", "FAIL")
                    checked += 1
        out.row(50, checked, "pass" if ok else "FAIL")
    elif which == "partition":
        pairs = random_coprime_pairs(500, seed=args.seed)
        classes = coprime_partition(pairs)
        ok = check_coprime_partition(pairs, classes)
        failures += not ok
        out.row("pairs", "classes", "property_ok")
        out.row(len(pairs), len(classes), "pass" if ok else "FAIL")
    else:
        raise ValueError(f"unknown verify target {which}")
    return 1 if failures else 0


def cmd_decomp(args, out: Output) -> int:
    _at_least(args, "x", 1)
    _at_most("--x", args.x, LPF_LIMIT_MAX)
    if args.z1 is None:
        args.z1 = args.x ** (1 / 7)
    if args.z2 is None:
        args.z2 = args.x ** (3 / 7)
    if args.z3 is None:
        args.z3 = args.x ** (4 / 7)
    _at_least(args, "z1", 0)
    root, rep = harman_tree(
        args.x, args.z1, args.z2, args.z3, args.q1, args.q2, args.a, args.epsilon
    )
    out.row("section", "content")
    for line in dump_tree(root).splitlines():
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
    r1 = completed_ap_sum(PSI0, args.M, args.q, args.a, args.H)
    r2 = completed_inverse_sum(PSI0, args.M, args.q, args.d, args.n0, args.b, args.H)
    r3 = coprime_smooth_sum(PSI0, args.M, args.q)
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


def build_parser() -> argparse.ArgumentParser:
    fmt = argparse.ArgumentDefaultsHelpFormatter
    ap = argparse.ArgumentParser(
        prog="apmod",
        description="Desk-scale prime-discrepancy, sieve-identity and exponential-sum toolkit",
        formatter_class=fmt,
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", default=None, help="CSV output path; stdout when omitted")

    def seed(p):
        p.add_argument("--seed", type=int, default=0, help="deterministic sampling seed")

    p = sub.add_parser(formatter_class=fmt, name="sieve", help="primes in a range (lo, hi]")
    p.add_argument("--lo", type=int, default=0, help="lower bound, exclusive")
    p.add_argument("--hi", type=int, required=True, help="upper bound, inclusive")
    p.add_argument("--list", action="store_true", help="emit one row per prime")
    common(p)
    p.set_defaults(fn=cmd_sieve)

    p = sub.add_parser(formatter_class=fmt, name="bv-scan", help="discrepancy scan over a modulus range")
    p.add_argument("--x", type=int, required=True, help="count primes up to x")
    p.add_argument("--qlo", type=int, required=True, help="lowest modulus")
    p.add_argument("--qhi", type=int, required=True, help="highest modulus")
    p.add_argument("--a", type=int, default=1, help="residue class")
    common(p)
    p.set_defaults(fn=cmd_bv_scan)

    p = sub.add_parser(formatter_class=fmt, name="moduli-set", help="realize a moduli family")
    p.add_argument("--kind", choices=("box", "divisor-window", "dyadic"), required=True)
    p.add_argument("--x", type=int, required=True, help="scale parameter x")
    p.add_argument("--a", type=int, default=1, help="residue class (default 1)")
    p.add_argument("--q1", type=int, default=10, help="box kind: largest q1")
    p.add_argument("--q2", type=int, default=10, help="box kind: largest q2")
    p.add_argument("--delta", type=float, default=0.01, help="divisor-window exponent delta")
    p.add_argument("--eta", type=float, default=0.01, help="divisor-window exponent eta")
    p.add_argument("--qlo", type=int, default=100, help="dyadic kind: lowest modulus")
    p.add_argument("--qhi", type=int, default=200, help="dyadic kind: highest modulus")
    common(p)
    p.set_defaults(fn=cmd_moduli_set)

    p = sub.add_parser(formatter_class=fmt, name="expsum", help="evaluate one exponential sum")
    es = p.add_subparsers(dest="which", required=True)
    q = es.add_parser(formatter_class=fmt, name="ramanujan")
    q.add_argument("--q", type=int, required=True)
    q.add_argument("--n", type=int, required=True)
    common(q)
    q.set_defaults(fn=cmd_expsum)
    q = es.add_parser(formatter_class=fmt, name="kloosterman")
    q.add_argument("--m", type=int, required=True)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--q", type=int, required=True, help="modulus c")
    common(q)
    q.set_defaults(fn=cmd_expsum)
    q = es.add_parser(formatter_class=fmt, name="kl3")
    q.add_argument("--a", type=int, required=True)
    q.add_argument("--q", type=int, required=True)
    common(q)
    q.set_defaults(fn=cmd_expsum)
    q = es.add_parser(formatter_class=fmt, name="fsum")
    for nm in ("h1", "h2", "h3", "a", "q"):
        q.add_argument(f"--{nm}", type=int, required=True)
    common(q)
    q.set_defaults(fn=cmd_expsum)
    q = es.add_parser(formatter_class=fmt, name="correlation")
    q.add_argument("--H", type=float, required=True)
    for nm in ("a1", "a2", "r1", "r2", "s"):
        q.add_argument(f"--{nm}", type=int, required=True)
    common(q)
    q.set_defaults(fn=cmd_expsum)

    p = sub.add_parser(formatter_class=fmt, name="verify", help="run a verification sweep")
    vs = p.add_subparsers(dest="which", required=True)
    q = vs.add_parser(formatter_class=fmt, name="buchstab")
    q.add_argument("--x", type=int, default=10**5, help="max x for configurations")
    q.add_argument("--trials", type=int, default=200, help="number of seeded configurations")
    seed(q)
    common(q)
    q.set_defaults(fn=cmd_verify)
    q = vs.add_parser(formatter_class=fmt, name="heathbrown")
    q.add_argument("--n-max", type=int, default=5000, help="check every n up to this")
    q.add_argument("--verbose", action="store_true", help="emit one row per n")
    common(q)
    q.set_defaults(fn=cmd_verify)
    q = vs.add_parser(formatter_class=fmt, name="fundlemma")
    q.add_argument("--n-max", type=int, default=10**5, help="exhaustive bound on n")
    common(q)
    q.set_defaults(fn=cmd_verify)
    q = vs.add_parser(formatter_class=fmt, name="reduction")
    q.add_argument("--n-max", type=int, default=10**5, help="exhaustive bound on n")
    common(q)
    q.set_defaults(fn=cmd_verify)
    q = vs.add_parser(formatter_class=fmt, name="fsum")
    q.add_argument("--q-max", type=int, default=48, help="largest modulus swept")
    q.add_argument("--trials", type=int, default=200, help="h-triples per modulus")
    q.add_argument("--tol", type=float, default=None,
                   help="largest allowed deviation; 1e-6*q^2 for modulus q when omitted")
    seed(q)
    common(q)
    q.set_defaults(fn=cmd_verify)
    q = vs.add_parser(formatter_class=fmt, name="weil")
    q.add_argument("--c-max", type=int, default=500, help="largest modulus swept")
    q.add_argument("--trials", type=int, default=50, help="(m, n) pairs per modulus")
    seed(q)
    common(q)
    q.set_defaults(fn=cmd_verify)
    q = vs.add_parser(formatter_class=fmt, name="deligne")
    q.add_argument("--p-max", type=int, default=200, help="largest prime modulus swept")
    common(q)
    q.set_defaults(fn=cmd_verify)
    q = vs.add_parser(formatter_class=fmt, name="bezout")
    common(q)
    q.set_defaults(fn=cmd_verify)
    q = vs.add_parser(formatter_class=fmt, name="partition")
    seed(q)
    common(q)
    q.set_defaults(fn=cmd_verify)

    p = sub.add_parser(formatter_class=fmt, name="decomp", help="build and verify the decomposition tree")
    p.add_argument("--x", type=int, required=True, help="dyadic scale: n ~ x")
    p.add_argument("--z1", type=float, default=None, help="first sifting limit; x^(1/7) when omitted")
    p.add_argument("--z2", type=float, default=None, help="second sifting limit; x^(3/7) when omitted")
    p.add_argument("--z3", type=float, default=None, help="product-size split; x^(4/7) when omitted")
    p.add_argument("--q1", type=int, default=2)
    p.add_argument("--q2", type=int, default=1)
    p.add_argument("--a", type=int, default=1)
    p.add_argument("--epsilon", type=float, default=0.0)
    common(p)
    p.set_defaults(fn=cmd_decomp)

    p = sub.add_parser(formatter_class=fmt, name="dispersion-demo", help="dispersion expansion identity on tiny instances")
    p.add_argument("--count", type=int, default=10, help="number of fixed-seed instances")
    p.add_argument("--tol", type=float, default=1e-9, help="largest allowed relative error")
    seed(p)
    common(p)
    p.set_defaults(fn=cmd_dispersion_demo)

    p = sub.add_parser(formatter_class=fmt, name="completion-demo", help="completion-of-sums reports")
    p.add_argument("--M", type=float, default=100.0, help="length scale of the smoothed sum")
    p.add_argument("--q", type=int, default=7)
    p.add_argument("--a", type=int, default=3)
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--n0", type=int, default=1)
    p.add_argument("--b", type=int, default=2)
    p.add_argument("--H", type=int, default=100)
    common(p)
    p.set_defaults(fn=cmd_completion_demo)

    p = sub.add_parser(formatter_class=fmt, name="omega", help="Buchstab omega(u)")
    p.add_argument("--u", type=float, required=True, help="argument in [1, 20]")
    common(p)
    p.set_defaults(fn=cmd_omega)

    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    desc = args.command + (f" {args.which}" if getattr(args, "which", None) else "")
    out = Output(args.out, desc, getattr(args, "seed", 0))
    try:
        code = args.fn(args, out)
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
