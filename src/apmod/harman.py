"""The sieve decomposition tree for the prime-counting sum S_1(2 sqrt(x)).

The tree splits S_1(2 sqrt(x)) by iterated Buchstab identities on the least
prime factor into terminal sums over products of up to four explicit prime
variables, mirroring the classical decomposition into sieve-asymptotic,
type-II, 3-prime, 4-prime and 5/6-prime terminals.

Exactness convention: a Buchstab split from a threshold extracts the least
prime factor p of the cofactor and leaves the INCLUSIVE condition
P^-(m) >= p on the remaining factor, with subsequent prime variables
strictly decreasing.  Every split in the evaluation tree is therefore an
exact identity of S-values, so the root always equals the signed sum of the
leaves, integer-exactly.

The tree is its table, one row per node in pre-order with children in split
order: name, parent, sign, constraint text, kind, the set of prime tuples it
sums over and its threshold.  A node sums S_d(z) over d = the product of each
tuple, with z either a number (the strict condition P^-(m) > z) or the
tuple's last prime (the inclusive P^-(m) >= p).  Every node's terms go into
one s_values call, and each node's S-value is the sum of its slice of the
per-term arrays; an internal node is counted from its own terms, never from
its children, so the split checks derived from the table are real checks.
harman_tree returns the rows evaluated, (depth, name, sign, kind, constraint,
threshold text, SValue), with depth and leaves read off the parent names.

The familiar asymptotic simplifications (replacing S_p(p) by
S_p(x^(1/2+eps)/sqrt(p)), dropping the p*r^2 <= x^(1+2*eps) constraint where
it is implied, and reading terminal sums as counts of exactly 3 / 4 / 5-6
primes) can all fail at desk scale.  They are re-verified by enumeration and
reported as named flags: the min-threshold terms ride in the same s_values
pass and are compared term by term with M's, and the terminal readings come
from one census of the cofactors in each terminal's windows.  A failed check
never breaks the evaluation, which always uses the pre-substitution form.
One extra leaf ("residual") holds the tuples that the substituted form would
have excluded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .primes import least_prime_factor_table, primes_in
from .progressions import SValue, _window_batches, s_values


@dataclass
class SubstitutionFlag:
    """Outcome of one desk-scale re-verification of a display-level rewrite."""

    name: str
    ok: bool
    detail: str


@dataclass
class HarmanReport:
    flags: list[SubstitutionFlag]
    split_checks: list[tuple[str, bool]]
    root_value: SValue
    leaf_sum: SValue
    leaf_count: int

    @property
    def exact(self) -> bool:
        return self.root_value.triple() == self.leaf_sum.triple()

    def flag_lines(self) -> list[str]:
        return [f"flag name={f.name} status={'ok' if f.ok else 'FAIL'} {f.detail}"
                for f in self.flags]


def _cofactor_census(x: int, terms) -> tuple[int, ...]:
    """Classify the m in (x/d, 2x/d] with P^-(m) >= z, over (d, z, _) terms.

    Returns five counts summed over the windows: m = 1; prime m = z;
    composite m; composite m with a composite cofactor m / P^-(m); composite
    m with a prime cofactor and P^-(m) = z.  The windows are read through
    progressions._window_batches, so memory is O(SEGMENT) beyond the shared
    LPF table (to 2x) and O(len(terms)).
    """
    lpf = least_prime_factor_table(2 * x)
    d = np.array([t[0] for t in terms], dtype=np.int64)
    z = np.array([t[1] for t in terms], dtype=np.int64)
    counts = np.zeros(5, dtype=np.int64)
    for t, m in _window_batches(x // d + 1, (2 * x) // d):
        pm, zt = lpf[m], z[t]
        rough = pm >= zt
        m, pm, zt = m[rough], pm[rough], zt[rough]
        prime = pm == m  # P^-(1) is a sentinel, so m = 1 is not prime
        comp = ~prime & (m != 1)
        cof = m[comp] // pm[comp]
        cof_prime = lpf[cof] == cof
        counts += [
            np.count_nonzero(m == 1),
            np.count_nonzero(prime & (m == zt)),
            np.count_nonzero(comp),
            np.count_nonzero(~cof_prime),
            np.count_nonzero(cof_prime & (pm[comp] == zt[comp])),
        ]
    return tuple(int(c) for c in counts)


def harman_tree(
    x: int,
    z1: float,
    z2: float,
    z3: float,
    q1: int,
    q2: int,
    a: int,
    epsilon: float = 0.0,
) -> tuple[list[tuple], HarmanReport]:
    """Build, evaluate and verify the decomposition tree of S_1(2 sqrt(x)).

    Requires z1 <= z2 <= z3 <= 2 sqrt(2x) and z2 <= 2 sqrt(x); the exponent
    relations between the z_i that hold asymptotically are NOT imposed.
    Returns the evaluated rows, one per node in pre-order, and the report.
    """
    if not (z1 <= z2 <= z3):
        raise ValueError("needs z1 <= z2 <= z3")
    if z3 > 2 * math.sqrt(2 * x):
        raise ValueError("z3 must be at most 2*sqrt(2x)")
    root_z = 2.0 * math.sqrt(x)
    if z2 > root_z:
        raise ValueError("z2 must be at most 2*sqrt(x)")
    if math.gcd(a, q1 * q2) != 1:
        raise ValueError("residue must be coprime to the modulus")

    X = float(x) ** (1.0 + 2.0 * epsilon)
    x14 = float(x) ** 0.25
    half_eps = float(x) ** (0.5 + epsilon)

    p12 = primes_in(math.floor(z1), math.floor(z2))

    def extend(tuples):
        """Each tuple followed by every smaller prime of (z1, z2]."""
        return [(*t, s) for t in tuples for s in p12 if s < t[-1]]

    # tuple sets; G1 = {z1 < r < p <= z2} splits five ways by the size of p*r
    p1 = [(p,) for p in p12]
    g1 = extend(p1)
    g1a = [(p, r) for (p, r) in g1 if p * r <= z2]
    g1b = [(p, r) for (p, r) in g1 if z2 < p * r <= z3]
    g1c = [(p, r) for (p, r) in g1 if z3 < p * r and r <= x14]
    g1d = [(p, r) for (p, r) in g1 if z3 < p * r and r > x14 and p * r * r <= X]
    g1e = [(p, r) for (p, r) in g1 if z3 < p * r and r > x14 and p * r * r > X]
    g2 = extend(g1a)

    # (name, parent, sign, constraint, kind, tuples, threshold): pre-order,
    # children in split order; a letter threshold names the tuple's last prime
    table = [
        ("root", None, +1, "d=1", "internal", [()], root_z),
        ("A0", "root", +1, "d=1", "sieve-asymptotic", [()], z1),
        ("M", "root", -1, "z1<p<=z2", "internal", p1, "p"),
        ("B1", "M", +1, "z1<p<=z2", "sieve-asymptotic", p1, z1),
        ("G1", "M", -1, "z1<r<p<=z2", "internal", g1, "r"),
        ("G1a", "G1", +1, "z1<r<p<=z2 & p*r<=z2", "internal", g1a, "r"),
        ("B2a", "G1a", +1, "z1<r<p<=z2 & p*r<=z2", "sieve-asymptotic", g1a, z1),
        ("G2", "G1a", -1, "z1<s<r<p<=z2 & p*r<=z2", "internal", g2, "s"),
        ("B4a", "G2", +1, "z1<s<r<p<=z2 & p*r<=z2", "sieve-asymptotic", g2, z1),
        ("G3", "G2", -1, "z1<t<s<r<p<=z2 & p*r<=z2", "five-or-six-primes", extend(g2), "t"),
        ("G1b", "G1", +1, "z1<r<p<=z2 & z2<p*r<=z3", "type-II", g1b, "r"),
        ("G1c", "G1", +1, "z1<r<p<=z2 & z3<p*r & r<=x^1/4", "internal", g1c, "r"),
        ("B3a", "G1c", +1, "z1<r<p<=z2 & z3<p*r & r<=x^1/4", "sieve-asymptotic", g1c, z1),
        ("G3c", "G1c", -1, "z1<s<r<p<=z2 & z3<p*r & r<=x^1/4", "four-primes", extend(g1c),
         "s"),
        ("G1d", "G1", +1, "z1<r<p<=z2 & z3<p*r & r>x^1/4 & p*r^2<=x^(1+2eps)",
         "three-primes", g1d, "r"),
        ("G1e", "G1", +1, "z1<r<p<=z2 & z3<p*r & r>x^1/4 & p*r^2>x^(1+2eps)",
         "residual", g1e, "r"),
        ("C0", "root", -1, "z2<p<=2*sqrt(x)", "type-II",
         [(p,) for p in primes_in(math.floor(z2), math.floor(root_z))], "p"),
    ]

    # ---- one S-value pass over every node's terms, then flag 1's ----------
    terms, spans, children = [], {}, {}
    for name, parent, sign, _, _, tuples, thr in table:
        children.setdefault(parent, []).append((name, sign))
        spans[name] = (len(terms), len(terms) + len(tuples))
        strict = not isinstance(thr, str)
        terms += [(math.prod(t), thr if strict else t[-1], not strict) for t in tuples]
    lit_at = len(terms)
    terms += [(p, min(float(p), half_eps / math.sqrt(p)), False) for p in p12]
    ic, cp, total = s_values(x, terms, q1, q2, a)
    zero = SValue.zero(total.phi_q)
    value = {name: SValue(int(ic[lo:hi].sum()), int(cp[lo:hi].sum()), total.phi_q)
             for name, (lo, hi) in spans.items()}

    # ---- the rows; depth and effective sign follow the parent names --------
    rows, depth, eff = [], {None: -1}, {None: 1}
    for name, parent, sign, constraint, kind, _, thr in table:
        depth[name], eff[name] = depth[parent] + 1, eff[parent] * sign
        text = f"P->={thr}" if isinstance(thr, str) else f"P->{thr:g}"
        rows.append((depth[name], name, sign, kind, constraint, text, value[name]))

    # ---- exact split checks, one per internal node in pre-order -----------
    split_checks: list[tuple[str, bool]] = []
    for name in value:
        if name in children:
            acc = sum((value[c] if s > 0 else -value[c] for c, s in children[name]), zero)
            rhs = "".join(("+" if s > 0 else "-") + c for c, s in children[name])
            split_checks.append((f"{name}={rhs.removeprefix('+')}", acc == value[name]))

    # ---- substitution flags (paper-conformance, never break evaluation) --
    flags: list[SubstitutionFlag] = []

    def flag(name: str, ok: bool, detail: str) -> None:
        flags.append(SubstitutionFlag(name, ok, detail))

    # 1. the min-threshold rewrite of M's terms, compared prime by prime
    m_lo, m_hi = spans["M"]
    differs = (ic[lit_at:] != ic[m_lo:m_hi]) | (cp[lit_at:] != cp[m_lo:m_hi])
    bad_p = [p for p, bad in zip(p12, differs) if bad]
    flag("min-threshold", not bad_p,
         f"primes={len(p12)} failing={len(bad_p)} witnesses={bad_p[:6]}")

    # 2. implied-size constraint p*r^2 <= x^(1+2eps) dropped in the split
    for label, pairs in (("G1a", g1a), ("G1b", g1b), ("G1c", g1c)):
        viol = [(p, r) for (p, r) in pairs if p * r * r > X]
        flag(f"implied-pr2-{label}", not viol,
             f"tuples={len(pairs)} violating={len(viol)} witnesses={viol[:6]}")
    flag("residual-empty", not g1e, f"tuples={len(g1e)} witnesses={g1e[:6]}")

    # 3-5. the terminals count exactly three, four and five or six primes:
    # each reads the cofactor census of its own windows
    def census(name):
        lo, hi = spans[name]
        return (hi - lo, *_cofactor_census(x, terms[lo:hi]))

    n, one, at, composite, _, _ = census("G1d")
    flag("three-prime-terminal", one + composite == 0 and at == 0,
         f"tuples={n} nonprime_cofactors={one + composite} at_threshold={at}")
    n, one, _, composite, _, _ = census("G3c")
    flag("four-prime-terminal", one + composite == 0,
         f"tuples={n} nonprime_cofactors={one + composite}")
    n, one, at, _, cof_composite, cof_at = census("G3")
    flag("five-six-prime-terminal", one + cof_composite == 0 and at + cof_at == 0,
         f"tuples={n} non_bi_prime={one + cof_composite} at_threshold={at + cof_at}")

    # the leaves are the rows no row names as its parent
    leaves = [value[n] if eff[n] > 0 else -value[n] for n in value if n not in children]
    report = HarmanReport(flags, split_checks, value["root"], sum(leaves, zero), len(leaves))
    return rows, report


def dump_tree(rows: list[tuple]) -> str:
    """Indented text serialization, one row per line."""
    return "\n".join(
        "  " * depth + f"{'+' if sign > 0 else '-'} {name} [{kind}] {{{constraint}; {thr}}} "
        f"S={sv.triple()}"
        for depth, name, sign, kind, constraint, thr, sv in rows
    )
