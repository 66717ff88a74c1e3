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

The familiar asymptotic simplifications (replacing S_p(p) by
S_p(x^(1/2+eps)/sqrt(p)), dropping the p*r^2 <= x^(1+2*eps) constraint where
it is implied, and reading terminal sums as counts of exactly 3 / 4 / 5-6
primes) can all fail at desk scale.  They are re-verified by enumeration and
reported as named flags; a failed check never breaks the evaluation, which
always uses the pre-substitution form.  One extra leaf ("residual") holds
the tuples that the substituted form would have excluded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .primes import least_prime_factor_table, primes_in
from .progressions import SValue, s_values


@dataclass
class DecompNode:
    """One node of the decomposition tree.

    sign is relative to the parent; the effective sign of a leaf is the
    product along its path.  Terms of a leaf are (d, z, inclusive) triples:
    the leaf value is their sum, one s_values call over the list.
    """

    name: str
    sign: int
    constraint: str
    threshold: str
    kind: str  # "internal" or a terminal classification
    children: list["DecompNode"] = field(default_factory=list)
    svalue: SValue | None = None

    def walk(self, depth: int = 0):
        yield self, depth
        for c in self.children:
            yield from c.walk(depth + 1)

    def leaves(self, sign: int = 1):
        eff = sign * self.sign
        if not self.children:
            yield self, eff
        else:
            for c in self.children:
                yield from c.leaves(eff)


@dataclass
class SubstitutionFlag:
    """Outcome of one desk-scale re-verification of a display-level rewrite."""

    name: str
    ok: bool
    detail: str


@dataclass
class HarmanReport:
    x: int
    z1: float
    z2: float
    z3: float
    q1: int
    q2: int
    a: int
    epsilon: float
    flags: list[SubstitutionFlag]
    split_checks: list[tuple[str, bool]]
    root_value: SValue
    leaf_sum: SValue
    leaf_count: int

    @property
    def exact(self) -> bool:
        return self.root_value.triple() == self.leaf_sum.triple()

    def flag_lines(self) -> list[str]:
        out = []
        for f in self.flags:
            out.append(f"flag name={f.name} status={'ok' if f.ok else 'FAIL'} {f.detail}")
        return out


def harman_tree(
    x: int,
    z1: float,
    z2: float,
    z3: float,
    q1: int,
    q2: int,
    a: int,
    epsilon: float = 0.0,
) -> tuple[DecompNode, HarmanReport]:
    """Build, evaluate and verify the decomposition tree of S_1(2 sqrt(x)).

    Requires z1 <= z2 <= z3 <= 2 sqrt(2x) and z2 <= 2 sqrt(x); the exponent
    relations between the z_i that hold asymptotically are NOT imposed.
    Returns the root node (fully evaluated) and the verification report.
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
    p2r = primes_in(math.floor(z2), math.floor(root_z))

    # tuple sets for the five-way split of G1 = {z1 < r < p <= z2}
    g1 = [(p, r) for p in p12 for r in p12 if r < p]
    g1a = [(p, r) for (p, r) in g1 if p * r <= z2]
    g1b = [(p, r) for (p, r) in g1 if z2 < p * r <= z3]
    g1c = [(p, r) for (p, r) in g1 if z3 < p * r and r <= x14]
    g1d = [(p, r) for (p, r) in g1 if z3 < p * r and r > x14 and p * r * r <= X]
    g1e = [(p, r) for (p, r) in g1 if z3 < p * r and r > x14 and p * r * r > X]

    def triples(pairs):
        return [(p, r, s) for (p, r) in pairs for s in p12 if s < r]

    g2 = triples(g1a)
    g3 = [(p, r, s, t) for (p, r, s) in g2 for t in p12 if t < s]
    g3c = triples(g1c)

    def sum_terms(terms) -> SValue:
        return s_values(x, terms, q1, q2, a)[2]

    # ---- leaves ----------------------------------------------------------
    a0 = DecompNode("A0", +1, "d=1", f"P->{z1:g}", "sieve-asymptotic")
    a0.svalue = sum_terms([(1, z1, False)])

    b1 = DecompNode("B1", +1, "z1<p<=z2", f"P->{z1:g}", "sieve-asymptotic")
    b1.svalue = sum_terms([(p, z1, False) for p in p12])

    b2a = DecompNode("B2a", +1, "z1<r<p<=z2 & p*r<=z2", f"P->{z1:g}", "sieve-asymptotic")
    b2a.svalue = sum_terms([(p * r, z1, False) for (p, r) in g1a])

    b4a = DecompNode(
        "B4a", +1, "z1<s<r<p<=z2 & p*r<=z2", f"P->{z1:g}", "sieve-asymptotic"
    )
    b4a.svalue = sum_terms([(p * r * s, z1, False) for (p, r, s) in g2])

    g3_leaf = DecompNode(
        "G3", -1, "z1<t<s<r<p<=z2 & p*r<=z2", "P->=t", "five-or-six-primes"
    )
    g3_leaf.svalue = sum_terms([(p * r * s * t, t, True) for (p, r, s, t) in g3])

    g1b_leaf = DecompNode("G1b", +1, "z1<r<p<=z2 & z2<p*r<=z3", "P->=r", "type-II")
    g1b_leaf.svalue = sum_terms([(p * r, r, True) for (p, r) in g1b])

    b3a = DecompNode(
        "B3a", +1, "z1<r<p<=z2 & z3<p*r & r<=x^1/4", f"P->{z1:g}", "sieve-asymptotic"
    )
    b3a.svalue = sum_terms([(p * r, z1, False) for (p, r) in g1c])

    g3c_leaf = DecompNode(
        "G3c", -1, "z1<s<r<p<=z2 & z3<p*r & r<=x^1/4", "P->=s", "four-primes"
    )
    g3c_leaf.svalue = sum_terms([(p * r * s, s, True) for (p, r, s) in g3c])

    g1d_leaf = DecompNode(
        "G1d",
        +1,
        "z1<r<p<=z2 & z3<p*r & r>x^1/4 & p*r^2<=x^(1+2eps)",
        "P->=r",
        "three-primes",
    )
    g1d_leaf.svalue = sum_terms([(p * r, r, True) for (p, r) in g1d])

    g1e_leaf = DecompNode(
        "G1e",
        +1,
        "z1<r<p<=z2 & z3<p*r & r>x^1/4 & p*r^2>x^(1+2eps)",
        "P->=r",
        "residual",
    )
    g1e_leaf.svalue = sum_terms([(p * r, r, True) for (p, r) in g1e])

    c0 = DecompNode("C0", -1, "z2<p<=2*sqrt(x)", "P->=p", "type-II")
    c0.svalue = sum_terms([(p, p, True) for p in p2r])

    # ---- internal nodes --------------------------------------------------
    g2_node = DecompNode("G2", -1, "z1<s<r<p<=z2 & p*r<=z2", "P->=s", "internal")
    g2_node.children = [b4a, g3_leaf]
    g2_node.svalue = sum_terms([(p * r * s, s, True) for (p, r, s) in g2])

    g1a_node = DecompNode("G1a", +1, "z1<r<p<=z2 & p*r<=z2", "P->=r", "internal")
    g1a_node.children = [b2a, g2_node]
    g1a_node.svalue = sum_terms([(p * r, r, True) for (p, r) in g1a])

    g1c_node = DecompNode(
        "G1c", +1, "z1<r<p<=z2 & z3<p*r & r<=x^1/4", "P->=r", "internal"
    )
    g1c_node.children = [b3a, g3c_leaf]
    g1c_node.svalue = sum_terms([(p * r, r, True) for (p, r) in g1c])

    g1_node = DecompNode("G1", -1, "z1<r<p<=z2", "P->=r", "internal")
    g1_node.children = [g1a_node, g1b_leaf, g1c_node, g1d_leaf, g1e_leaf]
    g1_node.svalue = sum_terms([(p * r, r, True) for (p, r) in g1])

    m_node = DecompNode("M", -1, "z1<p<=z2", "P->=p", "internal")
    m_node.children = [b1, g1_node]
    m_node.svalue = sum_terms([(p, p, True) for p in p12])

    root = DecompNode("root", +1, "d=1", f"P->{root_z:g}", "internal")
    root.children = [a0, m_node, c0]
    root.svalue = sum_terms([(1, root_z, False)])

    # ---- exact split checks (must all hold by construction) --------------
    split_checks: list[tuple[str, bool]] = []

    def check_split(name: str, node: DecompNode):
        acc = SValue.zero(node.svalue.phi_q)
        for c in node.children:
            acc = acc + (c.svalue if c.sign > 0 else -c.svalue)
        split_checks.append((name, acc.triple() == node.svalue.triple()))

    for nm, nd in (
        ("root=A0-M-C0", root),
        ("M=B1-G1", m_node),
        ("G1=G1a+G1b+G1c+G1d+G1e", g1_node),
        ("G1a=B2a-G2", g1a_node),
        ("G2=B4a-G3", g2_node),
        ("G1c=B3a-G3c", g1c_node),
    ):
        check_split(nm, nd)

    # ---- substitution flags (paper-conformance, never break evaluation) --
    flags: list[SubstitutionFlag] = []
    lpf = least_prime_factor_table(2 * x)

    # 1. the min-threshold rewrite of the middle first-split term
    lit_terms = [(p, min(float(p), half_eps / math.sqrt(p)), False) for p in p12]
    lit = s_values(x, lit_terms, q1, q2, a)
    inc = s_values(x, [(p, p, True) for p in p12], q1, q2, a)
    bad_p = [
        p
        for p, lit_ic, lit_cp, ic, cp in zip(p12, *lit[:2], *inc[:2])
        if (lit_ic, lit_cp) != (ic, cp)
    ]
    flags.append(
        SubstitutionFlag(
            "min-threshold",
            not bad_p,
            f"primes={len(p12)} failing={len(bad_p)} witnesses={bad_p[:6]}",
        )
    )

    # 2. implied-size constraint p*r^2 <= x^(1+2eps) dropped in the split
    for label, pairs in (("G1a", g1a), ("G1b", g1b), ("G1c", g1c)):
        viol = [(p, r) for (p, r) in pairs if p * r * r > X]
        flags.append(
            SubstitutionFlag(
                f"implied-pr2-{label}",
                not viol,
                f"tuples={len(pairs)} violating={len(viol)} witnesses={viol[:6]}",
            )
        )
    flags.append(
        SubstitutionFlag(
            "residual-empty",
            not g1e,
            f"tuples={len(g1e)} witnesses={g1e[:6]}",
        )
    )

    def cofactor_classes(d: int, z: int):
        """(non_prime, at_threshold) among m ~ x/d with P^-(m) >= z."""
        lo, hi = x // d + 1, (2 * x) // d
        m = np.arange(lo, hi + 1)
        rough = lpf[lo : hi + 1] >= z
        prime = (lpf[lo : hi + 1] == m) & (m != 1)
        return (
            int(np.count_nonzero(rough & ~prime)),
            int(np.count_nonzero(rough & prime & (m == z))),
        )

    # 3. "counts exactly three primes" for the unbalanced wide leaf
    np3 = sum(cofactor_classes(p * r, r)[0] for (p, r) in g1d)
    at3 = sum(cofactor_classes(p * r, r)[1] for (p, r) in g1d)
    flags.append(
        SubstitutionFlag(
            "three-prime-terminal",
            np3 == 0 and at3 == 0,
            f"tuples={len(g1d)} nonprime_cofactors={np3} at_threshold={at3}",
        )
    )

    # 4. "counts exactly four primes"
    np4 = sum(cofactor_classes(p * r * s, s)[0] for (p, r, s) in g3c)
    flags.append(
        SubstitutionFlag(
            "four-prime-terminal",
            np4 == 0,
            f"tuples={len(g3c)} nonprime_cofactors={np4}",
        )
    )

    # 5. "counts exactly five or six primes"
    bad5 = at5 = 0
    for (p, r, s, t) in g3:
        lo, hi = x // (p * r * s * t) + 1, (2 * x) // (p * r * s * t)
        for m in range(lo, hi + 1):
            pm = lpf[m]
            if pm < t:
                continue
            if m == 1:
                bad5 += 1
            elif pm == m:
                if m == t:
                    at5 += 1
            else:
                cof = m // pm
                if lpf[cof] != cof or pm == t:
                    # not a semiprime with both factors > t
                    if lpf[cof] != cof:
                        bad5 += 1
                    else:
                        at5 += 1
    flags.append(
        SubstitutionFlag(
            "five-six-prime-terminal",
            bad5 == 0 and at5 == 0,
            f"tuples={len(g3)} non_bi_prime={bad5} at_threshold={at5}",
        )
    )

    leaf_sum = SValue.zero(root.svalue.phi_q)
    n_leaves = 0
    for leaf, eff in root.leaves():
        n_leaves += 1
        leaf_sum = leaf_sum + (leaf.svalue if eff > 0 else -leaf.svalue)

    report = HarmanReport(
        x=x,
        z1=z1,
        z2=z2,
        z3=z3,
        q1=q1,
        q2=q2,
        a=a,
        epsilon=epsilon,
        flags=flags,
        split_checks=split_checks,
        root_value=root.svalue,
        leaf_sum=leaf_sum,
        leaf_count=n_leaves,
    )
    return root, report


def dump_tree(root: DecompNode) -> str:
    """Indented text serialization, one node per line."""
    lines = []
    for node, depth in root.walk():
        sv = node.svalue.triple() if node.svalue is not None else None
        sign = "+" if node.sign > 0 else "-"
        lines.append(
            "  " * depth
            + f"{sign} {node.name} [{node.kind}] {{{node.constraint}; {node.threshold}}} S={sv}"
        )
    return "\n".join(lines)
