"""Exact prime counting in progressions, S-values, moduli families, scans.

Two range conventions coexist deliberately: pi_ap counts primes p <= x, while
s_values counts n ~ x/d, i.e. n in (x/d, 2x/d].  Every function documents which
one it uses.  S-values are exact integer triples (no floating point) so the
sieve identities downstream can be checked exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .arith import P_MINUS_ONE_SENTINEL, euler_phi
from .primes import SEGMENT, least_prime_factor_table, pi, prime_bitmap


@dataclass(frozen=True)
class SValue:
    """Exact value of a signed progression count.

    Represents  in_class - coprime/phi_q  where in_class counts the summand
    weighted by the congruence indicator and coprime by the coprimality
    indicator.  Two SValues over the same modulus add componentwise.
    """

    in_class: int
    coprime: int
    phi_q: int

    def __post_init__(self):
        if self.phi_q < 1:
            raise ValueError("phi_q must be positive")

    @property
    def value(self) -> Fraction:
        return Fraction(self.in_class * self.phi_q - self.coprime, self.phi_q)

    def __add__(self, other: "SValue") -> "SValue":
        if self.phi_q != other.phi_q:
            raise ValueError("cannot add SValues over different moduli")
        return SValue(
            self.in_class + other.in_class, self.coprime + other.coprime, self.phi_q
        )

    def __sub__(self, other: "SValue") -> "SValue":
        if self.phi_q != other.phi_q:
            raise ValueError("cannot subtract SValues over different moduli")
        return SValue(
            self.in_class - other.in_class, self.coprime - other.coprime, self.phi_q
        )

    def __neg__(self) -> "SValue":
        return SValue(-self.in_class, -self.coprime, self.phi_q)

    @staticmethod
    def zero(phi_q: int) -> "SValue":
        return SValue(0, 0, phi_q)

    def triple(self) -> tuple[int, int, int]:
        return (self.in_class, self.coprime, self.phi_q)


@dataclass(frozen=True)
class DiscrepancyRecord:
    """One modulus of a discrepancy scan: pi(x; q, a) against pi(x)/phi(q)."""

    x: int
    q: int
    a: int
    pi_ap: int
    pi_x: int
    phi_q: int
    delta: float

    def __post_init__(self):
        if math.gcd(self.a, self.q) != 1:
            raise ValueError(f"residue {self.a} not coprime to modulus {self.q}")
        if self.delta < 0:
            raise ValueError("delta must be >= 0")

    @property
    def expected(self) -> Fraction:
        return Fraction(self.pi_x, self.phi_q)


@dataclass
class ModuliFamily:
    """A realized set of moduli to scan, with its construction parameters.

    Made by bifactor_box_family (pairs (q1, q2) with q1 <= Q1, q2 <= Q2),
    divisor_window_family (q <= x^(1/2+delta) having a divisor in an
    exponent window) or dyadic_family (q in [qlo, qhi]).
    members holds the realized moduli with multiplicity; for the box family,
    pairs holds the (q1, q2) list and members their products q1 * q2 in the
    same order.
    """

    a: int
    members: list[int]
    pairs: list[tuple[int, int]] = field(default_factory=list)
    params: dict = field(default_factory=dict)
    flagged: list[int] = field(default_factory=list)


# A class of odd-index stride s < _SPARSE is popcounted on whole words under
# its mask, a sparser one (at most one member per word) gathers those words:
# at x = 1e8 a masked pass costs 1.4 to 1.7 ms per class whatever s, a gather
# 2.5 ms at s = 97, 1.3 ms at 127 and 0.6 ms at 257 (2 vCPUs, Intel Xeon).
_SPARSE = 128
# A masked row is widened to at least _ROW words, as numpy is slow on short
# rows: at x = 1e8 the class s = 3 takes 4.0 ms at width 3, 2.3 ms at 16, 2.1
# at 64 and 2.0 at 256, while at x = 1e6 the 64 classes q = 64..127, a = 1
# take 1.34 ms at width 64 and 1.42 ms at 256.
_ROW = 64
_CHUNK = SEGMENT // 8  # words per numpy call: one SEGMENT-byte temporary


def _popcount(words: np.ndarray) -> np.integer:
    return np.bitwise_count(words).sum(dtype=np.uint32)  # <= _CHUNK words


def _count_in_classes(x: int, classes: Sequence[tuple[int, int]]) -> list[int]:
    """#{p <= x prime : p = a mod q} for each (q, a) with 0 <= a < q.

    Bit k of prime_bitmap(x) stands for 2k + 1, so the odd numbers = a mod q
    are the bits k = r mod s: s = q and r = (a - 1) * inv(2) mod q for odd q;
    s = q/2 and r = (a - 1)/2 for even q and odd a; none for even q and even
    a.  Those bits repeat every s / gcd(s, 64) uint64 words, so the words are
    read as rows of whole periods and popcounted under one row mask (from
    s = _SPARSE on, only the columns holding a member).  The prime 2 is
    counted apart.  Per class: O(period) setup, then O(x/64) work below
    _SPARSE and O(x/s) from it.  Memory: the cached bitmap (x/16 bytes per
    cached x) plus one SEGMENT-byte buffer.
    """
    x = int(x)
    words = prime_bitmap(x).view("<u8")
    counts = [int(x >= 2 and a == 2 % q) for q, a in classes]
    for i, (q, a) in enumerate(classes):
        if q % 2:
            s, r = q, (a - 1) * ((q + 1) // 2) % q
        elif a % 2:
            s, r = q // 2, (a - 1) // 2 % (q // 2)
        else:
            continue
        period = s // math.gcd(s, 64)
        if s < _SPARSE:
            width = period * -(-_ROW // period)
            hits = np.zeros(64 * width, dtype=bool)
            hits[r::s] = True
            mask = np.packbits(hits, bitorder="little").view("<u8")
            cols, count = slice(None), _popcount
        else:  # a masked word holds at most one bit
            width = period
            t = np.arange(r, 64 * width, s, dtype=np.uint64)
            mask, cols, count = 1 << (t & 63), t >> 6, np.count_nonzero
        full = len(words) // width
        rows = words[: full * width].reshape(full, width)
        step = max(1, _CHUNK // width)
        for j in range(0, full, step):
            counts[i] += int(count(rows[j : j + step, cols] & mask))
        tail = words[full * width :]  # shorter than a row
        if s < _SPARSE:
            counts[i] += int(count(tail & mask[: len(tail)]))
        else:
            keep = cols < len(tail)
            counts[i] += int(count(tail[cols[keep]] & mask[keep]))
    return counts


def pi_ap(x: int, q: int, a: int) -> int:
    """#{p <= x prime : p = a mod q}.  gcd(a, q) > 1 is allowed (count 0 or 1).

    Memory: the cached prime_bitmap(x), x/16 bytes per cached x (8 cached),
    plus one SEGMENT-byte buffer.
    """
    if q < 1:
        raise ValueError("modulus must be >= 1")
    if not 0 <= a < q:
        raise ValueError(f"residue {a} outside [0, {q})")
    return _count_in_classes(x, [(q, a)])[0]


def _least_lpf(z: float, inclusive: bool) -> int | None:
    """Least P^-(n) that P^-(n) > z (>= z when inclusive) admits, or None.

    An integer bound, ceil(z) (inclusive) or floor(z) + 1 (strict), raised to
    0; None when it passes the P^-(1) sentinel, the largest LPF-table entry,
    so no n qualifies (z = +inf or nan too, as their float comparisons say).
    """
    if not z < math.inf:
        return None
    z = max(z, 0.0)
    bound = math.ceil(z) if inclusive else math.floor(z) + 1
    return bound if bound <= P_MINUS_ONE_SENTINEL else None


def _window_batches(lo: np.ndarray, hi: np.ndarray):
    """(t, n) int64 arrays per batch of the windows [lo[t], hi[t]], end to end.

    The windows are laid out in order, an empty one (hi[t] < lo[t]) taking
    no room, and cut into batches of at most SEGMENT integers; batch by
    batch, n runs through every integer of every window and t names its
    window, so each (t, n) pair comes exactly once, in window order.  Memory:
    O(SEGMENT) per batch plus O(len(lo)).
    """
    widths = np.maximum(hi - lo + 1, 0)
    ends = np.cumsum(widths)  # window t holds positions [ends[t] - widths[t], ends[t])
    shift = lo - (ends - widths)  # n = shift[t] + position
    total = int(ends[-1]) if len(ends) else 0
    for s in range(0, total, SEGMENT):
        e = min(s + SEGMENT, total)
        first, last = np.searchsorted(ends, [s, e - 1], side="right")
        ts = np.arange(first, last + 1)
        t = np.repeat(ts, np.minimum(ends[ts], e) - np.maximum(ends[ts] - widths[ts], s))
        yield t, shift[t] + np.arange(s, e)


# A window goes to the strided path when each SEGMENT chunk of it holds at
# least _WIDE + _PER_CLASS * q integers.  A strided chunk costs about 10 us
# plus 1.3 us per residue class (one count_nonzero each), a gathered integer
# 25 to 40 ns; the measured crossover width runs from about 700 at q = 1 to
# 4e3 at q = 60 and 3e4 to 6e4 at q = 1000 (2 vCPUs, Intel Xeon).
_WIDE = 1 << 10
_PER_CLASS = 48


def s_values(
    x: int, terms: Sequence[tuple[int, float, bool]], q1: int, q2: int, a: int
) -> tuple[np.ndarray, np.ndarray, SValue]:
    """Exact S_d(z) over n ~ x/d for every (d, z, inclusive) term, in one pass.

    Each term sums, over the integers n in (x/d, 2x/d] with P^-(n) > z
    (P^-(n) >= z when ``inclusive`` is set, which is how the subtracted terms
    of an exact Buchstab split arise for prime thresholds z), the signed weight

        1[d*n = a mod q1*q2] - 1[(d*n, q1*q2) = 1] / phi(q1*q2).

    Returns (in_class, coprime, total): int64 arrays with one entry per term
    and their sum as an exact SValue.  The threshold becomes an integer bound
    on the least prime factor (see _least_lpf).  A wide window is read as
    slices of the shared LPF table, one SEGMENT at a time, and its survivors
    are histogrammed by n mod q with strided count_nonzero.  The narrow
    windows are read through _window_batches; in each batch the survivors
    with d*n = a mod q, and those with (d*n, q) = 1, are counted per term by
    bincount.  Memory: the LPF table, grown to the largest window end (8
    bytes per entry), plus O(SEGMENT) per chunk or batch and O(len(terms));
    the residue tables of the strided path hold q < SEGMENT / _PER_CLASS
    entries, and are built only when a window takes that path.
    """
    q = q1 * q2
    if q < 1:
        raise ValueError("moduli must be >= 1")
    if math.gcd(a, q) != 1:
        raise ValueError(f"residue {a} not coprime to modulus {q}")
    a %= q
    in_class = np.zeros(len(terms), dtype=np.int64)
    coprime = np.zeros(len(terms), dtype=np.int64)
    wide, narrow = [], []  # (term index, d, lo, hi, least allowed P^-(n))
    top = 0
    for i, (d, z, inclusive) in enumerate(terms):
        if d < 1:
            raise ValueError("d must be >= 1")
        lo, hi = x // d + 1, (2 * x) // d
        bound = _least_lpf(z, inclusive)
        if hi >= lo and bound is not None:
            is_wide = min(hi - lo + 1, SEGMENT) >= _WIDE + _PER_CLASS * q
            (wide if is_wide else narrow).append((i, d, lo, hi, bound))
            top = max(top, hi)
    lpf = least_prime_factor_table(top)
    if wide:
        residues = np.arange(q)
        unit = np.gcd(residues, q) == 1
    for i, d, lo, hi, bound in wide:
        by_n = np.zeros(q, dtype=np.int64)  # survivors by n mod q
        for k in range(lo, hi + 1, SEGMENT):
            rough = lpf[k : min(k + SEGMENT, hi + 1)] >= bound
            for j in range(q):
                by_n[(k + j) % q] += np.count_nonzero(rough[j::q])
        dn = d * residues % q
        in_class[i] = by_n[dn == a].sum()
        coprime[i] = by_n[unit[dn]].sum()
    if narrow:
        idx, ds, los, his, bounds = (np.array(col, dtype=np.int64) for col in zip(*narrow))
        for t, n in _window_batches(los, his):
            keep = lpf[n] >= bounds[t]
            t = t[keep]
            dn = ds[t] * n[keep] % q  # d*n <= 2x
            in_class[idx] += np.bincount(t[dn == a], minlength=len(idx))
            coprime[idx] += np.bincount(t[np.gcd(dn, q) == 1], minlength=len(idx))
    total = SValue(int(in_class.sum()), int(coprime.sum()), euler_phi(q))
    return in_class, coprime, total


def s_value(
    x: int, d: int, z: float, q1: int, q2: int, a: int, inclusive: bool = False
) -> SValue:
    """Exact S_d(z) over n ~ x/d, i.e. n in (x/d, 2x/d]: s_values with one term."""
    return s_values(x, [(d, z, inclusive)], q1, q2, a)[2]


def bv_aggregate(x: int, family: ModuliFamily) -> tuple[float, list[DiscrepancyRecord]]:
    """Total discrepancy sum(|pi(x;q,a) - pi(x)/phi(q)|) over family members.

    Each |delta| is |cnt * phi(q) - pi(x)| / phi(q), phi(q) factorized once
    per member; the total sums those integer numerators per distinct phi(q)
    and puts them over the lcm of the phi(q) in one Fraction: the exact sum
    of the deltas, with no common denominator grown step by step.  Records
    are sorted by modulus.  pi(x) and every count read the cached
    prime_bitmap(x), x/16 bytes per cached x (8 cached), plus one
    SEGMENT-byte buffer.
    """
    pix = pi(x)
    classes = [(q, family.a % q) for q in family.members]
    records, by_phi = [], {}  # phi(q) -> sum of |cnt * phi(q) - pi(x)|
    for (q, a), cnt in zip(classes, _count_in_classes(x, classes)):
        phi = euler_phi(q)
        num = abs(cnt * phi - pix)
        by_phi[phi] = by_phi.get(phi, 0) + num
        records.append(
            DiscrepancyRecord(x=x, q=q, a=a, pi_ap=cnt, pi_x=pix, phi_q=phi, delta=num / phi)
        )
    records.sort(key=lambda r: (r.q, r.a))
    lcm = math.lcm(*by_phi)
    return float(Fraction(sum(num * (lcm // phi) for phi, num in by_phi.items()), lcm)), records


def box_constraints(x: int, q1_max: int, q2_max: int) -> dict[str, bool]:
    """The three box-shape constraints, evaluated and reported (not enforced).

    They govern when the asymptotic discrepancy bound applies; at desk scale
    they are pure diagnostics on the (Q1, Q2) exponent geometry.  The names
    keep the paper's eps, which is 0 here; the float powers of x make a huge x
    raise OverflowError rather than compare exactly.
    """
    return {
        "Q1*Q2^2<x^(1-100eps)": q1_max * q2_max**2 < x**1.0,
        "Q1^12*Q2^7<x^(4-100eps)": q1_max**12 * q2_max**7 < x**4.0,
        "Q1^20*Q2^19<x^(10-100eps)": q1_max**20 * q2_max**19 < x**10.0,
    }


def bifactor_box_family(x: int, q1_max: int, q2_max: int, a: int) -> ModuliFamily:
    """All pairs (q1 <= Q1, q2 <= Q2) with (q1, a) = (q2, a) = 1.

    The shape constraints relating Q1, Q2 and x are evaluated into
    params["constraints"] for reporting; violating them never filters the
    family.
    """
    pairs = [
        (q1, q2)
        for q1 in range(1, q1_max + 1)
        if math.gcd(q1, a) == 1
        for q2 in range(1, q2_max + 1)
        if math.gcd(q2, a) == 1
    ]
    members = [q1 * q2 for q1, q2 in pairs]
    return ModuliFamily(
        a=a,
        members=members,
        pairs=pairs,
        params={"constraints": box_constraints(x, q1_max, q2_max)},
    )


def dyadic_family(q_lo: int, q_hi: int, a: int) -> ModuliFamily:
    """All q in [q_lo, q_hi] with (q, a) = 1; q_lo must be >= 1."""
    if q_lo < 1:
        raise ValueError(f"q_lo must be >= 1, got {q_lo}")
    members = [q for q in range(q_lo, q_hi + 1) if math.gcd(q, a) == 1]
    return ModuliFamily(a=a, members=members)


def divisor_window(x: int, delta: float, eta: float) -> tuple[float, float]:
    """Open window (x^(2*delta+eta), min(x^(1/10-7*delta/5-eta), x^(1/2-19*delta-eta)))."""
    lo = x ** (2 * delta + eta)
    hi = min(x ** (0.1 - 7 * delta / 5 - eta), x ** (0.5 - 19 * delta - eta))
    return lo, hi


def check_window_params(delta: float, eta: float) -> None:
    """Reject a divisor-window (delta, eta) outside the admissible range."""
    if not 0 < delta < 1 / 42:
        raise ValueError(f"delta = {delta} outside (0, 1/42)")
    if not 0 < eta < (1 - 42 * delta) / 4:
        raise ValueError(f"eta = {eta} outside (0, (1-42*delta)/4)")


def _window_divisor_mask(n: int, lo: float, hi: float) -> np.ndarray:
    """mask[q] for 0 <= q <= n: whether q has a divisor d with lo < d < hi.

    One multiples sieve, mask[d::d] = True per integer d in the open window,
    so it costs O(n log(hi/lo)) and n + 1 bytes.
    """
    mask = np.zeros(n + 1, dtype=bool)
    for d in range(max(math.floor(lo) + 1, 1), min(math.ceil(hi) - 1, n) + 1):
        mask[d::d] = True
    return mask


def divisor_window_family(x: int, delta: float, eta: float, a: int) -> ModuliFamily:
    """All q <= x^(1/2+delta), (q, a) = 1, with a divisor in the open window.

    Window endpoints are floats; divisor testing is exact integer comparison
    against them.  A modulus whose membership flips when the endpoints are
    widened by one ulp on each side is recorded in ``flagged`` (borderline)
    rather than silently misclassified.
    """
    check_window_params(delta, eta)
    lo, hi = divisor_window(x, delta, eta)
    lo_wide = math.nextafter(lo, -math.inf)
    hi_wide = math.nextafter(hi, math.inf)
    lo_narrow = math.nextafter(lo, math.inf)
    hi_narrow = math.nextafter(hi, -math.inf)
    q_max = int(x ** (0.5 + delta))
    qs = np.arange(1, q_max + 1)
    units = qs[np.gcd(qs, a) == 1]
    nominal = _window_divisor_mask(q_max, lo, hi)
    borderline = _window_divisor_mask(q_max, lo_wide, hi_wide) != _window_divisor_mask(
        q_max, lo_narrow, hi_narrow
    )
    return ModuliFamily(
        a=a,
        members=units[nominal[units]].tolist(),
        params={"window": (lo, hi), "q_max": q_max},
        flagged=units[borderline[units]].tolist(),
    )


def exceptional_fraction(
    Q: int, x: int, delta: float, eta: float, a: int
) -> dict[str, float]:
    """Fraction of q in [Q, 2Q], (q, a) = 1, with no divisor in the window.

    Returned alongside the asymptotic comparison value 18*delta*phi(a)/a as a
    diagnostic; the bound is not asserted.
    """
    check_window_params(delta, eta)
    lo, hi = divisor_window(x, delta, eta)
    qs = np.arange(Q, 2 * Q + 1)
    units = qs[np.gcd(qs, a) == 1]
    total = len(units)
    exceptional = int(np.count_nonzero(~_window_divisor_mask(max(2 * Q, 0), lo, hi)[units]))
    frac = exceptional / total if total else 0.0
    bound = 18 * delta * euler_phi(a) / a
    return {
        "fraction": frac,
        "exceptional": exceptional,
        "total": total,
        "reference_bound": bound,
    }
