"""Exact prime counting in progressions, S-values, moduli families, scans.

Two range conventions coexist deliberately: pi_ap counts primes p <= x, while
s_values counts n ~ x/d, i.e. n in (x/d, 2x/d].  Every function documents which
one it uses.  S-values are exact integer triples (no floating point) so the
sieve identities downstream can be checked exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .arith import euler_phi, factorize, mod_inv
from .primes import SEGMENT, least_prime_factor_table, lpf_bound, pi, prime_bitmap


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
# _count_in_classes indexes the bits below 64 * s, s <= q, in uint64, so a
# modulus up to Q_MAX keeps them below 2^64; at q = 2^59 + 1 they wrapped and
# miscounted.
Q_MAX = 1 << 58


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
    if not 1 <= q <= Q_MAX:
        raise ValueError(f"modulus must be in [1, {Q_MAX}]")
    if not 0 <= a < q:
        raise ValueError(f"residue {a} outside [0, {q})")
    return _count_in_classes(x, [(q, a)])[0]


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
# least _WIDE + _PER_CLASS * c integers, c = 1 + 2^omega(q) strided counts.
# A strided chunk costs about 4 us plus 0.65 us per count (one count_nonzero
# each), a gathered integer 20 to 30 ns; the measured crossover width runs
# from about 150 at q = 1 (c = 2) to 400 at q = 30 (c = 9), 1100 at q = 2310
# (c = 33) and 1600 at q = 30030 (c = 65).  The 101 calls of a
# sieve-identities round take 77 ms at 256 + 32c, 87 to 95 ms at 1024 + 48c
# (2 vCPUs, Intel Xeon).
_WIDE = 1 << 8
_PER_CLASS = 32


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
    on the least prime factor by lpf_bound.  As (a, q) = 1, a term with
    (d, q) > 1 counts 0 twice and reads nothing; otherwise d*n = a mod q is
    n = r := a * inv(d) mod q, and (d*n, q) = 1 is (n, q) = 1.  A wide window
    is read as slices of the shared LPF table, one SEGMENT at a time: its
    survivors with n = r mod q are one strided count_nonzero, and those
    coprime to q are sum mu(e) * #{e | n} over the squarefree divisors e of
    q, 2^omega(q) more.  The narrow windows are read through _window_batches;
    in each batch the survivors with n % q == r, and those with gcd(n, q) = 1,
    are counted per term by bincount.  Memory: the LPF table, grown to the
    largest window end (4 bytes per entry), plus O(SEGMENT) per chunk or
    batch and O(len(terms) + 2^omega(q)); nothing is sized by q.
    """
    q = q1 * q2
    if q < 1:
        raise ValueError("moduli must be >= 1")
    if math.gcd(a, q) != 1:
        raise ValueError(f"residue {a} not coprime to modulus {q}")
    fq = factorize(q)
    mu_divs = [(1, 1)]  # (e, mu(e)) for the squarefree divisors e of q
    for p, _ in fq.factors:
        mu_divs += [(e * p, -m) for e, m in mu_divs]
    in_class = np.zeros(len(terms), dtype=np.int64)
    coprime = np.zeros(len(terms), dtype=np.int64)
    wide, narrow = [], []  # (term index, r, lo, hi, least allowed P^-(n))
    top = 0
    for i, (d, z, inclusive) in enumerate(terms):
        if d < 1:
            raise ValueError("d must be >= 1")
        lo, hi = x // d + 1, (2 * x) // d
        bound = lpf_bound(z, inclusive)
        if hi >= lo and math.gcd(d, q) == 1:
            is_wide = min(hi - lo + 1, SEGMENT) >= _WIDE + _PER_CLASS * (1 + len(mu_divs))
            (wide if is_wide else narrow).append((i, a * mod_inv(d, q) % q, lo, hi, bound))
            top = max(top, hi)
    lpf = least_prime_factor_table(top)
    for i, r, lo, hi, bound in wide:
        for k in range(lo, hi + 1, SEGMENT):
            rough = lpf[k : min(k + SEGMENT, hi + 1)] >= bound
            in_class[i] += np.count_nonzero(rough[(r - k) % q :: q])
            coprime[i] += sum(m * np.count_nonzero(rough[-k % e :: e]) for e, m in mu_divs)
    if narrow:
        idx, rs, los, his, bounds = (np.array(col, dtype=np.int64) for col in zip(*narrow))
        for t, n in _window_batches(los, his):
            keep = lpf[n] >= bounds[t]
            t, n = t[keep], n[keep]
            in_class[idx] += np.bincount(t[n % q == rs[t]], minlength=len(idx))
            coprime[idx] += np.bincount(t[np.gcd(n, q) == 1], minlength=len(idx))
    total = SValue(int(in_class.sum()), int(coprime.sum()), euler_phi(fq))
    return in_class, coprime, total


def s_value(
    x: int, d: int, z: float, q1: int, q2: int, a: int, inclusive: bool = False
) -> SValue:
    """Exact S_d(z) over n ~ x/d, i.e. n in (x/d, 2x/d]: s_values with one term."""
    return s_values(x, [(d, z, inclusive)], q1, q2, a)[2]


def bv_aggregate(
    x: int, a: int, moduli: np.ndarray
) -> tuple[int, np.ndarray, np.ndarray, Fraction]:
    """pi(x), then pi(x; q, a) and phi(q) per modulus, and the total discrepancy.

    Returns (pi(x), counts, phis, total): int64 columns in the order of
    ``moduli``, a repeated modulus counted once per entry, and the exact
    total = sum |cnt - pi(x)/phi(q)|.  Each term is |cnt * phi(q) - pi(x)| /
    phi(q); int64 holds that numerator, as cnt * phi(q) <= (x/q + 1) * q =
    x + q.  The total sums the numerators per distinct phi(q) and adds the
    Fractions num / phi(q) in a balanced pairwise tree, each partial sum over
    the lcm of its subtree's phi(q) only, so it stays near linear where
    nearly every phi(q) is distinct.  A modulus outside [1, Q_MAX] or not
    coprime to a is refused.  pi(x) and every count read the cached
    prime_bitmap(x), x/16 bytes per cached x (8 cached), plus one
    SEGMENT-byte buffer.
    """
    moduli = np.asarray(moduli, dtype=np.int64)
    if np.any((moduli < 1) | (moduli > Q_MAX)):
        raise ValueError(f"moduli must be in [1, {Q_MAX}]")
    shared = moduli[np.gcd(moduli, a) != 1]
    if len(shared):
        raise ValueError(f"residue {a} not coprime to modulus {shared[0]}")
    pix = pi(x)
    qs = moduli.tolist()
    counts = np.array(_count_in_classes(x, [(q, a % q) for q in qs]), dtype=np.int64)
    phis = np.array([euler_phi(q) for q in qs], dtype=np.int64)
    by_phi = {}  # phi(q) -> sum of |cnt * phi(q) - pi(x)|
    for phi, num in zip(phis.tolist(), np.abs(counts * phis - pix).tolist()):
        by_phi[phi] = by_phi.get(phi, 0) + num
    total = [Fraction(num, phi) for phi, num in by_phi.items()] or [Fraction(0)]
    while len(total) > 1:
        total = [sum(total[i : i + 2]) for i in range(0, len(total), 2)]
    return pix, counts, phis, total[0]


def box_constraints(x: int, q1_max: int, q2_max: int) -> dict[str, bool]:
    """The three box-shape constraints, evaluated and reported (not enforced).

    They govern when the asymptotic discrepancy bound applies; at desk scale
    they are pure diagnostics on the (Q1, Q2) exponent geometry.  The names
    keep the paper's eps, which is 0 here, so each is compared exactly, in
    Python integers.
    """
    return {
        "Q1*Q2^2<x^(1-100eps)": q1_max * q2_max**2 < x,
        "Q1^12*Q2^7<x^(4-100eps)": q1_max**12 * q2_max**7 < x**4,
        "Q1^20*Q2^19<x^(10-100eps)": q1_max**20 * q2_max**19 < x**10,
    }


def _units(q_lo: int, q_hi: int, a: int) -> np.ndarray:
    """The q in [q_lo, q_hi] with (q, a) = 1, ascending, as int64."""
    qs = np.arange(q_lo, q_hi + 1, dtype=np.int64)
    return qs[np.gcd(qs, a) == 1]


def bifactor_box_family(q1_max: int, q2_max: int, a: int) -> tuple[np.ndarray, np.ndarray]:
    """All pairs (q1 <= Q1, q2 <= Q2) with (q1, a) = (q2, a) = 1.

    Returns the int64 columns q1 and q2, q1-major; the moduli q1 * q2 repeat
    (2 * 3 and 3 * 2).  box_constraints reports the shape constraints on Q1,
    Q2 and x; violating them never filters the family.
    """
    q1, q2 = _units(1, q1_max, a), _units(1, q2_max, a)
    return np.repeat(q1, len(q2)), np.tile(q2, len(q1))


def dyadic_family(q_lo: int, q_hi: int, a: int) -> np.ndarray:
    """All q in [q_lo, q_hi] with (q, a) = 1, ascending int64; q_lo must be >= 1."""
    if q_lo < 1:
        raise ValueError(f"q_lo must be >= 1, got {q_lo}")
    return _units(q_lo, q_hi, a)


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


def _window_units(
    q_lo: int, q_hi: int, a: int, windows: Sequence[tuple[float, float]]
) -> tuple[np.ndarray, list[np.ndarray]]:
    """_units(q_lo, q_hi, a), and per open window (lo, hi) which have a divisor in it.

    One multiples sieve per window, mask[d::d] = True per integer d with
    lo < d < hi, so each costs O(q_hi log(hi/lo)) and q_hi + 1 bytes.
    """
    units = _units(q_lo, q_hi, a)
    n = max(q_hi, 0)
    masks = []
    for lo, hi in windows:
        mask = np.zeros(n + 1, dtype=bool)
        for d in range(max(math.floor(lo) + 1, 1), min(math.ceil(hi) - 1, n) + 1):
            mask[d::d] = True
        masks.append(mask[units])
    return units, masks


def divisor_window_family(
    x: int, delta: float, eta: float, a: int
) -> tuple[np.ndarray, np.ndarray]:
    """All q <= x^(1/2+delta), (q, a) = 1, with a divisor in divisor_window.

    Returns the ascending int64 columns members and flagged.  Window endpoints
    are floats; divisor testing is exact integer comparison against them.  A
    unit whose membership flips when the endpoints are widened by one ulp on
    each side is flagged (borderline), member or not, rather than silently
    misclassified.
    """
    check_window_params(delta, eta)
    lo, hi = divisor_window(x, delta, eta)
    wide = (math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf))
    narrow = (math.nextafter(lo, math.inf), math.nextafter(hi, -math.inf))
    q_max = int(x ** (0.5 + delta))
    units, (nominal, in_wide, in_narrow) = _window_units(1, q_max, a, [(lo, hi), wide, narrow])
    return units[nominal], units[in_wide != in_narrow]


def exceptional_fraction(
    Q: int, x: int, delta: float, eta: float, a: int
) -> dict[str, float]:
    """Fraction of q in [Q, 2Q], (q, a) = 1, with no divisor in the window.

    Returned alongside the asymptotic comparison value 18*delta*phi(a)/a as a
    diagnostic; the bound is not asserted.
    """
    check_window_params(delta, eta)
    units, (inside,) = _window_units(Q, 2 * Q, a, [divisor_window(x, delta, eta)])
    total = len(units)
    exceptional = total - int(np.count_nonzero(inside))
    frac = exceptional / total if total else 0.0
    bound = 18 * delta * euler_phi(a) / a
    return {
        "fraction": frac,
        "exceptional": exceptional,
        "total": total,
        "reference_bound": bound,
    }
