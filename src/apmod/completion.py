"""Smooth bump psi0, partitions of unity, and completion-of-sums evaluators.

The bump is the exp(-1/u) smoothstep: supported on [1/2, 5/2], identically 1
on [1, 2], C-infinity, strictly monotone on each ramp.  It is the one weight
the evaluators use: psi0_deriv_vec gives it and its derivatives on arrays
through jet arithmetic, and psi0_hat its Fourier transform, by composite
Gauss-Kronrod quadrature on the two ramps plus a closed form on the plateau,
memoized per frequency.  The three completion evaluators compare an exactly
enumerated sum of psi0 against its truncated dual form and report the
measured error; the asymptotic tail bounds are replaced by these explicit
measurements at desk scale.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
import numpy as np

from .arith import euler_phi, mod_inv
from .expsums import kloosterman, ramanujan


# ---------------------------------------------------------------------------
# truncated-Taylor (jet) arithmetic of arbitrary order, numpy-vectorized;
# exposes analytic derivatives of the closed-form bump without symbolic
# algebra.  A jet is a list of K+1 components (value, d1, ..., dK), each a
# float or an ndarray.

_BINOM = [[math.comb(n, k) for k in range(n + 1)] for n in range(16)]


def _jet_div(f, g):
    k = len(f)
    out = []
    for n in range(k):
        acc = f[n]
        for i in range(n):
            acc = acc - _BINOM[n][i] * out[i] * g[n - i]
        out.append(acc / g[0])
    return out


def _jet_exp(w):
    k = len(w)
    out = [np.exp(w[0])]
    # h' = w' h  =>  h^(n) = sum_{i<n} C(n-1, i) h^(i) w^(n-i)
    for n in range(1, k):
        acc = 0.0
        for i in range(n):
            acc = acc + _BINOM[n - 1][i] * out[i] * w[n - i]
        out.append(acc)
    return out


def _smoothstep_jet(u):
    """s(u) = g(u) / (g(u) + g(1-u)) with g(u) = exp(-1/u), jet in t."""
    k = len(u)
    zero = u[0] * 0.0
    minus_one = [zero - 1.0] + [zero] * (k - 1)
    g = _jet_exp(_jet_div(minus_one, u))
    v = [1.0 - u[0]] + [-c for c in u[1:]]
    h = _jet_exp(_jet_div(minus_one, v))
    return _jet_div(g, [g[i] + h[i] for i in range(k)])


def smoothstep(u: float) -> float:
    """C-infinity step: 0 for u <= 0, 1 for u >= 1, strictly increasing between."""
    if u <= 0.0:
        return 0.0
    if u >= 1.0:
        return 1.0
    g = math.exp(-1.0 / u)
    h = math.exp(-1.0 / (1.0 - u))
    return g / (g + h)


def psi0_eval(t: float) -> float:
    """The bump: exactly 0 off [1/2, 5/2], exactly 1 on [1, 2], smooth ramps."""
    if t <= 0.5 or t >= 2.5:
        return 0.0
    if 1.0 <= t <= 2.0:
        return 1.0
    if t < 1.0:
        return smoothstep(2.0 * t - 1.0)
    return smoothstep(5.0 - 2.0 * t)


def psi0_deriv_vec(ts, order: int) -> np.ndarray:
    """order-th derivative of psi0 on an array of points (analytic, jets).

    Order 0 is psi0 itself: exactly 1 on [1, 2], exactly 0 off (1/2, 5/2).
    """
    arr = np.asarray(ts, dtype=float)
    out = np.zeros_like(arr)
    if order == 0:
        out[(arr >= 1.0) & (arr <= 2.0)] = 1.0
    # smoothstep argument u = 2t - 1 on the up-ramp and 5 - 2t on the down-ramp
    for ramp, slope, offset in (
        ((arr > 0.5) & (arr < 1.0), 2.0, -1.0),
        ((arr > 2.0) & (arr < 2.5), -2.0, 5.0),
    ):
        if ramp.any():
            u = slope * arr[ramp] + offset
            jet = [u]
            if order:
                jet += [np.full_like(u, slope)] + [np.zeros_like(u)] * (order - 1)
            out[ramp] = _smoothstep_jet(jet)[order]
    return out


# ---------------------------------------------------------------------------
# composite Gauss-Kronrod (G7, K15) quadrature

_XGK = np.array(
    [
        0.991455371120813,
        0.949107912342759,
        0.864864423359769,
        0.741531185599394,
        0.586087235467691,
        0.405845151377397,
        0.207784955007898,
        0.0,
    ]
)
_WGK = np.array(
    [
        0.022935322010529,
        0.063092092629979,
        0.104790010322250,
        0.140653259715525,
        0.169004726639267,
        0.190350578064785,
        0.204432940075298,
        0.209482141084728,
    ]
)
_WG = np.array(
    [0.129484966168870, 0.279705391489277, 0.381830050505119, 0.417959183673469]
)

_NODES = np.concatenate([-_XGK[:7], _XGK[7:], _XGK[6::-1]])
_WK = np.concatenate([_WGK[:7], _WGK[7:], _WGK[6::-1]])
_WG_FULL = np.zeros(15)
_WG_FULL[1:14:2] = np.concatenate([_WG[:3], _WG[3:], _WG[2::-1]])


def _composite_gk(f, a: float, b: float, panels: int) -> tuple[complex, float]:
    """One vectorized composite G7K15 pass over equal panels."""
    edges = np.linspace(a, b, panels + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    halves = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mids[:, None] + halves[:, None] * _NODES[None, :]).ravel()
    vals = np.asarray(f(nodes), dtype=complex).reshape(panels, 15)
    k = (halves * (vals @ _WK)).sum()
    g = (halves * (vals @ _WG_FULL)).sum()
    return complex(k), abs(complex(k - g))


QUAD_TOL = 1e-12  # absolute Gauss/Kronrod discrepancy the quadrature stops at
QUAD_MAX_PANELS = 4096


def quad_oscillatory(f, a: float, b: float, freq: float) -> complex:
    """Composite Gauss-Kronrod sized to the oscillation frequency.

    ``freq`` is the number of phase cycles per unit length.  Starts just
    below one panel per cycle (G7K15 resolves that comfortably) and doubles,
    up to QUAD_MAX_PANELS, until the embedded Gauss/Kronrod discrepancy is
    within QUAD_TOL.
    """
    panels = min(max(8, math.ceil(0.8 * abs(freq) * (b - a))), QUAD_MAX_PANELS)
    val, err = _composite_gk(f, a, b, panels)
    while err > QUAD_TOL and panels < QUAD_MAX_PANELS:
        panels = min(2 * panels, QUAD_MAX_PANELS)
        val, err = _composite_gk(f, a, b, panels)
    return val


XI_BYPARTS = 400.0  # consider the certified tail cutoff only above this
_RAMPS = ((0.5, 1.0), (2.0, 2.5))  # psi0 rises, then falls; 1 on [1, 2] between


@functools.lru_cache(maxsize=1)
def _high_deriv_norm() -> float:
    """L1 norm of psi0^(8), one 128-panel G7K15 pass per ramp."""
    total = 0.0
    for a, b in _RAMPS:
        v, _ = _composite_gk(lambda t: np.abs(psi0_deriv_vec(t, 8)), a, b, 128)
        total += v.real
    return total


@functools.lru_cache(maxsize=None)
def psi0_hat(xi: float) -> complex:
    """Fourier transform of psi0, integral of psi0(t) e(-xi t) dt (memoized).

    The plateau [1, 2] is integrated in closed form and each ramp by
    quad_oscillatory, to absolute error QUAD_TOL per ramp.  Above XI_BYPARTS,
    8-fold integration by parts certifies |hat(xi)| <= ||psi0^(8)||_1 /
    (2 pi xi)^8; where that bound falls below 1e-22 the value is exactly 0
    instead of quadrature panels spent on an unrepresentably small number.
    """
    xi = float(xi)
    if xi < 0.0:
        # real weight: hat(-xi) = conj(hat(xi))
        return psi0_hat(-xi).conjugate()
    if xi > XI_BYPARTS and _high_deriv_norm() / (2.0 * math.pi * xi) ** 8 < 1e-22:
        return 0j
    if xi == 0.0:
        plateau_val = complex(1.0)
    else:
        c = -2j * math.pi * xi
        plateau_val = (np.exp(c * 2.0) - np.exp(c * 1.0)) / c

    def integrand(t):
        return psi0_deriv_vec(t, 0) * np.exp(-2j * np.pi * xi * t)

    return plateau_val + sum(quad_oscillatory(integrand, a, b, xi) for a, b in _RAMPS)


# ---------------------------------------------------------------------------
# smooth partition of unity


@dataclass(frozen=True)
class PartitionPiece:
    """One tile: up-ramp, plateau, down-ramp in u = (t - 1) * scale coordinates."""

    index: int
    scale: float  # (log x)^C
    up_start: float  # ramp rises on [up_start, up_start + 1/2]
    plateau_end: float  # value 1 on [up_start + 1/2, plateau_end]

    def __call__(self, t: float) -> float:
        u = (float(t) - 1.0) * self.scale
        if u <= self.up_start or u >= self.plateau_end + 0.5:
            return 0.0
        if u < self.up_start + 0.5:
            return smoothstep(2.0 * (u - self.up_start))
        if u <= self.plateau_end:
            return 1.0
        return 1.0 - smoothstep(2.0 * (u - self.plateau_end))


def partition_of_unity(C: float, x: float) -> list[PartitionPiece]:
    """Smooth tiles summing to exactly 1 on [1, 2] and vanishing outside a
    1/(log x)^C fattening of it.

    Adjacent ramps share the same smoothstep so the telescoping sum is exact:
    1 for t in [1, 2], 0 for t <= 1 - 1/(2 (log x)^C) and for
    t >= 2 + 1/(2 (log x)^C), strictly between 0 and 1 on the two outer
    ramps.  Piece count J = ceil((log x)^C) <= (log x)^C + 2.
    """
    if C < 3:
        raise ValueError("the construction requires C >= 3")
    L = math.log(x) ** C
    if L < 1.0:
        raise ValueError("x too small: (log x)^C must be >= 1")
    J = math.ceil(L)
    pieces = []
    for i in range(1, J + 1):
        plateau_end = (i - 0.5) if i < J else L
        pieces.append(
            PartitionPiece(
                index=i, scale=L, up_start=i - 1.5, plateau_end=plateau_end
            )
        )
    return pieces


# ---------------------------------------------------------------------------
# completion-of-sums evaluators


@dataclass
class CompletionReport:
    """Exact sum vs truncated dual form, with the measured error."""

    exact: complex
    main_term: complex
    truncated: complex
    error: float
    H_used: int


def _support_range(scale: float) -> range:
    """The integers m with psi0(m/scale) possibly nonzero (support [1/2, 5/2])."""
    start = max(1, math.floor(0.5 * scale))
    stop = math.ceil(2.5 * scale) + 1
    return range(start, stop)


def completed_ap_sum(M: float, q: int, a: int, H: int) -> CompletionReport:
    """Progression sum of psi0(m/M) against its truncated Fourier dual.

    exact     = sum over m = a (mod q) of psi0(m/M)
    truncated = (M/q) psi0hat(0)
              + (M/q) sum_{1 <= |h| <= H} psi0hat(hM/q) e(ah/q)

    The error |exact - truncated| is the measured tail; it is reported, never
    assumed.  The exact side uses compensated summation so the report
    measures the truncation tail, not float accumulation noise.
    """
    if q < 1:
        raise ValueError("modulus must be >= 1")
    if M > 10**6 or q > 10**6:
        raise ValueError("M, q above 1e6 are out of contract for direct enumeration")
    ms = np.array(_support_range(M), dtype=np.int64)
    ms = ms[ms % q == a % q]
    exact = math.fsum(psi0_deriv_vec(ms / M, 0).tolist())
    main = (M / q) * psi0_hat(0.0)
    tail = 0j
    for h in range(1, H + 1):
        ph = np.exp(2j * np.pi * ((a * h) % q) / q)
        tail += psi0_hat(h * M / q) * ph + psi0_hat(-h * M / q) * np.conj(ph)
    truncated = main + (M / q) * tail
    return CompletionReport(
        exact=exact,
        main_term=complex(main),
        truncated=complex(truncated),
        error=abs(exact - truncated),
        H_used=H,
    )


def completed_inverse_sum(
    N: float, q: int, d: int, n0: int, b: int, H: int
) -> CompletionReport:
    """Sum of psi0(n/N) e(b inv(n)/q) over n = n0 (mod d), (n, q) = 1, against
    its completed form: a Ramanujan main term plus a Kloosterman-type h-sum.

    truncated = (N psi0hat(0) / (d q)) c_q(b)
              + (N/(d q)) sum_{1<=|h|<=H} psi0hat(hN/(dq)) e(n0 inv(q) h / d)
                                             S(h, b inv(d); q)
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if math.gcd(d, q) != 1:
        raise ValueError("d and q must be coprime")
    if N * d * q > 10**7:
        raise ValueError("N*d*q above 1e7 is out of contract for direct enumeration")
    re_parts: list[float] = []
    im_parts: list[float] = []
    for n in _support_range(N):
        if n % d == n0 % d and math.gcd(n, q) == 1:
            nbar = mod_inv(n, q)
            term = float(psi0_deriv_vec(n / N, 0)) * np.exp(2j * np.pi * ((b * nbar) % q) / q)
            re_parts.append(term.real)
            im_parts.append(term.imag)
    exact = complex(math.fsum(re_parts), math.fsum(im_parts))
    main = (N * psi0_hat(0.0) / (d * q)) * ramanujan(q, b)
    qbar_d = mod_inv(q, d) if d > 1 else 0
    dbar_q = mod_inv(d, q) if q > 1 else 0
    tail = 0j
    for h in range(-H, H + 1):
        if h == 0:
            continue
        phase = np.exp(2j * np.pi * ((n0 * qbar_d * h) % d) / d) if d > 1 else 1.0
        tail += psi0_hat(h * N / (d * q)) * phase * kloosterman(h, b * dbar_q, q)
    truncated = main + (N / (d * q)) * tail
    return CompletionReport(
        exact=complex(exact),
        main_term=complex(main),
        truncated=complex(truncated),
        error=abs(exact - truncated),
        H_used=H,
    )


def coprime_smooth_sum(M: float, q: int) -> CompletionReport:
    """Sum of psi0(m/M) over (m, q) = 1 against the density main term.

    main_term = (phi(q)/q) M psi0hat(0); the deviation is reported as a
    diagnostic against the tau(q) * polylog shape, not asserted.
    """
    if q < 1:
        raise ValueError("modulus must be >= 1")
    if M * q > 10**7:
        raise ValueError("M*q above 1e7 is out of contract for direct enumeration")
    ms = np.array(_support_range(M), dtype=np.int64)
    ms = ms[np.gcd(ms, q) == 1]
    exact = math.fsum(psi0_deriv_vec(ms / M, 0).tolist())
    main = (euler_phi(q) / q) * M * psi0_hat(0.0)
    return CompletionReport(
        exact=exact,
        main_term=complex(main),
        truncated=complex(main),
        error=abs(exact - main),
        H_used=0,
    )
