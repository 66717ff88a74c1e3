"""Buchstab function solver.

omega(u) solves the delay differential equation (u*omega(u))' = omega(u-1)
with omega(u) = 1/u on [1, 2].  We integrate W(u) := u*omega(u) on a uniform
grid: each step is a Simpson update of W' = W(t-1)/(t-1), read from the
history by linear interpolation.  A step from u reads the grid no further
than u - 1 + 2*STEP, so a run of 1/STEP - 2 steps never reads a value it
writes itself: each run is one array of Simpson increments, added up in step
order, which gives the bits of one step at a time.
The grid on [1, U_MAX] is solved once and cached.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

U_MAX = 20.0
STEP = 1e-4


def _w_hist(w: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Linear interpolation of the grid w at the points t."""
    idx = (t - 1.0) / STEP
    k = idx.astype(np.int64)
    frac = idx - k
    return (1 - frac) * w[k] + frac * w[k + 1]


@lru_cache(maxsize=1)
def solve_buchstab() -> np.ndarray:
    """W(u) = u * omega(u) at u = 1 + k*STEP, k = 0 .. (U_MAX - 1)/STEP."""
    n = round((U_MAX - 1.0) / STEP)
    w = np.full(n + 1, np.nan)  # a read before its write shows as NaN
    per_unit = round(1.0 / STEP)
    # W = 1 exactly on [1, 2]
    w[: per_unit + 1] = 1.0

    u = 1.0 + np.arange(n + 1) * STEP
    for s in range(per_unit, n, per_unit - 2):
        e = min(s + per_unit - 2, n)
        # rhs g(t) = W(t-1)/(t-1); Simpson over [u_k, u_k + STEP], k in [s, e)
        t0 = u[s:e] - 1.0
        g0 = _w_hist(w, t0) / t0
        gm = _w_hist(w, t0 + STEP / 2) / (t0 + STEP / 2)
        g1 = _w_hist(w, t0 + STEP) / (t0 + STEP)
        inc = STEP / 6.0 * (g0 + 4.0 * gm + g1)
        # sequential sums, as one step at a time: w[k+1] = w[k] + inc[k-s]
        w[s + 1 : e + 1] = np.add.accumulate(np.concatenate(([w[s]], inc)))[1:]
    return w


def buchstab_omega(u: float) -> float:
    """omega(u) for u in [1, 20], absolute error below 1e-6."""
    if not (1.0 <= u <= U_MAX):
        raise ValueError(f"u = {u} outside [1, {U_MAX}]")
    if u <= 2.0:
        return 1.0 / u
    w = solve_buchstab()
    idx = (u - 1.0) / STEP
    k = min(int(idx), len(w) - 2)
    frac = idx - k
    return float((1 - frac) * w[k] + frac * w[k + 1]) / u
