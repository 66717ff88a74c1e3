"""Buchstab function solver.

omega(u) solves the delay differential equation (u*omega(u))' = omega(u-1)
with omega(u) = 1/u on [1, 2].  We integrate W(u) := u*omega(u) on a uniform
grid: W' depends only on the already-computed history (delay 1 >> step), so
each step is a Simpson update with linear interpolation into the history.
The grid on [1, U_MAX] is solved once and cached.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

U_MAX = 20.0
STEP = 1e-4


@dataclass(frozen=True)
class BuchstabSolution:
    """Uniform-grid samples of (u, omega(u)) on [1, u_max]."""

    grid: np.ndarray  # W(u) = u * omega(u) at u = 1 + k*step
    step: float
    u_max: float

    def _w_at(self, u) -> np.ndarray:
        idx = (np.asarray(u, dtype=float) - 1.0) / self.step
        k = np.clip(idx.astype(np.int64), 0, len(self.grid) - 2)
        frac = idx - k
        return (1 - frac) * self.grid[k] + frac * self.grid[k + 1]

    def omega(self, u: float) -> float:
        if not (1.0 <= u <= self.u_max):
            raise ValueError(f"u = {u} outside [1, {self.u_max}]")
        return float(self._w_at(u)) / u


@lru_cache(maxsize=1)
def solve_buchstab() -> BuchstabSolution:
    n = round((U_MAX - 1.0) / STEP)
    w = np.empty(n + 1)
    per_unit = round(1.0 / STEP)
    # W = 1 exactly on [1, 2]
    w[: per_unit + 1] = 1.0

    u = 1.0 + np.arange(n + 1) * STEP

    def w_hist(t: float, upto: int) -> float:
        # linear interpolation into grid prefix w[:upto+1]
        idx = (t - 1.0) / STEP
        k = min(int(idx), upto - 1)
        frac = idx - k
        return (1 - frac) * w[k] + frac * w[k + 1]

    for k in range(per_unit, n):
        uk = u[k]
        # rhs g(t) = W(t-1)/(t-1); Simpson over [uk, uk+STEP]
        g0 = w_hist(uk - 1.0, k) / (uk - 1.0)
        gm = w_hist(uk - 1.0 + STEP / 2, k) / (uk - 1.0 + STEP / 2)
        g1 = w_hist(uk - 1.0 + STEP, k) / (uk - 1.0 + STEP)
        w[k + 1] = w[k] + STEP / 6.0 * (g0 + 4.0 * gm + g1)
    return BuchstabSolution(grid=w, step=STEP, u_max=U_MAX)


def buchstab_omega(u: float) -> float:
    """omega(u) for u in [1, 20], absolute error below 1e-6."""
    if not (1.0 <= u <= U_MAX):
        raise ValueError(f"u = {u} outside [1, {U_MAX}]")
    if u <= 2.0:
        return 1.0 / u
    return solve_buchstab().omega(u)
