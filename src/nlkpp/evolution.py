"""Explicit time stepping for the nonlocal evolution equation and front
speed measurement.

The update is first-order in time; the dt guard
dt (kappa_plus + m + 2 kl theta + kn theta) <= 0.5 keeps the step map
order-preserving on [0, theta], which is what the comparison-based checks
rely on. Convolutions extend the state by constant panels on both sides,
K cells of u[0] on the left and of u[-1] on the right. A panel adds its
end value times a fixed response to the K rows next to its edge: row by
row, the sum of the weights that reach past the edge. So the state is
convolved padded with zeros, and the two responses, computed once per
run, are added on those rows. With the panels every row's weights sum to
the kernel mass, so the two spatially constant states are fixed points:
zero exactly, since every term vanishes, and theta up to the few-ulp
roundoff of the convolution, which dt scales below half an ulp of theta
in the tested cases, so that it rounds away.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergence, UsageError
from .kernels import KernelPair, Params, theta
from .profile import Convolver, WaveProfile

_BURN_IN = 0.30
_WIDEN_TRIGGER = 0.20   # front inside the last 20% of the grid grows it
_WIDEN_FACTOR = 0.50
_FLUSH_FLOOR = 3e-15    # cells below this fraction of theta snap to zero


@dataclass(eq=False)
class EvolutionRun:
    grid: np.ndarray
    h: float
    dt: float
    theta: float
    times: np.ndarray
    snapshots: list                  # arrays; earlier ones may be shorter
    front_positions: np.ndarray      # theta/2 crossings, nan when absent
    level: float
    burn_in: float = _BURN_IN
    speed: float | None = None
    speed_window: tuple | None = None

    def snapshot_grid(self, k: int) -> np.ndarray:
        return self.grid[: len(self.snapshots[k])]

    def summary(self) -> dict:
        return {"h": self.h, "dt": self.dt, "theta": self.theta,
                "level": self.level, "burn_in": self.burn_in,
                "n_snapshots": len(self.snapshots),
                "t_final": float(self.times[-1]),
                "grid_span": [float(self.grid[0]), float(self.grid[-1])],
                "speed": self.speed,
                "speed_window": list(self.speed_window) if self.speed_window else None}


def _crossing(x, u, level):
    d = u - level
    sgn = np.sign(d)
    hits = np.where(sgn[:-1] * sgn[1:] <= 0)[0]
    for i in hits:
        if d[i] == d[i + 1]:
            continue
        t = d[i] / (d[i] - d[i + 1])
        return float(x[i] + t * (x[i + 1] - x[i]))
    return math.nan


def _fit_speed(times, positions):
    t = np.asarray(times, float)
    x = np.asarray(positions, float)
    tm = t - t.mean()
    denom = float(tm @ tm)
    slope = float(tm @ x) / denom
    icpt = float(x.mean() - slope * t.mean())
    r = x - (icpt + slope * t)
    if len(t) > 2:
        se = math.sqrt(float(r @ r) / (len(t) - 2) / denom)
    else:
        se = 0.0
    return slope, (slope - 2.0 * se, slope + 2.0 * se)


def _initial_state(u0, x, th):
    if isinstance(u0, WaveProfile):
        return np.clip(u0.interp(x), 0.0, th)
    if callable(u0):
        vals = np.asarray(u0(x), dtype=float)
    else:
        vals = np.asarray(u0, dtype=float)
        if vals.shape != x.shape:
            raise UsageError(f"initial data has {vals.shape[0]} values "
                             f"for a grid of {x.shape[0]} points")
    if np.any(~np.isfinite(vals)) or vals.min() < 0.0 or vals.max() > th * (1 + 1e-12):
        raise UsageError("initial data must take values in [0, theta]")
    return np.minimum(vals, th)


def evolve(pair: KernelPair, params: Params, u0, dt: float, horizon: float,
           domain=(-30.0, 30.0), h: float = 0.02, snapshot_dt: float | None = None,
           level: float | None = None, widen: bool = True) -> EvolutionRun:
    """March the equation from u0 and record snapshots and front positions.

    u0 may be a WaveProfile, a callable of position, or an array on the
    grid. The grid grows to the right when the tracked level crossing
    enters its last fifth, so fronts never run into the boundary panel.
    The fitted speed over the post-burn-in window is attached when at
    least 10 snapshots survive the burn-in and track a crossing.

    Cells below _FLUSH_FLOOR (relative to theta) snap to zero after each
    step: the FFT convolution carries an absolute noise floor near 1e-16,
    and since the zero state is unstable that noise would otherwise seed
    spurious growth far ahead of the front. The flush acts as a small
    pulled-front cutoff whose speed bias is well under a percent.
    """
    th = theta(params)
    kp, m = params.kappa_plus, params.m
    kl, kn = params.kappa_local, params.kappa_nonlocal
    guard = dt * (kp + m + 2 * kl * th + kn * th)
    if guard > 0.5:
        raise UsageError(f"dt too large: dt*(kp+m+2*kl*th+kn*th) = {guard:.3f} > 0.5")
    if dt <= 0 or horizon <= 0:
        raise UsageError("dt and horizon must be positive")

    n_steps = int(round(horizon / dt))
    snap_every = max(1, int(round((snapshot_dt or horizon / 80.0) / dt)))
    lvl = 0.5 * th if level is None else level
    if not 0.0 < lvl < th:
        raise UsageError(f"level must lie in (0, theta); got {lvl!r}")

    x = domain[0] + h * np.arange(int(round((domain[1] - domain[0]) / h)) + 1)
    u = _initial_state(u0, x, th)
    conv_plus = Convolver(pair.a_plus, h)
    K = conv_plus.K
    conv_minus = Convolver(pair.a_minus, h, K) if kn else None
    # the responses do not depend on the grid length, so widening keeps them
    panel = np.ones(K)
    resp_plus = conv_plus.pad_responses(panel, panel)
    resp_minus = conv_minus.pad_responses(panel, panel) if kn else None

    times, snaps, fronts = [], [], []

    def record(t):
        times.append(t)
        snaps.append(u.copy())
        fronts.append(_crossing(x, u, lvl))

    record(0.0)
    for k in range(1, n_steps + 1):
        du = kp * conv_plus.with_pads(u, resp_plus) - m * u - kl * u * u
        if kn:
            du -= kn * u * conv_minus.with_pads(u, resp_minus)
        # the zero state is exponentially unstable (rate kappa_plus - m),
        # so FFT roundoff ahead of the front must not survive in either sign
        u = np.maximum(u + dt * du, 0.0)
        u[u < _FLUSH_FLOOR * th] = 0.0
        if k % snap_every == 0 or k == n_steps:
            record(k * dt)
            if widen and math.isfinite(fronts[-1]):
                span = x[-1] - x[0]
                if fronts[-1] > x[-1] - _WIDEN_TRIGGER * span:
                    n_add = int(round(_WIDEN_FACTOR * len(x)))
                    x = np.concatenate([x, x[-1] + h * np.arange(1, n_add + 1)])
                    u = np.concatenate([u, np.zeros(n_add)])

    run = EvolutionRun(grid=x, h=h, dt=dt, theta=th, times=np.asarray(times),
                       snapshots=snaps, front_positions=np.asarray(fronts),
                       level=lvl)
    try:
        run.speed, run.speed_window = _speed_of(run, lvl)
    except (UsageError, NonConvergence):
        pass
    return run


def _speed_of(run: EvolutionRun, level: float):
    t0 = run.burn_in * run.times[-1]
    keep = run.times >= t0
    if int(keep.sum()) < 10:
        raise UsageError(f"only {int(keep.sum())} snapshots after burn-in; "
                         "need at least 10 for a speed fit")
    pos = []
    for k in np.where(keep)[0]:
        xk = run.snapshot_grid(k)
        p = _crossing(xk, run.snapshots[k], level)
        if not math.isfinite(p) or p <= xk[0] + run.h or p >= xk[-1] - run.h:
            raise NonConvergence("front-left-domain",
                                 f"level {level!r} crossing left the grid "
                                 f"at t = {run.times[k]!r}")
        pos.append(p)
    return _fit_speed(run.times[keep], pos)


def front_speed(run: EvolutionRun, level: float | None = None) -> float:
    """Least-squares front speed at the level (default theta/2) over the
    post-burn-in snapshots, with crossings located by interpolation."""
    lvl = run.level if level is None else level
    if not 0.0 < lvl < run.theta:
        raise UsageError(f"level must lie in (0, theta); got {lvl!r}")
    return _speed_of(run, lvl)[0]


def step_data(x0: float, th: float):
    """theta on the left of x0, zero on the right: the steep datum whose
    measured front speed converges to the minimal one."""
    def u0(x):
        return np.where(np.asarray(x) < x0, th, 0.0)
    return u0
