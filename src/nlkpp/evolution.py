"""Explicit time stepping for the nonlocal evolution equation and front
speed measurement.

The update is first-order in time; the dt guard
dt (kappa_plus + rho_bar) <= 0.5, rho_bar = m + 2 kl theta + kn theta
(kernels.rho_bar), keeps the step map
order-preserving on [0, theta], which is what the comparison-based checks
rely on. The profile solver's Convolver serves a+ and, with nonlocal
competition, a- from one forward FFT of the state per step. It extends the
state by constant panels on both sides, K cells of u[0] on the left and of
u[-1] on the right. A panel adds its end value times a fixed response to
the K rows next to its edge: row by row, the sum of the weights that reach
past the edge. So the state is convolved padded with zeros, and the
responses, computed once per run, are added on those rows. With the panels
every row's weights sum to the kernel mass, so the two spatially constant
states are fixed points: zero exactly, since every term vanishes, and
theta up to the few-ulp roundoff of the convolution, which dt scales below
half an ulp of theta in the tested cases, so that it rounds away. A grid
of more points than the profile solver allows is refused by name, on the
domain given and when the grid widens after the front.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergence, UsageError, require_finite
from .kernels import KernelPair, Params, rho_bar, theta
from .laplace import _fit_line
from .profile import WaveProfile, _convolver, _grid_points

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
    """Least-squares slope of the positions (float arrays, ten or more
    points) on the times, and the band of two standard errors about it."""
    _, slope, rss, stt = _fit_line(times, positions)
    se = math.sqrt(rss / (times.size - 2) / stt)
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
           widen: bool = True) -> EvolutionRun:
    """March the equation from u0 and record snapshots and front positions.

    u0 may be a WaveProfile, a callable of position, or an array on the
    grid. Fronts are tracked at theta/2; the grid grows to the right when
    that crossing enters its last fifth, so it never meets the boundary
    panel. A speed fitted over the post-burn-in window is attached when
    at least 10 snapshots survive the burn-in and track a crossing.

    Cells below _FLUSH_FLOOR (relative to theta) snap to zero after each
    step: the FFT convolution carries an absolute noise floor near 1e-16,
    and since the zero state is unstable that noise would otherwise seed
    spurious growth far ahead of the front. The flush acts as a small
    pulled-front cutoff whose speed bias is well under a percent.
    """
    th = theta(params)
    kp, m = params.kappa_plus, params.m
    kl, kn = params.kappa_local, params.kappa_nonlocal
    require_finite("dt", dt, "positive")
    require_finite("horizon", horizon, "positive")
    if snapshot_dt is not None:
        require_finite("snapshot_dt", snapshot_dt, "positive")
    guard = dt * (kp + rho_bar(params))
    if guard > 0.5:
        raise UsageError(f"dt too large: dt*(kp+m+2*kl*th+kn*th) = {guard:.3f} > 0.5")
    require_finite("grid step h", h, "positive")
    require_finite("domain start", domain[0])
    require_finite("domain end", domain[1])
    if not domain[1] - domain[0] >= h:
        raise UsageError(f"domain {tuple(domain)!r} is shorter than the grid step {h!r}")

    n_steps = int(round(horizon / dt))
    if n_steps == 0:
        raise UsageError(f"horizon {horizon!r} rounds to no time step of dt = {dt!r}")
    snap_dt = horizon / 80.0 if snapshot_dt is None else snapshot_dt
    snap_every = max(1, int(round(snap_dt / dt)))
    lvl = 0.5 * th

    x = domain[0] + h * np.arange(
        _grid_points((domain[1] - domain[0]) / h, "give a larger h or a shorter domain"))
    u = _initial_state(u0, x, th)
    conv = _convolver(pair, params, h)
    # the responses do not depend on the grid length, so widening keeps them
    resp = conv.pad_responses(np.ones(conv.K), np.ones(conv.K))

    times, snaps, fronts = [], [], []

    def record(t):
        times.append(t)
        snaps.append(u.copy())
        fronts.append(_crossing(x, u, lvl))

    record(0.0)
    for k in range(1, n_steps + 1):
        cu = conv.with_pads(u, resp)
        du = kp * cu[0] - m * u - kl * u * u
        if kn:
            du -= kn * u * cu[1]
        # the zero state is exponentially unstable (rate kappa_plus - m),
        # so FFT roundoff ahead of the front must not survive in either sign:
        # the flush zeroes negative values and -0.0 along with tiny ones
        u = u + dt * du
        u[u < _FLUSH_FLOOR * th] = 0.0
        if k % snap_every == 0 or k == n_steps:
            record(k * dt)
            # a nan crossing (none on the grid) compares false
            if widen and fronts[-1] > x[-1] - _WIDEN_TRIGGER * (x[-1] - x[0]):
                n_add = int(round(_WIDEN_FACTOR * len(x)))
                _grid_points(len(x) + n_add - 1, f"widening it at t = {k * dt:.6g}")
                x = np.concatenate([x, x[-1] + h * np.arange(1, n_add + 1)])
                u = np.concatenate([u, np.zeros(n_add)])

    run = EvolutionRun(grid=x, h=h, dt=dt, theta=th, times=np.asarray(times),
                       snapshots=snaps, front_positions=np.asarray(fronts),
                       level=lvl)
    try:
        run.speed, run.speed_window = _speed_of(run)
    except (UsageError, NonConvergence):
        pass
    return run


def _speed_of(run: EvolutionRun):
    t0 = run.burn_in * run.times[-1]
    keep = run.times >= t0
    if int(keep.sum()) < 10:
        raise UsageError(f"only {int(keep.sum())} snapshots after burn-in; "
                         "need at least 10 for a speed fit")
    # evolve recorded each crossing on the grid prefix its snapshot spans
    for k in np.where(keep)[0]:
        p = run.front_positions[k]
        end = run.grid[len(run.snapshots[k]) - 1]
        if not math.isfinite(p) or p <= run.grid[0] + run.h or p >= end - run.h:
            raise NonConvergence("front-left-domain",
                                 f"level {run.level!r} crossing left the grid "
                                 f"at t = {run.times[k]!r}")
    return _fit_speed(run.times[keep], run.front_positions[keep])


def front_speed(run: EvolutionRun) -> float:
    """Least-squares front speed at theta/2 over the post-burn-in snapshots,
    with crossings located by interpolation."""
    return _speed_of(run)[0]


def step_data(x0: float, th: float):
    """theta on the left of x0, zero on the right: the steep datum whose
    measured front speed converges to the minimal one."""
    def u0(x):
        return np.where(np.asarray(x) < x0, th, 0.0)
    return u0
