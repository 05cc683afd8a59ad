"""Traveling-wave profile solver and shift/tail utilities.

The profile equation

    c psi' + kappa_plus (a+ * psi) - m psi - kl psi^2 - kn psi (a- * psi) = 0

is solved on a uniform grid: a warm start of 40 monotone integrating-factor
sweeps from the supersolution min{theta, theta e^{-lambda_c (s-s0)}} (longer
runs drift along the shift family at high speed), one recentering, then
rounds of damped Newton on the bulk (psi >= 1e-3 theta) with the tail
frozen and Newton on the tail in tilted coordinates psi = E v with an
amplitude-deflated bordered system (the shift family makes the plain
Jacobian near-singular). Boundary panels always come from the analytic
expansions: theta minus a two-term exponential on the left, the
D s^{j-1} e^{-lambda_c s} ansatz on the right; the converged profile is
grafted onto them once.

Orientation: speeds are positive for fronts invading to the right. A
negative speed is read as the mirrored problem (solve the reflected pair
at |c| and reflect back); decreasing waves for a pair and its reflection
never coexist at opposite speeds, so this is the only executable reading.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dgttrf, dgttrs
from scipy.optimize import brentq, minimize_scalar
from scipy.sparse.linalg import LinearOperator, lgmres

from .dispersion import characteristic_deriv, minimal_speed, speed_to_abscissa
from .errors import AssumptionFailure, NonConvergence, UsageError
from .kernels import KernelPair, Params, check_assumptions, theta

_RIGHT_EFOLD = 34.0     # e-foldings of right tail; ~40 hits the float64 floor
_LEFT_EFOLD = 26.0
_BULK_FLOOR = 1e-3      # psi/theta above this is "bulk" for the Newton split
_DEEP_FLOOR = 1e-6      # below this the convolution rows are tilted before the FFT
# Largest tilt exponent in one deep-row segment: half the float64 exponent
# range, so neither the tilt nor its inverse overflows or goes subnormal.
_TILT_SPAN = 0.5 * math.log(np.finfo(float).max)
_SPECTRA = 2            # weight spectra a Convolver keeps, one per FFT length
_RIGHT_GRAFT = 3e-13
_LEFT_GRAFT = 1e-4      # two-term left expansion is cube-accurate here
_SWEEPS = 40            # warm start; much past 80 the iterate drifts at high speed
_NEWTON_ROUNDS = 5
_FIT_FLOOR = 1e-12      # tail fit: psi above this, clear of the float64 roundoff
_FIT_CEIL = 1e-3        # ... and below this times theta, where the tail is linear
# crossing() evaluates g[i-1] + t (g[i] - g[i-1]) with six roundings (three
# in t). For a crossing at the origin both grid points lie within h of it,
# so each rounding moves the result by less than one ulp of h, and the grid
# relabeling by half an ulp more. A half-theta shift below this many ulps
# of h is roundoff of crossing() itself, not a displacement of the profile.
_CROSSING_ULPS = 8


@dataclass(frozen=True)
class GridSpec:
    """Overrides for the solve grid; None fields use the rate-based defaults
    l_right = 34/lambda_c, l_left = 26/lambda_left, h = min(0.01, 1/(20 lambda_c))."""

    l_left: float | None = None
    l_right: float | None = None
    h: float | None = None


@dataclass(eq=False)
class WaveProfile:
    grid: np.ndarray
    values: np.ndarray
    speed: float
    lambda_c: float
    multiplicity: int
    theta: float
    residual_sup: float
    shift_mode: str = "half-theta-at-origin"

    @property
    def h(self) -> float:
        return float(self.grid[1] - self.grid[0])

    @property
    def orientation(self) -> str:
        return "decreasing" if self.values[0] >= self.values[-1] else "increasing"

    def interp(self, x):
        return np.interp(x, self.grid, self.values)

    def crossing(self, level: float) -> float:
        """Grid location where the profile passes the level, by monotone
        linear interpolation."""
        v = self.values if self.orientation == "increasing" else self.values[::-1]
        g = self.grid if self.orientation == "increasing" else -self.grid[::-1]
        if not v[0] < level < v[-1]:
            raise UsageError(f"profile does not straddle level {level!r}")
        i = int(np.searchsorted(v, level))
        t = (level - v[i - 1]) / (v[i] - v[i - 1])
        x = g[i - 1] + t * (g[i] - g[i - 1])
        return float(x if self.orientation == "increasing" else -x)

    def reflect(self) -> "WaveProfile":
        return replace(self, grid=-self.grid[::-1], values=self.values[::-1].copy(),
                       speed=-self.speed)

    def shifted(self, q: float) -> "WaveProfile":
        """Profile s -> psi(s + q); pure grid relabeling, no resampling."""
        return replace(self, grid=self.grid - q, values=self.values.copy())


@dataclass(frozen=True)
class TailFit:
    rate: float
    j_estimate: float
    D_estimate: float
    fit_window: tuple
    fit_residual: float

    def to_dict(self) -> dict:
        return {"rate": self.rate, "j_estimate": self.j_estimate,
                "D_estimate": self.D_estimate, "fit_window": list(self.fit_window),
                "fit_residual": self.fit_residual}


def _half_width(kernel, h: float) -> int:
    """Grid cells beyond which the kernel is below 1e-17 of its peak."""
    return int(np.ceil(kernel.support_radius(1e-17) / h))


class Convolver:
    """Convolution with one kernel on a uniform grid of step h.

    The weights are h*a(kh) on [-K, K], rescaled to the exact kernel mass
    so constants are reproduced without discretization error. A call takes
    a vector already padded by K cells on the left (and at least K on the
    right) and returns the 'valid' part of the convolution, cut to n rows;
    the padding is left to the caller because each caller's boundary panel
    is different physics. The FFT is circular, of length
    next_fast_len(len(ext)): the entries of the linear convolution past
    that length wrap onto its first 2K, which precede every valid row.

    Where the pads are fixed shapes scaled by the end values of u, as in
    the time stepper and the Newton linearization, they are not convolved
    again on every call. The rows of [u[0] lshape, u, u[-1] rshape] are the
    rows of u padded with zeros plus u[0] r_L plus u[-1] r_R, where
    pad_responses(lshape, rshape) computes the responses r_L (nonzero on
    the first K rows only) and r_R (the last K) once, and with_pads adds
    them on those rows. Zero pads need a circular FFT of length
    next_fast_len(n + K) only: the wrapped entries land on the first K,
    which precede every row read. The weights' spectra are kept for the
    last _SPECTRA lengths used, which covers the two lengths a Newton
    phase alternates between.

    An FFT convolution carries an absolute error near eps*max|ext|, which
    swamps rows far down a decaying tail. Where the caller knows the decay
    rate lam of the tail, those rows are convolved in tilted coordinates:
    ext is multiplied by e^{lam s} and the weights by e^{lam y}, so every
    term of row i's sum carries the same factor e^{lam s_i}, taken out
    again afterwards. The error floor then sits at the scale of the tilted
    tail instead of at max|ext|. The tilted weights' FFT is kept like the
    plain one.
    """

    def __init__(self, kernel, h: float, K: int | None = None):
        if K is None:
            K = _half_width(kernel, h)
        w = h * np.asarray(kernel.pdf(np.arange(-K, K + 1) * h), dtype=float)
        tot = w.sum()
        if tot > 0:
            w *= kernel.mass / tot
        self.w, self.K, self.h = w, K, h
        self._specs = {}        # FFT length -> spectrum of w, oldest first
        self._tilt_key, self._tilt_spec = None, None

    def _spectrum(self, nfft):
        spec = self._specs.get(nfft)
        if spec is None:
            if len(self._specs) == _SPECTRA:
                del self._specs[next(iter(self._specs))]
            spec = self._specs[nfft] = rfft(self.w, nfft)
        return spec

    def __call__(self, ext, n: int | None = None, i_deep: int | None = None,
                 rate: float | None = None):
        """Rows from i_deep on, where ext decays like e^{-rate s}, come from
        a tilted FFT over segments of at most _TILT_SPAN e-foldings each;
        the rows before them from the plain FFT of the whole vector."""
        L = len(self.w)
        nfft = next_fast_len(len(ext), True)
        out = irfft(rfft(ext, nfft) * self._spectrum(nfft), nfft)[L - 1:len(ext)][:n]
        if i_deep is not None and i_deep < len(out):
            lh = rate * self.h
            rows = min(len(out) - i_deep, max(1, int(_TILT_SPAN / lh) - self.K))
            nfft = next_fast_len(rows + L - 1, True)
            if self._tilt_key != (nfft, lh):
                tilt = np.exp(lh * (np.arange(L) - self.K))
                self._tilt_key, self._tilt_spec = (nfft, lh), rfft(self.w * tilt, nfft)
            for a in range(i_deep, len(out), rows):
                b = min(a + rows, len(out))
                seg = ext[a:b + L - 1]
                v = seg * np.exp(lh * (np.arange(len(seg)) - self.K))
                full = irfft(rfft(v, nfft) * self._tilt_spec, nfft)
                out[a:b] = np.exp(-lh * np.arange(b - a)) * full[L - 1:L - 1 + b - a]
        return out

    def pad_responses(self, lshape, rshape):
        """(r_L, r_R): what the pads lshape and rshape, K cells each, of
        [lshape, u, rshape] add to the first K and the last K rows. Row i
        reads lshape through the weights w[K+i+1:], and row n-K+i reads
        rshape through w[:i+1], so each is a product of a pad with one half
        of the weights, from a circular FFT of length 2K - 1 or more."""
        K = self.K
        nfft = next_fast_len(2 * K - 1, True)
        return (irfft(rfft(lshape, nfft) * rfft(self.w[K + 1:], nfft), nfft)[K - 1:2 * K - 1],
                irfft(rfft(rshape, nfft) * rfft(self.w[:K], nfft), nfft)[:K])

    def with_pads(self, u, responses):
        """Rows of the convolution of [u[0] lshape, u, u[-1] rshape], given
        responses = pad_responses(lshape, rshape): u padded with zeros,
        plus the responses scaled by the end values on the edge rows."""
        n, K = len(u), self.K
        nfft = next_fast_len(n + K, True)
        out = irfft(rfft(u, nfft) * self._spectrum(nfft), nfft)[K:K + n]
        rl, rr = responses
        m = min(K, n)
        out[:m] += u[0] * rl[:m]
        out[n - m:] += u[-1] * rr[K - m:]
        return out


def _left_rate(pair: KernelPair, params: Params, c: float, th: float):
    """Decay rate of theta - psi at -inf: root of the linearization at theta,
    plus the second-order coefficient of the expansion v = V e + B V^2 e^2."""
    kp, m = params.kappa_plus, params.m
    kl, kn = params.kappa_local, params.kappa_nonlocal
    rho_bar = m + 2 * kl * th + kn * th

    def g(y):
        ap = pair.a_plus.transform(-y)
        if not math.isfinite(ap):
            return math.inf
        val = c * y + kp * ap - rho_bar
        if kn:
            am = pair.a_minus.transform(-y)
            if not math.isfinite(am):
                return math.inf
            val -= kn * th * am
        return val

    cap = pair.a_plus.sigma_left
    if kn:
        cap = min(cap, pair.a_minus.sigma_left)
    # g(0) = -(kappa_plus - m) < 0 always; scan up for the sign change
    if math.isfinite(cap):
        grid = [cap * f for f in (1e-3, 0.01, 0.05, 0.1, 0.2, 0.3, 0.5)] + \
            [cap * (1.0 - 2.0 ** (-k)) for k in range(1, 40)]
    else:
        grid, y = [], 1e-3
        while y <= 1e3:
            grid.append(y)
            y *= 1.6
    lo = None
    for y in grid:
        val = g(y)
        if val > 0.0:
            if lo is None:
                raise NonConvergence("left-rate-bracket",
                                     f"left linearization positive already at {y:.3e}")
            lam = brentq(g, lo, y, xtol=1e-14)
            break
        lo = y
    else:
        raise NonConvergence("left-rate-bracket",
                             "no root of the left linearization up to the scan cap")

    if 2.0 * lam < cap:
        am = pair.a_minus.transform(-lam) if kn else 0.0
        B = -(kl + kn * am) / g(2.0 * lam)
    else:
        B = 0.0  # expansion falls back to one term; graft anchor is low enough
    return lam, B


class _Workspace:
    """Grid, weights, and the residual operator for one (pair, params, c)."""

    def __init__(self, pair, params, c, th, lam_c, j, lam_left, B_left, s, h):
        self.c, self.th, self.lam_c, self.j = c, th, lam_c, j
        self.lam_left, self.B_left = lam_left, B_left
        self.kp, self.m = params.kappa_plus, params.m
        self.kl, self.kn = params.kappa_local, params.kappa_nonlocal
        self.rho = params.m + 2 * self.kl * th + self.kn * th
        self.s, self.h, self.N = s, h, len(s)

        K = _half_width(pair.a_plus, h)
        if self.kn:
            K = max(K, _half_width(pair.a_minus, h))
        self.K = K
        self.conv_plus = Convolver(pair.a_plus, h, K)
        self.conv_minus = Convolver(pair.a_minus, h, K) if self.kn else None

    # -- analytic boundary panels ------------------------------------------

    def tailg(self, anchor_s, n):
        t = self.h * np.arange(1, n + 1)
        g = np.exp(-self.lam_c * t)
        if self.j == 2 and anchor_s > 0:
            g = g * (anchor_s + t) / anchor_s
        return g

    def vleft(self, V, ds):
        e = np.exp(self.lam_left * ds)
        return V * e + self.B_left * V * V * e * e

    def ampleft(self, v0):
        disc = max(1.0 + 4.0 * self.B_left * v0, 0.0)
        return 2.0 * v0 / (1.0 + math.sqrt(disc))

    def _left_front(self, psi0):
        """False where the left panel is constant: psi0 >= theta, or no front
        near the left edge (psi0 < theta/2, e.g. the psi = 0 state)."""
        return 0.0 < self.th - psi0 <= 0.5 * self.th

    def lpad(self, psi0):
        if not self._left_front(psi0):
            return np.full(self.K, psi0)
        V = self.ampleft(self.th - psi0)
        return self.th - self.vleft(V, -self.h * np.arange(1, self.K + 1)[::-1])

    def dlpad(self, psi0):
        """d lpad / d psi0: V solves V + B V^2 = theta - psi0."""
        if not self._left_front(psi0):
            return np.ones(self.K)
        V = self.ampleft(self.th - psi0)
        e = np.exp(-self.lam_left * self.h * np.arange(1, self.K + 1)[::-1])
        return (e + 2.0 * self.B_left * V * e * e) / (1.0 + 2.0 * self.B_left * V)

    def rpad(self, psi_last, n):
        if psi_last > 0.5 * self.th:
            return np.full(n, psi_last)
        return psi_last * self.tailg(self.s[-1], n)

    def build_ext(self, psi):
        return np.concatenate([self.lpad(psi[0]), psi, self.rpad(psi[-1], 2 * self.K)])

    # -- residual ----------------------------------------------------------

    def residual_vec(self, psi, i_deep=None, lo=0, hi=None):
        """Rows lo..hi-1 (hi None: N) of the residual at the grid vector psi,
        from the window build_ext(psi)[lo:hi + 2K] they read. i_deep >= lo."""
        K, hi = self.K, self.N if hi is None else hi
        n, p, ext = hi - lo, psi[lo:hi], self.build_ext(psi)[lo:hi + 2 * K]
        convp = self.conv_plus(ext, n, None if i_deep is None else i_deep - lo, self.lam_c)
        dpsi = (ext[K + 1:K + n + 1] - ext[K - 1:K + n - 1]) / (2 * self.h)
        r = self.c * dpsi + self.kp * convp - self.m * p - self.kl * p * p
        if self.kn:
            r -= self.kn * p * self.conv_minus(ext, n)
        return r

    def linearize(self, psi, lo=0, hi=None):
        """Jacobian of residual_vec's rows lo..hi-1 at psi along directions
        u that vanish off those rows: its diagonal and u -> J u. u is padded
        like build_ext, by u[0] times d lpad / d psi[0] if lo = 0 and u[-1]
        times the decay ansatz if hi = N, and by zeros otherwise; the pads
        enter through their responses, computed once here."""
        N, K = self.N, self.K
        hi = N if hi is None else hi
        n, p = hi - lo, psi[lo:hi]
        diag = -self.m - 2 * self.kl * p
        if self.kn:
            diag = diag - self.kn * self.conv_minus(self.build_ext(psi)[lo:hi + 2 * K], n)
        lcol = self.dlpad(psi[0]) if lo == 0 else np.zeros(K)
        rcol = self.tailg(self.s[-1], K) if hi == N else np.zeros(K)
        resp_plus = self.conv_plus.pad_responses(lcol, rcol)
        resp_minus = self.conv_minus.pad_responses(lcol, rcol) if self.kn else None

        def jmv(u):
            # the centered difference reads one pad cell on each side
            g = np.concatenate(([u[0] * lcol[-1]], u, [u[-1] * rcol[0]]))
            du = (g[2:] - g[:-2]) / (2 * self.h)
            out = self.c * du + self.kp * self.conv_plus.with_pads(u, resp_plus) + diag * u
            if self.kn:
                out -= self.kn * p * self.conv_minus.with_pads(u, resp_minus)
            return out

        return diag, jmv

    def band(self, diag, up=1.0, down=1.0):
        """Tridiagonal part of the Jacobian for the rows of diag, as rows
        (upper, main, lower diagonal) of a (3, n) array, the upper one
        starting and the lower one ending with an unused cell: the centered
        difference plus the three central kernel weights. up/down scale the
        off-diagonals (tilted rows)."""
        w, K, kp, lo = self.conv_plus.w, self.K, self.kp, self.c / (2 * self.h)
        ab = np.zeros((3, len(diag)))
        ab[0, 1:] = (lo + kp * w[K - 1]) * up
        ab[1, :] = diag + kp * w[K]
        ab[2, :-1] = (-lo + kp * w[K + 1]) * down
        return ab

    def i_deep(self, psi):
        return int(np.searchsorted(-psi, -_DEEP_FLOOR * self.th))

    # -- graft and recentering ----------------------------------------------

    def graft(self, psi):
        """Replace both ends by their analytic panels: within 1e-4 theta of
        theta the left expansion, below 3e-13 theta the decay ansatz, each
        anchored at the last grid value outside that band."""
        psi = psi.copy()
        v = self.th - psi
        idx = np.where(v >= _LEFT_GRAFT * self.th)[0]
        iA = idx[0] if len(idx) else self.N - 1
        if iA > 0:
            psi[:iA] = self.th - self.vleft(self.ampleft(v[iA]), self.s[:iA] - self.s[iA])
        idx = np.where(psi >= _RIGHT_GRAFT * self.th)[0]
        iA = idx[-1] if len(idx) else 0
        if iA < self.N - 1:
            psi[iA + 1:] = psi[iA] * self.tailg(self.s[iA], self.N - 1 - iA)
        return psi

    def recenter(self, psi):
        icr = int(np.searchsorted(-psi, -0.5 * self.th))
        shift = icr - int(round(-self.s[0] / self.h))
        if abs(shift) < 2:
            return psi
        out = np.empty_like(psi)
        N = self.N
        if shift > 0:
            out[:N - shift] = psi[shift:]
            out[N - shift:] = out[N - shift - 1] * self.tailg(self.s[N - shift - 1], shift)
        else:
            out[:-shift] = self.th
            out[-shift:] = psi[:N + shift]
        return out


def _sweep_phase(ws: _Workspace, psi, hook):
    """Warm start: a fixed number of monotone integrating-factor sweeps,
    each applying (rho - c d/ds)^{-1} to N[psi] = (rho - m) psi + kp conv+
    - kl psi^2 - kn psi conv-, integrating from +inf where the resolvent
    decays. Iterates stay pointwise ordered; `hook(it, psi)` sees each."""
    from scipy.signal import lfilter  # deferred: 0.25 s to import, only solves use it
    c, rho, h = ws.c, ws.rho, ws.h
    N, K, th = ws.N, ws.K, ws.th
    alpha = math.exp(-rho * h / c)
    beta = rho / c
    I0 = (1 - alpha) / beta
    I1 = (1 - alpha) / (h * beta * beta) - alpha / beta
    b0, b1 = (I0 - I1) / c, I1 / c
    for it in range(_SWEEPS):
        ext = ws.build_ext(psi)
        vals = np.concatenate([psi, ws.rpad(psi[-1], K)])
        narr = (rho - ws.m) * vals + ws.kp * ws.conv_plus(ext) - ws.kl * vals * vals
        if ws.kn:
            narr -= ws.kn * vals * ws.conv_minus(ext)
        q = narr[::-1]
        x = np.empty(N + K)
        x[0] = vals[-1]
        x[1:] = b0 * q[1:] + b1 * q[:-1]
        y = lfilter([1.0], [1.0, -alpha], x)
        psi = np.clip(y[::-1][:N], 0.0, th)
        if hook is not None:
            hook(it, psi.copy())
    return psi


def _band_solver(ab):
    """x -> the solution of the tridiagonal system ab (band() layout) with
    right-hand side x. ab is LU-factored once, with partial pivoting, so
    each solve is one forward and one back substitution."""
    dl, d, du, du2, ipiv, info = dgttrf(ab[2, :-1], ab[1], ab[0, 1:])
    if info > 0:
        raise LinAlgError("singular matrix")

    def solve(x):
        return dgttrs(dl, d, du, du2, ipiv, x)[0]
    return solve


def _line_search(resid, x, dlt, fn, hi):
    """Backtracking on the sup norm of resid, iterates clipped to [0, hi]:
    the first of 12 halvings that decreases it by 5% of the step, else the
    last one if it decreases it at all. None when no step helps."""
    step = 1.0
    for _bt in range(12):
        cand = np.clip(x + step * dlt, 0.0, hi)
        rc = resid(cand)
        if np.abs(rc).max() < fn * (1.0 - 0.05 * step):
            return cand, rc
        step *= 0.5
    cand = np.clip(x + step * dlt, 0.0, hi)
    rc = resid(cand)
    if np.abs(rc).max() < fn:
        return cand, rc
    return None


def _bulk_newton(ws: _Workspace, psi, max_outer=25, tol=1e-9):
    """Damped Newton on the rows with psi >= 1e-3 theta, tail frozen."""
    nb = int(np.searchsorted(-psi, -_BULK_FLOOR * ws.th))
    tailv = psi[nb:].copy()
    vb = psi[:nb].copy()

    def rb(vv):
        return ws.residual_vec(np.concatenate([vv, tailv]), hi=nb)

    r = rb(vb)
    for _ in range(max_outer):
        fn = float(np.abs(r).max())
        if fn <= tol:
            break
        diag, jmv = ws.linearize(np.concatenate([vb, tailv]), hi=nb)
        jop = LinearOperator((nb, nb), matvec=jmv)
        mop = LinearOperator((nb, nb), matvec=_band_solver(ws.band(diag)))
        dlt, _ = lgmres(jop, -r, M=mop, rtol=1e-3, atol=0.0, inner_m=30, maxiter=4)
        nxt = _line_search(rb, vb, dlt, fn, ws.th)
        if nxt is None:
            break
        vb, r = nxt
    return np.concatenate([vb, tailv]), float(np.abs(r).max())


def _tail_newton(ws: _Workspace, psi, max_outer=15, tol=2e-7):
    """Newton on the tail in tilted coordinates psi = E v with E the decay
    ansatz anchored at the bulk edge. The shift family makes the Jacobian
    nearly singular along the amplitude mode, so the system is bordered by
    a deflation row pinning the mean of v."""
    i_cut = int(np.searchsorted(-psi, -_BULK_FLOOR * ws.th))
    i_dp = ws.i_deep(psi)
    nt = ws.N - i_cut
    bulk = psi[:i_cut].copy()
    env = psi[i_cut - 1] * ws.tailg(ws.s[i_cut - 1], nt)
    E = np.maximum(env, 1e-13 * ws.th)
    eru = np.ones(nt)
    eru[:-1] = E[1:] / E[:-1]
    erd = np.ones(nt)
    erd[1:] = E[:-1] / E[1:]
    vt = np.clip(psi[i_cut:] / E, 0.0, 2.0)

    def gres(vv):
        pt = np.concatenate([bulk, E * vv])
        return ws.residual_vec(pt, i_deep=i_dp, lo=i_cut) / E

    g = gres(vt)
    for _ in range(max_outer):
        gn = float(np.abs(g).max())
        if gn < tol:
            break
        diag, jmv = ws.linearize(np.concatenate([bulk, E * vt]), lo=i_cut)

        def jt(u):
            return jmv(E * u) / E

        u_amp = jt(np.ones(nt))

        # sums, not dots with ones: BLAS runs ddot threaded at grid length,
        # which costs more than the whole dot on a contended host
        def jaug(vv):
            v, al = vv[:nt], vv[nt]
            return np.concatenate([jt(v) + al * u_amp, [v.sum()]])

        jop = LinearOperator((nt + 1, nt + 1), matvec=jaug)
        band_solve = _band_solver(ws.band(diag, eru[:-1], erd[1:]))
        x2 = band_solve(u_amp)
        sx2 = x2.sum()

        def maug(rr):
            x1 = band_solve(rr[:nt])
            t = (x1.sum() - rr[nt]) / sx2
            return np.concatenate([x1 - t * x2, [t]])

        mop = LinearOperator((nt + 1, nt + 1), matvec=maug)
        sol, _ = lgmres(jop, np.concatenate([-g, [0.0]]), M=mop,
                        rtol=1e-3, atol=0.0, inner_m=30, maxiter=6)
        nxt = _line_search(gres, vt, sol[:nt] + sol[nt], gn, None)
        if nxt is None:
            break
        vt, g = nxt
    return np.concatenate([bulk, E * vt]), float(np.abs(g).max())


def _make_workspace(pair, params, c, spec, report=None):
    th = theta(params)
    root = speed_to_abscissa(pair, params, c, report)
    lam_c, j = root.lambda_c, root.multiplicity
    lam_left, B_left = _left_rate(pair, params, c, th)
    h = spec.h if spec.h else min(0.01, 1.0 / (20.0 * lam_c))
    Ll = spec.l_left if spec.l_left else _LEFT_EFOLD / lam_left
    Lr = spec.l_right if spec.l_right else _RIGHT_EFOLD / lam_c
    s = -Ll + h * np.arange(int(round((Ll + Lr) / h)) + 1)
    return _Workspace(pair, params, c, th, lam_c, j, lam_left, B_left, s, h)


def solve_profile(pair: KernelPair, params: Params, c: float,
                  grid: GridSpec | None = None, tol: float = 1e-6,
                  anchor: float = 0.0, sweep_hook=None,
                  report=None) -> WaveProfile:
    """Solve the profile equation for speed c >= c_star, c != 0.

    The returned profile is half-theta normalized (value theta/2 at s=0 by
    interpolation) and carries the certified sup-norm residual. `anchor`
    shifts the initial supersolution; the converged wave is the same up to
    the final normalization, which is what the uniqueness checks exercise.
    `sweep_hook(iteration, iterate)` observes the warm start: 40 monotone
    sweeps, whose iterates decrease pointwise.

    `report` is minimal_speed(pair, params) for the pair as passed (None:
    computed here). It describes rightward fronts, so c < 0 ignores it. A
    pair with the same a_plus shares it, but Q2 reads a_minus and
    kappa_nonlocal, so a given report does not spare this pair's Q1..Q5.
    """
    if c == 0.0:
        raise AssumptionFailure("c-zero-unsupported",
                                "stationary fronts (c = 0) are out of scope")
    for k in (pair.a_plus, pair.a_minus):
        if k.mass < 1.0 - 1e-12:
            raise UsageError("profile solves need probability kernels; "
                             "truncated kernels belong to the truncation lab")
    if c < 0.0:
        mirror = solve_profile(pair.reflected(), params, -c, grid=grid, tol=tol,
                               anchor=-anchor, sweep_hook=sweep_hook)
        return mirror.reflect()

    if report is None:
        report = minimal_speed(pair, params)
    else:
        check_assumptions(pair, params).require(["Q1", "Q2", "Q3", "Q4", "Q5"])
    ws = _make_workspace(pair, params, c, grid or GridSpec(), report)
    th = ws.th

    psi = th * np.exp(-ws.lam_c * np.maximum(ws.s - anchor, 0.0))
    psi = ws.recenter(_sweep_phase(ws, psi, sweep_hook))

    rr = math.inf
    for _ in range(_NEWTON_ROUNDS):
        psi, _rb = _bulk_newton(ws, psi)
        psi, _gt = _tail_newton(ws, psi)
        rr = float(np.abs(ws.residual_vec(psi, i_deep=ws.i_deep(psi))).max())
        if rr < 2e-7:
            break
    psi = ws.graft(np.clip(psi, 0.0, th))
    res = float(np.abs(ws.residual_vec(psi, i_deep=ws.i_deep(psi))).max())
    if res > tol:
        raise NonConvergence(
            "iteration-stalled",
            f"residual {res:.3e} above tolerance {tol:.1e} after "
            f"{_NEWTON_ROUNDS} correction rounds",
            {"residual": res, "pre_graft_residual": rr,
             "grid_points": ws.N, "h": ws.h})

    prof = WaveProfile(ws.s.copy(), psi, c, ws.lam_c, ws.j, th, res)
    return normalize_shift(prof, "half-theta-at-origin")


def residual(profile: WaveProfile, pair: KernelPair, params: Params) -> float:
    """Sup-norm of the profile equation over the grid, with the analytic
    boundary panels (theta-side expansion left, decay ansatz right; constant
    continuation when an end is not front-like, so the stationary states
    psi = 0 and psi = theta evaluate to zero residual)."""
    if profile.orientation == "increasing":
        return residual(profile.reflect(), pair.reflected(), params)
    th = theta(params)
    lam_left, B_left = math.nan, 0.0
    v0 = th - profile.values[0]
    if 0.0 < v0 <= 0.5 * th:
        lam_left, B_left = _left_rate(pair, params, profile.speed, th)
    ws = _Workspace(pair, params, profile.speed, th, profile.lambda_c,
                    profile.multiplicity, lam_left, B_left, profile.grid, profile.h)
    psi = np.asarray(profile.values, dtype=float)
    return float(np.abs(ws.residual_vec(psi, i_deep=ws.i_deep(psi))).max())


def tail_asymptotics(profile: WaveProfile) -> TailFit:
    """Fit D s^{j-1} e^{-lambda_c s} to the right tail.

    j and D come from regressing log psi + lambda_c s on log s (the rate is
    pinned to the dispersion value); the reported rate is re-estimated by a
    joint [1, log s, s] fit as an independent consistency check. The window
    keeps psi between the floor _FIT_FLOOR and _FIT_CEIL theta, below which
    the linear tail dominates, and drops the last 10% of the grid, where the
    closure ansatz contaminates the values.
    """
    if profile.orientation == "increasing":
        return tail_asymptotics(profile.reflect())
    g, v = profile.grid, np.asarray(profile.values, float)
    s_max = g[0] + 0.9 * (g[-1] - g[0])
    mask = (v > _FIT_FLOOR) & (v < _FIT_CEIL * profile.theta) & (g > 0.0) & (g <= s_max)
    if int(mask.sum()) < 50:
        raise NonConvergence("tail-underresolved",
                             f"only {int(mask.sum())} usable tail points; "
                             "need at least 50 above the floor")
    ss, pp = g[mask], v[mask]
    y = np.log(pp) + profile.lambda_c * ss
    X = np.column_stack([np.ones_like(ss), np.log(ss)])
    coef, *_ = np.linalg.lstsq(X, y, rcond=None)
    resid = float(np.sqrt(np.mean((X @ coef - y) ** 2)))
    X2 = np.column_stack([np.ones_like(ss), np.log(ss), ss])
    coef2, *_ = np.linalg.lstsq(X2, np.log(pp), rcond=None)
    return TailFit(rate=float(-coef2[2]), j_estimate=float(coef[1] + 1.0),
                   D_estimate=float(np.exp(coef[0])),
                   fit_window=(float(ss[0]), float(ss[-1])), fit_residual=resid)


def _tail_prefactor(profile: WaveProfile, pair: KernelPair, params: Params) -> float:
    """D from the transform identity: the nonlinear term's transform at
    lambda_c divided by the leading coefficient of the characteristic root."""
    g = profile.grid
    psi = np.asarray(profile.values, float)
    th, lam = profile.theta, profile.lambda_c
    kl, kn = params.kappa_local, params.kappa_nonlocal
    f = kl * psi * psi
    if kn:
        conv = Convolver(pair.a_minus, profile.h)
        ext = np.concatenate([np.full(conv.K, th), psi, np.zeros(conv.K)])
        f = f + kn * psi * conv(ext)
    integrand = f * np.exp(lam * g)
    val = float(np.trapezoid(integrand, g))
    # the grid misses (-inf, s_0]; there f -> (kl+kn) theta^2, so close it
    val += (kl + kn) * th * th * math.exp(lam * g[0]) / lam
    if profile.multiplicity == 1:
        hprime = characteristic_deriv(pair.a_plus, params, profile.speed, lam, 1)
        return val / abs(hprime)
    hsec = characteristic_deriv(pair.a_plus, params, profile.speed, lam, 2)
    return 2.0 * val / hsec


def normalize_shift(profile: WaveProfile, mode: str,
                    pair: KernelPair | None = None,
                    params: Params | None = None) -> WaveProfile:
    """Fix the shift: either psi(0) = theta/2, or the tail prefactor D = 1
    (shift by log(D)/lambda_c, under which D scales as e^{-lambda_c q}).

    Half-theta is idempotent: a profile whose theta/2 crossing is within the
    roundoff of crossing() is returned unshifted. A crossing far from the
    origin leaves a residue of its own roundoff after one shift, which a
    second shift removes, so at most two shifts are made.

    Unit-D uses the transform identity for D when the kernel pair is given,
    and the fitted tail prefactor otherwise.
    """
    if mode == "half-theta-at-origin":
        out = profile.shifted(0.0)
        for _ in range(2):
            q = out.crossing(0.5 * out.theta)
            if abs(q) <= _CROSSING_ULPS * np.spacing(out.h):
                break
            out = out.shifted(q)
        return replace(out, shift_mode=mode)
    if mode == "unit-D":
        if pair is not None and params is not None:
            D = _tail_prefactor(profile, pair, params)
        else:
            D = tail_asymptotics(profile).D_estimate
        q = math.log(D) / profile.lambda_c
        return replace(profile.shifted(q), shift_mode=mode)
    raise UsageError(f"unknown shift mode {mode!r}")


def compare_up_to_shift(p1: WaveProfile, p2: WaveProfile) -> float:
    """Minimal sup-distance between the two profiles over relative shifts,
    measured on the part of p1's grid that p2 covers after shifting."""
    if abs(p1.speed - p2.speed) > 1e-9 * max(1.0, abs(p1.speed)):
        raise UsageError(f"profiles have different speeds: "
                         f"{p1.speed!r} vs {p2.speed!r}")
    if p1.orientation != p2.orientation:
        raise UsageError("profiles have different orientations")
    level = 0.5 * min(p1.theta, p2.theta)
    q0 = p2.crossing(level) - p1.crossing(level)

    def dist(q):
        lo = max(p1.grid[0], p2.grid[0] - q)
        hi = min(p1.grid[-1], p2.grid[-1] - q)
        if hi <= lo:
            return float(max(p1.theta, p2.theta))
        m = (p1.grid >= lo) & (p1.grid <= hi)
        return float(np.abs(p1.values[m] - p2.interp(p1.grid[m] + q)).max())

    res = minimize_scalar(dist, bounds=(q0 - 2.0, q0 + 2.0), method="bounded",
                          options={"xatol": 1e-10})
    return float(min(res.fun, dist(q0)))
