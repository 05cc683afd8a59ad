"""Traveling-wave profile solver and shift/tail utilities.

The profile equation

    c psi' + kappa_plus (a+ * psi) - m psi - kl psi^2 - kn psi (a- * psi) = 0

is solved on a uniform grid: a warm start of 40 monotone integrating-factor
sweeps from the supersolution min{theta, theta e^{-lambda_c (s-s0)}} (longer
runs drift along the shift family at high speed), each one convolution of the
padded vector the residual reads and one BLAS bidiagonal back substitution,
the first 36 on every 4th node of the grid (every 2nd, or every node, where
a coarser step would leave the kernels under two cells each side or miss a
support), interpolated linearly onto it for the last 4, then one recentering,
then up to five rounds, while they lower the residual, of one Newton-Krylov
routine on the rows above the right graft (psi >= 3e-13 theta after the
recentering; the decay ansatz replaces the rows below, and is the rounds'
right panel), in two row windows, the other rows frozen: the bulk
(psi >= 1e-3 theta), preconditioned by a LAPACK-factored tridiagonal band that
agrees with the Jacobian on constants and linear functions (the kernels' mass
on its diagonal, their first moments off it), then the tail in tilted
coordinates psi = E v with an amplitude-deflated bordered system (the shift
family makes the plain Jacobian near-singular), preconditioned by the
circulant of the tilted Jacobian's stencil, applied by FFT. Boundary panels
always come from the analytic expansions: theta minus one exponential on the
left, at the rate lambda_left that the dispersion layer solves from the
linearization at theta, the D s^{j-1} e^{-lambda_c s} ansatz on the right;
the converged profile is grafted onto them once, the rows past the rounds'
filled with the ansatz, and the residual certified on the whole grid.

Orientation: speeds are positive for fronts invading to the right. A
negative speed is read as the mirrored problem (solve the reflected pair
at |c| on the swapped spans and reflect back); decreasing waves for a
pair and its reflection never coexist at opposite speeds, so this is the
only executable reading.
"""

from __future__ import annotations

import copy
import math
from dataclasses import asdict, dataclass, replace

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft
from scipy.linalg import LinAlgError
from scipy.linalg.blas import dtbsv
from scipy.linalg.lapack import dgttrf, dgttrs
from scipy.sparse.linalg import LinearOperator, lgmres

from .dispersion import _checked, characteristic_deriv, left_rate, minimal_speed, speed_to_abscissa
from .errors import AssumptionFailure, NonConvergence, UsageError, require_finite
from .kernels import KernelPair, Params, rho_bar, theta
from .laplace import _fit, _fit_line

# e-foldings of the default right span; ~40 hits the float64 floor. The
# Newton rounds stop where psi falls below _RIGHT_GRAFT theta, about 29
# e-foldings out, and the grid's last rows are the graft's ansatz
_RIGHT_EFOLD = 34.0
_LEFT_EFOLD = 26.0
_BULK_FLOOR = 1e-3      # psi/theta below this is the tail: the Newton split,
                        # the tilted convolution rows and the tail fit's top
# Largest tilt exponent in one deep-row segment: half the float64 exponent
# range, so neither the tilt nor its inverse overflows or goes subnormal.
_TILT_SPAN = 0.5 * math.log(np.finfo(float).max)
_SPECTRA = 3            # weight spectra a Convolver keeps, one per (FFT length, tilt)
# psi/theta below this is the decay ansatz's: the graft writes those rows, and
# the Newton rounds solve only the rows above the first of them
_RIGHT_GRAFT = 3e-13
_LEFT_GRAFT = 1e-6      # theta - V e^{lambda_left s} drops O(V^2/theta), ~1e-12 theta here
_SWEEPS = 40            # warm start; much past 80 the iterate drifts at high speed
_FINE_SWEEPS = 4        # the warm start's last sweeps, on the solve grid
_COARSEN = 4            # the other sweeps run on every _COARSEN-th node
_NEWTON_ROUNDS = 5
_TAIL_TOL = 2e-7        # tail Newton's scaled residual, and a round's stopping residual
_FIT_FLOOR = 1e-12      # tail fit: psi above this, clear of the float64 roundoff
# crossing() evaluates g[i-1] + t (g[i] - g[i-1]) with six roundings (three
# in t). For a crossing at the origin both grid points lie within h of it,
# so each rounding moves the result by less than one ulp of h, and the grid
# relabeling by half an ulp more. A half-theta shift below this many ulps
# of h is roundoff of crossing() itself, not a displacement of the profile.
# Unit-D makes no shift log(D)/lambda_c of at most this many ulps of the
# grid's largest |s|, below the rounding of its coordinates: D read back
# after one shift carries the FFT roundoff of the tail times e^{lambda_c s}.
_ROUNDOFF_ULPS = 8
# Grid points a solve may allocate: 16 MB per array, 31 times the largest
# grid the test suite builds (63,580 points, Uniform(-0.5, 2) at 3 c*)
_MAX_GRID_POINTS = 2_000_000


@dataclass(frozen=True)
class GridSpec:
    """Overrides for the solve grid; None fields use the rate-based defaults
    l_right = 34/lambda_c, l_left = 26/lambda_left, h = min(0.01, 1/(20 lambda_c)).
    The spans are the caller's: l_left reaches left of the origin and l_right
    right of it, also for c < 0, where the front's tail is on the left."""

    l_left: float | None = None
    l_right: float | None = None
    h: float | None = None

    def __post_init__(self):
        for name, v in vars(self).items():
            if v is not None:
                require_finite(f"grid {name}", v, "positive")


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
        return float((self.grid[-1] - self.grid[0]) / (len(self.grid) - 1))

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
        return {**asdict(self), "fit_window": list(self.fit_window)}


class Convolver:
    """Convolution with a problem's kernels, a+ and, with nonlocal
    competition, a-, on a uniform grid of step h: a row of weights h*a(kh)
    on [-K, K] each, K the widest kernel's reach to 1e-17 of its peak,
    rescaled to its exact mass so constants are reproduced without
    discretization error (a step whose nodes all miss a support leaves
    none: a UsageError). A call takes a vector already padded by K cells on
    the left (and at least K on the right) and returns the 'valid' part of
    its convolution with each kernel, cut to n rows, from one forward FFT;
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
    which precede every row read.

    An FFT convolution carries an absolute error near eps*max|ext|, which
    swamps rows far down a decaying tail. Where the caller knows the decay
    rate lam of the tail, a+'s rows there are convolved in tilted
    coordinates: ext is multiplied by e^{lam s} and the weights by e^{lam y},
    so every term of row i's sum carries the same factor e^{lam s_i}, taken
    out again afterwards. The error floor then sits at the scale of the
    tilted tail instead of at max|ext|. One cache keeps the spectra of the
    last _SPECTRA (FFT length, tilt) pairs used, the plain weights being
    tilt 0: a Newton phase alternates between a plain window length, its
    pad-free product length and a tilted segment length.
    """

    def __init__(self, kernels, h: float):
        K = max(int(np.ceil(k.support_radius(1e-17) / h)) for k in kernels)
        y = np.arange(-K, K + 1) * h
        self.w = h * np.array([kernel.pdf(y) for kernel in kernels], dtype=float)
        for w, kernel in zip(self.w, kernels):
            tot = w.sum()
            if not tot > 0:
                raise UsageError(f"grid step h={h!r} samples the {kernel.family} kernel (support "
                                 f"within {kernel.support_radius():.6g} of 0) to zero weights")
            w *= kernel.mass / tot
        self.K, self.h = K, h
        self._specs = {}        # (FFT length, lh) -> spectra of w e^{lh k}, oldest first

    def _spectrum(self, nfft, lh=0.0):
        """The weight rows tilted by e^{lh k}, k = -K..K, transformed at
        length nfft; lh = 0 is the plain spectrum, w e^0 being w bit for bit."""
        spec = self._specs.get((nfft, lh))
        if spec is None:
            if len(self._specs) == _SPECTRA:
                del self._specs[next(iter(self._specs))]
            tilt = np.exp(lh * np.arange(-self.K, self.K + 1))
            spec = self._specs[nfft, lh] = rfft(self.w * tilt, nfft)
        return spec

    def __call__(self, ext, n: int | None = None, i_deep: int | None = None,
                 rate: float | None = None):
        """a+'s rows from i_deep on, where ext decays like e^{-rate s}, come
        from a tilted FFT over segments of at most _TILT_SPAN e-foldings
        each; all other rows from the plain FFT of the whole vector."""
        L = self.w.shape[1]
        out = self.plain(ext, n)
        n = out.shape[1]
        if i_deep is not None and i_deep < n:
            lh = rate * self.h
            rows = min(n - i_deep, max(1, int(_TILT_SPAN / lh) - self.K))
            nfft = next_fast_len(rows + L - 1, True)
            spec = self._spectrum(nfft, lh)[0]
            for a in range(i_deep, n, rows):
                b = min(a + rows, n)
                v = ext[a:b + L - 1] * np.exp(lh * (np.arange(b - a + L - 1) - self.K))
                full = irfft(rfft(v, nfft) * spec, nfft)
                out[0, a:b] = np.exp(-lh * np.arange(b - a)) * full[L - 1:L - 1 + b - a]
        return out

    def plain(self, ext, n=None, k=slice(None)):
        """The rows of __call__(ext, n) without a tilt, from the plain FFT:
        every kernel's for k a slice, kernel k's alone for k an index, one
        product with its cached spectrum and one inverse FFT, the bits of
        that row of the stacked transform."""
        nfft = next_fast_len(len(ext), True)
        full = irfft(rfft(ext, nfft) * self._spectrum(nfft)[k], nfft)
        return full[..., self.w.shape[1] - 1:len(ext)][..., :n]

    def pad_responses(self, lshape, rshape):
        """(r_L, r_R), a row per kernel: what the pads lshape and rshape, K
        cells each, of [lshape, u, rshape] add to the first and last K rows.
        Row i reads lshape through the weights w[K+i+1:], and row n-K+i reads
        rshape through w[:i+1], so each is a product of a pad with one half
        of the weights, from a circular FFT of length 2K - 1 or more."""
        K = self.K
        nfft = next_fast_len(2 * K - 1, True)
        r_l = irfft(rfft(lshape, nfft) * rfft(self.w[:, K + 1:], nfft), nfft)
        r_r = irfft(rfft(rshape, nfft) * rfft(self.w[:, :K], nfft), nfft)
        return r_l[:, K - 1:2 * K - 1], r_r[:, :K]

    def with_pads(self, u, responses):
        """Rows of the convolution of [u[0] lshape, u, u[-1] rshape], a row
        per kernel, given responses = pad_responses(lshape, rshape): u padded
        with zeros, plus the responses scaled by the end values on the edges."""
        n, K = len(u), self.K
        nfft = next_fast_len(n + K, True)
        out = irfft(rfft(u, nfft) * self._spectrum(nfft), nfft)[:, K:K + n]
        rl, rr = responses
        m = min(K, n)
        out[:, :m] += u[0] * rl[:, :m]
        out[:, n - m:] += u[-1] * rr[:, K - m:]
        return out


def _require_probability(pair):
    """Refuse kernels with a mass defect: the waves connect 0 to theta, which
    a truncated kernel's carrying capacity theta_R is not."""
    for k in (pair.a_plus, pair.a_minus):
        if k.mass < 1.0 - 1e-12:
            raise UsageError("profile solves and time stepping need probability "
                             "kernels; truncated kernels belong to the truncation lab")


def _convolver(pair, params, h):
    """The problem's convolution on step h, for the solver and the time
    stepper alike: a_plus, and a_minus only with nonlocal competition."""
    _require_probability(pair)
    return Convolver((pair.a_plus, pair.a_minus) if params.kappa_nonlocal else (pair.a_plus,), h)


class _Workspace:
    """Grid, weights, and the residual operator for one (pair, params, c),
    with the panels' shapes stated once per grid: lshape = e^{lambda_left ds}
    on the K cells left of it, rshape the decay ansatz on the K + 1 right of it;
    conv is the problem's Convolver, its rows a+ and, with competition, a-."""

    def __init__(self, pair, params, c, th, lam_c, j, lam_left, s, h):
        self.c, self.th, self.lam_c, self.j = c, th, lam_c, j
        self.lam_left = lam_left
        self.kp, self.m = params.kappa_plus, params.m
        self.kl, self.kn = params.kappa_local, params.kappa_nonlocal
        self.rho = rho_bar(params)
        self.s, self.h, self.N = s, h, len(s)
        self.conv = _convolver(pair, params, h)
        self.K = K = self.conv.K
        self.lshape = np.exp(-lam_left * h * np.arange(K, 0, -1))
        self.rshape = self.tailg(s[-1], K + 1)

    # -- analytic boundary panels ------------------------------------------

    def tailg(self, anchor_s, n):
        t = self.h * np.arange(1, n + 1)
        g = np.exp(-self.lam_c * t)
        if self.j == 2 and anchor_s > 0:
            g = g * (anchor_s + t) / anchor_s
        return g

    def pad_shapes(self, psi):
        """(dl, dr): the panels' derivatives by psi[0] and psi[-1]. A front-like
        end takes its shape (0 < theta - psi[0] <= theta/2 on the left,
        psi[-1] <= theta/2 on the right); any other end is constant: ones."""
        dl = self.lshape if 0.0 < self.th - psi[0] <= 0.5 * self.th else np.ones(self.K)
        dr = self.rshape if psi[-1] <= 0.5 * self.th else np.ones(self.K + 1)
        return dl, dr

    def build_ext(self, psi):
        """[theta - (theta - psi[0]) dl, psi, psi[-1] dr], (dl, dr) = pad_shapes(psi):
        the K cells each side the residual reads and the right panel's first cell."""
        dl, dr = self.pad_shapes(psi)
        return np.concatenate([self.th - (self.th - psi[0]) * dl, psi, psi[-1] * dr])

    # -- residual ----------------------------------------------------------

    def residual_vec(self, psi, lo=0, hi=None):
        """Rows lo..hi-1 (hi None: N) of the residual at the grid vector psi,
        from the window build_ext(psi)[lo:hi + 2K] they read; the rows past
        psi's bulk_end convolve in tilted coordinates."""
        K, hi = self.K, self.N if hi is None else hi
        n, p, ext = hi - lo, psi[lo:hi], self.build_ext(psi)[lo:hi + 2 * K]
        conv = self.conv(ext, n, max(self.bulk_end(psi) - lo, 0), self.lam_c)
        dpsi = (ext[K + 1:K + n + 1] - ext[K - 1:K + n - 1]) / (2 * self.h)
        r = self.c * dpsi + self.kp * conv[0] - self.m * p - self.kl * p * p
        if self.kn:
            r -= self.kn * p * conv[1]
        return r

    def linearize(self, psi, lo=0, hi=None):
        """Jacobian of residual_vec's rows lo..hi-1 at psi along directions
        u that vanish off those rows: its diagonal and u -> J u. u is padded
        by the panels' derivatives, u[0] dl if lo = 0 and u[-1] dr if hi = N
        with (dl, dr) = pad_shapes(psi), the branch build_ext reads, and by
        zeros otherwise; the pads enter through their responses, computed
        once here."""
        N, K = self.N, self.K
        hi = N if hi is None else hi
        n, p = hi - lo, psi[lo:hi]
        diag = -self.m - 2 * self.kl * p
        if self.kn:
            diag = diag - self.kn * self.conv.plain(self.build_ext(psi)[lo:hi + 2 * K], n, 1)
        dl, dr = self.pad_shapes(psi)
        lcol = dl if lo == 0 else np.zeros(K)
        rcol = dr[:K] if hi == N else np.zeros(K)
        resp = self.conv.pad_responses(lcol, rcol)

        def jmv(u):
            # the centered difference reads one pad cell on each side
            g = np.concatenate(([u[0] * lcol[-1]], u, [u[-1] * rcol[0]]))
            du = (g[2:] - g[:-2]) / (2 * self.h)
            conv = self.conv.with_pads(u, resp)
            out = self.c * du + self.kp * conv[0] + diag * u
            if self.kn:
                out -= self.kn * p * conv[1]
            return out

        return diag, jmv

    def band(self, diag, p=None):
        """Tridiagonal preconditioner for the bulk rows of diag, p being psi
        on them (read with nonlocal competition only), as rows (upper, main,
        lower diagonal) of a (3, n) array, the upper one starting and the
        lower one ending with an unused cell. On rows more than K cells from
        the window's ends it agrees with the Jacobian on constants and on
        linear functions: the centered difference and the three central a+
        weights, the rest of the a+ mass and the a- term's -kn p mass on the
        main diagonal, and the first moments of those weights off the band
        split evenly over the two off-diagonals, the a- one scaled row by
        row by p. An even kernel has no first moment."""
        K, kp, a = self.K, self.kp, self.c / (2 * self.h)
        w = self.conv.w[0]
        off = np.arange(K, -K - 1, -1)      # w[j] weighs u[i + K - j]
        far = w.copy()
        far[K - 1:K + 2] = 0.0
        tilt = 0.5 * kp * (off * far).sum()
        ab = np.empty((3, len(diag)))
        ab[0] = a + kp * w[K - 1] + tilt    # column i+1 holds row i's entry
        ab[1] = diag + kp * (far.sum() + w[K])
        ab[2] = -a + kp * w[K + 1] - tilt   # column i-1 holds row i's entry
        if self.kn:
            ab[1] -= self.kn * self.conv.w[1].sum() * p
            tilt_m = 0.5 * self.kn * (off * self.conv.w[1]).sum() * p
            ab[0, 1:] -= tilt_m[:-1]
            ab[2, :-1] += tilt_m[1:]
        ab[0, 0] = ab[2, -1] = 0.0
        return ab

    def tilted_symbol(self, nfft):
        """Eigenvalues, at the rfft frequencies of length nfft, of the
        circulant whose stencil is the tail Jacobian in coordinates
        psi = e^{-lambda_c s} v with its diagonal left out: the kernel
        weights w[K+k] e^{lambda_c k h} on v[i-k] and the centered
        difference c (e^{-lambda_c h} v[i+1] - e^{lambda_c h} v[i-1]) / 2h.
        Weights past nfft wrap, as a circulant's do. It is formed from the
        weights, not probed with a unit impulse: that costs no Jacobian
        product, and keeps the kernel's whole reach where 2K + 1 > nfft."""
        K, lh, a = self.K, self.lam_c * self.h, self.c / (2 * self.h)
        k = np.arange(-K, K + 1)
        col = np.bincount(k % nfft, self.kp * self.conv.w[0] * np.exp(lh * k), nfft)
        col[1] -= a * math.exp(lh)
        col[-1] += a * math.exp(-lh)
        return rfft(col, nfft)

    def bulk_end(self, psi):
        return int(np.searchsorted(-psi, -_BULK_FLOOR * self.th))

    # -- graft and recentering ----------------------------------------------

    def graft(self, psi):
        """Replace both ends by their analytic panels: within 1e-6 theta of
        theta one exponential at rate lambda_left, below 3e-13 theta the decay
        ansatz, each anchored at the last grid value outside that band. The
        solver grafts the rows its rounds solved, on head(M), and fills the
        caller's grid past them with the same ansatz."""
        psi = psi.copy()
        v = self.th - psi
        idx = np.where(v >= _LEFT_GRAFT * self.th)[0]
        iA = idx[0] if len(idx) else self.N - 1
        if iA > 0:
            psi[:iA] = self.th - v[iA] * np.exp(self.lam_left * (self.s[:iA] - self.s[iA]))
        iA = self.right_anchor(psi)
        if iA < self.N - 1:
            psi[iA + 1:] = psi[iA] * self.tailg(self.s[iA], self.N - 1 - iA)
        return psi

    def right_anchor(self, psi):
        """The last row where psi >= _RIGHT_GRAFT theta (0 if none): the right graft's anchor."""
        idx = np.flatnonzero(psi >= _RIGHT_GRAFT * self.th)
        return int(idx[-1]) if len(idx) else 0

    def head(self, M):
        """This workspace on the grid's first M rows, its right panel the decay
        ansatz anchored at s[M-1]; the Convolver, with its spectra, is shared."""
        out = copy.copy(self)
        out.s, out.N = self.s[:M], M
        out.rshape = self.tailg(out.s[-1], self.K + 1)
        return out

    def cell_shift(self, psi):
        """Cells from the origin to psi's theta/2 crossing (or to N)."""
        return int(np.searchsorted(-psi, -0.5 * self.th)) - int(round(-self.s[0] / self.h))

    def recenter(self, psi):
        """psi moved by cell_shift(psi) < N cells, its crossing to the origin."""
        shift = self.cell_shift(psi)
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


def _sweep_phase(ws: _Workspace, psi, sweeps: int | None = None):
    """sweeps (None: _SWEEPS) monotone integrating-factor sweeps on ws's
    grid, each applying (rho - c d/ds)^{-1} to N[psi] = (rho - m) psi + kp
    conv+ - kl psi^2 - kn psi conv-, integrating from +inf where the
    resolvent decays. Iterates stay pointwise ordered. A sweep convolves
    build_ext(psi), the vector the residual reads, through the plain FFT, on
    the grid rows and the right panel's first cell; across the grid rows it
    is the recursion y[i] = x[i] + alpha y[i+1] closed by y[N] = that cell,
    a unit upper-bidiagonal back substitution (BLAS dtbsv)."""
    c, rho, h = ws.c, ws.rho, ws.h
    N, K, th = ws.N, ws.K, ws.th
    alpha = math.exp(-rho * h / c)
    beta = rho / c
    I0 = (1 - alpha) / beta
    I1 = (1 - alpha) / (h * beta * beta) - alpha / beta
    b0, b1 = (I0 - I1) / c, I1 / c
    ab = np.zeros((2, N), order="F")    # dtbsv's band layout; the unit diagonal is not read
    ab[0, 1:] = -alpha
    for _ in range(_SWEEPS if sweeps is None else sweeps):
        ext = ws.build_ext(psi)
        vals = ext[K:K + N + 1]
        conv = ws.conv(ext)
        narr = (rho - ws.m) * vals + ws.kp * conv[0] - ws.kl * vals * vals
        if ws.kn:
            narr -= ws.kn * vals * conv[1]
        x = b0 * narr[:-1] + b1 * narr[1:]
        x[-1] += alpha * vals[-1]
        psi = np.clip(dtbsv(1, ab, x, diag=1, overwrite_x=1), 0.0, th)
    return psi


def _warm_start(pair, params, ws: _Workspace, psi):
    """_SWEEPS sweeps from psi, all but the last _FINE_SWEEPS of them on the
    coarse grid ws.s[::F], step F h, whose result is interpolated linearly
    onto ws's grid. F is the largest of _COARSEN and 2 at which the coarse
    grid keeps two points and the kernels two cells each side with nonzero
    weights, else 1: the coarse workspace is then ws, and the warm start all
    _SWEEPS sweeps on ws's grid, bit for bit."""
    F, wc = 1, ws
    for f in (_COARSEN, 2):
        if min(ws.N, ws.K) > f:     # ceil(N/f) >= 2 points, ceil(R/fh) >= 2 cells
            try:
                F, wc = f, _Workspace(pair, params, ws.c, ws.th, ws.lam_c, ws.j,
                                      ws.lam_left, ws.s[::f], f * ws.h)
                break
            except UsageError:      # step f h misses a narrow support
                pass
    psi = np.interp(ws.s, wc.s, _sweep_phase(wc, psi[::F], _SWEEPS - _FINE_SWEEPS))
    return _sweep_phase(ws, psi, _FINE_SWEEPS)


def _band_solver(ab):
    """x -> the solution of the bulk Newton phase's tridiagonal system ab
    (band() layout) with right-hand side x. ab is LU-factored once, with
    partial pivoting, so each solve is one forward and one back
    substitution."""
    dl, d, du, du2, ipiv, info = dgttrf(ab[2, :-1], ab[1], ab[0, 1:])
    if info > 0:
        raise LinAlgError("singular matrix")

    def solve(x):
        return dgttrs(dl, d, du, du2, ipiv, x)[0]
    return solve


def _newton(ws: _Workspace, psi, lo, hi, tol, max_outer, maxiter):
    """Jacobian-free Newton-Krylov on rows lo..hi-1, the others frozen, taking
    whole steps, clipped to [0, theta] (>= 0 on the tail), while they lower the
    window's sup residual, over E on the tail; returns psi and that residual.
    The solver passes ws.head(M), so the tail window ends at the right graft
    with the decay ansatz as its panel: frozen rows past it would pin the
    amplitude mode that the border leaves free.

    The bulk window (lo = 0) works on psi, preconditioned by the band. The
    tail works in coordinates psi = E v, E the decay ansatz anchored at
    psi[lo-1], where the Jacobian is nearly Toeplitz: its preconditioner is
    the circulant tilted_symbol plus the mean diagonal, one rfft/irfft pair
    per solve. The symbol's zero frequency is the amplitude mode, a root of
    the characteristic function (a double one at c*), so it takes minus the
    modulus of its neighbour instead. The shift family makes the Jacobian
    nearly singular along that mode, so a row pinning the mean of v borders
    the system, and the preconditioner solves the border by elimination."""
    n, border = hi - lo, lo > 0
    v, cap = psi[lo:hi], ws.th
    if border:
        E = np.maximum(psi[lo - 1] * ws.tailg(ws.s[lo - 1], n), 1e-13 * ws.th)
        v, cap = np.clip(v / E, 0.0, 2.0), None
        nfft = next_fast_len(max(n, 2), True)   # sym[1] below needs one frequency past 0
        stencil = ws.tilted_symbol(nfft)

    def full(vv):
        return np.concatenate([psi[:lo], E * vv if border else vv, psi[hi:]])

    def gres(vv):
        r = ws.residual_vec(full(vv), lo=lo, hi=hi)
        return r / E if border else r

    g = gres(v)
    for _ in range(max_outer):
        gn = float(np.abs(g).max())
        if gn < tol:
            break
        diag, jmv = ws.linearize(full(v), lo=lo, hi=hi)
        if border:
            def jt(u):
                return jmv(E * u) / E

            sym = stencil + diag.mean()
            sym[0] = -abs(sym[1])

            def pc_solve(x):
                return irfft(rfft(x, nfft) / sym, nfft)[:n]

            u_amp = jt(np.ones(n))
            x2 = pc_solve(u_amp)
            sx2 = x2.sum()

            # sums, not dots with ones: BLAS runs ddot threaded at grid
            # length, which costs more than the whole dot on a contended host
            def jaug(vv):
                return np.concatenate([jt(vv[:n]) + vv[n] * u_amp, [vv[:n].sum()]])

            def maug(rr):
                x1 = pc_solve(rr[:n])
                t = (x1.sum() - rr[n]) / sx2
                return np.concatenate([x1 - t * x2, [t]])
            jop, mop, rhs = jaug, maug, np.concatenate([-g, [0.0]])
        else:
            jop, mop, rhs = jmv, _band_solver(ws.band(diag, v)), -g
        m = len(rhs)
        # a dtype spares each operator scipy's probe, one product on int8 zeros
        sol, _ = lgmres(LinearOperator((m, m), matvec=jop, dtype=float), rhs,
                        M=LinearOperator((m, m), matvec=mop, dtype=float),
                        rtol=1e-3, atol=0.0, inner_m=30, maxiter=maxiter)
        cand = np.clip(v + (sol[:n] + sol[n] if border else sol), 0.0, cap)
        gc = gres(cand)
        if not np.abs(gc).max() < gn:
            break
        v, g = cand, gc
    return full(v), float(np.abs(g).max())


def _grid_points(cells, hint):
    """cells + 1, refused above _MAX_GRID_POINTS; cells is inf if a span overflows."""
    n = int(round(cells)) + 1 if math.isfinite(cells) else math.inf
    if n > _MAX_GRID_POINTS:
        raise UsageError(f"the grid needs {n} points, above the limit of "
                         f"{_MAX_GRID_POINTS}; {hint}")
    return n


def _make_workspace(pair, params, c, spec):
    root = speed_to_abscissa(pair, params, c)
    lam_c, j = root.lambda_c, root.multiplicity
    lam_left = left_rate(pair, params, c)
    h = spec.h if spec.h is not None else min(0.01, 1.0 / (20.0 * lam_c))
    Ll = spec.l_left if spec.l_left is not None else _LEFT_EFOLD / lam_left
    Lr = spec.l_right if spec.l_right is not None else _RIGHT_EFOLD / lam_c
    s = -Ll + h * np.arange(_grid_points((Ll + Lr) / h, "give a larger h or shorter spans"))
    ws = _Workspace(pair, params, c, theta(params), lam_c, j, lam_left, s, h)
    if ws.K < 2:    # the bulk band and the tail border need more rows than that
        raise UsageError(f"grid step h={h!r} spans the kernels in fewer than two cells each side")
    return ws


def solve_profile(pair: KernelPair, params: Params, c: float,
                  grid: GridSpec | None = None, tol: float = 1e-6,
                  anchor: float = 0.0, report=None) -> WaveProfile:
    """Solve the profile equation for speed c >= c_star, c != 0.

    The returned profile is half-theta normalized (value theta/2 at s=0 by
    interpolation) and carries the certified sup-norm residual. `anchor`
    shifts the initial supersolution; the converged wave is the same up to
    the final normalization, which is what the uniqueness checks exercise.

    Set-up goes through the cached minimal_speed(pair, params). A `report`
    is checked against that of the pair as passed, also for c < 0, and
    never used: any other report is a UsageError.
    """
    require_finite("speed c", c)
    require_finite("anchor", anchor)
    require_finite("tol", tol, "positive")
    if c == 0.0:
        raise AssumptionFailure("c-zero-unsupported",
                                "stationary fronts (c = 0) are out of scope")
    _require_probability(pair)
    spec = grid or GridSpec()
    if report is not None:
        _checked(report, minimal_speed(pair, params))
    mirrored = c < 0.0
    if mirrored:    # the decreasing wave of the reflected pair, its spans swapped
        pair, c, anchor = pair.reflected(), -c, -anchor
        spec = replace(spec, l_left=spec.l_right, l_right=spec.l_left)
    ws = _make_workspace(pair, params, c, spec)
    th = ws.th

    def short(side):
        """The grid and the span named in the caller's frame."""
        a, b = (-ws.s[-1], -ws.s[0]) if mirrored else (ws.s[0], ws.s[-1])
        if mirrored:
            side = "left" if side == "right" else "right"
        return f"the grid [{a:.6g}, {b:.6g}]: l_{side} is too short"

    psi = th * np.exp(-ws.lam_c * np.maximum(ws.s - anchor, 0.0))
    psi = _warm_start(pair, params, ws, psi)
    # the origin is at a cell below N, so only a shift to the right can keep
    # no row of the warm start: psi stays above theta/2 on the whole grid
    if ws.cell_shift(psi) >= ws.N:
        raise UsageError(f"the warm start does not cross theta/2 on {short('right')}")
    psi = ws.recenter(psi)
    # the rounds solve the rows above the right graft; the graft's ansatz
    # replaces the others, so the right panel moves to the last kept row
    cut = ws.head(ws.right_anchor(psi) + 1)
    psi = psi[:cut.N]

    rr, kept = math.inf, 0
    for rounds in range(1, _NEWTON_ROUNDS + 1):
        # each phase cuts at the current psi: the tail's cut follows the bulk step
        nxt, _ = _newton(cut, psi, 0, cut.bulk_end(psi), 1e-9, 25, 4)
        lo = cut.bulk_end(nxt)
        if lo < cut.N:
            nxt, _ = _newton(cut, nxt, lo, cut.N, _TAIL_TOL, 15, 6)
        rn = float(np.abs(cut.residual_vec(nxt)).max())
        if not rn < rr:     # a round that does not help is dropped and ends the loop
            break
        psi, rr, kept = nxt, rn, rounds
        # no tail rows: a right span that ends in the bulk is refused by name
        if rr < _TAIL_TOL or lo == cut.N:
            break
    psi = cut.graft(np.clip(psi, 0.0, th))
    psi = np.concatenate([psi, psi[-1] * ws.tailg(cut.s[-1], ws.N - cut.N)])
    res = float(np.abs(ws.residual_vec(psi)).max())
    if res > tol:
        raise NonConvergence(
            "iteration-stalled",
            f"residual {res:.3e} above tolerance {tol:.1e} after correction round "
            f"{kept}" + (f"; {short('right')} to reach the tail" if lo == cut.N else ""),
            {"residual": res, "pre_graft_residual": rr,
             "grid_points": ws.N, "h": ws.h})
    if not psi[-1] < 0.5 * th < psi[0]:
        side = "right" if psi[-1] >= 0.5 * th else "left"
        raise UsageError(f"the profile does not cross theta/2 on {short(side)}")

    prof = WaveProfile(ws.s.copy(), psi, c, ws.lam_c, ws.j, th, res)
    prof = normalize_shift(prof, "half-theta-at-origin")
    return prof.reflect() if mirrored else prof


def residual(profile: WaveProfile, pair: KernelPair, params: Params) -> float:
    """Sup-norm of the profile equation over the grid, with the solver's own
    boundary panels (theta-side expansion left, decay ansatz right; constant
    continuation when an end is not front-like, so the stationary states
    psi = 0 and psi = theta evaluate to zero residual)."""
    if profile.orientation == "increasing":
        return residual(profile.reflect(), pair.reflected(), params)
    ws, psi = _profile_workspace(profile, pair, params)
    return float(np.abs(ws.residual_vec(psi)).max())


def _profile_workspace(profile, pair, params):
    """(workspace on a decreasing profile's grid, its values); lambda_left is
    solved only where the left end is front-like, the one branch that reads it."""
    th, psi = theta(params), np.asarray(profile.values, dtype=float)
    front = 0.0 < th - psi[0] <= 0.5 * th
    lam_left = left_rate(pair, params, profile.speed) if front else math.nan
    return _Workspace(pair, params, profile.speed, th, profile.lambda_c, profile.multiplicity,
                      lam_left, profile.grid, profile.h), psi


def tail_asymptotics(profile: WaveProfile) -> TailFit:
    """Fit D s^{j-1} e^{-lambda_c s} to the right tail.

    j and D come from the line of log psi + lambda_c s on log s (the rate
    pinned to the dispersion value), the reported rate from the free-rate
    fit as an independent check, both in laplace's closed forms. The window
    keeps psi between the floor _FIT_FLOOR and the tail's top, _BULK_FLOOR
    theta, below which the linear tail dominates, and drops the last 10% of
    the grid, where the closure ansatz contaminates the values. An increasing
    profile is fitted through its reflection, its window mirrored back.
    """
    if profile.orientation == "increasing":
        fit = tail_asymptotics(profile.reflect())
        lo, hi = fit.fit_window
        return replace(fit, fit_window=(-hi, -lo))
    g, v = profile.grid, np.asarray(profile.values, float)
    s_max = g[0] + 0.9 * (g[-1] - g[0])
    mask = (v > _FIT_FLOOR) & (v < _BULK_FLOOR * profile.theta) & (g > 0.0) & (g <= s_max)
    if int(mask.sum()) < 50:
        raise NonConvergence("tail-underresolved",
                             f"only {int(mask.sum())} usable tail points; "
                             "need at least 50 above the floor")
    ss, log_psi = g[mask], np.log(v[mask])
    c, b, rss, _ = _fit_line(np.log(ss), log_psi + profile.lambda_c * ss)
    return TailFit(rate=_fit(ss, log_psi)[2], j_estimate=b + 1.0, D_estimate=float(np.exp(c)),
                   fit_window=(float(ss[0]), float(ss[-1])),
                   fit_residual=math.sqrt(rss / ss.size))


def _tail_prefactor(profile: WaveProfile, pair: KernelPair, params: Params) -> float:
    """D from the transform identity: the nonlinear term's transform at
    lambda_c divided by the leading coefficient of the characteristic root."""
    g, psi = profile.grid, np.asarray(profile.values, float)
    th, lam, kl, kn = profile.theta, profile.lambda_c, params.kappa_local, params.kappa_nonlocal
    f = kl * psi * psi
    if kn:      # a- * psi on the padded vector the residual reads
        ws, _ = _profile_workspace(profile, pair, params)
        f = f + kn * psi * ws.conv.plain(ws.build_ext(psi), ws.N, 1)
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

    Unit-D reads D from the transform identity, so it needs the kernel
    pair and the parameters; an increasing profile goes through its
    reflection. A shift within _ROUNDOFF_ULPS ulps of the grid's largest |s|
    is not made, so a second unit-D shift is a no-op.
    """
    if mode == "half-theta-at-origin":
        out = profile.shifted(0.0)
        for _ in range(2):
            q = out.crossing(0.5 * out.theta)
            if abs(q) <= _ROUNDOFF_ULPS * np.spacing(out.h):
                break
            out = out.shifted(q)
        return replace(out, shift_mode=mode)
    if mode == "unit-D":
        if pair is None or params is None:
            raise UsageError("unit-D normalization needs the kernel pair and parameters")
        if profile.orientation == "increasing":
            return normalize_shift(profile.reflect(), mode, pair.reflected(), params).reflect()
        q = math.log(_tail_prefactor(profile, pair, params)) / profile.lambda_c
        if abs(q) <= _ROUNDOFF_ULPS * np.spacing(np.abs(profile.grid).max()):
            q = 0.0
        return replace(profile.shifted(q), shift_mode=mode)
    raise UsageError(f"unknown shift mode {mode!r}")


def compare_up_to_shift(p1: WaveProfile, p2: WaveProfile) -> float:
    """Sup-distance at the theta/2 alignment: on the points of p1's grid that
    p2 covers when shifted by q = crossing(p2) - crossing(p1). It bounds the
    minimum over shifts from above; on different grids, by interpolation error."""
    if abs(p1.speed - p2.speed) > 1e-9 * max(1.0, abs(p1.speed)):
        raise UsageError(f"profiles have different speeds: "
                         f"{p1.speed!r} vs {p2.speed!r}")
    if p1.orientation != p2.orientation:
        raise UsageError("profiles have different orientations")
    level = 0.5 * min(p1.theta, p2.theta)
    q = p2.crossing(level) - p1.crossing(level)
    m = (p1.grid >= p2.grid[0] - q) & (p1.grid <= p2.grid[-1] - q)
    if not m.any():
        raise UsageError("no point of the first profile's grid lies in the second's shifted span")
    return float(np.abs(p1.values[m] - p2.interp(p1.grid[m] + q)).max())
