"""Model parameters and one-dimensional projected dispersal kernels.

Everything downstream consumes the objects built here: the reaction
coefficient block, kernel families with Laplace-transform access and
abscissa metadata, directional projection of multi-dimensional kernels,
the competition balance J_theta, and a machine-checkable report of the
standing assumptions Q1..Q7:

    Q1  kappa_plus > m
    Q2  J_theta(s) = kappa_plus*a_plus(s) - theta*kappa_nonlocal*a_minus(s) >= 0 a.e.
    Q3  sigma(a_plus) > 0 (some exponential moment is finite)
    Q4  a_plus >= rho on some interval [r-delta, r+delta]
    Q5  a_plus bounded
    Q6  finite first absolute moment
    Q7  J_theta >= rho on a neighborhood of the origin

Almost-everywhere statements (Q2, Q7) are checked on grids; the report can
only claim numeric status, not measure-theoretic truth.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import MISSING, dataclass, field, fields
from types import MappingProxyType

import numpy as np
from scipy import integrate, special

from .errors import AssumptionFailure, UsageError, require_finite

QUAD_ABS = 1e-10      # the tolerances of every kernel quadrature (_quad)
QUAD_REL = 1e-8
_POS_FLOOR = 1e-6     # the "rho" used for Q4/Q7 grid scans
_SCAN_POINTS = 8001   # grid size of the Q4 and J_theta scans
_UNDECIDED_BAND = 1e-10
# arguments within this relative distance of a finite abscissa count as the
# abscissa itself; ExpPoly's transforms and dispersion.t_function read it
ENDPOINT_RTOL = 1e-14


def _quad(f, a, b):
    """One QUADPACK integral of f over [a, b] at the package's tolerances."""
    return integrate.quad(f, a, b, limit=400, epsabs=QUAD_ABS, epsrel=QUAD_REL)[0]


def _weighted(t, lam, s):
    """t e^{lam s}, where t = a(s), evaluated through logs so the weight
    alone cannot overflow where a is already negligible: 0.0 at a zero
    density, +-1e308 at an infinite or nan one and where the product
    overflows, 0.0 where it underflows. _log_density's memo serves a
    positive finite t from its log; every other t comes here."""
    if t == 0.0 or not math.isfinite(t):
        return 0.0 if t == 0.0 else math.copysign(1e308, t)
    r = math.log(abs(t)) + lam * s
    if r > 700.0:
        return math.copysign(1e308, t)
    if r < -745.0:
        return 0.0
    return math.copysign(math.exp(r), t)


def _quad_split(piece, lo, hi, breaks=()):
    """piece(a, b) summed over [lo, hi] cut at the interior kinks, in order
    from 0.0; quad cannot take break points together with infinite limits,
    so the segments are explicit. A piece is one _quad call, or its memo
    (_tilted_piece), whose hit returns the bits of that call."""
    xs = [lo] + sorted(p for p in breaks if lo < p < hi) + [hi]
    total = 0.0
    for a, b in zip(xs[:-1], xs[1:]):
        total += piece(a, b)
    return total


# Bound of each quadrature memo below. Pieces repeat within one task (a
# truncation and its base, a root read again at a speed), not across
# tasks, so a few hundred entries hold all the reuse there is.
@functools.lru_cache(maxsize=512)
def _tilted_piece(kernel, z, order, a, b):
    """int_a^b s^order a(s) e^{z s} ds as one _quad call, cached by value
    (kernels are frozen dataclasses): equal keys, 0.0 and -0.0 or 2 and 2.0
    among them, give the same bits. At z = 0 the integrand is kernel.pdf
    itself (the tilt would only take a log and an exp), so `cdf`'s pieces
    are its z = 0, order-0 entries; elsewhere it is _tilted, which reads
    log a(s) from the kernel's sample memo. A hit does not repeat the
    call's IntegrationWarning; `_tilted_piece.cache_clear()` empties the
    memo."""
    g = kernel.pdf if z == 0 else _tilted(kernel, z)
    return _quad((lambda s: g(s) * s ** order) if order else g, a, b)


# Entries of one kernel's sample memo before it is emptied. Most root
# solves visit a few hundred abscissas; the few that drive QUADPACK to its
# subdivision limit visit up to 12.7k, and a memo that held them all cost
# a megabyte more for 7% fewer pdf calls over the dispersion sweep's
# ExpPoly tasks.
_SAMPLE_CAP = 4096


@functools.lru_cache(maxsize=1)
def _log_density(kernel):
    """The sample memo of one kernel, {s: log a(s)}, which _tilted fills:
    cached by value like _tilted_piece, for the last kernel only (a root
    solve reads one, and a truncation reads its base's), and emptied when
    it reaches _SAMPLE_CAP entries. A density outside (0, inf) has no log
    and is kept as the 1-tuple (a(s),). `_log_density.cache_clear()`
    drops the memo."""
    return {}


def _tilted(kernel, z):
    """s -> _weighted(kernel.pdf(s), z, s), with pdf called once per
    abscissa. QUADPACK's abscissas on a piece are the nodes of its
    halvings, which z changes only in how far they go, so the tilts and
    orders a root solve reads ask for the same s again; a later read takes
    log a(s) from _log_density's memo. It is the log _weighted takes,
    followed by _weighted's guards, so a hit returns a miss's bits. Keys
    compare by value, 0.0 and -0.0 sharing an entry; every family's pdf is
    equal at both."""
    logs, pdf = _log_density(kernel), kernel.pdf

    def g(s):
        v = logs.get(s)
        if v is None:
            if len(logs) >= _SAMPLE_CAP:
                logs.clear()
            t = pdf(s)
            v = logs[s] = math.log(t) if 0.0 < t < math.inf else (t,)
        if type(v) is tuple:
            return _weighted(v[0], z, s)
        r = v + z * s
        if r > 700.0:
            return 1e308
        if r < -745.0:
            return 0.0
        return math.exp(r)

    return g


@functools.lru_cache(maxsize=512)
def _exp_poly_piece(mu, p, q, order):
    """int_0^inf s^order e^{-mu s^p} / (1 + s^q) ds, ExpPoly's one integral:
    (mu, p, q, 0) is half its normalization, and at p = 1 the endpoint
    transform sums (0.0, 1.0, q, k), where the exponential cancels, and
    (2 mu, 1.0, q, k), where it doubles. The first depends on (q, k)
    alone, so every rate shares it; keys compare by value, as in
    _tilted_piece."""
    def f(s):       # 0 where a power overflows a float, as pdf's float path has it
        try:
            return s ** order * math.exp(-mu * s ** p) / (1.0 + s ** q)
        except OverflowError:
            return 0.0
    return _quad(f, 0, math.inf)


@dataclass(frozen=True)
class Params:
    """Reaction coefficients: dispersal rate, mortality, and the two
    competition strengths (local and nonlocal)."""

    kappa_plus: float
    m: float
    kappa_local: float = 1.0
    kappa_nonlocal: float = 0.0

    def __post_init__(self):
        require_finite("kappa_plus", self.kappa_plus, "positive")
        require_finite("m", self.m, "positive")
        require_finite("kappa_local", self.kappa_local, "nonnegative")
        require_finite("kappa_nonlocal", self.kappa_nonlocal, "nonnegative")
        if self.kappa_local + self.kappa_nonlocal <= 0:
            raise UsageError("kappa_local + kappa_nonlocal must be positive")

    @property
    def kappa(self) -> float:
        return self.kappa_local + self.kappa_nonlocal


def params_from_dict(d: dict) -> Params:
    """Params from a parameter block, with Params' own defaults for the
    fields it omits. Every entry point (problem file, --params, sweep)
    builds its Params here, so an input means the same on each."""
    if not isinstance(d, dict):
        raise UsageError("parameter block must be an object")
    names = [f.name for f in fields(Params)]
    unknown = sorted(set(d) - set(names))
    if unknown:
        raise UsageError(f"unknown parameter(s) {unknown}; expected some of {names}")
    try:
        return Params(**{k: float(v) for k, v in d.items()})
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad parameter block: {exc}") from exc


def theta(params: Params) -> float:
    """Positive carrying-capacity state (kappa_plus - m) / kappa.

    Only defined when Q1 holds; the zero state is the other equilibrium.
    """
    if params.kappa_plus <= params.m:
        raise AssumptionFailure(
            "Q1", f"kappa_plus={params.kappa_plus} <= m={params.m}: no positive state")
    return (params.kappa_plus - params.m) / params.kappa


def rho_bar(params: Params) -> float:
    """m + 2 kappa_local theta + kappa_nonlocal theta: the local decay rate of
    the reaction linearized at theta, the constant of the left linearization,
    the warm-start sweeps' integrating factor and, plus kappa_plus, the time
    stepper's dt bound."""
    th = theta(params)
    return params.m + 2 * params.kappa_local * th + params.kappa_nonlocal * th


class Kernel:
    """Base for 1D probability densities with Laplace-transform access.

    `sigma_right` is the abscissa of convergence of int a(s)e^{z s} ds for
    z > 0, `sigma_left` the same for the reflected kernel (it bounds how far
    the transform extends to negative arguments). `mass` is 1 except for
    truncated kernels, which keep their defect on purpose.

    `transform_below(z, R, order)` is the one integral a family states, and
    `transform_deriv(z, order)`, its value at the support's end, the one
    place for its closed forms; `transform` is order 0, `cdf(x)` is
    `transform_below(0.0, x, 0)` and `moment_first` its order 1 over the
    whole support. At z = 0 the integrand is the density, untilted.

    `pdf` takes a float or an array. QUADPACK calls each integrand once per
    abscissa with a float, and numpy's cost per 0-d call dwarfs the
    arithmetic, so a float gets a float: the array code's operations in
    Python, with its bits, calling numpy only for the functions that code
    takes from it (`np.exp`, not `math.exp`, which differs in the last bit).
    """

    family = "generic"
    mass = 1.0

    def pdf(self, s):
        raise NotImplementedError

    @property
    def sigma_right(self) -> float:
        raise NotImplementedError

    @property
    def sigma_left(self) -> float:
        raise NotImplementedError

    # integration endpoints for quadrature: (lo, hi) may be +-inf
    _support = (-math.inf, math.inf)
    # interior points quad should not step over (kinks)
    _breaks = (0.0,)

    def support_radius(self, eps: float = 1e-17) -> float:
        """Distance beyond which the density is below eps of its peak."""
        raise NotImplementedError

    def transform(self, z: float) -> float:
        """Bilateral Laplace transform at real z, +inf when divergent."""
        return self.transform_deriv(z, 0)

    def transform_deriv(self, z: float, order: int = 1) -> float:
        """d^k/dz^k of the transform, i.e. int s^k a(s) e^{z s} ds; each
        abscissa bounds its own side, so z = 0 gives a moment even at sigma 0."""
        if (z > 0 and z >= self.sigma_right) or (z < 0 and -z >= self.sigma_left):
            return math.inf
        return self.transform_below(z, self._support[1], order)

    def transform_below(self, z: float, R: float, order: int = 0) -> float:
        """int_{-inf}^{R} s^order a(s) e^{z s} ds, +inf left of -sigma_left
        (at z = 0 a moment, which no abscissa bounds), tilted through logs by
        _weighted away from z = 0: the product decays where e^{z s}
        alone overflows.
        Each piece between the support's end, the kinks and R is computed
        once per process (_tilted_piece), so a truncation shares its base's
        pieces below the cutoff and a root read again costs no quadrature."""
        if z < 0 and -z >= self.sigma_left:
            return math.inf
        lo, _ = self._support
        return _quad_split(functools.partial(_tilted_piece, self, z, order), lo, R, self._breaks)

    def cdf(self, x: float) -> float:
        return self.transform_below(0.0, x, 0)

    def moment_first(self) -> float:
        return self.transform_below(0.0, self._support[1], 1)

    def moment_first_abs(self) -> float:
        lo, hi = self._support
        return _quad_split(functools.partial(_quad, lambda s: self.pdf(s) * abs(s)),
                           lo, hi, self._breaks)

    def pdf_max(self) -> float:
        s = np.linspace(-self.support_radius(1e-12), self.support_radius(1e-12), 4001)
        return float(np.max(self.pdf(s)))

    def reflected(self) -> "Kernel":
        raise UsageError(f"reflection not supported for family {self.family}")

    def to_dict(self) -> dict:
        """The file object kernel_from_dict reads: the family and the
        constructor fields, a kernel among them (a truncation's base) as its own."""
        vals = {f.name: getattr(self, f.name) for f in fields(self) if f.init}
        return {"family": self.family,
                **{k: v.to_dict() if isinstance(v, Kernel) else v for k, v in vals.items()}}

    # the part of a file object that holds the constructor fields
    _file_fields = staticmethod(lambda d: d)


class EvenKernel(Kernel):
    """Base for densities with a(-s) = a(s): the left abscissa is the right
    one, reflection is the identity, the first moment vanishes and the first
    absolute moment is twice the half-line's."""

    @property
    def sigma_left(self) -> float:
        return self.sigma_right

    def reflected(self) -> "Kernel":
        return self

    def moment_first(self) -> float:
        return 0.0

    def moment_first_abs(self) -> float:
        return 2.0 * _quad(lambda s: self.pdf(s) * s, 0.0, math.inf)


@dataclass(frozen=True)
class Laplace(EvenKernel):
    """Two-sided exponential (mu/2) e^{-mu|s|}."""

    mu: float = 1.0
    family = "laplace"

    def __post_init__(self):
        require_finite("laplace mu", self.mu, "positive")

    def pdf(self, s):
        if isinstance(s, float):
            return 0.5 * self.mu * float(np.exp(-self.mu * abs(s)))
        return 0.5 * self.mu * np.exp(-self.mu * np.abs(s))

    @property
    def sigma_right(self):
        return self.mu

    def support_radius(self, eps=1e-17):
        return math.log(1.0 / eps) / self.mu

    def transform_deriv(self, z, order=1):
        if abs(z) >= self.mu:
            return math.inf
        mu2, d = self.mu ** 2, self.mu ** 2 - z * z
        if order == 0:
            return mu2 / d
        if order == 1:
            return 2.0 * mu2 * z / d ** 2
        if order == 2:
            return 2.0 * mu2 * (mu2 + 3.0 * z * z) / d ** 3
        return super().transform_deriv(z, order)

    def cdf(self, x):
        if x < 0:
            return 0.5 * math.exp(self.mu * x)
        return 1.0 - 0.5 * math.exp(-self.mu * x)

    def moment_first_abs(self):
        return 1.0 / self.mu


@dataclass(frozen=True)
class Gaussian(EvenKernel):
    variance: float = 1.0
    family = "gaussian"

    def __post_init__(self):
        require_finite("gaussian variance", self.variance, "positive")

    def pdf(self, s):
        v = self.variance
        if isinstance(s, float):
            # numpy's x**2 is x*x
            return float(np.exp(-(s * s) / (2 * v))) / math.sqrt(2 * math.pi * v)
        return np.exp(-np.asarray(s) ** 2 / (2 * v)) / math.sqrt(2 * math.pi * v)

    sigma_right = property(lambda self: math.inf)

    def support_radius(self, eps=1e-17):
        return math.sqrt(2.0 * self.variance * math.log(1.0 / eps))

    def transform_deriv(self, z, order=1):
        v = self.variance
        a = math.exp(0.5 * v * z * z)
        if order == 0:
            return a
        if order == 1:
            return v * z * a
        if order == 2:
            return (v + (v * z) ** 2) * a
        return super().transform_deriv(z, order)

    def moment_first_abs(self):
        return math.sqrt(2.0 * self.variance / math.pi)


@dataclass(frozen=True)
class Uniform(Kernel):
    lo: float = -1.0
    hi: float = 1.0
    family = "uniform"

    def __post_init__(self):
        require_finite("uniform lo", self.lo)
        require_finite("uniform hi", self.hi)
        if not self.hi > self.lo:
            raise UsageError("uniform kernel needs hi > lo")

    def pdf(self, s):
        if isinstance(s, float):
            return 1.0 / (self.hi - self.lo) if self.lo <= s <= self.hi else 0.0
        s = np.asarray(s, dtype=float)
        return np.where((s >= self.lo) & (s <= self.hi), 1.0 / (self.hi - self.lo), 0.0)

    sigma_right = property(lambda self: math.inf)
    sigma_left = property(lambda self: math.inf)

    @property
    def _support(self):
        return (self.lo, self.hi)

    _breaks = ()

    def support_radius(self, eps=1e-17):
        return max(abs(self.lo), abs(self.hi))

    def transform_deriv(self, z, order=1):
        if order:
            return super().transform_deriv(z, order)
        w = self.hi - self.lo
        if abs(z) * w < 1e-8:
            # series around z=0, avoids the 0/0
            a, b = self.lo, self.hi
            return 1.0 + z * (a + b) / 2 + z * z * (a * a + a * b + b * b) / 6
        return (math.exp(z * self.hi) - math.exp(z * self.lo)) / (z * w)

    def cdf(self, x):
        return min(1.0, max(0.0, (x - self.lo) / (self.hi - self.lo)))

    def moment_first(self):
        return 0.5 * (self.lo + self.hi)

    def reflected(self):
        return Uniform(-self.hi, -self.lo)

    def to_dict(self):
        return {"family": "uniform", "endpoints": [self.lo, self.hi]}

    @classmethod
    def _file_fields(cls, d):
        lo, hi = _array("endpoints", d.get("endpoints", (cls.lo, cls.hi)))
        return {"lo": lo, "hi": hi}


@dataclass(frozen=True)
class ExpPoly(EvenKernel):
    """alpha * e^{-mu |s|^p} / (1 + |s|^q), normalized numerically.

    The abscissa depends on p alone: 0 for p < 1, mu for p = 1, infinite
    for p > 1. At p = 1 the endpoint transform is finite exactly when q > 1.
    """

    p: float = 1.0
    q: float = 0.0
    mu: float = 1.0
    alpha: float = field(init=False, default=0.0, compare=False)

    family = "exp_poly"

    def __post_init__(self):
        require_finite("exp_poly mu", self.mu, "positive")
        require_finite("exp_poly p", self.p, "nonnegative")
        require_finite("exp_poly q", self.q, "nonnegative")
        if self.p == 0 and self.q <= 1:
            raise UsageError("exp_poly with p=0 needs q > 1 to be integrable")
        norm = _exp_poly_piece(self.mu, self.p, self.q, 0)
        object.__setattr__(self, "alpha", 1.0 / (2.0 * norm))

    def pdf(self, s):
        if isinstance(s, float):
            # for a float the array code's ** is C's pow on numpy scalars, as
            # Python's is; where pow overflows numpy gives inf, and the density 0
            a = abs(float(s))
            try:
                return self.alpha * float(np.exp(-self.mu * a ** self.p)) / (1.0 + a ** self.q)
            except OverflowError:
                return 0.0
        a = np.abs(np.asarray(s, dtype=float))
        return self.alpha * np.exp(-self.mu * a ** self.p) / (1.0 + a ** self.q)

    @property
    def sigma_right(self):
        if self.p < 1:
            return 0.0
        if self.p == 1:
            return self.mu
        return math.inf

    def support_radius(self, eps=1e-17):
        return math.log(1.0 / eps) / self.mu if self.p >= 1 else \
            (math.log(1.0 / eps) / self.mu) ** (1.0 / self.p)

    def transform_deriv(self, z, order=1):
        # p=1 endpoint z = +-mu is finite for q > order + 1: the exponential
        # cancels on one side and the algebraic factor carries the integral
        if self.p == 1 and abs(abs(z) - self.mu) < ENDPOINT_RTOL * self.mu:
            sgn = 1.0 if z > 0 else -1.0
            if self.q <= order + 1:
                # divergence comes from the side where the exponential cancels
                return math.inf if z > 0 or order % 2 == 0 else -math.inf

            return self.alpha * (sgn ** order) * (
                _exp_poly_piece(0.0, 1.0, self.q, order)
                + (-1.0) ** order * _exp_poly_piece(2.0 * self.mu, 1.0, self.q, order))
        return super().transform_deriv(z, order)


@dataclass(frozen=True)
class Tabulated(Kernel):
    """Samples on a uniform grid; zero outside. Compact numerical support
    means the abscissa is infinite no matter what the table was sampled
    from, which the abscissa report labels accordingly. The kernel is its
    comb, a mass grid_step*value at each node: transform, `cdf` and moments
    are sums through `transform_below`. `pdf` is the comb's histogram, which
    grid sampling and the assumption scans read."""

    grid_start: float
    grid_step: float
    values: tuple

    family = "tabulated"

    def __post_init__(self):
        require_finite("tabulated grid_start", self.grid_start)
        require_finite("tabulated grid_step", self.grid_step, "positive")
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or len(v) < 2:
            raise UsageError("tabulated kernel needs >= 2 values")
        if not np.all(np.isfinite(v) & (v >= 0)):
            raise UsageError("tabulated kernel entries must be finite and nonnegative")
        total = float(v.sum() * self.grid_step)
        if abs(total - 1.0) > 1e-6:
            raise UsageError(f"tabulated kernel mass {total:.8f} is not 1")
        object.__setattr__(self, "values", tuple(float(x) for x in v))

    def _grid(self):
        return self.grid_start + self.grid_step * np.arange(len(self.values))

    def pdf(self, s):
        # one path for a float too: no quadrature calls it, the comb sums replace quad
        s = np.asarray(s, dtype=float)
        idx = np.rint((s - self.grid_start) / self.grid_step).astype(int)
        ok = (idx >= 0) & (idx < len(self.values)) & \
            (np.abs(s - (self.grid_start + idx * self.grid_step)) <= 0.5 * self.grid_step)
        vals = np.asarray(self.values)
        out = np.where(ok, vals[np.clip(idx, 0, len(vals) - 1)], 0.0)
        return out if out.ndim else float(out)

    sigma_right = property(lambda self: math.inf)
    sigma_left = property(lambda self: math.inf)

    def support_radius(self, eps=1e-17):
        g = self._grid()
        return max(abs(g[0]), abs(g[-1])) + self.grid_step

    def transform_below(self, z, R, order=0):
        g = self._grid()
        v, g = np.asarray(self.values)[g <= R], g[g <= R]
        return float(self.grid_step * np.sum(v * g ** order * np.exp(z * g)))

    def moment_first_abs(self):
        g = self._grid()
        return float(self.grid_step * np.sum(np.asarray(self.values) * np.abs(g)))

    def pdf_max(self):
        return max(self.values)

    def reflected(self):
        g = self._grid()
        return Tabulated(-g[-1], self.grid_step, tuple(reversed(self.values)))

    def to_dict(self):
        return {"family": "tabulated",
                "table": {"grid_start": self.grid_start,
                          "grid_step": self.grid_step,
                          "values": list(self.values)}}

    _file_fields = staticmethod(lambda d: d["table"])


@dataclass(frozen=True)
class Truncated(Kernel):
    """Base kernel cut to (-inf, cutoff), mass defect kept (no renormalizing).

    The right support is bounded, so the abscissa becomes infinite and the
    transform is entire in the right half plane. Its integrals are its
    base's `transform_below` up to the cutoff.
    """

    base: Kernel
    cutoff: float

    family = "truncated"

    def __post_init__(self):
        require_finite("truncation cutoff", self.cutoff)

    def pdf(self, s):
        if isinstance(s, float):
            return self.base.pdf(s) if s < self.cutoff else 0.0
        s = np.asarray(s, dtype=float)
        return np.where(s < self.cutoff, self.base.pdf(s), 0.0)

    @property
    def mass(self):
        return self.base.cdf(self.cutoff)

    sigma_right = property(lambda self: math.inf)

    @property
    def sigma_left(self):
        return self.base.sigma_left

    def support_radius(self, eps=1e-17):
        return self.base.support_radius(eps)

    def transform_below(self, z, R, order=0):
        return self.base.transform_below(z, min(R, self.cutoff), order)

    def cdf(self, x):
        return self.base.cdf(min(x, self.cutoff))

    def moment_first_abs(self):
        # |s| = s - 2 min(s, 0)
        t = self.base.transform_below
        return t(0.0, self.cutoff, 1) - 2.0 * t(0.0, min(0.0, self.cutoff), 1)


@dataclass(frozen=True)
class RadialExpMarginal(EvenKernel):
    """1D marginal of the d-dimensional radial exponential e^{-mu |x|}.

    Closed forms in every integer dimension d >= 2, with x = mu|s| and
    w = 1 - z^2/mu^2: pdf(s) = mu x^{d/2} K_{d/2}(x) / (sqrt(pi)
    Gamma((d+1)/2) 2^{d/2}), and the transform is w^{-(d+1)/2} (the Laplace
    kernel's for d = 1). w is formed as (mu - z)(mu + z)/mu^2, whose
    subtraction is exact near the abscissa, where 1 - z^2/mu^2 cancels.
    """

    mu: float
    dim: int

    family = "radial_exp_marginal"

    def __post_init__(self):
        require_finite("radial_exp_marginal mu", self.mu, "positive")
        require_finite("radial_exp_marginal dim", self.dim)
        if self.dim != int(self.dim):
            raise UsageError(f"radial_exp_marginal dim must be an integer; got {self.dim!r}")
        object.__setattr__(self, "dim", int(self.dim))
        if self.dim < 2:
            raise UsageError("radial exponential marginal needs dim >= 2")

    def pdf(self, s):
        nu = self.dim / 2.0
        # x^nu K_nu(x) tends to 2^{nu-1} Gamma(nu) at the origin
        at_0 = 2.0 ** (nu - 1.0) * math.gamma(nu)
        c = math.sqrt(math.pi) * math.gamma(nu + 0.5) * 2.0 ** nu
        if isinstance(s, float):
            x = self.mu * abs(s)
            # np.power: the array code's ** on an array is numpy's power
            xk = float(np.power(x, nu) * special.kve(nu, x) * np.exp(-x)) if x > 0 else at_0
            return self.mu * xk / c
        x = self.mu * np.abs(np.asarray(s, dtype=float))
        xs = np.where(x > 0, x, 1.0)
        xk = np.where(x > 0, xs ** nu * special.kve(nu, xs) * np.exp(-xs), at_0)
        return self.mu * xk / c

    def transform_deriv(self, z, order=1):
        d, mu2 = self.dim, self.mu ** 2
        w = (self.mu - z) * (self.mu + z) / mu2
        if w <= 0.0:
            return math.inf
        if order == 0:
            return w ** (-(d + 1) / 2.0)
        if order == 1:
            return (d + 1) * z / mu2 * w ** (-(d + 3) / 2.0)
        if order == 2:
            return (d + 1) / mu2 * (1.0 + (d + 2) * z * z / mu2) * w ** (-(d + 5) / 2.0)
        return super().transform_deriv(z, order)

    @property
    def sigma_right(self):
        return self.mu

    def support_radius(self, eps=1e-17):
        return math.log(1.0 / eps) / self.mu + 10.0 / self.mu


@dataclass(frozen=True)
class KernelPair:
    a_plus: Kernel
    a_minus: Kernel

    def reflected(self):
        return KernelPair(self.a_plus.reflected(), self.a_minus.reflected())


# ---------------------------------------------------------------------------
# directional projection

def project_to_direction(kernel_nd, xi) -> Kernel:
    """Project a d-dimensional kernel descriptor onto the line through xi.

    Supported descriptors: a 1D Kernel (xi = +-1), {"kind": "product",
    "factors": [...]} along coordinate axes, {"kind": "radial_gaussian"},
    {"kind": "radial_exponential"}. The marginal of a probability density
    is again a probability density.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if not abs(np.linalg.norm(xi) - 1.0) <= 1e-12:   # a nan norm fails too
        raise UsageError("direction must have unit norm")

    if isinstance(kernel_nd, Kernel):
        if len(xi) != 1:
            raise UsageError("1D kernel given with a multi-dimensional direction")
        return kernel_nd if xi[0] > 0 else kernel_nd.reflected()

    kind = kernel_nd.get("kind")
    d = len(xi)
    if kind == "product":
        factors = kernel_nd["factors"]
        if len(factors) != d:
            raise UsageError("product kernel dimension does not match direction")
        axis = np.argmax(np.abs(xi))
        if abs(abs(xi[axis]) - 1.0) > 1e-12:
            raise UsageError("product kernels only project along coordinate axes")
        k = factors[axis] if isinstance(factors[axis], Kernel) else kernel_from_dict(factors[axis])
        return k if xi[axis] > 0 else k.reflected()
    if kind == "radial_gaussian":
        # isotropic: the marginal along any unit direction keeps the per-axis variance
        return Gaussian(kernel_nd["variance"])
    if kind == "radial_exponential":
        mu = kernel_nd["rate"]
        return Laplace(mu) if d == 1 else RadialExpMarginal(mu, d)
    raise UsageError(f"unsupported kernel descriptor {kind!r}")


# ---------------------------------------------------------------------------
# competition balance and assumption report

@dataclass(frozen=True)
class JTheta:
    """Evaluable J_theta = kappa_plus*a_plus - theta*kappa_nonlocal*a_minus
    plus the grid diagnostics the assumption report needs."""

    pair: KernelPair
    params: Params
    theta: float
    grid_min: float
    origin_rho: float       # min over the widest interval around 0 where J >= floor
    origin_delta: float     # half-width of that interval, 0.0 when none exists

    def __call__(self, s):
        return _balance(self.pair, self.params, self.theta, s)


def _balance(pair: KernelPair, params: Params, th: float, s):
    """J_theta at s; without competition a_minus is not sampled, as its
    term would be 0.0 times a finite density, which changes no bit."""
    kn = params.kappa_nonlocal
    vals = params.kappa_plus * pair.a_plus.pdf(s)
    if kn:
        vals = vals - th * kn * pair.a_minus.pdf(s)
    return vals


def j_theta(pair: KernelPair, params: Params) -> JTheta:
    """J_theta scanned across both supports: its minimum (Q2) and the widest
    interval around 0 where it clears _POS_FLOOR (Q7)."""
    th = theta(params)
    radius = max(pair.a_plus.support_radius(1e-15), pair.a_minus.support_radius(1e-15))
    s = np.linspace(-radius, radius, _SCAN_POINTS)
    vals = _balance(pair, params, th, s)

    # widest interval centred on the origin staying above the floor:
    # k is the first offset where either side drops below it
    i0 = _SCAN_POINTS // 2
    paired = (vals[i0 - 1::-1] >= _POS_FLOOR) & (vals[i0 + 1:] >= _POS_FLOOR)
    k = int(np.argmin(np.append(paired, False)))
    if vals[i0] >= _POS_FLOOR and k > 0:
        delta = k * (s[1] - s[0])
        rho = float(np.min(vals[i0 - k:i0 + k + 1]))
    else:
        delta, rho = 0.0, float(vals[i0])
    return JTheta(pair, params, th, float(np.min(vals)), rho, delta)


@dataclass(frozen=True)
class AssumptionReport:
    """Status per assumption: {"holds", "fails", "undecidable-numerically"}
    with one diagnostic scalar each, read-only: callers share a report."""

    entries: MappingProxyType

    def status(self, label: str) -> str:
        return self.entries[label][0]

    def diagnostic(self, label: str) -> float:
        return self.entries[label][1]

    def failing(self, labels=None) -> list:
        labels = labels or sorted(self.entries)
        return [l for l in labels if self.entries[l][0] != "holds"]

    def require(self, labels) -> None:
        bad = self.failing(labels)
        if bad:
            raise AssumptionFailure(bad[0], f"assumption {bad[0]} does not hold "
                                            f"(diagnostic {self.entries[bad[0]][1]:.6g})")

    def to_dict(self) -> dict:
        return {l: {"status": st, "diagnostic": d} for l, (st, d) in sorted(self.entries.items())}


def _sign_status(x: float, band: float = _UNDECIDED_BAND):
    if x > band:
        return "holds"
    if x < -band:
        return "fails"
    return "undecidable-numerically"


@functools.lru_cache(maxsize=16)
def check_assumptions(pair: KernelPair, params: Params) -> AssumptionReport:
    """Grid-and-quadrature verdict on Q1..Q7 for one kernel pair, cached by
    value (kernels and Params are frozen dataclasses), so classify and
    minimal_speed on one problem check it once. Callers share the read-only
    report; `check_assumptions.cache_clear()` empties the cache."""
    entries = {}
    kp, m = params.kappa_plus, params.m
    entries["Q1"] = (_sign_status(kp - m, 1e-12 * max(kp, m)), kp - m)

    q1_ok = entries["Q1"][0] == "holds"
    if q1_ok:
        jt = j_theta(pair, params)
        if params.kappa_nonlocal == 0.0:
            entries["Q2"] = ("holds", 0.0)
        else:
            mn = jt.grid_min
            entries["Q2"] = ("holds" if mn >= -_UNDECIDED_BAND else "fails", mn)
            if -_UNDECIDED_BAND <= mn < 0:
                entries["Q2"] = ("undecidable-numerically", mn)
    else:
        # theta undefined; the J-based checks cannot run
        entries["Q2"] = ("undecidable-numerically", math.nan)

    sig = pair.a_plus.sigma_right
    entries["Q3"] = ("holds" if sig > 0 else "fails", sig)

    # Q4: an interval of length >= one grid cell where the density clears the floor
    radius = pair.a_plus.support_radius(1e-15)
    s = np.linspace(-radius, radius, _SCAN_POINTS)
    above = np.asarray(pair.a_plus.pdf(s)) >= _POS_FLOOR
    # longest run of grid points above the floor, from the run edges
    edges = np.diff(np.concatenate(([0], above.astype(np.int8), [0])))
    best = int(np.max(np.flatnonzero(edges == -1) - np.flatnonzero(edges == 1), initial=0))
    cell = s[1] - s[0]
    entries["Q4"] = ("holds" if best >= 2 else "fails", best * cell)

    sup = pair.a_plus.pdf_max()
    entries["Q5"] = ("holds" if math.isfinite(sup) else "fails", sup)

    try:
        m1 = pair.a_plus.moment_first_abs()
        entries["Q6"] = ("holds" if math.isfinite(m1) else "fails", m1)
    except Exception:
        entries["Q6"] = ("fails", math.inf)

    if q1_ok:
        if jt.origin_delta > 0:
            entries["Q7"] = ("holds", jt.origin_rho)
        else:
            near = jt.origin_rho  # J at the origin when no interval was found
            if near <= _UNDECIDED_BAND:
                entries["Q7"] = ("fails", near)
            else:
                entries["Q7"] = ("undecidable-numerically", near)
    else:
        entries["Q7"] = ("undecidable-numerically", math.nan)

    return AssumptionReport(MappingProxyType(entries))


# ---------------------------------------------------------------------------
# JSON ingestion

_FAMILIES = {cls.family: cls for cls in (ExpPoly, Laplace, Gaussian, Uniform, Tabulated,
                                         Truncated, RadialExpMarginal)}


def kernel_from_dict(d: dict) -> Kernel:
    """The kernel of a file object (Kernel.to_dict). An omitted field takes
    its dataclass default; a kernel field is read as a kernel, a tuple (and
    Uniform's endpoints) from an array of floats, and any other field as a
    float."""
    if not isinstance(d, dict):
        raise UsageError(f"a kernel is a JSON object; got {type(d).__name__}")
    fam = d.get("family")
    if not isinstance(fam, str) or fam not in _FAMILIES:
        raise UsageError(f"unknown kernel family {fam!r}; expected one of {tuple(_FAMILIES)}")
    cls = _FAMILIES[fam]
    doc = cls._file_fields(d)
    kw = {}
    for f in fields(cls):
        if f.init and (f.default is MISSING or f.name in doc):
            v = doc[f.name]
            kw[f.name] = kernel_from_dict(v) if f.type == "Kernel" else \
                tuple(float(x) for x in _array(f.name, v)) if f.type == "tuple" else float(v)
    return cls(**kw)


def _array(name, v):
    """v, the value of field `name`, which must be a JSON array: a string
    is a sequence too, and would load as one number per character."""
    if not isinstance(v, (list, tuple)):
        raise UsageError(f"kernel field {name!r} must be an array; got {type(v).__name__}")
    return v


def load_problem(source) -> tuple:
    """Read a (KernelPair, Params) from a JSON file path or a dict.

    Layout: kernel fields at top level describe a_plus; an optional
    "a_minus" object overrides the competition kernel (defaults to a_plus);
    "params" holds the coefficient block (see params_from_dict). Only a str
    or os.PathLike source is opened; a file that cannot be read or parsed,
    or a document that is not a JSON object, is a UsageError.
    """
    doc = source
    if isinstance(source, (str, os.PathLike)):
        try:
            with open(source) as fh:
                doc = json.load(fh)
        except (OSError, ValueError) as exc:
            raise UsageError(f"cannot read kernel file {source}: {exc}") from exc
    if not isinstance(doc, dict):
        raise UsageError(f"a problem is a JSON object; got {type(doc).__name__}")
    try:
        params = params_from_dict(doc["params"])
        a_plus = kernel_from_dict(doc)
        a_minus = kernel_from_dict(doc["a_minus"]) if "a_minus" in doc else a_plus
    except KeyError as e:
        raise UsageError(f"kernel document is missing {e}") from None
    except (TypeError, ValueError) as exc:
        raise UsageError(f"bad kernel document: {exc}") from exc
    return KernelPair(a_plus, a_minus), params
