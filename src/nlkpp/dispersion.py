"""Dispersion analysis for the linearized front problem.

With A(z) the bilateral transform of the dispersal kernel, everything here
revolves around

    F(lam) = kappa_plus*A(lam) - m
    G(lam) = F(lam)/lam                  (speed of the exponential ansatz e^{-lam s})
    T(lam) = kappa_plus*(A(lam) - lam*A'(lam))
    H(lam) = m - T(lam)                  (= lam^2 G'(lam), the stationarity numerator)
    h(lam; c) = F(lam) - c*lam           (characteristic function)

on the convergence interval I = (0, sigma) resp. (0, sigma]. The minimal
speed is the infimum of G there: an interior stationary point ("class V")
or the endpoint sigma itself ("class W"). Speeds c >= c_star correspond
one-to-one to decay rates via the smallest positive root of h.
At -inf, theta - psi decays like e^{lambda_left s}, lambda_left the
smallest positive root of the linearization at theta,

    c y + kappa_plus A+(-y) - rho_bar - kappa_nonlocal theta A-(-y),
    rho_bar = m + 2 kappa_local theta + kappa_nonlocal theta (kernels.rho_bar).

lambda_star, lambda_left and mu_star are bracketed by one sign-change scan.
H increases (H' = kappa_plus lam A''(lam) > 0) and the left linearization
is convex (Q2) and negative at 0, so each crosses zero once and its scan
samples every fourth point of the ladder, then bisects back; nothing
proves that mu_star's gap crosses once, so its scan walks every sample.
The same monotonicity lets one sample of H next to sigma certify class W.
minimal_speed and the classification are cached by the problem value; a
`report` given to a function here is checked against the cached one and
never used.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, astuple, dataclass

from scipy.optimize import brentq

from .errors import NonConvergence, NoWave, ToolkitError, UsageError, require_finite
from .kernels import (ENDPOINT_RTOL, ExpPoly, Kernel, KernelPair, Params, check_assumptions,
                      rho_bar, theta)

_TIE_BAND = 1e-9            # |m - T(sigma)| below this counts as the equality case
_CSTAR_BAND = 1e-9          # |c - c_star| below this (relative) counts as minimal speed
_ENDPOINT_BLOWUP = 1e10     # partial integrals past this * kappa_plus mean T = -inf
_STRIDE = 4                 # ladder stride of the scans whose function crosses zero once
_RTOL_FLOOR = 4 * math.ulp(1.0)    # the smallest rtol brentq accepts


@dataclass(frozen=True)
class DispersionReport:
    lambda_star: float
    c_star: float
    kernel_class: str           # "V" | "W"
    sigma_plus: float
    t_at_sigma: float           # nan unless sigma finite with finite transform there
    interval_kind: str          # "closed": I=(0,sigma]; "open": I=(0,sigma)
    m_xi: float
    critical_equality: bool

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class CharacteristicRoot:
    lambda_c: float
    speed: float
    multiplicity: int

    def to_dict(self) -> dict:
        return asdict(self)


def _as_pair(kernel) -> KernelPair:
    return kernel if isinstance(kernel, KernelPair) else KernelPair(kernel, kernel)


def f_function(kernel: Kernel, params: Params, lam: float) -> float:
    if lam <= 0:
        raise UsageError("lambda must be positive")
    a = kernel.transform(lam)
    return params.kappa_plus * a - params.m if math.isfinite(a) else math.inf


def g_function(kernel: Kernel, params: Params, lam: float) -> float:
    """(kappa_plus*A(lam) - m)/lam; +inf where the transform diverges."""
    return f_function(kernel, params, lam) / lam


def characteristic(kernel: Kernel, params: Params, c: float, lam: float) -> float:
    """h(lam; c) = kappa_plus*A(lam) - m - c*lam; +inf beyond the strip."""
    f = f_function(kernel, params, lam)
    return f - c * lam if math.isfinite(f) else math.inf


def characteristic_deriv(kernel: Kernel, params: Params, c: float,
                         lam: float, order: int = 1) -> float:
    """h'(lam) = kappa_plus*A'(lam) - c, h''(lam) = kappa_plus*A''(lam)."""
    d = params.kappa_plus * kernel.transform_deriv(lam, order)
    return d - c if order == 1 else d


def _t_endpoint(kernel: Kernel, params: Params, sig: float) -> float:
    """T at the right edge of the strip: finite, or -inf when the first
    moment against e^{sigma s} blows up on the positive side."""
    a_end = kernel.transform(sig)
    if not math.isfinite(a_end):
        raise UsageError("endpoint transform diverges; T(sigma) undefined")
    d_end = kernel.transform_deriv(sig, 1)
    if not math.isfinite(d_end) or \
            abs(d_end) > _ENDPOINT_BLOWUP * params.kappa_plus:
        return -math.inf
    return params.kappa_plus * (a_end - sig * d_end)


def t_function(kernel: Kernel, params: Params, lam: float) -> float:
    """T(lam) = kappa_plus * int (1 - lam*s) a(s) e^{lam s} ds on (0, sigma]."""
    sig = kernel.sigma_right
    if not 0 < lam <= sig:
        raise UsageError(f"lambda must lie in (0, {sig}]")
    if sig < math.inf and lam >= sig * (1.0 - ENDPOINT_RTOL):
        return _t_endpoint(kernel, params, sig)
    return params.kappa_plus * (kernel.transform(lam)
                                - lam * kernel.transform_deriv(lam, 1))


def h_function(kernel: Kernel, params: Params, lam: float) -> float:
    """Stationarity numerator H = m - T; G is minimal where it crosses zero."""
    return params.m - t_function(kernel, params, lam)


def _classify(kernel: Kernel, params: Params):
    """(class, t_at_sigma, interval_kind). t_at_sigma is nan when sigma is
    infinite or the transform diverges there. Not cached: its work is
    transform reads at sigma, which the quadrature memos serve when
    classify and minimal_speed both ask."""
    sig = kernel.sigma_right
    if not math.isfinite(sig):
        return "V", math.nan, "open"
    if not math.isfinite(kernel.transform(sig)):
        return "V", math.nan, "open"
    t_end = _t_endpoint(kernel, params, sig)
    if t_end >= params.m - _TIE_BAND * max(params.m, 1.0):
        return "W", t_end, "closed"
    return "V", t_end, "closed"


def classify(kernel, params: Params) -> str:
    """W iff sigma is finite, A(sigma) is finite, and T(sigma) >= m; else V."""
    pair = _as_pair(kernel)
    check_assumptions(pair, params).require(["Q1", "Q2", "Q3", "Q4", "Q5", "Q6"])
    cls, _, _ = _classify(pair.a_plus, params)
    return cls


def _strip_grid(sig: float) -> list:
    """Samples of the strip (0, sig] where characteristic roots are
    bracketed: fractions of a finite sig that crowd towards it, then sig
    itself; a geometric ladder from 1e-6 to 1e4 for an infinite one."""
    if math.isfinite(sig):
        fracs = [1e-6, 1e-4, 1e-3, 0.01, 0.05, 0.1, 0.2, 0.3] + \
            [1.0 - 2.0 ** (-k) for k in range(1, 46)]
        return [f * sig for f in fracs] + [sig]
    grid, lam = [], 1e-6
    while lam <= 1e4:
        grid.append(lam)
        lam *= 1.5
    return grid


def _first_sign_change(f, grid, label: str, what: str, stride: int = 1):
    """The first pair of consecutive samples (lo, hi) of grid with f(lo) <= 0
    < f(hi). A positive first sample, a nan, or no sign change up to the
    last sample raises NonConvergence(label), which names what f is.

    The walk stops at the first sample that is positive or nan, or where f
    raises a ToolkitError, which is raised as the walk would have met it.
    With stride k it samples every k-th point, then bisects the samples
    between the last that did not stop it and the first that did (or the
    end): the same answer, errors included, whenever the stopping samples
    are a tail of the grid.
    """
    vals = {}

    def stops(i):
        if i not in vals:
            try:
                vals[i] = f(grid[i])
            except ToolkitError as exc:
                vals[i] = exc
        return isinstance(vals[i], ToolkitError) or not vals[i] <= 0.0

    n = len(grid)
    lo, hi = -1, n          # stops(lo) is false and stops(hi) true; -1 and n are sentinels
    for j in range(stride - 1, n, stride):
        if stops(j):
            hi = j
            break
        lo = j
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if stops(mid):
            hi = mid
        else:
            lo = mid
    val = vals.get(hi)
    if isinstance(val, ToolkitError):
        raise val
    if hi < n and val > 0.0:
        if hi == 0:
            raise NonConvergence(
                label, f"{what} already positive at smallest sample {grid[0]:.3e}")
        return grid[lo], grid[hi]
    raise NonConvergence(
        label, f"no sign change of {what} up to the scan cap",
        {"last_lambda": grid[lo] if lo >= 0 else None, "last_value": vals.get(lo)})


def minimal_speed(kernel, params: Params) -> DispersionReport:
    """Minimizer of G over the strip and the speed there.

    Class V: bracket the zero of H on the strip's ladder and polish with a
    bracketed root solve to 1e-12 relative; cross-check the stationarity
    identity c_star = kappa_plus*A'(lambda_star). Class W: the endpoint is
    the minimizer once H < 0 is confirmed at sigma (1 - 2^-16). Cached by
    value like check_assumptions (`minimal_speed.cache_clear()`); a failure is not.
    """
    return _minimal_speed(_as_pair(kernel), params)


@functools.lru_cache(maxsize=16)
def _minimal_speed(pair: KernelPair, params: Params) -> DispersionReport:
    check_assumptions(pair, params).require(["Q1", "Q2", "Q3", "Q4", "Q5", "Q6"])
    k = pair.a_plus
    kp, m = params.kappa_plus, params.m
    sig = k.sigma_right
    cls, t_end, interval_kind = _classify(k, params)
    tie = math.isfinite(t_end) and abs(m - t_end) <= _TIE_BAND * max(m, 1.0)

    if cls == "W":
        lam_star = sig
        c_star = (kp * k.transform(sig) - m) / sig
        # H increases, so its sample nearest sigma bounds those below it; the
        # refusal names the first of sigma(1 - 2^-j), j = 1..16, where H >= 0
        lams = [sig * (1.0 - 2.0 ** (-j)) for j in range(1, 17)]
        if h_function(k, params, lams[-1]) >= 1e-10 * m:
            lam = next(x for x in lams if h_function(k, params, x) >= 1e-10 * m)
            raise NonConvergence(
                "w-endpoint-cert",
                f"H not negative at {lam:.6g}; endpoint is not the minimizer")
    else:
        def H(lam):
            return h_function(k, params, lam)

        # H(0+) = m - kappa_plus < 0 and H' = kappa_plus lam A'' > 0: one crossing
        lo, hi = _first_sign_change(H, _strip_grid(sig), "lambda-star-bracket",
                                    "the stationarity numerator", _STRIDE)
        lam_star = brentq(H, lo, hi, xtol=1e-15, rtol=1e-12)
        c_star = g_function(k, params, lam_star)
        alt = kp * k.transform_deriv(lam_star, 1)
        if abs(c_star - alt) > 1e-8 * max(1.0, abs(c_star)):
            raise NonConvergence(
                "stationarity-check",
                f"speed representations disagree: {c_star!r} vs {alt!r}")

    m_xi = k.moment_first()
    if not c_star > kp * m_xi:
        raise NonConvergence(
            "speed-bound", f"c_star={c_star!r} fails the strict bound "
                           f"kappa_plus*m_xi={kp * m_xi!r}")
    return DispersionReport(lam_star, c_star, cls, sig,
                            t_end if interval_kind == "closed" else math.nan,
                            interval_kind, m_xi, tie)


minimal_speed.cache_clear = _minimal_speed.cache_clear
minimal_speed.cache_info = _minimal_speed.cache_info


def _checked(given, own: DispersionReport) -> DispersionReport:
    """The cached report of a problem; a given one must be it or equal it, nan == nan."""
    if given is None or given is own or isinstance(given, DispersionReport) and all(
            a == b or a != a and b != b for a, b in zip(astuple(given), astuple(own))):
        return own
    raise UsageError("report= is not minimal_speed of this pair and params")


def root_multiplicity(kernel, params: Params, c: float,
                      report: DispersionReport | None = None) -> int:
    """Order of the characteristic root: 1 off the minimal speed, 2 at the
    minimal speed except in class W away from the equality case."""
    require_finite("speed c", c)
    report = _checked(report, minimal_speed(kernel, params))
    if c < report.c_star * (1.0 - 1e-12) - 1e-12:
        raise NoWave(f"c={c!r} below the minimal speed {report.c_star!r}")
    if abs(c - report.c_star) > _CSTAR_BAND * max(1.0, abs(report.c_star)):
        return 1
    if report.kernel_class == "V":
        return 2
    if not report.critical_equality:
        return 1
    # W at the equality: the quadratic term needs the second moment against
    # the endpoint exponential, which is an extra hypothesis, not a given
    d2 = _as_pair(kernel).a_plus.transform_deriv(report.sigma_plus, 2)
    if not math.isfinite(d2) or d2 > _ENDPOINT_BLOWUP * params.kappa_plus:
        raise NonConvergence(
            "second-moment",
            "multiplicity at the endpoint equality needs a finite second "
            "moment against e^{sigma s}, which this kernel does not have")
    return 2


def speed_to_abscissa(kernel, params: Params, c: float,
                      report: DispersionReport | None = None) -> CharacteristicRoot:
    """Smallest positive root of h(.; c), i.e. the decay rate of the wave
    with speed c. Inverse of abscissa_to_speed on (0, lambda_star]."""
    require_finite("speed c", c)
    report = _checked(report, minimal_speed(kernel, params))
    k = _as_pair(kernel).a_plus
    c_star, lam_star = report.c_star, report.lambda_star
    if c < c_star * (1.0 - 1e-12) - 1e-12:
        raise NoWave(f"no wave with speed {c!r} < c_star = {c_star!r}")
    if abs(c - c_star) <= _CSTAR_BAND * max(1.0, abs(c_star)):
        return CharacteristicRoot(lam_star, c, root_multiplicity(kernel, params, c_star))

    # h(0+) = kappa_plus - m > 0 and h(lambda_star) = lambda_star (c_star - c) < 0.
    # A >= 1 + m_xi lam (A is convex) makes h > 0 below `edge`; past c of about
    # 1e12 that is under the usual lower end, and the tolerance scales with it
    lo, xtol = min(1e-12, 1e-6 * lam_star), 1e-15
    slope = c - params.kappa_plus * report.m_xi
    edge = (params.kappa_plus - params.m) / slope
    if edge <= lo:
        lo, xtol = 0.5 * edge, 1e-15 * edge
    # a root off by rtol lam_c reads back as c off by about rtol |h'(lam_c)|,
    # and h' increases from -slope at 0 to c_star - c < 0: where c is near 0
    # against slope, rtol shrinks to keep that within 1e-10 |c|, down to 4 eps
    rtol = min(1e-12, max(_RTOL_FLOOR, 1e-10 * abs(c) / slope))
    lam_c = brentq(lambda lam: characteristic(k, params, c, lam), lo, lam_star,
                   xtol=xtol, rtol=rtol)
    return CharacteristicRoot(lam_c, c, 1)


def abscissa_to_speed(kernel, params: Params, sigma: float,
                      report: DispersionReport | None = None) -> float:
    """G(sigma) for sigma in (0, lambda_star]: the speed whose wave decays
    at rate sigma."""
    report = _checked(report, minimal_speed(kernel, params))
    if not 0.0 < sigma <= report.lambda_star * (1.0 + 1e-12):
        raise UsageError(
            f"decay rate {sigma!r} outside (0, {report.lambda_star!r}]")
    return g_function(_as_pair(kernel).a_plus, params, min(sigma, report.sigma_plus))


def left_rate(pair: KernelPair, params: Params, c: float) -> float:
    """Rate lambda_left at which theta - psi decays at -inf: the smallest
    positive root of the linearization at theta (module docstring)."""
    th, rb = theta(params), rho_bar(params)
    kp, kn = params.kappa_plus, params.kappa_nonlocal

    def g(y):   # +inf where a transform diverges
        val = c * y + kp * pair.a_plus.transform(-y) - rb
        if kn:
            val -= kn * th * pair.a_minus.transform(-y)
        return val if math.isfinite(val) else math.inf

    cap = min(pair.a_plus.sigma_left, pair.a_minus.sigma_left if kn else math.inf)
    # g(0) = -(kappa_plus - m) < 0 and g is convex (Q2): one crossing. The root
    # is about (rho_bar - kappa_plus)/c, below the ladder's first sample past c
    # of about 1e6: the scan starts at 0, and the root is polished to a
    # relative tolerance, down to the smallest float
    lo, hi = _first_sign_change(g, [0.0] + _strip_grid(cap), "left-rate-bracket",
                                "the left linearization", _STRIDE)
    return brentq(g, lo, hi, xtol=math.ulp(0.0), rtol=1e-14)


def mu_star(q: float, params: Params) -> float:
    """Critical rate of the exp_poly family at p=1: endpoint T equals m.

    Below it the endpoint still beats every interior point (class W); above
    it the minimizer moves inside (class V). Only defined for q > 2, where
    the endpoint T is finite.
    """
    if q <= 2:
        raise UsageError("mu_star needs q > 2; the endpoint T is -inf otherwise")

    def gap(mu):
        k = ExpPoly(1.0, q, mu)
        return t_function(k, params, mu) - params.m

    # the endpoint T must start above m: double the rate from 1e-3 up to 128,
    # one sample at a time, since nothing proves the gap crosses zero once
    lo, hi = _first_sign_change(lambda mu: -gap(mu), [1e-3 * 2.0 ** k for k in range(17)],
                                "mu-star-bracket", "m minus the endpoint T")
    root = brentq(gap, lo, hi, xtol=1e-12, rtol=1e-12)

    # the crossing is only meaningful if T(mu; mu) is decreasing through it
    samples = [gap(root * (1.0 + t)) for t in (-0.1, -0.03, 0.03, 0.1)]
    if not (samples[0] > samples[1] > 0.0 > samples[2] > samples[3]):
        raise NonConvergence("mu-star-monotone",
                             "endpoint T is not decreasing through the crossing",
                             {"samples": samples})
    return root


def mu_star_bracket(q: float, params: Params, mu: float) -> tuple:
    """A-priori interval the critical rate must land in, with the family
    normalizer evaluated at the given rate."""
    alpha = ExpPoly(1.0, q, mu).alpha
    shift = params.m * q / (params.kappa_plus * alpha * math.pi) * math.sin(2 * math.pi / q)
    lo = 2.0 * math.cos(math.pi / q) - shift
    hi = (4.0 + math.exp(-1.0)) * math.cos(math.pi / q) - shift
    return lo, hi
