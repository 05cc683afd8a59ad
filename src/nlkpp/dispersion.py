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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.optimize import brentq

from .errors import NonConvergence, NoWave, UsageError
from .kernels import ENDPOINT_RTOL, Kernel, KernelPair, Params, check_assumptions

_TIE_BAND = 1e-9            # |m - T(sigma)| below this counts as the equality case
_CSTAR_BAND = 1e-9          # |c - c_star| below this (relative) counts as minimal speed
_ENDPOINT_BLOWUP = 1e10     # partial integrals past this * kappa_plus mean T = -inf


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
        return {"lambda_star": self.lambda_star, "c_star": self.c_star,
                "kernel_class": self.kernel_class, "sigma_plus": self.sigma_plus,
                "t_at_sigma": self.t_at_sigma, "interval_kind": self.interval_kind,
                "m_xi": self.m_xi, "critical_equality": self.critical_equality}


@dataclass(frozen=True)
class CharacteristicRoot:
    lambda_c: float
    speed: float
    multiplicity: int

    def to_dict(self) -> dict:
        return {"lambda_c": self.lambda_c, "speed": self.speed,
                "multiplicity": self.multiplicity}


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


def speed_lower_diagnostic(kernel: Kernel, params: Params, lam: float) -> float:
    """kappa_plus*(A(lam) - 1)/lam, a crude floor under G used as a diagnostic."""
    if lam <= 0:
        raise UsageError("lambda must be positive")
    a = kernel.transform(lam)
    return params.kappa_plus * (a - 1.0) / lam if math.isfinite(a) else math.inf


def _classify(kernel: Kernel, params: Params):
    """(class, t_at_sigma, interval_kind). t_at_sigma is nan when sigma is
    infinite or the transform diverges there."""
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


def _bracket_h_root(kernel: Kernel, params: Params, sig: float):
    """Sign-change bracket for H on the strip; H(0+) = m - kappa_plus < 0."""
    def H(lam):
        return h_function(kernel, params, lam)

    if math.isfinite(sig):
        fracs = [1e-6, 1e-4, 1e-3, 0.01, 0.05, 0.1, 0.2, 0.3, 0.5] + \
            [1.0 - 2.0 ** (-k) for k in range(1, 46)]
        grid = [f * sig for f in fracs] + [sig]
    else:
        grid, lam = [], 1e-6
        while lam <= 1e4:
            grid.append(lam)
            lam *= 1.5
    prev_lam, prev_val = None, None
    for lam in grid:
        val = H(lam)
        if math.isnan(val):
            break
        if val > 0.0:
            if prev_lam is None:
                raise NonConvergence(
                    "lambda-star-bracket",
                    f"H already positive at smallest sample {lam:.3e}")
            return prev_lam, lam
        prev_lam, prev_val = lam, val
    raise NonConvergence(
        "lambda-star-bracket",
        "no sign change of the stationarity numerator up to the scan cap",
        {"last_lambda": prev_lam, "last_value": prev_val})


def minimal_speed(kernel, params: Params) -> DispersionReport:
    """Minimizer of G over the strip and the speed there.

    Class V: bracket the zero of H on a geometric grid and polish with a
    bracketed root solve to 1e-12 relative; cross-check the stationarity
    identity c_star = kappa_plus*A'(lambda_star). Class W: the endpoint is
    the minimizer once H < 0 is confirmed on interior samples.
    """
    pair = _as_pair(kernel)
    check_assumptions(pair, params).require(["Q1", "Q2", "Q3", "Q4", "Q5", "Q6"])
    k = pair.a_plus
    kp, m = params.kappa_plus, params.m
    sig = k.sigma_right
    cls, t_end, interval_kind = _classify(k, params)
    tie = math.isfinite(t_end) and abs(m - t_end) <= _TIE_BAND * max(m, 1.0)

    if cls == "W":
        lam_star = sig
        c_star = (kp * k.transform(sig) - m) / sig
        for j in range(1, 17):
            lam = sig * (1.0 - 2.0 ** (-j))
            if h_function(k, params, lam) >= 1e-10 * m:
                raise NonConvergence(
                    "w-endpoint-cert",
                    f"H not negative at {lam:.6g}; endpoint is not the minimizer")
    else:
        lo, hi = _bracket_h_root(k, params, sig)
        lam_star = brentq(lambda lam: h_function(k, params, lam), lo, hi,
                          xtol=1e-15, rtol=1e-12)
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


def root_multiplicity(kernel, params: Params, c: float,
                      report: DispersionReport | None = None) -> int:
    """Order of the characteristic root: 1 off the minimal speed, 2 at the
    minimal speed except in class W away from the equality case."""
    pair = _as_pair(kernel)
    report = report or minimal_speed(pair, params)
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
    d2 = pair.a_plus.transform_deriv(report.sigma_plus, 2)
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
    pair = _as_pair(kernel)
    report = report or minimal_speed(pair, params)
    k = pair.a_plus
    c_star, lam_star = report.c_star, report.lambda_star
    if c < c_star * (1.0 - 1e-12) - 1e-12:
        raise NoWave(f"no wave with speed {c!r} < c_star = {c_star!r}")
    if abs(c - c_star) <= _CSTAR_BAND * max(1.0, abs(c_star)):
        j = root_multiplicity(pair, params, c_star, report)
        return CharacteristicRoot(lam_star, c, j)

    # h(0+) = kappa_plus - m > 0 and h(lambda_star) = lambda_star (c_star - c) < 0
    lo = min(1e-12, 1e-6 * lam_star)
    lam_c = brentq(lambda lam: characteristic(k, params, c, lam), lo, lam_star,
                   xtol=1e-15, rtol=1e-12)
    return CharacteristicRoot(lam_c, c, 1)


def abscissa_to_speed(kernel, params: Params, sigma: float,
                      report: DispersionReport | None = None) -> float:
    """G(sigma) for sigma in (0, lambda_star]: the speed whose wave decays
    at rate sigma."""
    pair = _as_pair(kernel)
    report = report or minimal_speed(pair, params)
    if not 0.0 < sigma <= report.lambda_star * (1.0 + 1e-12):
        raise UsageError(
            f"decay rate {sigma!r} outside (0, {report.lambda_star!r}]")
    return g_function(pair.a_plus, params, min(sigma, report.sigma_plus))


def mu_star(q: float, params: Params) -> float:
    """Critical rate of the exp_poly family at p=1: endpoint T equals m.

    Below it the endpoint still beats every interior point (class W); above
    it the minimizer moves inside (class V). Only defined for q > 2, where
    the endpoint T is finite.
    """
    if q <= 2:
        raise UsageError("mu_star needs q > 2; the endpoint T is -inf otherwise")
    from .kernels import ExpPoly

    def gap(mu):
        k = ExpPoly(1.0, q, mu)
        return t_function(k, params, mu) - params.m

    lo = None
    mu, cap = 1e-3, 128.0
    while mu <= cap:
        g = gap(mu)
        if g <= 0.0:
            if lo is None:
                raise NonConvergence("mu-star-bracket",
                                     f"endpoint T already below m at mu={mu}")
            hi = mu
            break
        lo, mu = mu, mu * 2.0
    else:
        raise NonConvergence("mu-star-bracket",
                             "endpoint T never crossed m up to the scan cap")
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
    from .kernels import ExpPoly
    alpha = ExpPoly(1.0, q, mu).alpha
    shift = params.m * q / (params.kappa_plus * alpha * math.pi) * math.sin(2 * math.pi / q)
    lo = 2.0 * math.cos(math.pi / q) - shift
    hi = (4.0 + math.exp(-1.0)) * math.cos(math.pi / q) - shift
    return lo, hi
