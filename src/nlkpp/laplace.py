"""Bilateral Laplace transforms of decaying functions.

The kernel classes carry closed forms and exact abscissas; this module is
the generic fallback for plain callables, plus the pointwise decay bound
derived from a transform value. Divergence cannot be proven by quadrature,
so the verdict is three-valued: converged, diverged (partial integrals blow
past a reference scale or the windowed increments grow), or borderline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy import integrate

from .errors import UsageError

QUAD_ABS = 1e-10
QUAD_REL = 1e-8
_GUARD_FACTOR = 1e12
_MAX_WINDOWS = 60


@dataclass(frozen=True)
class LaplaceEval:
    value: float
    lam: float
    status: str  # "converged" | "diverged" | "borderline"


@dataclass(frozen=True)
class AbscissaEstimate:
    value: float
    kind: str  # "closed-form" | "bracketed-numeric" | "table-truncated"
    bracket: tuple | None = None


def _weighted(f, lam):
    """f(s) e^{lam s} evaluated through logs so the weight alone cannot
    overflow where f is already negligible."""

    def g(s):
        t = f(s)
        if t == 0.0 or not math.isfinite(t):
            return 0.0 if t == 0.0 else math.copysign(1e308, t)
        r = math.log(abs(t)) + lam * s
        if r > 700.0:
            return math.copysign(1e308, t)
        if r < -745.0:
            return 0.0
        return math.copysign(math.exp(r), t)

    return g


def _window_edges():
    yield 0.0, 1.0
    hi = 1.0
    for _ in range(_MAX_WINDOWS):
        yield hi, 2.0 * hi
        hi *= 2.0


def _scan(f, lam, support, guard=None):
    """Expanding-window quadrature of f e^{lam s}; positive side windowed,
    negative side in one shot (the weight only helps there for lam > 0)."""
    lo, hi = support
    g = _weighted(f, lam)
    total = 0.0
    if lo < 0.0:
        neg, _ = integrate.quad(g, lo, min(hi, 0.0), limit=400,
                                epsabs=QUAD_ABS, epsrel=QUAD_REL)
        total += neg
    if hi <= 0.0:
        return LaplaceEval(total, lam, "converged")

    calm = 0
    grew = 0
    edge_prev = math.inf
    for a, b in _window_edges():
        a = max(a, lo)
        b = min(b, hi)
        if b <= a:
            break
        inc, _ = integrate.quad(g, a, b, limit=200, epsabs=QUAD_ABS, epsrel=QUAD_REL)
        total += inc
        if not math.isfinite(total) or (guard is not None and abs(total) > guard):
            return LaplaceEval(math.inf, lam, "diverged")
        # a convergent tail has weighted edge values falling off; rising
        # values on two windows past the first few mean lam*s + log f(s)
        # climbs (increments alone mislead here: doubling window lengths
        # outgrow a slow decay for a while even when the integral is finite)
        edge = abs(g(b))
        if edge > edge_prev and a >= 4.0:
            grew += 1
            if grew >= 2:
                return LaplaceEval(math.inf, lam, "diverged")
        elif edge < edge_prev:
            grew = 0
        edge_prev = edge
        if abs(inc) < QUAD_ABS + QUAD_REL * abs(total):
            calm += 1
            if calm >= 2:
                return LaplaceEval(total, lam, "converged")
        else:
            calm = 0
        if b >= hi:
            return LaplaceEval(total, lam, "converged")
    return LaplaceEval(total, lam, "borderline")


def bilateral_laplace(f, lam: float, support=(-math.inf, math.inf)) -> LaplaceEval:
    """int f(s) e^{lam s} ds for lam > 0, with a convergence verdict.

    Kernel objects answer from their own transform, converged exactly when
    it is finite (the kernel decides where its strip ends); plain callables go
    through the windowed scan, guarded against runaway partial sums by the
    value at lam/2 (finite there whenever lam is inside the strip, and the
    blowup scale when it is not).
    """
    if lam <= 0:
        raise UsageError("transform argument must be positive")
    if hasattr(f, "sigma_right"):
        v = f.transform(lam)
        return LaplaceEval(v, lam, "converged" if math.isfinite(v) else "diverged")
    ref = _scan(f, lam / 2.0, support, guard=None)
    guard = _GUARD_FACTOR * max(abs(ref.value), 1e-30)
    return _scan(f, lam, support, guard=guard)


def abscissa(f, support=(-math.inf, math.inf)) -> AbscissaEstimate:
    """Abscissa of convergence of the right transform.

    Closed-form for kernel objects, except tabulated grids: their compact
    support makes every transform finite, but that says nothing about what
    the table was sampled from, so the estimate is labeled rather than
    passed off as exact.
    """
    if hasattr(f, "sigma_right"):
        kind = "table-truncated" if getattr(f, "family", "") == "tabulated" else "closed-form"
        return AbscissaEstimate(f.sigma_right, kind)

    def diverges(lam):
        return bilateral_laplace(f, lam, support).status != "converged"

    lam = 1.0
    if diverges(lam):
        hi = lam
        while lam > 1e-8:
            lam /= 2.0
            if not diverges(lam):
                break
        else:
            return AbscissaEstimate(0.0, "bracketed-numeric", (0.0, 1e-8))
        lo = lam
    else:
        lo = lam
        while lam < 1e6:
            lam *= 2.0
            if diverges(lam):
                break
        else:
            return AbscissaEstimate(math.inf, "bracketed-numeric", (1e6, math.inf))
        hi = lam

    while hi / lo > 1.0 + 1e-6:
        mid = math.sqrt(lo * hi)
        if diverges(mid):
            hi = mid
        else:
            lo = mid
    return AbscissaEstimate(math.sqrt(lo * hi), "bracketed-numeric", (lo, hi))


def decay_envelope(f, lam: float, support=(0.0, math.inf)) -> float:
    """Constant C with f(s) <= C e^{-lam s} for nonincreasing f >= 0 on [0, inf).

    Comes from bounding f on [s, s+1] by its average against the weight:
    C = lam e^lam / (e^lam - 1) * (Lf)(lam). Valid strictly inside the strip.
    """
    sig = abscissa(f, support).value
    if not 0.0 < lam < sig:
        raise UsageError(f"envelope rate {lam} outside (0, {sig})")
    ev = bilateral_laplace(f, lam, support)
    if ev.status != "converged":
        raise UsageError(f"transform did not converge at {lam}")
    return lam * math.exp(lam) / math.expm1(lam) * ev.value
