"""Bilateral Laplace transforms of decaying functions.

Kernel objects carry closed forms and exact abscissas; this module is the
fallback for plain callables, plus the pointwise decay bound derived from a
transform value. A plain callable is read once per support piece, cut at 0
and at the support's ends: a half-line on Mori's map s = exp(t - e^{-t})
(Mori & Sugihara 2001), a finite piece on tanh-sinh nodes. f counts as 0
below the normal floating-point range; a transform is the log-space node
sum. The abscissa comes from the sampled tail (Widder, *The Laplace
Transform*, ch. II): fits of log|f| = c + b log s - sigma s over the last
nonzero nodes and the window's halves. The verdict is "diverged" above the
fits' bracket, or inside it unless b < -1; "borderline" where the sum's
error estimate (its change at twice the step, plus the fitted tails past
the last nonzero nodes) is more than _REL_TOL of it; else "converged".
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import UsageError

_H = 1.0 / 32.0
_T = np.arange(-144, 225) * _H                      # t in [-4.5, 7]
# Mori's map onto (0, inf): 369 nodes from 9e-42 to 1,096, and the logs of
# their weights h ds/dt, public so a kernel quadrature can share them
NODES = np.exp(_T - np.exp(-_T))
LOG_WEIGHTS = np.log(_H * NODES * (1.0 + np.exp(-_T)))
# tanh-sinh on [0, 1], t in [-3.5, 3.5]: each node's distance to its nearer
# end (so no digits cancel there), and the log weights
_TS_T = np.arange(-112, 113) * _H
_TS_U = 0.5 * math.pi * np.sinh(_TS_T)
_TS_EDGE = 1.0 / (1.0 + np.exp(2.0 * np.abs(_TS_U)))
_TS_LOG_WEIGHTS = np.log(_H * 0.25 * math.pi * np.cosh(_TS_T) / np.cosh(_TS_U) ** 2)

_LOG_TINY = math.log(sys.float_info.min)
_MIN_FIT = 8          # nonzero nodes a tail window needs
_REL_TOL = 1e-10      # error estimate of a sum, relative to it, above which: borderline
_BRACKET_REL = 1e-9   # the fits' bracket is widened by this, their roundoff on an exponential


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


# what the fits say of a tail: sigma and its bracket, the last nonzero node
# (inf where nothing lies past the read) and the upper half's fit (c, b, rate)
_Tail = namedtuple("_Tail", "sigma bracket end fit", defaults=(math.inf, (0.0, 0.0, 0.0)))
_NO_TAIL = _Tail(math.inf, (math.inf, math.inf))


def _pieces(lo, hi):
    """(a, b, nodes, log weights) of each piece of [lo, hi] cut at 0."""
    cuts = [lo, 0.0, hi] if lo < 0.0 < hi else [lo, hi]
    for a, b in zip(cuts, cuts[1:]):
        if a == -math.inf:
            yield a, b, b - NODES, LOG_WEIGHTS
        elif b == math.inf:
            yield a, b, a + NODES, LOG_WEIGHTS
        elif a < b:
            s = np.where(_TS_T < 0.0, a + (b - a) * _TS_EDGE, b - (b - a) * _TS_EDGE)
            yield a, b, s, _TS_LOG_WEIGHTS + math.log(b - a)


def _read(f, s):
    """f at the nodes, 0 where |f| is below the normal range."""
    y = np.array([f(float(x)) for x in s], dtype=float)
    y[np.abs(y) < sys.float_info.min] = 0.0
    return y


def _weighted_sums(y, s, log_w, lam):
    """The node sum of w f e^{lam s}, each term formed in log space, and the
    same rule at twice the step, every other node at twice the weight. The
    two differ where the rule cannot resolve f."""
    with np.errstate(over="ignore", divide="ignore"):
        terms = np.copysign(np.exp(np.log(np.abs(y)) + lam * s + log_w), y)
    return float(np.sum(terms)), 2.0 * float(np.sum(terms[::2]))


def _fit(x, y):
    """(c, b, r) of the least-squares fit y = c + b log x - r x (the tail
    fits here and the profile's), centered normal equations in closed form."""
    u, v = np.log(x), -x
    du, dv, dy = u - u.mean(), v - v.mean(), y - y.mean()
    suu, svv, suv = (du * du).sum(), (dv * dv).sum(), (du * dv).sum()
    suy, svy, det = (du * dy).sum(), (dv * dy).sum(), suu * svv - suv * suv
    b, r = (svv * suy - suv * svy) / det, (suu * svy - suv * suy) / det
    return float(y.mean() - b * u.mean() - r * v.mean()), float(b), float(r)


def _fit_line(u, y):
    """(c, b, rss, suu) of the least-squares line y = c + b u, solved as in
    _fit; rss sums the squared residuals, so a close fit keeps its digits,
    and sqrt(rss / (n - 2) / suu) is the slope's standard error."""
    du, dy = u - u.mean(), y - y.mean()
    suu = float((du * du).sum())
    b = float((du * dy).sum()) / suu
    r = dy - b * du
    return float(y.mean() - b * u.mean()), b, float((r * r).sum()), suu


def _tail(s, y):
    """The fits over the tail that the nodes s (increasing, > 0) sample with
    values y, on a window from min(s_end^(2/3), s_end/2) and of at least
    _MIN_FIT nodes. sigma is infinite where f stops at a node where the
    upper half's fit is still e or more above the underflow (a support
    bounded there; the sums at two steps see where), or where that half's
    rate passes the lower half's by 1% (decay faster than exponential)."""
    nz = np.flatnonzero(y)
    if nz.size == 0:
        return _NO_TAIL
    if not np.isfinite(y[nz]).all():
        return _Tail(0.0, (0.0, 0.0))
    end = int(nz[-1])
    first = min(np.searchsorted(s, min(s[end] ** (2.0 / 3.0), 0.5 * s[end])), end - _MIN_FIT + 1)
    idx = nz[nz >= first]
    if idx.size < _MIN_FIT:
        return _NO_TAIL
    x, logs, half = s[idx], np.log(np.abs(y[idx])), idx.size // 2
    fits = [_fit(x[part], logs[part])
            for part in (slice(None), slice(None, half), slice(half, None))]
    sigma, rate_lo, (c, b, rate) = fits[0][2], fits[1][2], fits[2]
    if end + 1 < s.size and c + b * math.log(s[end + 1]) - rate * s[end + 1] > _LOG_TINY + 1.0:
        return _NO_TAIL
    if rate - rate_lo > 0.01 * max(abs(rate_lo), 1.0 / s[end]):
        return _Tail(math.inf, (math.inf, math.inf), float(s[end]), (c, b, rate))
    lo, hi = min(sigma, rate_lo, rate), max(sigma, rate_lo, rate)
    bracket = (max(lo - _BRACKET_REL * abs(lo), 0.0), max(hi + _BRACKET_REL * abs(hi), 0.0))
    return _Tail(max(sigma, 0.0), bracket, float(s[end]), (c, b, rate))


def _past_end(tail, lam):
    """Bound on int |f| e^{lam s} past s_end under the fit e^c s^b e^{-r s}:
    with k = r - lam, its value at s_end over max(k - max(b, 0)/s_end,
    (-b - 1)/s_end if k >= 0), or inf where that is not positive."""
    x = tail.end
    if x == math.inf:
        return 0.0
    c, b, r = tail.fit
    k = r - lam
    d = max(k - max(b, 0.0) / x, (-b - 1.0) / x if k >= 0.0 else -math.inf)
    return math.exp(min(c + b * math.log(x) - k * x - math.log(d), 709.0)) if d > 0.0 else math.inf


def bilateral_laplace(f, lam: float, support=(-math.inf, math.inf)) -> LaplaceEval:
    """int f(s) e^{lam s} ds for lam > 0, with a convergence verdict.

    Kernel objects answer from their own transform, converged exactly when
    it is finite (the kernel decides where its strip ends); a plain
    callable is the node sum, with the verdict of the module docstring.
    """
    if lam <= 0:
        raise UsageError("transform argument must be positive")
    if hasattr(f, "sigma_right"):
        v = f.transform(lam)
        return LaplaceEval(v, lam, "converged" if math.isfinite(v) else "diverged")
    total, coarse, past, right = 0.0, 0.0, 0.0, _NO_TAIL
    for a, b, s, log_w in _pieces(*support):
        y = _read(f, s)
        fine, wide = _weighted_sums(y, s, log_w, lam)
        total, coarse = total + fine, coarse + wide
        if a == -math.inf:
            past += _past_end(_tail(-s, y), -lam)
        elif b == math.inf:
            right = _tail(s, y)
    lo, hi = right.bracket
    if not math.isfinite(total) or lam > hi or (lam >= lo and right.fit[1] >= -1.0):
        return LaplaceEval(math.inf, lam, "diverged")
    err = abs(total - coarse) + past + _past_end(right, lam)
    return LaplaceEval(total, lam, "borderline" if err > _REL_TOL * abs(total) else "converged")


def abscissa(f, support=(-math.inf, math.inf)) -> AbscissaEstimate:
    """Abscissa of convergence of the right transform.

    Closed-form for kernel objects, except tabulated grids: their compact
    support makes every transform finite, but that says nothing about what
    the table was sampled from, so the estimate is labeled rather than
    passed off as exact. A plain callable's is its right tail's fitted
    rate and bracket (infinite for a support bounded on the right), read
    at the table's own nodes past the support's start, so that a support
    starting later reads the same tail, while half the table lies past it
    (up to s = 2.6); past that, on the table shifted to the start.
    """
    if hasattr(f, "sigma_right"):
        kind = "table-truncated" if getattr(f, "family", "") == "tabulated" else "closed-form"
        return AbscissaEstimate(f.sigma_right, kind)
    lo, hi = support
    s = NODES[NODES > lo]
    if s.size < NODES.size // 2:
        s = lo + NODES
    tail = _tail(s, _read(f, s)) if hi == math.inf else _NO_TAIL
    return AbscissaEstimate(tail.sigma, "bracketed-numeric", tail.bracket)


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
