"""Transform engine: quadrature values, divergence verdicts, the classical
identities, and the decay envelope."""

import math

import numpy as np
import pytest
from scipy import integrate

from nlkpp.errors import UsageError
from nlkpp.kernels import ExpPoly, Gaussian, Laplace, Uniform
from nlkpp.laplace import abscissa, bilateral_laplace, decay_envelope


def test_two_sided_exponential_closed_form():
    ev = bilateral_laplace(Laplace(1.0), 0.5)
    assert ev.status == "converged"
    assert abs(ev.value - 4.0 / 3.0) < 1e-12


def test_two_sided_exponential_diverges_past_abscissa():
    ev = bilateral_laplace(Laplace(1.0), 1.5)
    assert ev.status == "diverged"


def test_kernel_verdict_is_finiteness_of_its_transform():
    # no band around the abscissa: just past it the exp_poly transform is
    # infinite, just below it the Laplace one is finite
    ev = bilateral_laplace(ExpPoly(1.0, 3.0, 0.7), 0.7 * (1 + 1e-13))
    assert ev.status == "diverged"
    ev = bilateral_laplace(Laplace(0.7), 0.7 * (1 - 1e-13))
    assert ev.status == "converged"
    assert math.isfinite(ev.value)


def test_callable_matches_closed_form():
    ev = bilateral_laplace(lambda s: 0.5 * math.exp(-abs(s)), 0.5)
    assert ev.status == "converged"
    assert abs(ev.value - 4.0 / 3.0) < 1e-7


def test_callable_divergence_detected():
    ev = bilateral_laplace(lambda s: 0.5 * math.exp(-abs(s)), 1.5)
    assert ev.status != "converged"


def test_rejects_nonpositive_argument():
    with pytest.raises(UsageError):
        bilateral_laplace(Laplace(1.0), 0.0)
    with pytest.raises(UsageError):
        bilateral_laplace(Laplace(1.0), -1.0)


def test_l6_limit_indicator():
    # (Lf)(lam) -> int f as lam -> 0+ along lam = 2^-k
    f = lambda s: 1.0 if 0.0 <= s <= 1.0 else 0.0
    vals = [bilateral_laplace(f, 2.0 ** -k, support=(0.0, 1.0)).value
            for k in range(1, 12)]
    errs = [abs(v - 1.0) for v in vals]
    assert errs[-1] < 1e-3
    assert all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))


def test_l7_left_limit_at_abscissa():
    # q = 3 makes the endpoint transform finite; values from below converge to it
    k = ExpPoly(1.0, 3.0, 0.8)
    end = k.transform(0.8)
    assert math.isfinite(end)
    approach = [k.transform(0.8 * (1.0 - 2.0 ** -j)) for j in range(6, 16)]
    gaps = [abs(v - end) for v in approach]
    assert gaps[-1] < 1e-4 * end
    assert gaps[-1] < gaps[0]


def test_l4_derivative_identity():
    # (Lf')(lam) = -lam (Lf)(lam) + boundary terms; on half-line support with
    # f(0) = 1 the boundary contributes -f(0), so check on full-line smooth f
    # where no boundary term appears
    f = lambda s: math.exp(-s * s)
    fp = lambda s: -2.0 * s * math.exp(-s * s)
    for lam in (0.3, 0.7, 1.1):
        lhs = bilateral_laplace(fp, lam).value
        rhs = -lam * bilateral_laplace(f, lam).value
        assert abs(lhs - rhs) < 1e-5


def test_l5_convolution_identity():
    mu1, mu2 = 1.0, 2.0
    f = Laplace(mu1)
    g = Laplace(mu2)

    def conv(t):
        val, _ = integrate.quad(lambda s: f.pdf(t - s) * g.pdf(s),
                                -math.inf, math.inf, limit=400)
        return val

    for lam in (0.2, 0.5, 0.8):
        lhs = bilateral_laplace(conv, lam).value
        rhs = f.transform(lam) * g.transform(lam)
        assert abs(lhs - rhs) < 1e-6 * abs(rhs)


def test_l5_convolution_identity_grid_functions():
    # sampled grid functions, transform by direct sums
    h = 0.01
    s = np.arange(-30.0, 30.0 + 1e-9, h)
    f = 0.5 * np.exp(-np.abs(s))
    g = np.where(np.abs(s) <= 1.0, 0.5, 0.0)
    fg = np.convolve(f, g, mode="same") * h
    for lam in (0.2, 0.5):
        w = np.exp(lam * s)
        lhs = np.sum(fg * w) * h
        rhs = (np.sum(f * w) * h) * (np.sum(g * w) * h)
        assert abs(lhs - rhs) < 1e-5 * abs(rhs)


def test_abscissa_closed_forms():
    assert abscissa(Laplace(0.7)).value == 0.7
    assert abscissa(ExpPoly(1.0, 3.0, 0.7)).value == 0.7
    assert abscissa(Gaussian(1.0)).value == math.inf
    assert abscissa(Uniform(-1.0, 1.0)).value == math.inf
    assert abscissa(Laplace(0.7)).kind == "closed-form"


def test_abscissa_numeric_bracket():
    est = abscissa(lambda s: 0.5 * math.exp(-abs(s)))
    assert est.kind == "bracketed-numeric"
    lo, hi = est.bracket
    assert lo <= 1.0 <= hi * (1.0 + 1e-6)
    assert abs(est.value - 1.0) < 0.05


def test_abscissa_square_doubles():
    # sigma(f^2) >= 2 sigma(f)
    f = lambda s: 0.5 * math.exp(-abs(s))
    f2 = lambda s: f(s) ** 2
    est = abscissa(f)
    est2 = abscissa(f2)
    assert est2.bracket[1] >= 2.0 * est.bracket[0] * (1.0 - 1e-6)
    assert abs(est2.value - 2.0 * est.value) < 0.2


def test_transform_monotone_for_right_supported():
    f = lambda s: math.exp(-2.0 * s) if s >= 0 else 0.0
    vals = [bilateral_laplace(f, lam, support=(0.0, math.inf)).value
            for lam in np.linspace(0.1, 1.5, 8)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_decay_envelope_bounds_pointwise():
    f = lambda s: min(1.0, math.exp(-s))
    lam = 0.5
    C = decay_envelope(f, lam)
    for s in np.linspace(0.0, 20.0, 81):
        assert f(s) <= C * math.exp(-lam * s) * (1.0 + 1e-9)


def test_decay_envelope_indicator():
    # f = 1 on (-inf, 0]: (Lf)(1) over [0, inf) support is... f restricted
    # to [0, inf) is the point mass of the jump; use the documented example
    f = lambda s: 1.0 if s <= 0 else 0.0
    C = decay_envelope(f, 1.0, support=(-5.0, math.inf))
    want = math.e / (math.e - 1.0) * bilateral_laplace(f, 1.0, (-5.0, 0.0)).value
    assert abs(C - want) < 1e-6
    assert f(0.0) <= C  # slack at the jump


def test_decay_envelope_rejects_rate_outside_strip():
    with pytest.raises(UsageError):
        decay_envelope(Laplace(1.0), 1.5)
    with pytest.raises(UsageError):
        decay_envelope(Laplace(1.0), -0.5)
