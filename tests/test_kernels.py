"""Kernel families, parameter checks, projections, and the assumption report."""

import dataclasses
import json
import math
import struct

import mpmath
import numpy as np
from hypothesis import given, settings, strategies as st
from scipy import integrate
import pytest

from nlkpp import kernels
from nlkpp.errors import AssumptionFailure, UsageError
from nlkpp.kernels import (QUAD_ABS, QUAD_REL, ExpPoly, Gaussian, Kernel, KernelPair,
                           Laplace, Params, RadialExpMarginal, Tabulated, Truncated, Uniform,
                           check_assumptions, j_theta,
                           kernel_from_dict, load_problem, params_from_dict,
                           project_to_direction, theta)

LK1 = Params(2.0, 1.0, 1.0, 0.0)

FAMILIES = [
    Laplace(1.0),
    Laplace(0.7),
    Gaussian(1.0),
    Uniform(-1.0, 1.0),
    Uniform(-0.5, 2.0),
    ExpPoly(1.0, 3.0, 0.8),
    ExpPoly(2.0, 0.0, 1.0),
    ExpPoly(0.5, 0.0, 1.0),
    RadialExpMarginal(1.0, 2),
]


# ---------------------------------------------------------------------------
# parameters and theta

def test_params_validation():
    with pytest.raises(UsageError):
        Params(0.0, 1.0)
    with pytest.raises(UsageError):
        Params(2.0, -1.0)
    with pytest.raises(UsageError):
        Params(2.0, 1.0, -0.1, 0.0)
    with pytest.raises(UsageError):
        Params(2.0, 1.0, 0.0, 0.0)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("make", [
    lambda: Params(2.0, 1.0, kappa_local=NAN),
    lambda: Params(INF, 1.0),
    lambda: Params(2.0, NAN),
    lambda: Params(2.0, 1.0, 1.0, INF),
    lambda: Laplace(NAN),
    lambda: Laplace(INF),
    lambda: Gaussian(INF),
    lambda: Uniform(-INF, 1.0),
    lambda: Uniform(-1.0, NAN),
    lambda: ExpPoly(1.0, NAN, 1.0),
    lambda: ExpPoly(NAN, 0.0, 1.0),
    lambda: Tabulated(0.0, NAN, (0.5, 0.5)),
    lambda: Tabulated(NAN, 1.0, (0.5, 0.5)),
    lambda: Tabulated(0.0, 1.0, (NAN, 1.0)),
    lambda: Truncated(Laplace(1.0), INF),
    lambda: Truncated(Laplace(1.0), NAN),
    lambda: RadialExpMarginal(INF, 2)],
    ids=["kappa_local-nan", "kappa_plus-inf", "m-nan", "kappa_nonlocal-inf",
         "laplace-nan", "laplace-inf", "gaussian-inf", "uniform-lo-inf",
         "uniform-hi-nan", "exp_poly-q-nan", "exp_poly-p-nan", "tabulated-step-nan",
         "tabulated-start-nan", "tabulated-value-nan", "truncated-inf",
         "truncated-nan", "radial-inf"])
def test_non_finite_inputs_refused(make):
    with pytest.raises(UsageError, match="finite"):
        make()


def test_theta_value_and_rejection():
    assert theta(LK1) == 1.0
    assert theta(Params(3.0, 1.0, 1.0, 1.0)) == 1.0
    with pytest.raises(AssumptionFailure) as err:
        theta(Params(1.0, 1.0))
    assert err.value.label == "Q1"


# ---------------------------------------------------------------------------
# family basics

@pytest.mark.parametrize("k", FAMILIES, ids=lambda k: repr(k))
def test_unit_mass(k):
    r = k.support_radius(1e-17)
    mass, _ = integrate.quad(lambda s: float(k.pdf(s)), -r, r,
                             points=[0.0], limit=400)
    assert abs(mass - k.mass) < 1e-7


@pytest.mark.parametrize("k", FAMILIES, ids=lambda k: repr(k))
def test_pdf_nonnegative(k):
    rng = np.random.default_rng(7)
    s = rng.uniform(-3 * k.support_radius(1e-6), 3 * k.support_radius(1e-6), 500)
    assert np.all(np.asarray(k.pdf(s)) >= 0.0)


@pytest.mark.parametrize("k", [f for f in FAMILIES if f.sigma_right > 0],
                         ids=lambda k: repr(k))
def test_transform_at_zero_is_mass(k):
    assert abs(k.transform(1e-14) - k.mass) < 1e-9


@pytest.mark.parametrize("k", [f for f in FAMILIES if f.reflected() == f],
                         ids=lambda k: repr(k))
def test_symmetric_pdf(k):
    s = np.linspace(0.1, 4.0, 37)
    assert np.allclose(k.pdf(s), k.pdf(-s), rtol=1e-13, atol=0.0)


def _up(x):
    return math.nextafter(x, math.inf)


def _down(x):
    return math.nextafter(x, -math.inf)


_TABLE = Tabulated(-1.0, 0.5, (0.2, 0.6, 0.8, 0.4))
_CELL_EDGES = [-1.25, -0.75, -0.25, 0.25, 0.75]

# (kernel, points beyond the common ones, whether a one-element array gives
# the float's bits too): ExpPoly's array code raises a numpy scalar to its
# powers for a float, with C's pow, and a longer array with numpy's vector
# power, which differs from pow in the last bit on a few percent of arguments
FLOAT_PATH = [
    (Laplace(0.7), [1e4 / 0.7], True),
    (Gaussian(1.0), [40.0], True),
    (Uniform(-0.5, 2.0), [-0.5, 2.0, _down(-0.5), _up(-0.5), _down(2.0), _up(2.0)], True),
    (ExpPoly(1.3, 3.6, 0.8), [1e4 / 0.8, 1e200], False),
    (_TABLE, _CELL_EDGES + [f(e) for e in _CELL_EDGES for f in (_up, _down)], True),
    (Truncated(Laplace(1.0), 0.5), [0.5, _up(0.5), _down(0.5)], True),
    (RadialExpMarginal(1.3, 3), [1e4 / 1.3], True),
]


@pytest.mark.parametrize("k,points,vector_bits", FLOAT_PATH,
                         ids=[k.family for k, _, _ in FLOAT_PATH])
def test_pdf_float_path(k, points, vector_bits):
    # quadrature calls pdf with one float per abscissa: a float comes back,
    # with the bits the array code gives the same value as a 0-d array
    for x in [0.0, -0.0, 0.3, -0.61, 1.7, -2.9, np.float64(0.45)] + points:
        got = k.pdf(x)
        assert type(got) is float, x
        with np.errstate(over="ignore"):
            assert repr(got) == repr(float(k.pdf(np.asarray(x)))), x
        if vector_bits:
            assert repr(got) == repr(float(k.pdf(np.array([x]))[0])), x


@pytest.mark.parametrize("k", FAMILIES + [Tabulated(-1.0, 0.5, (0.2, 0.6, 0.8, 0.4)),
                                            Truncated(Gaussian(1.0), 0.5)],
                         ids=lambda k: repr(k))
def test_transform_is_order_zero(k):
    # one closed form per family: transform reads it, it is not restated
    sig = min(k.sigma_right, 2.0)
    for z in (-0.6 * sig, -0.1 * sig, 0.0, 0.3 * sig, 0.9 * sig, 1.5 * sig):
        assert k.transform(z) == k.transform_deriv(z, 0)


CLOSED_FORMS = [(Laplace(0.7), 0), (Laplace(0.7), 1), (Laplace(0.7), 2),
                (Gaussian(0.7), 0), (Gaussian(0.7), 1), (Gaussian(0.7), 2),
                (RadialExpMarginal(1.0, 3), 0), (RadialExpMarginal(1.0, 3), 1),
                (RadialExpMarginal(1.0, 3), 2), (Uniform(-0.5, 2.0), 0)]


@pytest.mark.parametrize("k,order", CLOSED_FORMS,
                         ids=[f"{k.family}-{o}" for k, o in CLOSED_FORMS])
def test_closed_forms_match_quadrature(k, order):
    sig = min(k.sigma_right, 2.0)
    for z in (-0.5 * sig, 0.2 * sig, 0.7 * sig):
        exact = k.transform_deriv(z, order)
        assert abs(exact - Kernel.transform_deriv(k, z, order)) <= 1e-10 * abs(exact)


def test_laplace_closed_forms():
    k = Laplace(1.0)
    # transform mu^2/(mu^2 - z^2)
    assert abs(k.transform(0.5) - 4.0 / 3.0) < 1e-12
    assert k.transform(1.5) == math.inf
    assert k.sigma_right == 1.0
    assert abs(k.moment_first_abs() - 1.0) < 1e-12
    assert abs(k.pdf(0.0) - 0.5) < 1e-15


def test_transform_monotone_in_lambda():
    # e^{lam s} tilts mass rightward; for symmetric kernels A is increasing
    for k in (Laplace(1.0), Gaussian(1.0), Uniform(-1, 1)):
        lams = np.linspace(0.05, 0.9 * min(k.sigma_right, 3.0), 12)
        vals = [k.transform(l) for l in lams]
        assert all(b > a for a, b in zip(vals, vals[1:]))


def test_transform_deriv_matches_difference_quotient():
    rng = np.random.default_rng(3)
    for k in (Laplace(1.0), Gaussian(0.7), ExpPoly(1.0, 3.0, 0.8)):
        for lam in rng.uniform(0.05, 0.4, 4):
            eps = 1e-6
            fd = (k.transform(lam + eps) - k.transform(lam - eps)) / (2 * eps)
            assert abs(k.transform_deriv(lam, 1) - fd) < 1e-6 * max(1.0, abs(fd))


def test_exp_poly_sigma_by_p():
    assert ExpPoly(0.5, 0.0, 1.0).sigma_right == 0.0
    assert ExpPoly(1.0, 3.0, 0.7).sigma_right == 0.7
    assert ExpPoly(2.0, 0.0, 1.0).sigma_right == math.inf


def test_exp_poly_endpoint_transform_finite_iff_q_gt_1():
    assert math.isfinite(ExpPoly(1.0, 3.0, 0.5).transform(0.5))
    assert ExpPoly(1.0, 0.5, 0.5).transform(0.5) == math.inf
    # the transform is the order-0 derivative, endpoint included
    for q in (3.0, 0.5):
        k = ExpPoly(1.0, q, 0.5)
        for z in (0.5, -0.5):
            assert k.transform(z) == k.transform_deriv(z, 0)


def test_uniform_moments():
    k = Uniform(-1.0, 3.0)
    assert abs(k.moment_first() - 1.0) < 1e-12
    # int |s|/4 over [-1, 3] = (1/4)(1/2 + 9/2)
    assert abs(k.moment_first_abs() - 1.25) < 1e-12


def test_tabulated_matches_source():
    base = Laplace(1.0)
    grid = np.arange(-25.0, 25.0 + 1e-9, 0.01)
    vals = base.pdf(grid)
    vals = vals / (vals.sum() * 0.01)  # constructor insists on unit Riemann sum
    tab = Tabulated(-25.0, 0.01, tuple(vals))
    assert abs(tab.mass - 1.0) < 1e-4
    s = np.array([-3.3, -0.2, 0.0, 1.7])
    assert np.allclose(tab.pdf(s), base.pdf(s), atol=1e-4)
    assert abs(tab.transform(0.5) - base.transform(0.5)) < 1e-3


def test_truncated_mass_and_transform():
    # right-side cut only: the left tail is harmless for the abscissa
    k = Truncated(Laplace(1.0), 2.0)
    assert abs(k.mass - (1.0 - 0.5 * math.exp(-2.0))) < 1e-12
    assert math.isfinite(k.transform(10.0))
    assert k.sigma_right == math.inf
    assert np.all(k.pdf(np.array([2.1, 5.0])) == 0.0)
    assert k.pdf(-2.1) > 0.0
    assert abs(k.pdf(1.0) - 0.5 * math.exp(-1.0)) < 1e-15
    # the truncated transform is the base density's integral up to the cut,
    # finite past the base abscissa (z = 1.5 > 0.8 for the exp_poly base)
    cut = 1.5
    for base, lo in ((Gaussian(1.0), -math.inf), (ExpPoly(1.0, 3.0, 0.8), -math.inf),
                     (Uniform(-1.0, 2.0), -1.0)):
        tk = Truncated(base, cut)
        for z in (-0.3, 0.4, 1.5):
            def f(s):
                d = float(base.pdf(s))
                return d * math.exp(z * s) if d > 0.0 else 0.0
            pieces = [(lo, 0.0), (0.0, cut)] if lo < 0.0 else [(lo, cut)]
            direct = sum(integrate.quad(f, a, b, epsabs=0.0, epsrel=1e-12)[0]
                         for a, b in pieces)
            assert abs(tk.transform(z) - direct) <= 1e-9 * direct


def test_truncated_reads_its_base_through_transform_below():
    # no private quadrature plumbing of the base: its support, kinks and tilt
    for name in ("_tilted", "_support", "_breaks"):
        assert name not in vars(Truncated)


@pytest.mark.parametrize("R", [1.0, 1.5, 5.0])
def test_cut_of_a_cut_stops_at_the_inner_cutoff(R):
    inner = Truncated(Laplace(1.0), 1.0)
    outer = Truncated(inner, R)
    assert outer.mass == inner.mass
    assert outer.moment_first() == inner.moment_first()
    assert outer.moment_first_abs() == inner.moment_first_abs()
    for z in (-0.5, 0.0, 0.7, 3.0):
        for order in (0, 1, 2):
            assert outer.transform_deriv(z, order) == inner.transform_deriv(z, order)


def _normal_table(step):
    """N(-0.5, 1) sampled on [-6.5, 5.5], scaled to unit point sum."""
    g = np.arange(-6.5, 5.5 + step / 2, step)
    v = np.exp(-0.5 * (g + 0.5) ** 2)
    return Tabulated(float(g[0]), step, tuple(v / (v.sum() * step)))


@pytest.mark.parametrize("R", [-7.0, -0.5, 0.3, 0.325, 2.0, 5.5, 9.0])
def test_tabulated_cut_is_the_comb_below_the_cutoff(R):
    table = _normal_table(0.05)
    cut = Truncated(table, R)
    assert cut.mass == cut.transform(0.0) == table.cdf(R)
    g = table.grid_start + table.grid_step * np.arange(len(table.values))
    v = np.asarray(table.values) * (g <= R)
    for z in (-1.0, 0.5, 2.0):
        for order in (0, 1, 2):
            comb = table.grid_step * math.fsum(v * g ** order * np.exp(z * g))
            assert abs(cut.transform_deriv(z, order) - comb) <= 1e-13 * max(1.0, abs(comb))
    comb_abs = table.grid_step * math.fsum(v * np.abs(g))
    assert abs(cut.moment_first_abs() - comb_abs) <= 1e-13
    if R >= g[-1]:
        assert cut.transform(1.5) == table.transform(1.5)


def test_cut_of_a_base_with_zero_abscissa_keeps_its_moments():
    # sigma = 0 for p < 1, so the strip guard of the transform would call the
    # first moment divergent; at z = 0 the integral is a moment
    base = ExpPoly(0.5, 2.0, 1.0)
    cut = Truncated(base, 1.0)
    with mpmath.workdps(30):
        def part(*pts):
            return float(mpmath.quad(lambda s: s * base.alpha * mpmath.exp(-mpmath.sqrt(abs(s)))
                                     / (1 + s * s), pts))
        neg, pos = part(-mpmath.inf, -1, 0), part(0, 1)
    assert abs(cut.moment_first() - (neg + pos)) <= 1e-8 * abs(neg + pos)
    assert abs(cut.moment_first_abs() - (pos - neg)) <= 1e-8 * (pos - neg)


@pytest.mark.parametrize("k", [ExpPoly(0.5, 2.0, 1.0), ExpPoly(0.5, 0.0, 1.0),
                               Truncated(ExpPoly(0.5, 2.0, 1.0), 1.0)],
                         ids=lambda k: repr(k))
def test_transform_at_zero_is_mass_when_an_abscissa_is_zero(k):
    # each abscissa bounds its own side of the strip, so z = 0 is the mass
    # even where sigma = 0 leaves no strip around it
    assert abs(k.transform(0.0) - k.mass) <= 1e-12
    assert k.transform(-0.0) == k.transform(0.0)
    assert k.transform(-1e-9) == math.inf
    if k.sigma_right == 0.0:
        assert k.transform(1e-9) == math.inf
    else:
        assert math.isfinite(k.transform(1e-9))


def test_reflection_involution():
    k = Uniform(-0.5, 2.0)
    kr = k.reflected()
    s = np.linspace(-3, 3, 101)
    assert np.allclose(kr.pdf(s), k.pdf(-s))
    assert kr.sigma_right == k.sigma_left
    krr = kr.reflected()
    assert np.allclose(krr.pdf(s), k.pdf(s))


@pytest.mark.parametrize("order", [0, 1, 2])
def test_radial_marginal_transform_near_abscissa(order):
    # against mpmath at 50 digits, up to 1e-12 of the abscissa, where
    # forming w = 1 - z^2/mu^2 directly cancels to a few digits
    worst = 0.0
    with mpmath.workdps(50):
        for mu in (0.3, 1.0, 3.7):
            for d in (2, 5, 8):
                k = RadialExpMarginal(mu, d)
                m, e = mpmath.mpf(mu), -mpmath.mpf(d + 1) / 2
                for frac in (0.5, -0.9, 0.999, 1 - 1e-6, -(1 - 1e-9), 1 - 1e-12):
                    z = frac * mu
                    exact = mpmath.diff(lambda t: (1 - t * t / (m * m)) ** e,
                                        mpmath.mpf(z), order)
                    worst = max(worst, abs(k.transform_deriv(z, order) / exact - 1))
    assert worst <= 1e-13


@pytest.mark.parametrize("dim", [2.7, 3.5])
def test_radial_dim_must_be_an_integer(dim):
    with pytest.raises(UsageError):
        RadialExpMarginal(1.0, dim)
    with pytest.raises(UsageError):
        load_problem({"family": "radial_exp_marginal", "mu": 1.0, "dim": dim,
                      "params": {"kappa_plus": 2.0, "m": 1.0}})


def test_radial_dim_integral_float_is_that_integer():
    k = kernel_from_dict({"family": "radial_exp_marginal", "mu": 1.0, "dim": 3.0})
    assert k == RadialExpMarginal(1.0, 3) and type(k.dim) is int
    assert k.transform(0.5) == RadialExpMarginal(1.0, 3).transform(0.5)


def test_radial_marginal_integrates_to_one():
    k = RadialExpMarginal(1.0, 3)
    s = np.linspace(-60, 60, 400001)
    assert abs(np.trapezoid(k.pdf(s), s) - 1.0) < 1e-6
    assert k.sigma_right == 1.0


@pytest.mark.parametrize("d", [3, 4])
def test_radial_marginal_closed_form(d):
    mu = 0.7
    k = RadialExpMarginal(mu, d)
    # the marginal of mu^d Gamma(d/2) / (2 pi^{d/2} Gamma(d)) e^{-mu|x|} on
    # R^d, integrated over the (d-1)-dimensional slice |x_perp| = r
    norm = mu ** d * math.gamma(d / 2) / (2 * math.pi ** (d / 2) * math.gamma(d))
    surf = 2 * math.pi ** ((d - 1) / 2) / math.gamma((d - 1) / 2)
    for s in (0.0, 0.3, -1.0, 2.5, 5.0):
        radial, _ = integrate.quad(
            lambda r: r ** (d - 2) * math.exp(-mu * math.hypot(s, r)), 0, math.inf,
            epsabs=0.0, epsrel=1e-12, limit=200)
        assert abs(k.pdf(s) - norm * surf * radial) <= 1e-9 * k.pdf(s)
    for z in (-0.4, -0.1, 0.3):
        # the integrand is below e^{-60} of its peak beyond |s| = 200
        tilted = sum(integrate.quad(lambda s: k.pdf(s) * math.exp(z * s), lo, hi,
                                    epsabs=0.0, epsrel=1e-12, limit=200)[0]
                     for lo, hi in ((-200.0, 0.0), (0.0, 200.0)))
        assert abs(k.transform(z) - tilted) <= 1e-9 * tilted
    for order, f in ((1, k.transform), (2, k.transform_deriv)):
        fd = (f(0.3 + 1e-5) - f(0.3 - 1e-5)) / 2e-5
        assert abs(k.transform_deriv(0.3, order) - fd) <= 1e-8 * fd
    assert k.transform(mu) == math.inf and k.transform_deriv(-mu, 2) == math.inf


# ---------------------------------------------------------------------------
# projection to a direction

def test_project_1d_sign():
    k = Uniform(-0.5, 2.0)
    assert project_to_direction(k, [1.0]) is k
    kp = project_to_direction(k, [-1.0])
    assert np.allclose(kp.pdf(np.array([0.3])), k.pdf(np.array([-0.3])))


def test_project_product_axis():
    kx, ky = Laplace(1.0), Gaussian(1.0)
    got = project_to_direction({"kind": "product", "factors": [kx, ky]},
                               [0.0, 1.0])
    s = np.linspace(-2, 2, 41)
    assert np.allclose(got.pdf(s), ky.pdf(s))
    with pytest.raises(UsageError):
        project_to_direction({"kind": "product", "factors": [kx, ky]},
                             [math.sqrt(0.5), math.sqrt(0.5)])


def test_project_radial_gaussian():
    got = project_to_direction({"kind": "radial_gaussian", "variance": 2.0},
                               [0.6, 0.8])
    assert isinstance(got, Gaussian)
    assert got.variance == 2.0


def test_project_radial_exponential_marginal_mass():
    got = project_to_direction({"kind": "radial_exponential", "rate": 1.0},
                               [1.0, 0.0])
    assert isinstance(got, RadialExpMarginal)
    s = np.linspace(-50, 50, 200001)
    assert abs(np.trapezoid(got.pdf(s), s) - 1.0) < 1e-6


def test_project_rejects_bad_direction():
    with pytest.raises(UsageError):
        project_to_direction(Laplace(1.0), [0.5])


@pytest.mark.parametrize("kernel_nd,xi", [
    (Uniform(-1.0, 2.0), [math.nan]),
    ({"kind": "product", "factors": [Uniform(-1.0, 2.0), Laplace(1.0)]}, [math.nan, 0.0]),
    ({"kind": "radial_gaussian", "variance": 1.0}, [math.nan, math.nan]),
], ids=["1d", "product", "radial"])
def test_project_rejects_a_nan_direction(kernel_nd, xi):
    # a nan norm is no unit norm; |nan - 1| > tol is false, so the check is written to fail on it
    with pytest.raises(UsageError, match="unit norm"):
        project_to_direction(kernel_nd, xi)


def test_directional_moment_symmetric_is_zero():
    # the first moment along the projection direction
    assert Laplace(1.0).moment_first() == 0.0
    assert abs(Uniform(-1.0, 3.0).moment_first() - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# J_theta and the assumption report

def test_j_theta_no_competition_kernel():
    jt = j_theta(KernelPair(Laplace(1.0), Laplace(1.0)), LK1)
    s = np.array([-1.0, 0.0, 2.0])
    assert np.allclose(jt(s), 2.0 * Laplace(1.0).pdf(s))
    assert jt.grid_min >= 0.0
    assert jt.origin_delta > 0.0


def test_j_theta_sign_flip_with_strong_nonlocal():
    # wide a_plus vs narrow tall a_minus drives J negative near the origin
    pair = KernelPair(Laplace(0.5), Laplace(4.0))
    params = Params(2.0, 1.0, 0.0, 1.0)
    jt = j_theta(pair, params)
    assert jt(0.0) < 0.0
    assert jt.grid_min < 0.0


def test_check_assumptions_reference_all_hold():
    rep = check_assumptions(KernelPair(Laplace(1.0), Laplace(1.0)), LK1)
    assert sorted(rep.entries) == ["Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "Q7"]
    for q in rep.entries:
        assert rep.status(q) == "holds", q


def test_check_assumptions_q1_fails():
    rep = check_assumptions(KernelPair(Laplace(1.0), Laplace(1.0)),
                            Params(0.5, 1.0))
    assert rep.status("Q1") == "fails"
    with pytest.raises(AssumptionFailure) as err:
        rep.require(["Q1"])
    assert err.value.label == "Q1"


def test_check_assumptions_q3_fails_for_heavy_tail():
    rep = check_assumptions(KernelPair(ExpPoly(0.5, 0.0, 1.0),
                                       ExpPoly(0.5, 0.0, 1.0)), LK1)
    assert rep.status("Q3") == "fails"


def test_check_assumptions_q2_fails_with_dominant_competition():
    pair = KernelPair(Laplace(0.5), Laplace(4.0))
    rep = check_assumptions(pair, Params(2.0, 1.0, 0.0, 1.0))
    assert rep.status("Q2") == "fails"
    assert rep.failing() == ["Q2", "Q7"]


class _Unsampled(Laplace):
    """A competition kernel whose density must not be read."""

    def pdf(self, s):
        raise AssertionError("a_minus sampled without competition")


def test_j_theta_without_competition_leaves_a_minus_unsampled():
    # its term would be 0.0 times a finite density: the same bits without it
    check_assumptions.cache_clear()
    a_plus = Laplace(1.0)
    ref = j_theta(KernelPair(a_plus, Laplace(1.0)), LK1)
    jt = j_theta(KernelPair(a_plus, _Unsampled(1.0)), LK1)
    assert (jt.grid_min, jt.origin_rho, jt.origin_delta) == \
        (ref.grid_min, ref.origin_rho, ref.origin_delta)
    s = np.array([-1.0, 0.0, 2.0])
    assert jt(s).tobytes() == (2.0 * a_plus.pdf(s) - jt.theta * 0.0 * a_plus.pdf(s)).tobytes()
    assert jt(0.5) == 2.0 * a_plus.pdf(0.5)
    assert check_assumptions(KernelPair(a_plus, _Unsampled(1.0)), LK1).failing() == []


def test_report_is_read_only():
    # every caller of a problem shares one report
    rep = check_assumptions(KernelPair(Laplace(1.0), Laplace(1.0)), LK1)
    with pytest.raises(TypeError):
        rep.entries["Q1"] = ("fails", 0.0)
    with pytest.raises(TypeError):
        del rep.entries["Q2"]
    with pytest.raises(dataclasses.FrozenInstanceError):
        rep.entries = {}
    assert rep.failing() == []


def test_verdict_is_cached_by_value():
    check_assumptions.cache_clear()
    first = check_assumptions(KernelPair(Laplace(0.9), Laplace(0.9)), LK1)
    again = check_assumptions(KernelPair(Laplace(0.9), Laplace(0.9)),
                              params_from_dict({"kappa_plus": 2, "m": 1}))
    assert again is first
    info = check_assumptions.cache_info()
    assert (info.hits, info.misses) == (1, 1)
    assert 0 < info.maxsize <= 64


@pytest.mark.parametrize("k", FAMILIES + [_TABLE, Truncated(Laplace(1.0), 0.5),
                                          Truncated(Truncated(Gaussian(1.0), 1.0), 0.5)],
                         ids=lambda k: repr(k))
def test_kernels_are_hashable_values(k):
    # equal values hash equal, so the cache finds a problem built anew
    twin = kernel_from_dict(k.to_dict())
    assert twin is not k and twin == k and hash(twin) == hash(k)
    pair, twin_pair = KernelPair(k, Laplace(1.0)), KernelPair(twin, Laplace(1.0))
    assert twin_pair is not pair and twin_pair == pair and hash(twin_pair) == hash(pair)


def test_params_are_hashable_values():
    a = Params(2.0, 1.0, 0.5, 0.25)
    b = params_from_dict({"kappa_plus": 2, "m": 1, "kappa_local": 0.5, "kappa_nonlocal": 0.25})
    assert b is not a and b == a and hash(b) == hash(a)
    assert Params(2.0, 1.0, 0.5, 0.5) != a


# ---------------------------------------------------------------------------
# serialization round-trips

DICT_CASES = [Laplace(0.7), Gaussian(2.0), Uniform(-1, 2), ExpPoly(1.0, 3.0, 0.8),
              Truncated(Laplace(1.0), 5.0), Truncated(Truncated(Gaussian(1.0), 1.0), 0.5),
              RadialExpMarginal(1.0, 2), RadialExpMarginal(1.0, 3),
              Tabulated(-1.0, 0.5, (0.2, 0.6, 0.8, 0.4))]


def test_dict_cases_cover_every_family():
    assert sorted({k.family for k in DICT_CASES}) == sorted(kernels._FAMILIES)


@pytest.mark.parametrize("k", DICT_CASES, ids=lambda k: repr(k))
def test_kernel_dict_round_trip(k):
    back = kernel_from_dict(json.loads(json.dumps(k.to_dict())))
    s = np.linspace(-4, 4, 101)
    assert np.allclose(back.pdf(s), k.pdf(s))
    assert back == k
    if k.family == "truncated":
        # a left cut is not a truncated kernel
        with pytest.raises(UsageError):
            k.reflected()
    else:
        assert k.reflected().reflected() == k


def test_omitted_fields_take_the_dataclass_defaults():
    for name, cls in kernels._FAMILIES.items():
        if any(f.init and f.default is dataclasses.MISSING for f in dataclasses.fields(cls)):
            with pytest.raises(KeyError):
                kernel_from_dict({"family": name})
        else:
            assert kernel_from_dict({"family": name}) == cls()
    assert kernel_from_dict({"family": "uniform", "endpoints": [0, 2]}) == Uniform(0.0, 2.0)


def test_kernel_from_dict_rejects_unknown():
    with pytest.raises(UsageError):
        kernel_from_dict({"family": "cauchy"})


def test_load_problem_defaults_a_minus(tmp_path):
    doc = {"family": "laplace", "mu": 1.0,
           "params": {"kappa_plus": 2.0, "m": 1.0, "kappa_local": 1.0}}
    pair, params = load_problem(doc)
    assert pair.a_minus is pair.a_plus
    assert params.kappa_plus == 2.0
    p = tmp_path / "prob.json"
    p.write_text(json.dumps(doc))
    pair2, params2 = load_problem(str(p))
    assert pair2.a_plus.mu == 1.0
    assert params2.m == 1.0


def test_load_problem_refuses_unreadable_sources(tmp_path, monkeypatch):
    # a path that cannot be read or parsed, or a source that is neither a
    # dict nor a path, is a UsageError; a number is never opened as a
    # file descriptor
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    listed = tmp_path / "list.json"
    listed.write_text("[1, 2]")
    for source in (str(tmp_path / "missing.json"), bad, str(listed), str(tmp_path)):
        with pytest.raises(UsageError):
            load_problem(source)
    import nlkpp.kernels

    def no_open(*args, **kwargs):
        raise AssertionError(f"load_problem opened {args!r}")
    monkeypatch.setattr(nlkpp.kernels, "open", no_open, raising=False)
    for source in (0, 5, None, [{"family": "laplace", "mu": 1.0}]):
        with pytest.raises(UsageError):
            load_problem(source)


@pytest.mark.parametrize("doc", [
    {"family": "laplace", "mu": 1.0, "a_minus": 3},
    {"family": "truncated", "base": [1, 2], "cutoff": 3.0},
    {"family": "truncated", "base": "laplace", "cutoff": 3.0},
], ids=["a_minus-int", "base-list", "base-str"])
def test_load_problem_refuses_a_kernel_that_is_not_an_object(doc):
    with pytest.raises(UsageError, match="a kernel is a JSON object; got (int|list|str)"):
        load_problem(dict(doc, params={"kappa_plus": 2.0, "m": 1.0}))


@pytest.mark.parametrize("doc,field", [
    ({"family": "uniform", "endpoints": "12"}, "endpoints"),
    ({"family": "uniform", "endpoints": 3.0}, "endpoints"),
    ({"family": "tabulated", "table": {"grid_start": -0.5, "grid_step": 0.5, "values": "11"}},
     "values"),
    ({"family": "truncated", "cutoff": 2.0,
      "base": {"family": "uniform", "endpoints": "12"}}, "endpoints"),
], ids=["uniform-str", "uniform-number", "tabulated-str", "truncated-base"])
def test_load_problem_refuses_a_string_for_an_array(doc, field):
    # a string is a sequence: "12" would load as the endpoints (1.0, 2.0)
    with pytest.raises(UsageError, match=f"kernel field '{field}' must be an array"):
        kernel_from_dict(doc)
    with pytest.raises(UsageError, match=f"'{field}'"):
        load_problem(dict(doc, params={"kappa_plus": 2.0, "m": 1.0}))


def test_load_problem_missing_params():
    with pytest.raises(UsageError):
        load_problem({"family": "laplace", "mu": 1.0})


def test_load_problem_rejects_unknown_parameter():
    with pytest.raises(UsageError):
        load_problem({"family": "laplace", "mu": 1.0,
                      "params": {"kappa_plus": 2.0, "m": 1.0, "kappa_local": 1.0,
                                 "kapa_nonlocal": 0.5}})


# ---------------------------------------------------------------------------
# the quadrature memo

MEMOS = (kernels._tilted_piece, kernels._exp_poly_piece, kernels._log_density)


def _misses():
    return sum(memo.cache_info().misses for memo in MEMOS)


def _clear_memos():
    for memo in MEMOS:
        memo.cache_clear()


def _twins(z):
    """Keys equal to z by value, which share its memo entries."""
    return [z] + ([-z] if z == 0.0 else []) + ([int(z)] if z == int(z) else [])


@st.composite
def _memo_reads(draw):
    """A kernel whose transforms reach quadrature, with z in its strip (or
    at the p = 1 endpoint, where ExpPoly's endpoint pieces are read), an
    order and a finite upper limit."""
    family = draw(st.sampled_from(["exp_poly_1", "exp_poly_p", "uniform", "truncated",
                                   "radial"]))
    mu = draw(st.floats(0.3, 2.0))
    order = draw(st.integers(0, 2))
    inner = st.floats(-0.95 * mu, 0.95 * mu)
    if family == "exp_poly_1":
        k = ExpPoly(1.0, draw(st.floats(0.0, 5.0)), mu)
        z = draw(st.one_of(inner, st.sampled_from([0.0, -0.0, mu, -mu])))
    elif family == "exp_poly_p":
        # |z| <= mu keeps the tilted tail decaying fast enough for QUADPACK
        # at p near 1 (at p = 1 + 2^-52 and z = mu it does not reach 1e-8)
        mu = draw(st.floats(1.0, 2.0))
        k = ExpPoly(draw(st.floats(1.05, 2.0, exclude_max=True)), draw(st.floats(0.0, 4.0)), mu)
        z = draw(st.one_of(st.floats(-mu, mu), st.sampled_from([0.0, -0.0, 1.0, -1.0])))
    elif family == "uniform":
        k = Uniform(-draw(st.floats(0.3, 3.0)), draw(st.floats(0.3, 3.0)))
        order = draw(st.integers(1, 2))
        z = draw(st.one_of(st.floats(-3.0, 3.0), st.sampled_from([0.0, -0.0, 1.0, -2.0])))
    elif family == "truncated":
        k = Truncated(Laplace(mu), draw(st.floats(0.5, 20.0)))
        z = draw(st.one_of(st.floats(-0.95 * mu, 3.0), st.sampled_from([0.0, -0.0, 1.0, 2.0])))
    else:
        k = RadialExpMarginal(mu, draw(st.integers(2, 4)))
        z = draw(st.one_of(inner, st.sampled_from([0.0, -0.0])))
    return k, z, order, draw(st.floats(0.5, 10.0))


@settings(max_examples=200)
@given(read=_memo_reads(), data=st.data())
def test_memo_returns_the_bits_of_a_fresh_quadrature(read, data):
    # a read served by an entry another key made (z against -0.0 or an int
    # z, an int order against a float one) has the bits of that read made
    # right after the memo was emptied
    k, z, order, R = read
    twin = data.draw(st.sampled_from(_twins(z)))
    twin_order = data.draw(st.sampled_from([order, float(order)]))
    for f in (k.transform_deriv, lambda z, n: k.transform_below(z, R, n)):
        _clear_memos()
        fresh = f(twin, twin_order)
        _clear_memos()
        f(z, order)
        misses = _misses()
        warm = f(twin, twin_order)
        assert _misses() == misses
        assert warm.hex() == fresh.hex()


def test_memo_serves_a_truncation_from_its_base():
    # the cut kernel's integral below 0 is its base's, so a new cutoff
    # computes only the piece from 0 to the cutoff
    base = Laplace(0.7)
    _clear_memos()
    Truncated(base, 3.0).moment_first_abs()
    info = kernels._tilted_piece.cache_info()
    assert (info.hits, info.misses) == (1, 2)
    Truncated(base, 5.0).moment_first_abs()
    info = kernels._tilted_piece.cache_info()
    assert (info.hits, info.misses) == (3, 3)


def test_mass_read_again_makes_no_quadrature():
    # a truncation's mass is its base's cdf, whose two pieces, [-inf, 0]
    # and [0, 2], the memo holds
    k = Truncated(ExpPoly(1.0, 3.0, 1.0), 2.0)
    _clear_memos()
    first = k.mass
    assert kernels._tilted_piece.cache_info().misses == 2
    assert k.mass == first
    assert kernels._tilted_piece.cache_info().misses == 2


# ---------------------------------------------------------------------------
# the sample memo under the tilted integrands

def _bits(x):
    return struct.pack("<d", x)


@st.composite
def _tilted_reads(draw):
    """A kernel whose tilted transforms reach quadrature, a z inside its
    strip and the other z whose reads fill its sample memo first. ExpPoly
    below p = 1 has sigma 0, so its only finite tilt is z = 0."""
    family = draw(st.sampled_from(["exp_poly", "truncated", "uniform"]))
    mu = draw(st.floats(1.0, 2.0))
    if family == "exp_poly":
        p = draw(st.one_of(st.floats(0.5, 0.95), st.just(1.0), st.floats(1.05, 2.0)))
        k = ExpPoly(p, draw(st.floats(0.0, 4.0)), mu)
        # |z| <= mu keeps QUADPACK within its tolerance (_memo_reads)
        zs = st.floats(-0.95 * mu, 0.95 * mu) if p == 1.0 else st.floats(-mu, mu)
    elif family == "truncated":
        k = Truncated(Laplace(mu), draw(st.floats(0.5, 20.0)))
        zs = st.floats(-0.95 * mu, 3.0)
    else:
        k = Uniform(-draw(st.floats(0.3, 3.0)), draw(st.floats(0.3, 3.0)))
        zs = st.floats(-3.0, 3.0)
    return k, draw(zs), draw(st.lists(st.tuples(zs, st.integers(0, 2)), min_size=1, max_size=3))


@settings(max_examples=100)
@given(read=_tilted_reads(), order=st.integers(0, 2))
def test_sample_memo_hit_returns_the_bits_of_a_miss(read, order):
    # a transform read from a sample memo that other tilts and orders filled
    # has the bits of the same read from empty memos
    k, z, others = read
    _clear_memos()
    fresh = k.transform_deriv(z, order)
    _clear_memos()
    for w, n in others:
        k.transform_deriv(w, n)
    kernels._tilted_piece.cache_clear()
    assert k.transform_deriv(z, order).hex() == fresh.hex()


@dataclasses.dataclass(frozen=True)
class _Constant(Kernel):
    """A density equal to t everywhere, which reaches each of _weighted's guards."""
    t: float

    def pdf(self, s):
        return self.t


@pytest.mark.parametrize("t", [0.0, -0.0, 5e-324, 2.5e-310, math.inf, -math.inf, math.nan,
                               -math.nan, -0.3, 0.3, 1e300], ids=repr)
def test_sample_memo_agrees_with_weighted(t):
    # a miss (the first z) and hits (the others) give _weighted's bits, the
    # overflow at z = 3 and s = 400 and the underflow at s = -400 among them
    k = _Constant(t)
    kernels._log_density.cache_clear()
    for z in (0.5, -2.0, 3.0):
        g = kernels._tilted(k, z)
        for s in (-400.0, -1.0, 0.0, 0.5, 400.0):
            assert _bits(g(s)) == _bits(kernels._weighted(t, z, s)), (z, s)
    assert len(kernels._log_density(k)) == 5


def test_sample_memo_clears_at_its_cap(monkeypatch):
    # with room for 100 abscissas, the memo of a kernel whose reads visit
    # more empties itself, holds at most 100, and every read keeps its bits
    k = ExpPoly(1.0, 3.0, 1.0)
    reads = [(z, n) for z in (0.3, -0.6, 0.9) for n in (0, 1, 2)]
    _clear_memos()
    want = [k.transform_deriv(z, n).hex() for z, n in reads]
    visited = len(kernels._log_density(k))
    monkeypatch.setattr(kernels, "_SAMPLE_CAP", 100)
    _clear_memos()
    got, sizes = [], []
    for z, n in reads:
        got.append(k.transform_deriv(z, n).hex())
        sizes.append(len(kernels._log_density(k)))
    assert visited > 300
    assert got == want
    assert 0 < max(sizes) <= 100


def _reference_cdf(k, x):
    """quad of k.pdf at the package's limit and tolerances, summed from 0.0
    over the pieces cdf cuts: [-inf, 0] and [0, x], x no further than a
    truncation's cutoff."""
    hi = min(x, getattr(k, "cutoff", x))
    xs = [-math.inf] + ([0.0] if hi > 0.0 else []) + [hi]
    total = 0.0
    for a, b in zip(xs[:-1], xs[1:]):
        total += integrate.quad(k.pdf, a, b, limit=400, epsabs=QUAD_ABS, epsrel=QUAD_REL)[0]
    return total


@pytest.mark.parametrize("k", [
    ExpPoly(1.0, 3.0, 1.0), ExpPoly(1.5, 2.0, 0.7), ExpPoly(0.5, 2.5, 1.0), Gaussian(0.7),
    RadialExpMarginal(1.3, 3), Truncated(ExpPoly(1.0, 3.0, 1.0), 2.0),
], ids=repr)
@pytest.mark.parametrize("x", [-1.5, 0.0, 0.4, 3.0])
def test_cdf_is_a_quadrature_of_the_untilted_density(k, x):
    # cdf is transform_below at z = 0, whose pieces integrate pdf itself
    _clear_memos()
    assert k.cdf(x).hex() == _reference_cdf(k, x).hex()
    assert k.cdf(x).hex() == k.transform_below(-0.0, x, 0).hex()


def _shape(mu, p, q):
    def f(s):
        try:
            return math.exp(-mu * s ** p) / (1.0 + s ** q)
        except OverflowError:
            return 0.0
    return f


def _flat(q, order):
    def f(s):
        try:
            return s ** order / (1.0 + s ** q)
        except OverflowError:
            return 0.0
    return f


def _damp(mu, q, order):
    def f(s):
        try:
            return s ** order * math.exp(-2.0 * mu * s) / (1.0 + s ** q)
        except OverflowError:
            return 0.0
    return f


def _quad_0_inf(f):
    return integrate.quad(f, 0, math.inf, limit=400, epsabs=QUAD_ABS, epsrel=QUAD_REL)[0]


# at q = 400, s ** q overflows a float from s = 5.9 on
@pytest.mark.parametrize("q", [3.5, 400.0])
@pytest.mark.parametrize("mu", [0.3, 1.7])
def test_exp_poly_piece_has_the_bits_of_each_integral_it_states(mu, q):
    # the normalization's integrand at any p, and at p = 1 the endpoint's
    # two, written as ExpPoly stated them before they were one function
    _clear_memos()
    for p in (0.5, 1.0, 1.5):
        assert kernels._exp_poly_piece(mu, p, q, 0).hex() == _quad_0_inf(_shape(mu, p, q)).hex()
    for order in (0, 1, 2):
        assert kernels._exp_poly_piece(0.0, 1.0, q, order).hex() == \
            _quad_0_inf(_flat(q, order)).hex()
        assert kernels._exp_poly_piece(2.0 * mu, 1.0, q, order).hex() == \
            _quad_0_inf(_damp(mu, q, order)).hex()
    k = ExpPoly(1.0, q, mu)
    assert k.alpha == 1.0 / (2.0 * _quad_0_inf(_shape(mu, 1.0, q)))
