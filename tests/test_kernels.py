"""Kernel families, parameter checks, projections, and the assumption report."""

import math

import numpy as np
from scipy import integrate
import pytest

from nlkpp.errors import AssumptionFailure, UsageError
from nlkpp.kernels import (ExpPoly, Gaussian, KernelPair, Laplace, Params,
                           RadialExpMarginal, Tabulated, Truncated, Uniform,
                           check_assumptions, directional_moment, j_theta,
                           kernel_from_dict, load_problem,
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


@pytest.mark.parametrize("k", [f for f in FAMILIES if f.symmetric],
                         ids=lambda k: repr(k))
def test_symmetric_pdf(k):
    s = np.linspace(0.1, 4.0, 37)
    assert np.allclose(k.pdf(s), k.pdf(-s), rtol=1e-13, atol=0.0)


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


def test_reflection_involution():
    k = Uniform(-0.5, 2.0)
    kr = k.reflected()
    s = np.linspace(-3, 3, 101)
    assert np.allclose(kr.pdf(s), k.pdf(-s))
    assert kr.sigma_right == k.sigma_left
    krr = kr.reflected()
    assert np.allclose(krr.pdf(s), k.pdf(s))


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


def test_directional_moment_symmetric_is_zero():
    assert directional_moment(Laplace(1.0)) == 0.0
    assert abs(directional_moment(Uniform(-1.0, 3.0)) - 1.0) < 1e-12


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


# ---------------------------------------------------------------------------
# serialization round-trips

@pytest.mark.parametrize("k", [Laplace(0.7), Gaussian(2.0), Uniform(-1, 2),
                               ExpPoly(1.0, 3.0, 0.8),
                               Truncated(Laplace(1.0), 5.0),
                               RadialExpMarginal(1.0, 2), RadialExpMarginal(1.0, 3)],
                         ids=lambda k: repr(k))
def test_kernel_dict_round_trip(k):
    back = kernel_from_dict(k.to_dict())
    s = np.linspace(-4, 4, 101)
    assert np.allclose(back.pdf(s), k.pdf(s))


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
    import json
    p.write_text(json.dumps(doc))
    pair2, params2 = load_problem(str(p))
    assert pair2.a_plus.mu == 1.0
    assert params2.m == 1.0


def test_load_problem_missing_params():
    with pytest.raises(UsageError):
        load_problem({"family": "laplace", "mu": 1.0})


def test_load_problem_rejects_unknown_parameter():
    with pytest.raises(UsageError):
        load_problem({"family": "laplace", "mu": 1.0,
                      "params": {"kappa_plus": 2.0, "m": 1.0, "kappa_local": 1.0,
                                 "kapa_nonlocal": 0.5}})
