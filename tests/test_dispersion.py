"""Minimal speed, kernel classification, and the characteristic root scan."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nlkpp import kernels
from nlkpp.dispersion import (_classify, _first_sign_change, _strip_grid, abscissa_to_speed,
                              characteristic, characteristic_deriv, classify,
                              f_function, g_function, h_function, left_rate,
                              minimal_speed, mu_star, mu_star_bracket,
                              root_multiplicity, speed_to_abscissa, t_function)
from nlkpp.errors import NonConvergence, NoWave, UsageError
from nlkpp.kernels import (ExpPoly, Gaussian, KernelPair, Laplace, Params, Uniform,
                           check_assumptions, j_theta, theta)

LK1 = Params(2.0, 1.0, 1.0, 0.0)
K_REF = Laplace(1.0)

# quartic root of l^4 + 4 l^2 - 1 = 0: the stationarity point of G for the
# unit two-sided exponential at kappa_plus = 2, m = 1
LAM_STAR = math.sqrt(math.sqrt(5.0) - 2.0)

# the critical mortality making (q=4, mu=0.1) an exact endpoint tie T(sigma)=m
M_TIE_Q4 = 1.9917107761922892
W_KERNEL = ExpPoly(1.0, 4.0, 0.1)


def test_problem_checked_once_across_entry_points(monkeypatch):
    # classify, minimal_speed and speed_to_abscissa without a report each
    # ask for the Q1..Q7 verdict; equal problems built anew share one scan
    scans = []

    def counted(pair, params):
        scans.append(pair)
        return j_theta(pair, params)
    monkeypatch.setattr(kernels, "j_theta", counted)
    check_assumptions.cache_clear()

    def problem():
        return KernelPair(Laplace(0.8), Laplace(0.8)), Params(2.0, 1.0, 1.0, 0.0)
    assert classify(*problem()) == "V"
    rep = minimal_speed(*problem())
    speed_to_abscissa(*problem(), 1.5 * rep.c_star)
    assert len(scans) == 1


def test_classify_and_minimal_speed_share_one_classification():
    # a benchmark point task asks for both; the endpoint analysis runs once
    _classify.cache_clear()
    minimal_speed.cache_clear()
    k = ExpPoly(1.0, 3.5, 0.3)
    assert classify(k, LK1) == minimal_speed(k, LK1).kernel_class
    assert _classify.cache_info().misses == 1


def test_reference_lambda_star():
    rep = minimal_speed(K_REF, LK1)
    assert abs(rep.lambda_star - LAM_STAR) < 1e-9 * LAM_STAR
    assert rep.kernel_class == "V"
    assert rep.sigma_plus == 1.0
    assert math.isnan(rep.t_at_sigma)


def test_reference_c_star_against_grid_minimum():
    rep = minimal_speed(K_REF, LK1)
    lams = np.linspace(1e-4, 0.999, 20000)
    g = (2.0 / (1.0 - lams ** 2) - 1.0) / lams
    assert abs(rep.c_star - g.min()) < 1e-8
    assert abs(rep.c_star - g_function(K_REF, LK1, rep.lambda_star)) < 1e-14


def test_stationarity_t_equals_m_at_lambda_star():
    rep = minimal_speed(K_REF, LK1)
    assert abs(t_function(K_REF, LK1, rep.lambda_star) - LK1.m) < 1e-8


def test_h_is_m_minus_t():
    for lam in (0.1, 0.3, 0.45, 0.6):
        assert abs(h_function(K_REF, LK1, lam)
                   - (LK1.m - t_function(K_REF, LK1, lam))) < 1e-12


def test_h_matches_g_slope():
    # H(lam) = lam^2 G'(lam), checked by central differences
    for lam in (0.2, 0.4, 0.6):
        eps = 1e-6
        gp = (g_function(K_REF, LK1, lam + eps)
              - g_function(K_REF, LK1, lam - eps)) / (2 * eps)
        assert abs(h_function(K_REF, LK1, lam) - lam ** 2 * gp) < 1e-6


def test_g_unimodal_around_lambda_star():
    rep = minimal_speed(K_REF, LK1)
    left = np.linspace(0.02, rep.lambda_star, 60)
    right = np.linspace(rep.lambda_star, 0.98, 60)
    gl = [g_function(K_REF, LK1, l) for l in left]
    gr = [g_function(K_REF, LK1, l) for l in right]
    assert all(b <= a + 1e-12 for a, b in zip(gl, gl[1:]))
    assert all(b >= a - 1e-12 for a, b in zip(gr, gr[1:]))


def test_f_function_signs():
    # F = kappa_plus A - m crosses from positive at 0+ (A(0)=1, kappa_plus > m)
    assert f_function(K_REF, LK1, 1e-6) > 0
    assert f_function(K_REF, LK1, 0.5) > f_function(K_REF, LK1, 0.1)
    with pytest.raises(UsageError):
        f_function(K_REF, LK1, 0.0)


def test_characteristic_and_deriv():
    c = 4.0
    root = speed_to_abscissa(K_REF, LK1, c)
    assert abs(characteristic(K_REF, LK1, c, root.lambda_c)) < 1e-10
    eps = 1e-6
    fd = (characteristic(K_REF, LK1, c, root.lambda_c + eps)
          - characteristic(K_REF, LK1, c, root.lambda_c - eps)) / (2 * eps)
    an = characteristic_deriv(K_REF, LK1, c, root.lambda_c, 1)
    assert abs(fd - an) < 1e-5
    # smallest positive root: h decreasing through it
    assert an < 0


@pytest.mark.parametrize("c", [float("nan"), float("inf"), -float("inf")],
                         ids=["nan", "inf", "minus-inf"])
def test_non_finite_speed_refused(c):
    rep = minimal_speed(K_REF, LK1)
    with pytest.raises(UsageError, match="finite"):
        speed_to_abscissa(K_REF, LK1, c, rep)
    with pytest.raises(UsageError, match="finite"):
        root_multiplicity(K_REF, LK1, c, rep)


def test_minimal_speed_exceeds_drift_bound():
    for k, p in ((K_REF, LK1), (Uniform(-0.5, 2.0), LK1),
                 (W_KERNEL, Params(2.0, 1.0)), (Gaussian(1.0), LK1)):
        rep = minimal_speed(k, p)
        assert rep.c_star > p.kappa_plus * rep.m_xi


def test_bijection_speed_and_abscissa():
    rep = minimal_speed(K_REF, LK1)
    sigmas = np.linspace(rep.lambda_star / 20, rep.lambda_star, 20)
    speeds = [abscissa_to_speed(K_REF, LK1, s, rep) for s in sigmas]
    assert all(b < a for a, b in zip(speeds, speeds[1:]))
    for s, c in zip(sigmas, speeds):
        back = speed_to_abscissa(K_REF, LK1, c, rep)
        assert abs(back.lambda_c - s) < 1e-9 * max(1.0, s)
    assert abs(speeds[-1] - rep.c_star) < 1e-12


def test_abscissa_to_speed_domain():
    rep = minimal_speed(K_REF, LK1)
    with pytest.raises(UsageError):
        abscissa_to_speed(K_REF, LK1, rep.lambda_star * 1.01, rep)
    with pytest.raises(UsageError):
        abscissa_to_speed(K_REF, LK1, 0.0, rep)


def test_speed_below_minimum_rejected():
    with pytest.raises(NoWave):
        speed_to_abscissa(K_REF, LK1, 2.0)
    with pytest.raises(NoWave):
        root_multiplicity(K_REF, LK1, 2.0)


def test_huge_speed_has_a_root():
    # h(1e-12; c) < 0 once c 1e-12 > kappa_plus - m, so the bracket's lower end
    # moves below the root; the root keeps its relative accuracy
    root = speed_to_abscissa(K_REF, LK1, 1e13)
    assert root.multiplicity == 1
    assert abs(root.lambda_c * 1e13 - 1.0) < 1e-11   # A(lam) = 1 + O(lam^2)


# ---------------------------------------------------------------------------
# reports: one per problem value, cached, and a given one is only checked

L2_PAIR = KernelPair(Laplace(2.0), Laplace(2.0))
G_PAIR = KernelPair(Gaussian(1.0), Gaussian(1.0))


@pytest.mark.parametrize("call", [
    # c* = 3.330 for the reference pair: no wave at Laplace(2)'s 1.665
    lambda: root_multiplicity(K_REF, LK1, 1.665, minimal_speed(L2_PAIR, LK1)),
    lambda: speed_to_abscissa(K_REF, LK1, 1.665, minimal_speed(L2_PAIR, LK1)),
    # 0.87 lies beyond the reference lambda* = 0.486
    lambda: abscissa_to_speed(K_REF, LK1, 0.87, minimal_speed(L2_PAIR, LK1)),
    lambda: speed_to_abscissa(G_PAIR, LK1, 1.05 * minimal_speed(G_PAIR, LK1).c_star,
                              minimal_speed(K_REF, LK1)),
    lambda: root_multiplicity(G_PAIR, LK1, 1.05 * minimal_speed(G_PAIR, LK1).c_star,
                              minimal_speed(K_REF, LK1)),
    lambda: speed_to_abscissa(K_REF, LK1, 4.0, minimal_speed(G_PAIR, LK1)),
    lambda: speed_to_abscissa(K_REF, LK1, 4.0, minimal_speed(K_REF, LK1).to_dict())],
    ids=["multiplicity-laplace2", "speed-laplace2", "abscissa-laplace2",
         "speed-gaussian", "multiplicity-gaussian", "speed-reference", "a-dict"])
def test_report_of_another_problem_refused(call):
    with pytest.raises(UsageError, match="report="):
        call()


@pytest.mark.parametrize("kernel,params", [(Gaussian(1.0), LK1), (K_REF, LK1),
                                           (W_KERNEL, Params(2.0, 1.0))],
                         ids=["gaussian", "laplace", "w"])
def test_report_rebuilt_after_cache_clear_accepted(kernel, params):
    # a new object with equal fields; t_at_sigma is nan except in class W
    rep = minimal_speed(kernel, params)
    minimal_speed.cache_clear()
    assert minimal_speed(kernel, params) is not rep
    c = 1.5 * rep.c_star
    assert speed_to_abscissa(kernel, params, c, rep) == speed_to_abscissa(kernel, params, c)
    assert root_multiplicity(kernel, params, rep.c_star, rep) \
        == root_multiplicity(kernel, params, rep.c_star)
    assert abscissa_to_speed(kernel, params, 0.5 * rep.lambda_star, rep) \
        == abscissa_to_speed(kernel, params, 0.5 * rep.lambda_star)


def test_equal_problems_compute_minimal_speed_once():
    minimal_speed.cache_clear()
    rep = minimal_speed(Laplace(0.8), Params(2.0, 1.0, 1.0, 0.0))
    pair, params = KernelPair(Laplace(0.8), Laplace(0.8)), Params(2.0, 1.0, 1.0, 0.0)
    assert minimal_speed(pair, params) is rep
    root = speed_to_abscissa(pair, params, 1.5 * rep.c_star)
    root_multiplicity(pair, params, 1.5 * rep.c_star)
    abscissa_to_speed(pair, params, root.lambda_c)
    assert minimal_speed.cache_info().misses == 1


def test_failing_problem_raises_on_every_call():
    # exceptions are not cached: the second call computes and raises again
    k = ExpPoly(1.0, 2.0023275656815063, 0.11240536172946254)
    minimal_speed.cache_clear()
    for _ in range(2):
        with pytest.raises(NonConvergence):
            minimal_speed(k, LK1)
    assert minimal_speed.cache_info().misses == 2
    assert minimal_speed.cache_info().currsize == 0

# ---------------------------------------------------------------------------
# classification

def test_classify_reference_is_v():
    assert classify(K_REF, LK1) == "V"
    assert classify(Gaussian(1.0), LK1) == "V"
    assert classify(Uniform(-1, 1), LK1) == "V"


def test_classify_w_kernel():
    p = Params(2.0, 1.0)
    assert classify(W_KERNEL, p) == "W"
    rep = minimal_speed(W_KERNEL, p)
    assert rep.kernel_class == "W"
    assert rep.interval_kind == "closed"
    assert rep.lambda_star == rep.sigma_plus
    assert math.isfinite(rep.t_at_sigma)
    assert rep.t_at_sigma > p.m
    assert not rep.critical_equality


def test_classify_flips_across_endpoint_tie():
    # raising m through T(sigma) turns the endpoint subcritical: W -> V
    assert classify(W_KERNEL, Params(2.0, M_TIE_Q4 - 1e-4)) == "W"
    assert classify(W_KERNEL, Params(2.0, M_TIE_Q4 + 1e-4)) == "V"


def test_q_le_1_endpoint_divergence_is_v():
    # transform diverges at sigma when the polynomial factor is too weak
    assert classify(ExpPoly(1.0, 0.5, 1.0), LK1) == "V"


# ---------------------------------------------------------------------------
# mu_star phase boundary

MU_STAR_ORACLES = {2.5: 0.5903748687, 3.0: 0.9451431327, 4.0: 1.3254384632}


@pytest.mark.parametrize("q", sorted(MU_STAR_ORACLES))
def test_mu_star_oracles(q):
    mu = mu_star(q, LK1)
    assert abs(mu - MU_STAR_ORACLES[q]) < 1e-8


@pytest.mark.parametrize("q", sorted(MU_STAR_ORACLES))
def test_mu_star_inside_bracket(q):
    mu = mu_star(q, LK1)
    lo, hi = mu_star_bracket(q, LK1, mu)
    assert lo < mu < hi


@pytest.mark.parametrize("q", sorted(MU_STAR_ORACLES))
def test_classify_flips_across_mu_star(q):
    mu = mu_star(q, LK1)
    assert classify(ExpPoly(1.0, q, mu - 1e-4), LK1) == "W"
    assert classify(ExpPoly(1.0, q, mu + 1e-4), LK1) == "V"


# ---------------------------------------------------------------------------
# multiplicity table

def test_multiplicity_above_c_star():
    for k, p in ((K_REF, LK1), (W_KERNEL, Params(2.0, 1.0))):
        rep = minimal_speed(k, p)
        for f in (1.001, 1.1, 2.0):
            assert root_multiplicity(k, p, f * rep.c_star, rep) == 1


def test_multiplicity_critical_v():
    rep = minimal_speed(K_REF, LK1)
    assert root_multiplicity(K_REF, LK1, rep.c_star, rep) == 2


def test_multiplicity_critical_w_strict():
    # endpoint strictly supercritical: T(sigma) - m > 0.1, simple root
    p = Params(2.0, 1.0)
    rep = minimal_speed(W_KERNEL, p)
    assert rep.t_at_sigma - p.m > 0.1
    assert root_multiplicity(W_KERNEL, p, rep.c_star, rep) == 1


def test_multiplicity_critical_w_tie():
    p = Params(2.0, M_TIE_Q4)
    rep = minimal_speed(W_KERNEL, p)
    assert rep.critical_equality
    assert root_multiplicity(W_KERNEL, p, rep.c_star, rep) == 2


def test_w_tie_needs_second_moment():
    # q = 3: the tie holds but s^2 a(s) e^{sigma s} is not integrable
    k = ExpPoly(1.0, 3.0, 0.1)
    sig = k.sigma_right
    m_tie = 2.0 * (k.transform(sig) - sig * k.transform_deriv(sig, 1))
    p = Params(2.0, m_tie)
    rep = minimal_speed(k, p)
    assert rep.critical_equality
    with pytest.raises(NonConvergence) as err:
        root_multiplicity(k, p, rep.c_star, rep)
    assert err.value.label == "second-moment"


def test_report_round_trip_keys():
    d = minimal_speed(K_REF, LK1).to_dict()
    assert set(d) == {"lambda_star", "c_star", "kernel_class", "sigma_plus",
                      "t_at_sigma", "interval_kind", "m_xi",
                      "critical_equality"}
    r = speed_to_abscissa(K_REF, LK1, 4.0).to_dict()
    assert set(r) == {"lambda_c", "speed", "multiplicity"}


def test_asymmetric_kernel_minimal_speed():
    # drift shifts the minimal speed; the bound c* > kappa_plus * m_xi pins it
    k = Uniform(0.0, 2.0)
    rep = minimal_speed(k, LK1)
    assert rep.m_xi == 1.0
    assert rep.c_star > 2.0


# ---------------------------------------------------------------------------
# the left rate: the smallest positive root of the linearization at theta

@pytest.mark.parametrize("mu,kp,m,c", [(1.0, 2.0, 1.0, 4.0), (1.0, 2.0, 1.0, 0.3),
                                       (0.5, 3.0, 1.0, 1.0), (2.0, 1.5, 1.0, 0.5),
                                       (1.3, 2.5, 0.7, 6.0)])
def test_left_rate_laplace_matches_the_cubic(mu, kp, m, c):
    # A(-y) = mu^2 / (mu^2 - y^2) and no nonlocal term: the root solves
    # (c y - rho_bar)(mu^2 - y^2) + kp mu^2 = 0, rho_bar = m + 2 kl theta
    params = Params(kp, m, 1.0, 0.0)
    rho_bar = m + 2.0 * theta(params)
    cubic = np.polyadd(np.polymul([c, -rho_bar], [-1.0, 0.0, mu * mu]), [kp * mu * mu])
    roots = [r.real for r in np.roots(cubic) if abs(r.imag) < 1e-12 and 0.0 < r.real < mu]
    pair = KernelPair(Laplace(mu), Laplace(mu))
    assert abs(left_rate(pair, params, c) - min(roots)) <= 1e-12 * min(roots)


@pytest.mark.parametrize("c", [1e6, 1e7, 1e12, 1e300])
def test_left_rate_at_huge_speeds(c):
    # rho_bar - kappa_plus = 1 and A(-y) = 1/(1 - y^2) on the reference
    # problem: c y = 1 - 2 y^2 + O(y^4), far below the ladder's 1e-6, and
    # the root is polished to 1e-12 relative
    lam = left_rate(KernelPair(K_REF, K_REF), LK1, c)
    assert abs(lam * c - (1.0 - 2.0 / c / c)) <= 1e-12


@pytest.mark.parametrize("c", [1.0, 2.5, 5.0])
def test_left_rate_gaussian_nonlocal_matches_mpmath(c):
    # c y + kp e^{v+ y^2/2} - rho_bar - kn theta e^{v- y^2/2}, rho_bar =
    # m + 2 kl theta + kn theta: a 50-digit scan for its first sign change,
    # then mpmath's bracketing solver inside it
    vp, vm = 1.0, 0.5
    params = Params(2.0, 1.0, 0.5, 0.5)
    th = theta(params)
    rho_bar = params.m + (2.0 * params.kappa_local + params.kappa_nonlocal) * th
    with mpmath.workdps(50):
        def g(y):
            return (c * y + params.kappa_plus * mpmath.exp(vp * y * y / 2) - rho_bar
                    - params.kappa_nonlocal * th * mpmath.exp(vm * y * y / 2))

        y = mpmath.mpf(0)
        while g(y + mpmath.mpf("0.01")) < 0:
            y += mpmath.mpf("0.01")
        root = float(mpmath.findroot(g, (y, y + mpmath.mpf("0.01")), solver="anderson"))
    pair = KernelPair(Gaussian(vp), Gaussian(vm))
    assert abs(left_rate(pair, params, c) - root) <= 1e-12 * root


def test_first_sign_change_refuses_what_it_cannot_bracket():
    grid = _strip_grid(1.0)
    assert grid[0] == 1e-6 and grid[-1] == 1.0
    for stride in (1, 4):
        assert _first_sign_change(lambda x: x - 0.4, grid, "lab", "f", stride) == (0.3, 0.5)
        with pytest.raises(NonConvergence, match="already positive") as e:
            _first_sign_change(lambda x: 1.0, grid, "lab", "f", stride)
        assert e.value.label == "lab"
        for f in (lambda x: -1.0, lambda x: math.nan if x > 0.1 else -1.0):
            with pytest.raises(NonConvergence, match="no sign change of f") as e:
                _first_sign_change(f, grid, "lab", "f", stride)
            assert e.value.diagnostics["last_value"] == -1.0


@pytest.mark.parametrize("sig", [1e-3, 0.37, 1.0, 2e3, math.inf])
def test_strip_grid_strictly_increasing(sig):
    grid = _strip_grid(sig)
    assert all(a < b for a, b in zip(grid, grid[1:]))


def _walk(f, grid, label, what):
    """The one-by-one walk the strided scan must reproduce."""
    prev_lam, prev_val = None, None
    for lam in grid:
        val = f(lam)
        if math.isnan(val):
            break
        if val > 0.0:
            if prev_lam is None:
                raise NonConvergence(
                    label, f"{what} already positive at smallest sample {lam:.3e}")
            return prev_lam, lam
        prev_lam, prev_val = lam, val
    raise NonConvergence(
        label, f"no sign change of {what} up to the scan cap",
        {"last_lambda": prev_lam, "last_value": prev_val})


def _outcome(scan):
    try:
        return scan()
    except NonConvergence as e:
        return e.label, str(e), e.diagnostics
    except UsageError as e:
        return str(e)


_STOPPING = st.one_of(st.floats(min_value=0.0, exclude_min=True), st.just(math.nan),
                      st.just("raise"))


@given(finite=st.booleans(), sig=st.floats(1e-3, 1e3), data=st.data())
def test_strided_scan_is_the_walk(finite, sig, data):
    # "f > 0, nan or raising" switches on once at sample k: k = 0 is a
    # positive first sample, k = n no sign change, and the tail mixes
    # positive values, nans and errors
    grid = _strip_grid(sig if finite else math.inf)
    n = len(grid)
    k = data.draw(st.sampled_from([0, n]) | st.integers(0, n), label="k")
    vals = data.draw(st.lists(st.floats(max_value=0.0), min_size=k, max_size=k), label="below") + \
        data.draw(st.lists(_STOPPING, min_size=n - k, max_size=n - k), label="tail")
    at = dict(zip(grid, vals))
    calls = []

    def f(lam):
        calls.append(lam)
        if at[lam] == "raise":
            raise UsageError(f"raised at {lam!r}")
        return at[lam]
    want = _outcome(lambda: _walk(f, grid, "lab", "f"))
    for stride in range(1, 9):
        calls.clear()
        assert _outcome(lambda: _first_sign_change(f, grid, "lab", "f", stride)) == want
        if stride == 4:     # every 4th sample, then two to bisect
            assert len(set(calls)) <= -(-n // 4) + 2


@pytest.fixture
def h_calls(monkeypatch):
    """The samples at which minimal_speed evaluates H, from a cold cache."""
    from nlkpp import dispersion
    calls = []

    def counted(kernel, params, lam):
        calls.append(lam)
        return h_function(kernel, params, lam)
    monkeypatch.setattr(dispersion, "h_function", counted)
    minimal_speed.cache_clear()
    return calls


def test_lambda_star_scan_evaluates_h_eleven_times_on_the_ladder(h_calls):
    # Gaussian(1): the one-by-one walk evaluated H at the 35 samples up to the
    # crossing; the stride-4 scan takes 9 probes and 2 bisection steps.
    # brentq adds 9, two of them at the bracket ends
    rep = minimal_speed(Gaussian(1.0), LK1)
    assert len(h_calls) == 11 + 9
    lo, hi = h_calls[-9:-7]
    assert lo < rep.lambda_star < hi


def test_class_w_certificate_evaluates_h_once(h_calls):
    # H increases, so its sample at sigma (1 - 2^-16) bounds the 15 below it
    assert minimal_speed(ExpPoly(1.0, 4.0, 1.0), LK1).kernel_class == "W"
    assert h_calls == [1.0 - 2.0 ** -16]


def test_class_w_certificate_names_the_first_failing_sample(monkeypatch):
    # a refusal names the first of sigma (1 - 2^-j), j = 1..16, where H >= 0
    from nlkpp import dispersion
    k = ExpPoly(1.0, 4.0, 1.0)
    cut = 1.0 - 2.0 ** -5
    monkeypatch.setattr(dispersion, "h_function",
                        lambda kernel, params, lam: 1.0 if lam >= cut else -1.0)
    minimal_speed.cache_clear()
    with pytest.raises(NonConvergence, match=f"H not negative at {cut:.6g};") as e:
        minimal_speed(k, LK1)
    assert e.value.label == "w-endpoint-cert"
