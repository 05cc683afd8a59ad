"""The plain-callable engine's tail model: sigma from the sampled tail, the
verdict near sigma, and one read of f per support piece."""

import math

import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from nlkpp.laplace import NODES, abscissa, bilateral_laplace

RIGHT = (0.0, math.inf)


@pytest.mark.parametrize("f, support", [
    (lambda s: math.exp(-0.01 * s * s), RIGHT),
    (lambda s: math.exp(-s * s), RIGHT),
    (lambda s: 1.0 if 0.0 <= s <= 1.0 else 0.0, (-math.inf, math.inf)),
], ids=["exp(-0.01s^2)", "exp(-s^2)", "1[0,1]"])
def test_decay_faster_than_exponential_has_infinite_abscissa(f, support):
    assert abscissa(f, support).value == math.inf


@pytest.mark.parametrize("f, support, exact", [
    (lambda s: 1.0 if 0.0 <= s <= 1.0 else 0.0, (-math.inf, math.inf), 2.0 * math.expm1(0.5)),
    (lambda s: math.exp(-s) * (1.0 if s < 1.0 else 0.5), RIGHT, 2.0 - math.exp(-0.5)),
], ids=["stop", "step"])
def test_jump_inside_a_half_line_is_right_or_not_converged(f, support, exact):
    # the rule cannot see where between two nodes f jumps; its sum at twice
    # the step can
    ev = bilateral_laplace(f, 0.5, support)
    assert ev.status != "converged" or abs(ev.value - exact) <= 1e-9 * exact


@pytest.mark.parametrize("lam", [0.99, 0.999, 1.0 - 1e-6])
def test_value_near_the_abscissa_is_right_or_not_converged(lam):
    # the weighted tail 0.5 e^{-(1 - lam) s} is far from spent where f
    # underflows, at s = 708
    ev = bilateral_laplace(lambda s: 0.5 * math.exp(-abs(s)), lam)
    exact = 0.5 / (1.0 - lam) + 0.5 / (1.0 + lam)
    assert ev.status != "converged" or abs(ev.value - exact) <= 1e-6 * exact


@pytest.mark.parametrize("f", [lambda s: s * math.exp(-s),
                               lambda s: math.exp(-s) / (1.0 + s ** 3)],
                         ids=["s exp(-s)", "exp(-s)/(1+s^3)"])
def test_algebraic_factor_leaves_the_abscissa(f):
    est = abscissa(f, RIGHT)
    lo, hi = est.bracket
    assert abs(est.value - 1.0) <= 1e-6
    assert lo <= 1.0 <= hi


@pytest.mark.parametrize("start", [5.0, 2000.0])
def test_abscissa_of_a_support_that_starts_late(start):
    # past the table's middle node the tail is read on the table shifted to
    # the start; the table alone ends at 1,096
    est = abscissa(lambda s: math.exp(start - s), (start, math.inf))
    assert abs(est.value - 1.0) <= 1e-6


def test_growth_has_abscissa_zero_and_every_transform_diverges():
    f = lambda s: math.exp(0.1 * s)
    assert abscissa(f, RIGHT).value == 0.0
    for lam in (1e-6, 0.05, 0.1, 1.0):
        assert bilateral_laplace(f, lam, RIGHT).status == "diverged"


@settings(max_examples=40, deadline=None)
@given(a=st.floats(0.3, 3.0), q=st.floats(0.0, 4.0), rho=st.floats(0.2, 0.8))
def test_engine_on_exponentials_with_an_algebraic_factor(a, q, rho):
    f = lambda s: math.exp(-a * s) / (1.0 + s ** q)
    est = abscissa(f, RIGHT)
    lo, hi = est.bracket
    assert abs(est.value / a - 1.0) <= 1e-3
    assert lo * (1.0 - 1e-3) <= a <= hi * (1.0 + 1e-3)
    lam = rho * a
    ev = bilateral_laplace(f, lam, RIGHT)
    ref = integrate.quad(lambda s: math.exp(-(a - lam) * s) / (1.0 + s ** q), 0.0, math.inf,
                         limit=400, epsabs=1e-13, epsrel=1e-12)[0]
    assert ev.status == "converged"
    assert abs(ev.value - ref) <= 1e-6


def test_one_read_per_piece():
    # abscissa reads the right half-line once; a transform over the whole
    # line reads each half-line once
    calls = [0]

    def f(s):
        calls[0] += 1
        return 0.5 * math.exp(-abs(s))

    abscissa(f)
    assert calls[0] == NODES.size == 369
    bilateral_laplace(f, 0.5)
    assert calls[0] == 3 * 369
