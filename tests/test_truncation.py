"""Compactly supported approximations and the minimal-speed recovery sweep."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning

from nlkpp import kernels

from nlkpp.dispersion import g_function, minimal_speed
from nlkpp.errors import AssumptionFailure, UsageError
from nlkpp.kernels import Gaussian, KernelPair, Laplace, Params, Tabulated, Truncated
from nlkpp.truncation import c_star_sequence, theta_r, truncate, truncated_g

LK1 = Params(2.0, 1.0, 1.0, 0.0)
K_REF = Laplace(1.0)


def test_truncate_cuts_right_tail():
    k = truncate(K_REF, 3.0)
    assert k.pdf(3.5) == 0.0
    assert k.pdf(-3.5) > 0.0
    assert abs(k.mass - K_REF.cdf(3.0)) < 1e-15
    assert k.sigma_right == math.inf


def test_truncate_rejects_nonfinite_radius():
    with pytest.raises(UsageError):
        truncate(K_REF, math.inf)
    with pytest.raises(UsageError):
        truncate(K_REF, math.nan)


def test_theta_r_value_and_rejection():
    assert abs(theta_r(LK1, 0.9) - 0.8) < 1e-15
    with pytest.raises(AssumptionFailure) as err:
        theta_r(LK1, 0.4)
    assert err.value.label == "Q1"


def test_sequence_invariants():
    radii = (2.0, 5.0, 10.0)
    trace = c_star_sequence(K_REF, LK1, radii)
    assert trace.radii == radii
    # masses and theta_R climb toward their full-kernel values
    assert all(b > a for a, b in zip(trace.a_plus_mass, trace.a_plus_mass[1:]))
    assert all(th <= 1.0 + 1e-15 for th in trace.theta_r)
    # c* recovery from below, gaps shrinking
    assert all(b > a for a, b in zip(trace.c_star, trace.c_star[1:]))
    assert all(c < trace.c_star_limit for c in trace.c_star)
    gaps = trace.gaps
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    # every truncated minimizer stays above the a-priori floor
    assert all(lam > trace.lambda_lower for lam in trace.lambda_star)


def test_sequence_matches_direct_minimal_speed():
    trace = c_star_sequence(K_REF, LK1, (4.0,))
    cut = truncate(K_REF, 4.0)
    direct = minimal_speed(KernelPair(cut, truncate(K_REF, 4.0)), LK1)
    assert abs(trace.c_star[0] - direct.c_star) < 1e-12
    assert abs(trace.lambda_star[0] - direct.lambda_star) < 1e-12


def test_domination_of_dispersion_curves():
    # G^(R) <= G pointwise: removing right mass only slows the wave
    trace = c_star_sequence(K_REF, LK1, (3.0, 8.0))
    lams = np.linspace(0.05, 2.0, 30)
    g_full = [g_function(K_REF, LK1, l) if l < 1.0 else math.inf for l in lams]
    g3 = [truncated_g(K_REF, LK1, 3.0, l) for l in lams]
    g8 = [truncated_g(K_REF, LK1, 8.0, l) for l in lams]
    for a, b, c in zip(g3, g8, g_full):
        assert a <= b + 1e-12
        assert b <= c + 1e-12
    assert trace.c_star[0] < trace.c_star[1]


def test_rows_align_with_fields():
    trace = c_star_sequence(K_REF, LK1, (2.0, 5.0))
    rows = trace.rows()
    assert len(rows) == 2
    r0 = rows[0]
    assert r0[0] == 2.0
    assert r0[1] == trace.a_plus_mass[0]
    assert r0[2] == trace.theta_r[0]
    assert r0[3] == trace.lambda_star[0]
    assert r0[4] == trace.c_star[0]
    assert abs(r0[5] - (trace.c_star_limit - trace.c_star[0])) < 1e-15


def test_to_dict_round_trip_keys():
    d = c_star_sequence(K_REF, LK1, (2.0,)).to_dict()
    for key in ("radii", "a_plus_mass", "a_minus_mass", "theta_r",
                "lambda_star", "c_star", "c_star_limit", "lambda_lower"):
        assert key in d


def test_radii_must_increase():
    with pytest.raises(UsageError):
        c_star_sequence(K_REF, LK1, (5.0, 2.0))
    with pytest.raises(UsageError):
        c_star_sequence(K_REF, LK1, ())
    with pytest.raises(UsageError):
        c_star_sequence(K_REF, LK1, (2.0, 2.0))


def test_small_radius_kills_growth():
    # cutting nearly all dispersal mass pushes kappa_plus * A_R below m
    with pytest.raises(AssumptionFailure) as err:
        c_star_sequence(K_REF, Params(1.05, 1.0), (0.01,))
    assert err.value.label == "Q1"


def test_pair_input_accepted():
    trace = c_star_sequence(KernelPair(K_REF, Laplace(2.0)), LK1, (3.0,))
    assert trace.a_minus_mass[0] != trace.a_plus_mass[0]


def _normal_table(step):
    """N(-0.5, 1) sampled on [-6.5, 5.5], scaled to unit point sum."""
    g = np.arange(-6.5, 5.5 + step / 2, step)
    v = np.exp(-0.5 * (g + 0.5) ** 2)
    return Tabulated(float(g[0]), step, tuple(v / (v.sum() * step)))


@pytest.mark.parametrize("step", [0.05, 0.01])
def test_tabulated_sequence_climbs_to_its_own_limit(step, monkeypatch):
    # a cut table is the comb below the cutoff: summed, never integrated,
    # and past the last node it is the table itself
    def no_quadrature(*args, **kw):
        raise AssertionError("a tabulated cut reached quadrature")
    monkeypatch.setattr(kernels, "_quad_split", no_quadrature)
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        trace = c_star_sequence(_normal_table(step), LK1, (2.0, 5.0, 10.0, 20.0, 40.0))
    assert all(gap >= 0.0 for gap in trace.gaps)
    assert trace.gaps[2:] == (0.0, 0.0, 0.0)


def test_sequence_of_a_cut_kernel_stops_at_its_cutoff():
    # the levels past the inner cutoff are the cut kernel itself
    trace = c_star_sequence(Truncated(K_REF, 1.0), LK1, (0.5, 2.0, 5.0))
    assert all(gap >= 0.0 for gap in trace.gaps)
    assert trace.c_star[1:] == (trace.c_star_limit, trace.c_star_limit)


def test_sequence_computes_each_piece_once():
    # a level's transform below 0 is its base's, so the five levels, the
    # limit and the lower barrier share those pieces: 276 QUADPACK calls
    # instead of 441. From emptied caches the same call makes the same
    # ones and returns the same trace
    radii = [40.0 * f for f in (0.05, 0.125, 0.25, 0.5, 1.0)]
    runs = []
    for _ in range(2):
        for cache in (kernels._tilted_piece, kernels.check_assumptions, minimal_speed):
            cache.cache_clear()
        trace = c_star_sequence(K_REF, LK1, radii)
        info = kernels._tilted_piece.cache_info()
        runs.append((repr(trace), info.misses, info.hits))
    assert runs[1] == runs[0]
    assert runs[0][1:] == (276, 165)


def test_gaussian_sequence_reads_each_mass_once():
    # a Gaussian has no closed-form cdf: each level's mass is two memo
    # pieces, [-inf, 0] shared by every level and [0, R], and each mass is
    # read once. 220 QUADPACK calls; computing the base's cdf afresh at
    # every mass read made 247
    for cache in (kernels._tilted_piece, kernels.check_assumptions, minimal_speed):
        cache.cache_clear()
    trace = c_star_sequence(Gaussian(1.0), LK1, (1.0, 2.0, 4.0, 8.0))
    info = kernels._tilted_piece.cache_info()
    assert (info.misses, info.hits) == (220, 140)
    assert trace.a_plus_mass == trace.a_minus_mass
    assert trace.a_plus_mass[0] == Gaussian(1.0).cdf(1.0)
