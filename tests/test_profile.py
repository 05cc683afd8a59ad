"""Wave profile solver: residuals, monotonicity, tails, shifts, reflection."""

import warnings

import numpy as np
import pytest
from numpy.linalg import LinAlgError

from nlkpp.dispersion import minimal_speed, speed_to_abscissa
from nlkpp.errors import (AssumptionFailure, NonConvergence, NoWave,
                          UsageError)
from nlkpp.kernels import (ExpPoly, Gaussian, KernelPair, Laplace, Params,
                           Truncated, Uniform, theta)
from nlkpp.profile import (Convolver, GridSpec, WaveProfile, _band_solver,
                           _make_workspace, compare_up_to_shift, normalize_shift,
                           residual, solve_profile, tail_asymptotics)

LK1 = Params(2.0, 1.0, 1.0, 0.0)
PAIR = KernelPair(Laplace(1.0), Laplace(1.0))

# competition-split variant: wide nonlocal suppression, theta = 2/3
KN_PARAMS = Params(2.0, 1.0, 1.0, 0.5)
KN_PAIR = KernelPair(Laplace(1.0), Laplace(2.0))


@pytest.fixture(scope="module")
def rep():
    return minimal_speed(PAIR, LK1)


@pytest.fixture(scope="module")
def prof_critical(rep):
    return solve_profile(PAIR, LK1, rep.c_star, report=rep)


@pytest.fixture(scope="module")
def prof_4(rep):
    return solve_profile(PAIR, LK1, 4.0, report=rep)


def _strictly_decreasing(prof, floor=1e-12):
    v = prof.values
    live = v[:-1] > floor
    return bool(np.all(np.diff(v)[live] < 0.0))


# ---------------------------------------------------------------------------
# convolution operator

def test_convolver_matches_fftconvolve_and_direct_rows():
    from scipy.signal import fftconvolve
    conv = Convolver(Laplace(1.0), 0.05)
    w = conv.w
    assert abs(w.sum() - 1.0) < 1e-14
    for n in (3000, 5000, 3000):   # the spectrum is recomputed per FFT length
        ext = np.exp(-0.02 * np.arange(n + 2 * conv.K))
        # the circular FFT stays within fftconvolve's own roundoff bound
        exact = _long_double_rows(ext, w, 0, n)
        bound = 4 * np.finfo(float).eps * np.abs(ext).max()
        assert np.abs(conv(ext, n) - exact).max() <= bound
        assert np.abs(fftconvolve(ext, w, mode="valid")[:n] - exact).max() <= bound
        i_deep = n // 2
        direct = np.convolve(ext, w, "valid")[:n]
        out = conv(ext, n, i_deep=i_deep, rate=0.02 / 0.05)
        assert np.allclose(out[i_deep:], direct[i_deep:], rtol=1e-12, atol=0.0)
        assert np.array_equal(out[:i_deep], conv(ext, n)[:i_deep])


def test_fft_lengths_fit_the_rows_read(monkeypatch):
    # every transform is sized by the rows its caller reads: none reaches
    # the linear length of the widest input, the sweeps' N + 3K cells, and
    # the Newton phases' windows use shorter ones
    import nlkpp.profile
    from scipy.fft import next_fast_len
    ws = _make_workspace(PAIR, LK1, 4.0, GridSpec())
    lengths, rfft = [], nlkpp.profile.rfft

    def recording_rfft(x, n=None, *args, **kwargs):
        lengths.append(n)
        return rfft(x, n, *args, **kwargs)

    monkeypatch.setattr(nlkpp.profile, "rfft", recording_rfft)
    psi = solve_profile(PAIR, LK1, 4.0).values
    limit = next_fast_len(ws.N + 3 * ws.K, True)
    assert max(lengths) <= limit
    assert min(lengths) < limit
    # the Jacobian products pad their windows with zeros and add the pads'
    # responses, so the wrap-around needs K cells of room, not 2K
    i_cut = int(np.searchsorted(-psi, -1e-3 * ws.th))
    for lo, hi in ((0, i_cut), (i_cut, ws.N), (0, ws.N)):
        _diag, jmv = ws.linearize(psi, lo=lo, hi=hi)
        lengths.clear()
        jmv(psi[lo:hi])
        assert set(lengths) == {next_fast_len(hi - lo + ws.K, True)}


@pytest.mark.parametrize("n_over_k", [0.3, 1.0, 1.02, 6.0],
                         ids=["n<K", "n=K", "n~K", "n>>K"])
@pytest.mark.parametrize("shapes", ["constant", "linearization"])
def test_pad_responses_match_long_double_sum(shapes, n_over_k):
    # [u[0] lshape, u, u[-1] rshape] convolved through the zero-padded FFT
    # and the precomputed pad responses, against the padded sum
    ws = _make_workspace(PAIR, LK1, 4.0, GridSpec(l_left=30.0, l_right=60.0, h=0.05))
    K, th = ws.K, ws.th
    if shapes == "constant":       # the time stepper's panels
        lshape = rshape = np.ones(K)
    else:                          # the Jacobian's: d lpad / d psi0, decay ansatz
        lshape, rshape = ws.dlpad(0.8 * th), ws.tailg(ws.s[-1], K)
        assert np.ptp(lshape) > 0.5 and np.ptp(rshape) > 0.5
    n = int(n_over_k * K)
    u = th * np.random.default_rng(7).uniform(0.2, 1.0, n)
    ext = np.concatenate([u[0] * lshape, u, u[-1] * rshape])
    conv = ws.conv_plus
    out = conv.with_pads(u, conv.pad_responses(lshape, rshape))
    exact = _long_double_rows(ext, conv.w, 0, n)
    assert np.abs(out - exact).max() <= 4 * np.finfo(float).eps * np.abs(ext).max()


# a few ulps: the tilted FFT's error floor sits at the scale of the tail
DEEP_RTOL = 8e-15


def _long_double_rows(ext, w, start, stop):
    """Rows start..stop-1 of the valid convolution, summed in long double."""
    e, wr = ext.astype(np.longdouble), w[::-1].astype(np.longdouble)
    return np.array([np.dot(e[i:i + len(w)], wr) for i in range(start, stop)])


@pytest.mark.parametrize("factor", [1.0, 2.0])
def test_deep_rows_match_long_double_sum(rep, factor):
    # the rows below 1e-6 theta of a converged profile, where the tail
    # claims are checked, as the residual convolves them
    c = factor * rep.c_star
    prof = solve_profile(PAIR, LK1, c, report=rep)
    ws = _make_workspace(PAIR, LK1, c, GridSpec(), report=rep)
    ext = ws.build_ext(prof.values)
    i_dp = ws.i_deep(prof.values)
    out = ws.conv_plus(ext, ws.N, i_dp, ws.lam_c)[i_dp:]
    exact = _long_double_rows(ext, ws.conv_plus.w, i_dp, ws.N)
    assert np.abs((out - exact) / exact).max() <= DEEP_RTOL


@pytest.mark.parametrize("lo,hi", [(-0.5, 2.0), (-2.0, 0.5)])
def test_deep_rows_on_skewed_kernels(lo, hi):
    # pins the direction of the tilt: weights tilted the wrong way miss
    # by 45% and 82% on these kernels
    conv = Convolver(Uniform(lo, hi), 0.05)
    n = 4000
    ext = np.exp(-0.02 * np.arange(n + 2 * conv.K))
    out = conv(ext, n, i_deep=n // 2, rate=0.02 / 0.05)[n // 2:]
    exact = _long_double_rows(ext, conv.w, n // 2, n)
    assert np.abs((out - exact) / exact).max() <= DEEP_RTOL


def test_long_grid_tilt_stays_in_range():
    # lambda_c * l_right ~ 897: one tilt over the whole tail would overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        prof = solve_profile(PAIR, LK1, 4.0,
                             grid=GridSpec(l_left=30.0, l_right=3000.0, h=0.1))
    assert prof.residual_sup <= 1e-6


def test_long_left_grid_supersolution_stays_in_range():
    # lambda_c * l_left ~ 897: the initial supersolution must not form e^{897}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        prof = solve_profile(PAIR, LK1, 4.0,
                             grid=GridSpec(l_left=3000.0, l_right=60.0, h=0.1))
    assert prof.residual_sup <= 1e-6


# ---------------------------------------------------------------------------
# residual and shape

def test_critical_profile_residual(prof_critical):
    assert prof_critical.residual_sup <= 1e-6
    assert _strictly_decreasing(prof_critical)


def test_supercritical_profile_residual(prof_4):
    assert prof_4.residual_sup <= 1e-6
    assert _strictly_decreasing(prof_4)


def test_boundary_values(prof_critical, prof_4):
    th = theta(LK1)
    for prof in (prof_critical, prof_4):
        assert abs(prof.values[0] - th) < 1e-4
        assert abs(prof.values[-1]) < 1e-4
        assert 0.0 <= prof.values.min() and prof.values.max() <= th * (1 + 1e-12)


def test_half_theta_normalization(prof_critical, prof_4):
    th = theta(LK1)
    for prof in (prof_critical, prof_4):
        assert abs(prof.interp(0.0) - th / 2.0) < 1e-12
        assert prof.shift_mode == "half-theta-at-origin"


@pytest.mark.parametrize("case", ["reference", "explicit-grid", "increasing"])
def test_residual_reevaluation_matches(case, prof_4, rep):
    """residual() rebuilds the operator on the profile's own grid, whether
    the solve chose it, was given it, or the profile was reflected."""
    if case == "explicit-grid":
        prof = solve_profile(PAIR, LK1, 4.0, report=rep,
                             grid=GridSpec(l_left=40.0, l_right=60.0, h=0.02))
    else:
        prof = prof_4 if case == "reference" else prof_4.reflect()
    assert abs(residual(prof, PAIR, LK1) - prof.residual_sup) \
        <= 1e-9 + 1e-6 * prof.residual_sup


def test_decay_rate_matches_dispersion(prof_critical, prof_4, rep):
    fit_c = tail_asymptotics(prof_critical)
    assert abs(fit_c.rate - rep.lambda_star) < 0.02 * rep.lambda_star
    root = speed_to_abscissa(PAIR, LK1, 4.0, rep)
    fit_4 = tail_asymptotics(prof_4)
    assert abs(fit_4.rate - root.lambda_c) < 0.02 * root.lambda_c


def test_j_estimate_tracks_multiplicity(prof_critical, prof_4):
    assert prof_critical.multiplicity == 2
    assert prof_4.multiplicity == 1
    assert abs(tail_asymptotics(prof_4).j_estimate - 1.0) < 0.15
    # the critical double root shows up as s e^{-lam s}; the log-log slope
    # overshoots 2 slightly on any finite window (subleading correction)
    assert abs(tail_asymptotics(prof_critical).j_estimate - 2.0) < 0.15


def test_lambda_c_recorded(prof_4, rep):
    root = speed_to_abscissa(PAIR, LK1, 4.0, rep)
    assert abs(prof_4.lambda_c - root.lambda_c) < 1e-12
    assert prof_4.speed == 4.0
    assert prof_4.orientation == "decreasing"


# ---------------------------------------------------------------------------
# the monotone phase really is monotone

def test_sweeps_decrease_pointwise():
    seen = []

    def hook(it, psi):
        if it % 10 == 0:
            seen.append(psi)

    solve_profile(PAIR, LK1, 4.0, sweep_hook=hook)
    assert len(seen) >= 4
    # pointwise ordered up to FFT convolution noise (absolute, ~1e-12 here)
    for a, b in zip(seen, seen[1:]):
        assert np.all(b <= a + 1e-10)
    # and the decrease in the front region is genuine, far above the noise
    assert np.max(seen[0] - seen[-1]) > 1e-2


# ---------------------------------------------------------------------------
# the Newton linearization

def test_linearize_matches_finite_difference_at_left_panel():
    # criterion 7's grid: the left panel depends on psi[0], so a direction
    # with u[0] != 0 moves the first K rows through the padding as well
    ws = _make_workspace(PAIR, LK1, 4.0, GridSpec(l_left=30.0, l_right=60.0, h=0.01))
    th, s = ws.th, ws.s
    psi = np.minimum(th, th * np.exp(-ws.lam_c * s))
    psi[s < 0] = th - 0.1 * th * np.exp(ws.lam_left * s[s < 0])
    u = np.exp(-0.05 * np.abs(s))
    _diag, jmv = ws.linearize(psi)
    eps = 1e-7
    fd = (ws.residual_vec(psi + eps * u) - ws.residual_vec(psi - eps * u)) / (2 * eps)
    rows = slice(0, 2 * ws.K)
    assert np.abs(jmv(u)[rows] - fd[rows]).max() <= 1e-5 * np.abs(fd[rows]).max()


def test_linearize_matches_finite_difference_at_right_panel():
    # the tail window reaches the right end, so a direction with u[-1] != 0
    # moves the last K rows through the decay ansatz of the right panel
    ws = _make_workspace(PAIR, LK1, 4.0, GridSpec(l_left=30.0, l_right=60.0, h=0.01))
    th, s = ws.th, ws.s
    psi = np.minimum(th, th * np.exp(-ws.lam_c * s))
    i_cut = int(np.searchsorted(-psi, -1e-3 * th))
    u = np.zeros(ws.N)
    u[i_cut:] = np.exp(-0.05 * np.abs(s[i_cut:]))
    _diag, jmv = ws.linearize(psi, lo=i_cut)
    eps = 1e-7
    fd = (ws.residual_vec(psi + eps * u, lo=i_cut)
          - ws.residual_vec(psi - eps * u, lo=i_cut)) / (2 * eps)
    rows = slice(-2 * ws.K, None)
    assert np.abs(jmv(u[i_cut:])[rows] - fd[rows]).max() <= 1e-5 * np.abs(fd[rows]).max()


def test_factored_band_solves_like_solve_banded(prof_4):
    # the Newton phases' preconditioners at c = 4: the bulk band, and the
    # tail band in tilted coordinates, factored once and applied many times
    from scipy.linalg import solve_banded
    ws = _make_workspace(PAIR, LK1, 4.0, GridSpec())
    psi, th = prof_4.values, ws.th
    i_cut = int(np.searchsorted(-psi, -1e-3 * th))
    E = np.maximum(psi[i_cut - 1] * ws.tailg(ws.s[i_cut - 1], ws.N - i_cut), 1e-13 * th)
    bulk = ws.band(ws.linearize(psi, hi=i_cut)[0])
    tail = ws.band(ws.linearize(psi, lo=i_cut)[0], E[1:] / E[:-1], E[:-1] / E[1:])
    rng = np.random.default_rng(3)
    for ab in (bulk, tail):
        solve = _band_solver(ab)
        for _ in range(3):
            b = rng.normal(size=ab.shape[1])
            ref = solve_banded((1, 1), ab, b)
            assert np.abs(solve(b) - ref).max() <= 1e-14 * np.abs(ref).max()


def test_singular_band_raises():
    # [[1, 1, 0], [1, 1, 0], [0, 1, 1]]: the first two rows are equal
    from scipy.linalg import solve_banded
    ab = np.array([[0.0, 1.0, 0.0], [1.0, 1.0, 1.0], [1.0, 1.0, 0.0]])
    with pytest.raises(LinAlgError, match="singular matrix"):
        solve_banded((1, 1), ab, np.ones(3))
    with pytest.raises(LinAlgError, match="singular matrix"):
        _band_solver(ab)


@pytest.mark.parametrize("pair,params,c", [
    (PAIR, LK1, 4.0),
    # nonlocal competition: the window feeds the second convolution too
    (KernelPair(Gaussian(1.0), Gaussian(0.5)), Params(2.0, 1.0, 0.5, 0.5), 2.6)],
    ids=["reference", "gaussian-nonlocal"])
def test_row_windows_match_the_whole_grid(pair, params, c):
    # the Newton phases' windows: bulk rows before i_cut, tail rows after
    psi = solve_profile(pair, params, c).values
    ws = _make_workspace(pair, params, c, GridSpec())
    th, N = ws.th, ws.N
    i_cut = int(np.searchsorted(-psi, -1e-3 * th))
    i_dp = ws.i_deep(psi)
    # plain rows: each convolution is within 4 eps max|ext| of the exact
    # sum on either side (see the Convolver test), and enters the rows
    # times kappa_plus and kappa_nonlocal psi
    plain = 8 * np.finfo(float).eps * (params.kappa_plus + params.kappa_nonlocal * th)
    for i_deep in (None, i_dp):
        full = ws.residual_vec(psi, i_deep=i_deep)
        bulk = ws.residual_vec(psi, i_deep=i_deep, hi=i_cut)
        assert np.abs(bulk - full[:i_cut]).max() <= plain * th
        tail = ws.residual_vec(psi, i_deep=i_deep, lo=i_cut)
        d = np.abs(tail - full[i_cut:])
        k = N - i_cut if i_deep is None else i_deep - i_cut
        assert d[:k].max() <= plain * th
        # deep rows: the tilted sums are the same on both; what is left is
        # the second convolution's roundoff, times kappa_nonlocal psi
        assert np.all(d[k:] <= 2 * DEEP_RTOL * psi[i_cut + k:])
    u = th * np.exp(-0.05 * np.abs(ws.s))
    _diag, jmv = ws.linearize(psi)
    for lo, hi in ((0, i_cut), (i_cut, N)):
        uz = np.zeros(N)
        uz[lo:hi] = u[lo:hi]
        _diag, jw = ws.linearize(psi, lo=lo, hi=hi)
        assert np.abs(jw(u[lo:hi]) - jmv(uz)[lo:hi]).max() <= plain * th


def test_gaussian_nonlocal_pair_fast_front():
    # a high speed where sweeps run far past the warm start drift along the
    # shift family and leave Newton stalled at residual 1e-2
    pair = KernelPair(Gaussian(1.0), Gaussian(0.5))
    params = Params(2.0, 1.0, 0.5, 0.5)
    rep = minimal_speed(pair, params)
    prof = solve_profile(pair, params, 2.157 * rep.c_star, report=rep)
    assert prof.residual_sup <= 1e-6
    assert _strictly_decreasing(prof)


# ---------------------------------------------------------------------------
# shifts, anchors, uniqueness

def test_anchor_invariance(prof_4):
    other = solve_profile(PAIR, LK1, 4.0, anchor=5.0)
    assert compare_up_to_shift(prof_4, other) <= 1e-5


def test_compare_detects_actual_shift(prof_4):
    # shifted(q) is psi(. + q): the half-theta crossing moves to -q
    moved = prof_4.shifted(1.3)
    assert abs(moved.crossing(theta(LK1) / 2.0) + 1.3) < 1e-12
    assert compare_up_to_shift(prof_4, moved) < 1e-10


def test_compare_rejects_speed_mismatch(prof_4, prof_critical):
    with pytest.raises(UsageError):
        compare_up_to_shift(prof_4, prof_critical)


def test_half_theta_idempotent(prof_4):
    again = normalize_shift(prof_4, "half-theta-at-origin")
    assert np.array_equal(again.values, prof_4.values)
    assert np.array_equal(again.grid, prof_4.grid)
    # crossing() reads increasing profiles on their own branch
    mirrored = prof_4.reflect()
    again = normalize_shift(mirrored, "half-theta-at-origin")
    assert np.array_equal(again.values, mirrored.values)
    assert np.array_equal(again.grid, mirrored.grid)


def test_half_theta_idempotent_after_shift(prof_4):
    # a crossing far from the origin leaves its own roundoff after one shift
    for prof in (prof_4, prof_4.reflect()):
        once = normalize_shift(prof.shifted(1.3), "half-theta-at-origin")
        assert np.max(np.abs(once.grid - prof.grid)) < 1e-12
        again = normalize_shift(once, "half-theta-at-origin")
        assert np.array_equal(again.values, once.values)
        assert np.array_equal(again.grid, once.grid)


def test_unit_d_normalization(prof_4):
    once = normalize_shift(prof_4, "unit-D", pair=PAIR, params=LK1)
    twice = normalize_shift(once, "unit-D", pair=PAIR, params=LK1)
    q = twice.crossing(theta(LK1) / 2.0) - once.crossing(theta(LK1) / 2.0)
    assert abs(q) < 1e-6
    # formula route and fit route agree away from the critical speed
    fit = tail_asymptotics(once)
    assert abs(fit.D_estimate - 1.0) < 0.05


def test_unknown_shift_mode(prof_4):
    with pytest.raises(UsageError):
        normalize_shift(prof_4, "left-edge")


# ---------------------------------------------------------------------------
# reflection / negative speeds

def test_negative_speed_is_mirror(prof_4):
    mirrored = solve_profile(PAIR, LK1, -4.0)
    assert mirrored.orientation == "increasing"
    assert mirrored.speed == -4.0
    assert np.allclose(mirrored.values, prof_4.values[::-1], atol=1e-12)
    assert np.allclose(mirrored.grid, -prof_4.grid[::-1], atol=1e-12)


def test_report_of_the_pair_is_ignored_by_the_mirrored_solve():
    """A report describes rightward fronts of the pair as passed. For c < 0
    the mirrored solve needs the reflected pair's own, which differs when
    the kernel is skewed: Uniform(-2, 0.5) has c* = 0.0395 to the right and
    4.0386 to the left. Passing the pair's report must change nothing."""
    k = Uniform(-2.0, 0.5)
    pair = KernelPair(k, k)
    rep = minimal_speed(pair, LK1)
    c_left = minimal_speed(pair.reflected(), LK1).c_star
    assert rep.c_star < 0.05 and c_left > 4.0
    for factor in (1.2, 3.0):
        plain = solve_profile(pair, LK1, -factor * c_left)
        given = solve_profile(pair, LK1, -factor * c_left, report=rep)
        assert np.array_equal(given.grid, plain.grid)
        assert np.array_equal(given.values, plain.values)
        assert given.lambda_c == plain.lambda_c


def test_reflect_round_trip(prof_4):
    back = prof_4.reflect().reflect()
    assert np.array_equal(back.values, prof_4.values)
    assert back.speed == prof_4.speed


def test_residual_on_increasing_orientation(prof_4):
    assert residual(prof_4.reflect(), PAIR, LK1) <= 1e-6


def test_crossing_on_increasing_orientation(prof_4):
    r = prof_4.reflect()
    assert abs(r.crossing(theta(LK1) / 2.0)) < 1e-12
    with pytest.raises(UsageError):
        r.crossing(2.0 * theta(LK1))


# ---------------------------------------------------------------------------
# competition-split kernels

def test_nonlocal_competition_profile():
    rep = minimal_speed(KN_PAIR, KN_PARAMS)
    prof = solve_profile(KN_PAIR, KN_PARAMS, 1.2 * rep.c_star, report=rep)
    th = theta(KN_PARAMS)
    assert abs(th - 2.0 / 3.0) < 1e-12
    assert prof.residual_sup <= 1e-6
    assert _strictly_decreasing(prof)
    assert abs(prof.values[0] - th) < 1e-4
    root = speed_to_abscissa(KN_PAIR, KN_PARAMS, 1.2 * rep.c_star, rep)
    fit = tail_asymptotics(prof)
    assert abs(fit.rate - root.lambda_c) < 0.02 * root.lambda_c


def test_competition_kernel_does_not_move_c_star():
    # the nonlinearity is quadratic near zero; the linearization, and with it
    # the minimal speed, only sees a_plus
    assert abs(minimal_speed(KN_PAIR, KN_PARAMS).c_star
               - minimal_speed(PAIR, LK1).c_star) < 1e-12


# ---------------------------------------------------------------------------
# wide finite-abscissa kernel (endpoint minimizer)

def test_w_class_profile_coarse_grid():
    k = ExpPoly(1.0, 3.0, 0.05)
    pair = KernelPair(k, k)
    rep = minimal_speed(pair, LK1)
    assert rep.kernel_class == "W"
    assert rep.lambda_star == k.sigma_right
    prof = solve_profile(pair, LK1, rep.c_star, grid=GridSpec(h=0.05),
                         report=rep)
    assert prof.residual_sup <= 1e-6
    assert _strictly_decreasing(prof)
    fit = tail_asymptotics(prof)
    assert abs(fit.rate - rep.lambda_star) < 0.02 * rep.lambda_star


# ---------------------------------------------------------------------------
# grid control and error paths

def test_grid_overrides():
    prof = solve_profile(PAIR, LK1, 4.0, grid=GridSpec(l_left=40.0,
                                                       l_right=60.0, h=0.02))
    assert abs(prof.h - 0.02) < 1e-9
    span = prof.grid[-1] - prof.grid[0]
    assert abs(span - 100.0) < 1.0


def test_zero_speed_rejected():
    with pytest.raises(AssumptionFailure) as err:
        solve_profile(PAIR, LK1, 0.0)
    assert err.value.label == "c-zero-unsupported"


def test_below_minimal_speed_rejected(rep):
    with pytest.raises(NoWave):
        solve_profile(PAIR, LK1, 0.9 * rep.c_star)


def test_truncated_kernel_rejected():
    cut = Truncated(Laplace(1.0), 5.0)
    with pytest.raises(UsageError):
        solve_profile(KernelPair(cut, cut), LK1, 4.0)


def test_failing_assumptions_rejected():
    with pytest.raises(AssumptionFailure) as err:
        solve_profile(PAIR, Params(0.5, 1.0), 4.0)
    assert err.value.label == "Q1"


def test_tail_fit_needs_enough_points(prof_4):
    short = WaveProfile(grid=prof_4.grid[:200], values=prof_4.values[:200],
                        speed=prof_4.speed, lambda_c=prof_4.lambda_c,
                        multiplicity=prof_4.multiplicity, theta=prof_4.theta,
                        residual_sup=prof_4.residual_sup)
    with pytest.raises(NonConvergence) as err:
        tail_asymptotics(short)
    assert err.value.label == "tail-underresolved"


def test_crossing_requires_straddled_level(prof_4):
    with pytest.raises(UsageError):
        prof_4.crossing(5.0)
