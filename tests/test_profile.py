"""Wave profile solver: residuals, monotonicity, tails, shifts, reflection."""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from numpy.linalg import LinAlgError

from nlkpp.dispersion import left_rate, minimal_speed, speed_to_abscissa
from nlkpp.errors import (AssumptionFailure, NonConvergence, NoWave,
                          UsageError)
from nlkpp.kernels import (ExpPoly, Gaussian, KernelPair, Laplace, Params,
                           Truncated, Uniform, theta)
from nlkpp.profile import (_LEFT_EFOLD, _RIGHT_EFOLD, _TAIL_TOL, Convolver, GridSpec,
                           WaveProfile, _band_solver, _half_width, _make_workspace, _newton,
                           _sweep_phase, compare_up_to_shift, normalize_shift, residual,
                           solve_profile, tail_asymptotics)

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


@pytest.fixture(scope="module")
def prof_minus_4():
    return solve_profile(PAIR, LK1, -4.0)


def _strictly_decreasing(prof, floor=1e-12):
    v = prof.values
    live = v[:-1] > floor
    return bool(np.all(np.diff(v)[live] < 0.0))


# ---------------------------------------------------------------------------
# convolution operator

def test_convolver_matches_fftconvolve_and_direct_rows():
    from scipy.signal import fftconvolve
    conv = Convolver(Laplace(1.0), 0.05, _half_width(Laplace(1.0), 0.05))
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
    # every transform is sized by the rows its caller reads: none passes
    # next_fast_len(N + 3K), above the longest input (the N + 2K + 1 cells
    # of build_ext), and the Newton phases' windows use shorter ones
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
    else:                          # the Jacobian's: the panels' front-like shapes
        lshape, rshape = ws.lshape, ws.tailg(ws.s[-1], K)
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
    # the tail rows of a converged profile, below 1e-3 theta, where the
    # tail claims are checked, as the residual convolves them
    c = factor * rep.c_star
    prof = solve_profile(PAIR, LK1, c, report=rep)
    ws = _make_workspace(PAIR, LK1, c, GridSpec())
    ext = ws.build_ext(prof.values)
    i_cut = ws.bulk_end(prof.values)
    out = ws.conv_plus(ext, ws.N, i_cut, ws.lam_c)[i_cut:]
    exact = _long_double_rows(ext, ws.conv_plus.w, i_cut, ws.N)
    assert np.abs((out - exact) / exact).max() <= DEEP_RTOL


@pytest.mark.parametrize("lo,hi", [(-0.5, 2.0), (-2.0, 0.5)])
def test_deep_rows_on_skewed_kernels(lo, hi):
    # pins the direction of the tilt: weights tilted the wrong way miss
    # by 45% and 82% on these kernels
    conv = Convolver(Uniform(lo, hi), 0.05, _half_width(Uniform(lo, hi), 0.05))
    n = 4000
    ext = np.exp(-0.02 * np.arange(n + 2 * conv.K))
    out = conv(ext, n, i_deep=n // 2, rate=0.02 / 0.05)[n // 2:]
    exact = _long_double_rows(ext, conv.w, n // 2, n)
    assert np.abs((out - exact) / exact).max() <= DEEP_RTOL


def test_grid_too_large_refused_by_name():
    # at c = 1e5 both rates are about 1e-5 and h = 1/(20 lambda_c): the
    # default spans ask for about 6e8 points, 4.8 GB per float64 array
    c = 1e5
    lam_c = speed_to_abscissa(PAIR, LK1, c).lambda_c
    lam_left = left_rate(PAIR, LK1, c)
    h = min(0.01, 1.0 / (20.0 * lam_c))
    n = int(round((_LEFT_EFOLD / lam_left + _RIGHT_EFOLD / lam_c) / h)) + 1
    assert n > 5e8
    with pytest.raises(UsageError, match=f"the grid needs {n} points"):
        solve_profile(PAIR, LK1, c)
    with pytest.raises(UsageError, match="above the limit"):
        solve_profile(PAIR, LK1, 4.0, grid=GridSpec(l_left=100.0, l_right=100.0, h=1e-4))


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

def test_sweeps_decrease_pointwise(monkeypatch):
    # the warm start's 40 sweeps, taken ten at a time from the supersolution
    ws = _make_workspace(PAIR, LK1, 4.0, GridSpec())
    monkeypatch.setattr("nlkpp.profile._SWEEPS", 10)
    psi, seen = ws.th * np.exp(-ws.lam_c * np.maximum(ws.s, 0.0)), []
    for _ in range(4):
        psi = _sweep_phase(ws, psi)
        seen.append(psi)
    assert len(seen) >= 4
    # pointwise ordered up to FFT convolution noise (absolute, ~1e-12 here)
    for a, b in zip(seen, seen[1:]):
        assert np.all(b <= a + 1e-10)
    # and the decrease in the front region is genuine, far above the noise
    assert np.max(seen[0] - seen[-1]) > 1e-2


def _long_double_sweep(ws, psi, left, right):
    """One sweep written out: the panels theta - (theta - psi[0]) e^{lambda_left ds}
    or psi[0] on the left and psi[-1] times the decay ansatz or psi[-1] on
    the right, K + 1 cells, the rows of the grid and of that first right
    cell summed in long double, and the recursion y[i] = x[i] + alpha
    y[i+1] closed by y[N] = the first right cell, as a banded solve."""
    from scipy.linalg import solve_banded
    c, rho, h, N, K, th = ws.c, ws.rho, ws.h, ws.N, ws.K, ws.th
    alpha, beta = np.exp(-rho * h / c), rho / c
    I0 = (1 - alpha) / beta
    I1 = (1 - alpha) / (h * beta * beta) - alpha / beta
    if left == "front":
        lpanel = th - (th - psi[0]) * np.exp(ws.lam_left * h * np.arange(-K, 0))
    else:
        lpanel = np.full(K, psi[0])
    rshape = ws.tailg(ws.s[-1], K + 1) if right == "decaying" else np.ones(K + 1)
    ext = np.concatenate([lpanel, psi, psi[-1] * rshape])
    vals = ext[K:K + N + 1]
    narr = (rho - ws.m) * vals + ws.kp * _long_double_rows(ext, ws.conv_plus.w, 0, N + 1) \
        - ws.kl * vals * vals
    if ws.kn:
        narr -= ws.kn * vals * _long_double_rows(ext, ws.conv_minus.w, 0, N + 1)
    x = (I0 - I1) / c * narr[:-1] + I1 / c * narr[1:]
    x[-1] += alpha * vals[-1]
    ab = np.zeros((2, N))
    ab[0, 1:], ab[1] = -alpha, 1.0
    return np.clip(solve_banded((0, 1), ab, x), 0.0, th)


@pytest.mark.parametrize("left", ["front", "constant"])
@pytest.mark.parametrize("right", ["decaying", "constant"])
@pytest.mark.parametrize("pair,params", [(PAIR, LK1), (KN_PAIR, KN_PARAMS)],
                         ids=["reference", "nonlocal"])
def test_sweep_on_pad_responses_matches_full_ext(monkeypatch, pair, params, left, right):
    # one sweep against the padded sum written out in the test; the left
    # panel is affine in psi[0] where it is front-like. At c = 40 the
    # recursion carries its closure, the right panel's first cell, over the
    # kernel's reach (e^{-rho R / c} ~ 5%) into psi's rows
    ws = _make_workspace(pair, params, 40.0, GridSpec(l_left=30.0, l_right=60.0, h=0.05))
    th = ws.th
    top = 0.8 * th if left == "front" else th
    end = 0.3 * th if right == "decaying" else 0.7 * th
    psi = end + (top - end) / (1.0 + np.exp(ws.s))
    psi[0], psi[-1] = top, end
    assert (ws.pad_shapes(psi)[0] is ws.lshape) == (left == "front")
    monkeypatch.setattr("nlkpp.profile._SWEEPS", 1)
    ref = _long_double_sweep(ws, psi, left, right)
    assert np.abs(_sweep_phase(ws, psi) - ref).max() <= 1e-12 * np.abs(ref).max()


def test_sweep_runs_at_one_fft_length(monkeypatch):
    # a sweep convolves the vector the residual reads, N + 2K + 1 cells,
    # and nothing else: no transform of its own panels
    import nlkpp.profile
    from scipy.fft import next_fast_len
    ws = _make_workspace(PAIR, LK1, 4.0, GridSpec())
    psi = ws.th * np.exp(-ws.lam_c * np.maximum(ws.s, 0.0))
    lengths, rfft = set(), nlkpp.profile.rfft

    def recording_rfft(x, n=None, *args, **kwargs):
        lengths.add(n)
        return rfft(x, n, *args, **kwargs)

    monkeypatch.setattr(nlkpp.profile, "rfft", recording_rfft)
    monkeypatch.setattr("nlkpp.profile._SWEEPS", 1)
    _sweep_phase(ws, psi)
    assert lengths == {next_fast_len(ws.N + 2 * ws.K + 1, True)}


@pytest.mark.parametrize("pair,params", [(PAIR, LK1), (KN_PAIR, KN_PARAMS)],
                         ids=["reference", "nonlocal"])
@pytest.mark.parametrize("state", ["zero", "theta"])
def test_sweep_keeps_the_stationary_states(monkeypatch, pair, params, state):
    # psi = 0 and psi = theta are fixed points of a sweep, bit for bit: the
    # panels continue them as constants, and the recursion's closure is theta
    ws = _make_workspace(pair, params, 4.0, GridSpec())
    psi = np.full(ws.N, 0.0 if state == "zero" else ws.th)
    monkeypatch.setattr("nlkpp.profile._SWEEPS", 1)
    assert np.array_equal(_sweep_phase(ws, psi), psi)


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
    # moves the last K rows through the decay ansatz of the right panel;
    # on the flat states 0.7 theta and 0.95 theta, over the whole window,
    # the right panel is constant and the left one front-like
    ws = _make_workspace(PAIR, LK1, 4.0, GridSpec(l_left=30.0, l_right=60.0, h=0.01))
    th, s = ws.th, ws.s
    psi = np.minimum(th, th * np.exp(-ws.lam_c * s))
    i_cut = int(np.searchsorted(-psi, -1e-3 * th))
    u = np.zeros(ws.N)
    u[i_cut:] = np.exp(-0.05 * np.abs(s[i_cut:]))
    cases = [(psi, i_cut, u)] + [(np.full(ws.N, f * th), 0, np.exp(-0.05 * np.abs(s)))
                                 for f in (0.7, 0.95)]
    eps, rows = 1e-7, slice(-2 * ws.K, None)
    for psi, lo, u in cases:
        _diag, jmv = ws.linearize(psi, lo=lo)
        fd = (ws.residual_vec(psi + eps * u, lo=lo)
              - ws.residual_vec(psi - eps * u, lo=lo)) / (2 * eps)
        assert np.abs(jmv(u[lo:])[rows] - fd[rows]).max() <= 1e-5 * np.abs(fd[rows]).max()


@pytest.mark.parametrize("level", [0.0, 0.3, 0.5, 0.7, 0.95, 1.0])
def test_panels_read_one_branch_per_end(monkeypatch, level):
    # build_ext and linearize take each end's branch from pad_shapes: the
    # shape where that end is front-like, a constant panel elsewhere, and
    # each panel is affine in its end value
    ws = _make_workspace(PAIR, LK1, 4.0, GridSpec(l_left=30.0, l_right=60.0, h=0.01))
    th, K, N = ws.th, ws.K, ws.N
    psi = np.full(N, level * th)
    left_front, right_front = 0.0 < th - psi[0] <= 0.5 * th, psi[-1] <= 0.5 * th
    read, pad_shapes = [], ws.pad_shapes

    def recording(p):
        dl, dr = pad_shapes(p)
        read.append((dl is ws.lshape, dr is ws.rshape))
        return dl, dr

    monkeypatch.setattr(ws, "pad_shapes", recording)
    ext = ws.build_ext(psi)
    ws.linearize(psi)
    assert read == [(left_front, right_front)] * 2
    dl = ws.lshape if left_front else np.ones(K)
    dr = ws.rshape if right_front else np.ones(K + 1)
    assert np.array_equal(ext[:K], th - (th - psi[0]) * dl)
    assert np.array_equal(ext[K + N:], psi[-1] * dr)


def test_factored_band_solves_like_solve_banded(prof_4):
    # the bulk Newton phase's preconditioner at c = 4: the band, factored
    # once and applied many times
    from scipy.linalg import solve_banded
    ws = _make_workspace(PAIR, LK1, 4.0, GridSpec())
    psi, th = prof_4.values, ws.th
    i_cut = int(np.searchsorted(-psi, -1e-3 * th))
    ab = ws.band(ws.linearize(psi, hi=i_cut)[0])
    solve = _band_solver(ab)
    rng = np.random.default_rng(3)
    for _ in range(3):
        b = rng.normal(size=ab.shape[1])
        ref = solve_banded((1, 1), ab, b)
        assert np.abs(solve(b) - ref).max() <= 1e-14 * np.abs(ref).max()


@pytest.mark.parametrize("phase", ["bulk", "tail"])
def test_newton_freezes_rows_outside_its_window(phase):
    # one Newton call from the warm start at c = 4, on the bulk rows [0, nb)
    # or the tail rows [nb, N): the rows outside its window stay bitwise as
    # they were, and the window's own (scaled) residual converges
    ws = _make_workspace(PAIR, LK1, 4.0, GridSpec())
    psi = ws.th * np.exp(-ws.lam_c * np.maximum(ws.s, 0.0))
    psi = ws.recenter(_sweep_phase(ws, psi))
    start, nb = psi.copy(), ws.bulk_end(psi)
    if phase == "bulk":
        out, res = _newton(ws, psi, 0, nb, 1e-9, 25, 4)
        frozen, tol = slice(nb, None), 1e-9
    else:
        out, res = _newton(ws, psi, nb, ws.N, _TAIL_TOL, 15, 6)
        frozen, tol = slice(0, nb), _TAIL_TOL
    assert np.array_equal(psi, start)
    assert np.array_equal(out[frozen], start[frozen])
    assert not np.array_equal(out, start)
    assert res < tol


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
    assert i_cut == ws.bulk_end(psi)
    # plain rows: each convolution is within 4 eps max|ext| of the exact
    # sum on either side (see the Convolver test), and enters the rows
    # times kappa_plus and kappa_nonlocal psi
    plain = 8 * np.finfo(float).eps * (params.kappa_plus + params.kappa_nonlocal * th)
    full = ws.residual_vec(psi)
    bulk = ws.residual_vec(psi, hi=i_cut)
    assert np.abs(bulk - full[:i_cut]).max() <= plain * th
    # tail rows: the tilted sums are the same on both; what is left is the
    # second convolution's roundoff, times kappa_nonlocal psi
    tail = ws.residual_vec(psi, lo=i_cut)
    assert np.all(np.abs(tail - full[i_cut:]) <= 2 * DEEP_RTOL * psi[i_cut:])
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


def _aligned_distance(p1, p2):
    """sup |p1 - p2(. + q)| over the points of p1's grid that the shift q
    keeps inside p2's grid, q aligning the two theta/2 crossings."""
    level = 0.5 * min(p1.theta, p2.theta)
    q = p2.crossing(level) - p1.crossing(level)
    x = p1.grid + q
    inside = (x >= p2.grid[0]) & (x <= p2.grid[-1])
    return float(np.max(np.abs(p1.values[inside] - np.interp(x[inside], p2.grid, p2.values))))


@pytest.mark.parametrize("case", ["anchor", "leftward", "finer-grid"])
def test_compare_reads_the_half_theta_alignment(case, prof_4, prof_minus_4):
    # a second anchor, a pair of increasing profiles, and a grid of half the
    # step, on which the alignment bounds the best shift's distance from
    # above by the coarser grid's interpolation error
    if case == "anchor":
        p1, p2 = prof_4, solve_profile(PAIR, LK1, 4.0, anchor=3.0)
    elif case == "leftward":
        p1, p2 = prof_minus_4, solve_profile(PAIR, LK1, -4.0, anchor=5.0)
        assert p2.orientation == "increasing"
    else:
        p1, p2 = prof_4, solve_profile(PAIR, LK1, 4.0, grid=GridSpec(h=0.5 * prof_4.h))
    dist = compare_up_to_shift(p1, p2)
    assert dist == _aligned_distance(p1, p2)
    assert dist <= 1e-5


def test_compare_reads_only_the_overlap(prof_4):
    # a window of the profile: past its ends, interpolation would hold the
    # window's end values, far from theta and 0
    keep = np.abs(prof_4.grid) <= 5.0
    window = replace(prof_4, grid=prof_4.grid[keep], values=prof_4.values[keep])
    assert compare_up_to_shift(prof_4, window) == 0.0
    assert compare_up_to_shift(window, prof_4) == 0.0


def test_compare_refuses_disjoint_spans():
    # after the shift that aligns the theta/2 crossings (q = 0.3), p2 spans
    # [-0.1, 0.1], between p1's two grid points
    p1 = WaveProfile(np.array([-1.0, 1.0]), np.array([1.0, 0.0]), 4.0, 1.0, 1, 1.0, 0.0)
    p2 = replace(p1, grid=np.array([0.2, 0.4]))
    with pytest.raises(UsageError, match="shifted span"):
        compare_up_to_shift(p1, p2)


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


def _unit_d_twice(pair, params, c):
    once = normalize_shift(solve_profile(pair, params, c), "unit-D", pair=pair, params=params)
    twice = normalize_shift(once, "unit-D", pair=pair, params=params)
    # D is read again as exactly 1, so the second shift is exactly 0
    assert np.array_equal(twice.grid, once.grid)
    assert np.array_equal(twice.values, once.values)
    return once


def test_unit_d_with_nonlocal_competition():
    # D's transform identity convolves psi with a_minus when kappa_nonlocal > 0
    pair = KernelPair(Gaussian(1.0), Gaussian(0.5))
    params = Params(2.0, 1.0, 0.5, 0.5)
    once = _unit_d_twice(pair, params, 1.5 * minimal_speed(pair, params).c_star)
    assert abs(tail_asymptotics(once).D_estimate - 1.0) < 0.01


def test_unit_d_at_the_double_root(rep, prof_critical):
    # at c* the characteristic root is double and D comes from the second
    # derivative; the fit reads D ~ 0.59 there, bent by the e^{-lambda s}
    # term under s e^{-lambda s}, so only the idempotence is asserted
    assert prof_critical.multiplicity == 2
    _unit_d_twice(PAIR, LK1, rep.c_star)


# the benchmark's profile pairs: the reference pair, a Gaussian pair with
# nonlocal competition, and a class W ExpPoly kernel
UNIT_D_PAIRS = {
    "reference": (PAIR, LK1),
    "gaussian-nonlocal": (KernelPair(Gaussian(1.0), Gaussian(0.5)), Params(2.0, 1.0, 0.5, 0.5)),
    "exp-poly-w": (KernelPair(ExpPoly(1.0, 4.0, 1.0), ExpPoly(1.0, 4.0, 1.0)), LK1),
}


@pytest.mark.parametrize("factor", [1.0, 1.2, 2.0])
@pytest.mark.parametrize("name", list(UNIT_D_PAIRS))
def test_second_unit_d_shift_is_a_no_op(name, factor):
    # D read again after a unit-D shift is 1 to within an ulp or two, which
    # log(D) would turn into a second shift of the grid; scaling the solved
    # profile by 1 + j 1e-15 moves those last bits
    pair, params = UNIT_D_PAIRS[name]
    prof = solve_profile(pair, params, factor * minimal_speed(pair, params).c_star)
    for j in range(8):
        scaled = replace(prof, values=(1.0 + j * 1e-15) * prof.values)
        once = normalize_shift(scaled, "unit-D", pair=pair, params=params)
        twice = normalize_shift(once, "unit-D", pair=pair, params=params)
        assert np.array_equal(twice.grid, once.grid), j


def _lapack_tail_fit(prof, window):
    """(rate, j, D, rms residual) of tail_asymptotics' two fits over the same
    window, by LAPACK least squares on the design matrices: the line
    [1, log s] of log psi + lambda_c s, and [1, log s, s] of log psi."""
    g = prof.grid
    inside = (g >= window[0]) & (g <= window[1])
    ss, log_psi = g[inside], np.log(prof.values[inside])
    y = log_psi + prof.lambda_c * ss
    line = np.column_stack([np.ones_like(ss), np.log(ss)])
    (c, b), *_ = np.linalg.lstsq(line, y, rcond=None)
    free = np.column_stack([np.ones_like(ss), np.log(ss), ss])
    (_, _, r), *_ = np.linalg.lstsq(free, log_psi, rcond=None)
    return -r, b + 1.0, np.exp(c), np.sqrt(np.mean((line @ (c, b) - y) ** 2))


@pytest.mark.parametrize("factor", [1.0, 1.2, 2.0])
@pytest.mark.parametrize("name", list(UNIT_D_PAIRS))
def test_tail_fit_matches_lapack_least_squares(name, factor):
    pair, params = UNIT_D_PAIRS[name]
    prof = solve_profile(pair, params, factor * minimal_speed(pair, params).c_star)
    fit = tail_asymptotics(prof)
    got = (fit.rate, fit.j_estimate, fit.D_estimate, fit.fit_residual)
    ref = _lapack_tail_fit(prof, fit.fit_window)
    assert all(abs(a - b) <= 1e-12 * abs(b) for a, b in zip(got, ref)), (got, ref)


def test_kernel_the_grid_misses_refused():
    # the nodes of step 0.02 nearest [0.001, 0.004] are 0 and 0.02: all weights vanish
    narrow = KernelPair(Uniform(0.001, 0.004), Uniform(0.001, 0.004))
    c = 1.5 * minimal_speed(narrow, LK1).c_star
    with pytest.raises(UsageError, match="zero weights"):
        solve_profile(narrow, LK1, c, grid=GridSpec(h=0.02))


def test_unit_d_on_a_leftward_wave(prof_4, prof_minus_4):
    # the transform identity reads a decreasing profile, so a leftward wave
    # is normalized through its reflection: its theta/2 crossing mirrors
    # that of the wave at c = 4
    half = theta(LK1) / 2.0
    right = normalize_shift(prof_4, "unit-D", pair=PAIR, params=LK1)
    left = normalize_shift(prof_minus_4, "unit-D", pair=PAIR, params=LK1)
    assert left.orientation == "increasing"
    assert abs(left.crossing(half) + right.crossing(half)) <= 1e-9


def test_unit_d_needs_the_pair(prof_4):
    # D comes from the transform identity, which reads the kernel pair
    with pytest.raises(UsageError, match="kernel pair"):
        normalize_shift(prof_4, "unit-D")
    with pytest.raises(UsageError, match="kernel pair"):
        normalize_shift(prof_4, "unit-D", pair=PAIR)


@pytest.mark.parametrize("kw", [{"c": float("nan")}, {"c": float("inf")},
                                {"c": -float("inf")}, {"anchor": float("inf")},
                                {"anchor": float("nan")}],
                         ids=["c-nan", "c-inf", "c-minus-inf", "anchor-inf", "anchor-nan"])
def test_non_finite_speed_or_anchor_refused(rep, kw):
    kw = {"c": 4.0, **kw}
    with pytest.raises(UsageError, match="finite"):
        solve_profile(PAIR, LK1, report=rep, **kw)


def test_unknown_shift_mode(prof_4):
    with pytest.raises(UsageError):
        normalize_shift(prof_4, "left-edge")


# ---------------------------------------------------------------------------
# reflection / negative speeds

def test_negative_speed_is_mirror(prof_4, prof_minus_4):
    mirrored = prof_minus_4
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



@pytest.mark.parametrize("c", [4.0, -4.0])
def test_report_of_another_problem_refused_by_the_solve(c):
    # the Gaussian pair's report on the reference pair: checked against the
    # pair as passed, also before a negative speed mirrors it
    foreign = minimal_speed(KernelPair(Gaussian(1.0), Gaussian(1.0)), LK1)
    with pytest.raises(UsageError, match="report="):
        solve_profile(PAIR, LK1, c, report=foreign)


def test_tail_window_of_a_leftward_wave(prof_4, prof_minus_4):
    # an increasing profile is fitted through its reflection, and the window
    # is reported on its own grid, where the tail lies at s < 0
    right = tail_asymptotics(prof_4).fit_window
    left = tail_asymptotics(prof_minus_4).fit_window
    assert abs(left[0] + right[1]) <= 1e-9 and abs(left[1] + right[0]) <= 1e-9
    g = prof_minus_4.grid
    inside = (g >= left[0]) & (g <= left[1])
    assert int(inside.sum()) >= 50
    assert np.all(prof_minus_4.values[inside] < 1e-3 * theta(LK1))


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


def test_grid_step_reads_the_whole_span(prof_4, prof_minus_4):
    # the step of the default grid is 0.01 exactly, whatever offset the
    # grid carries: grid[1] - grid[0] keeps that offset's rounding
    assert prof_4.h == 0.01
    assert prof_minus_4.h == prof_4.h
    for q in (0.3, -1.7, 12.345):
        assert prof_4.shifted(q).h == prof_4.h


@pytest.mark.parametrize("value", [0.0, -5.0, float("nan"), float("inf")])
@pytest.mark.parametrize("field", ["l_left", "l_right", "h"])
def test_grid_spec_refuses_bad_fields(field, value):
    with pytest.raises(UsageError, match=field):
        GridSpec(**{field: value})


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
def test_bad_tolerance_refused_before_setup(tol, monkeypatch):
    def setup(*args, **kwargs):
        raise AssertionError("set-up ran")
    monkeypatch.setattr("nlkpp.profile.minimal_speed", setup)
    monkeypatch.setattr("nlkpp.profile._make_workspace", setup)
    with pytest.raises(UsageError, match="tol"):
        solve_profile(PAIR, LK1, 4.0, tol=tol)


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
