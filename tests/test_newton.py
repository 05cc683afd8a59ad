"""Newton phases: the bulk band and the tail circulant, and what they cost."""

import numpy as np
import pytest
from scipy.fft import irfft, next_fast_len, rfft

from nlkpp.dispersion import minimal_speed
from nlkpp.errors import NonConvergence, UsageError
from nlkpp.kernels import Gaussian, KernelPair, Laplace, Params, Uniform
from nlkpp.profile import (GridSpec, _make_workspace, _Workspace, residual, solve_profile,
                           tail_asymptotics)

LK1 = Params(2.0, 1.0, 1.0, 0.0)
PAIR = KernelPair(Laplace(1.0), Laplace(1.0))


@pytest.fixture(scope="module")
def rep():
    return minimal_speed(PAIR, LK1)


def test_tilted_symbol_is_the_tail_stencil():
    # at c = 4 (a simple root) the decay ansatz is a pure exponential, and
    # in coordinates psi = E v with that E (unclipped) the tail Jacobian
    # minus its diagonal is the circulant of tilted_symbol, applied to a
    # vector held away from the window's ends; the zero-frequency entry
    # plus the diagonal -m is the discrete characteristic function at
    # lambda_c, which vanishes up to O(h^2)
    ws = _make_workspace(PAIR, LK1, 4.0, GridSpec())
    psi = ws.th * np.exp(-ws.lam_c * np.maximum(ws.s, 0.0))
    lo = ws.bulk_end(psi)
    n = ws.N - lo
    E = psi[lo - 1] * ws.tailg(ws.s[lo - 1], n)
    diag, jmv = ws.linearize(psi, lo=lo)
    mid = ws.K + 50
    u = np.zeros(n)
    u[mid - 50:mid + 50] = np.random.default_rng(5).normal(size=100)
    nfft = next_fast_len(n, True)
    stencil = ws.tilted_symbol(nfft)
    circ = irfft(rfft(u, nfft) * stencil, nfft)[:n]
    direct = jmv(E * u) / E - diag * u
    rows = slice(0, mid + 50 + ws.K)
    assert np.abs(circ[rows] - direct[rows]).max() <= 1e-12 * np.abs(direct[rows]).max()
    assert abs(stencil[0] - ws.m) <= 1e-6 * np.abs(stencil).max()


@pytest.mark.parametrize("speed,head", [("c_star", 156), (4.0, 117)])
def test_tail_phase_jacobian_products(rep, monkeypatch, speed, head):
    # Jacobian products of the tail phase (calls of the jmv it linearizes
    # with), summed over a solve of the reference pair; head is the count
    # with the tilted tridiagonal band as preconditioner. The circulant
    # must save at least 30% of them.
    count = _count_products(monkeypatch, tail=True)
    c = rep.c_star if speed == "c_star" else speed
    prof = solve_profile(PAIR, LK1, c, report=rep)
    assert prof.residual_sup <= 1e-6
    assert 0 < count[0] <= 0.7 * head


UNIFORM = KernelPair(Uniform(-0.5, 2.0), Uniform(-0.5, 2.0))
GAUSS_KN = (KernelPair(Gaussian(1.0), Gaussian(0.5)), Params(2.0, 1.0, 0.5, 0.5))


def _count_products(monkeypatch, tail=False):
    """A one-item list that counts the Jacobian products of the bulk phase
    (tail False) or of the tail phase."""
    linearize, count = _Workspace.linearize, [0]

    def counted(self, psi, lo=0, hi=None):
        diag, jmv = linearize(self, psi, lo=lo, hi=hi)
        if (lo > 0) != tail:
            return diag, jmv

        def counted_jmv(u):
            count[0] += 1
            return jmv(u)
        return diag, counted_jmv

    monkeypatch.setattr(_Workspace, "linearize", counted)
    return count


@pytest.mark.parametrize("pair,factor,c,head", [
    (PAIR, 1.0, None, 144), (PAIR, None, 4.0, 51), (UNIFORM, 2.0, None, 67)],
    ids=["reference-c_star", "reference-c=4", "uniform-2c_star"])
def test_bulk_phase_jacobian_products(monkeypatch, pair, factor, c, head):
    # Jacobian products of the bulk phase over a whole solve; head is the
    # count with the band of the three central weights alone. The band
    # that carries the kernel's mass and first moment must save at least
    # 25% of them. Uniform(-0.5, 2) is skewed: without the first-moment
    # term its count stays near 23
    rep = minimal_speed(pair, LK1)
    count = _count_products(monkeypatch)
    prof = solve_profile(pair, LK1, factor * rep.c_star if c is None else c, report=rep)
    assert prof.residual_sup <= 1e-6
    assert 0 < count[0] <= 0.75 * head


def _band_times(ab, u):
    """The tridiagonal array ab (band() layout) applied to u."""
    out = ab[1] * u
    out[:-1] += ab[0, 1:] * u[1:]
    out[1:] += ab[2, :-1] * u[:-1]
    return out


@pytest.mark.parametrize("pair,params,c", [
    (PAIR, LK1, 4.0), (*GAUSS_KN, 2.6), (UNIFORM, LK1, 6.0),
    (UNIFORM, GAUSS_KN[1], 6.0)],
    ids=["reference", "gaussian-nonlocal", "uniform", "uniform-nonlocal"])
def test_band_matches_the_jacobian_on_constants_and_lines(pair, params, c):
    # on bulk rows more than K cells from the window's ends, the band and
    # the Jacobian agree on constants (row sums) and on s - s_i at row i;
    # the nonlocal term makes both depend on the row, and the skewed kernel
    # gives each term a first moment
    ws = _make_workspace(pair, params, c, GridSpec())
    s, K = ws.s, ws.K
    psi = ws.th / (1.0 + np.exp(2.0 * s))
    hi = ws.bulk_end(psi)
    p = psi[:hi]
    diag, jmv = ws.linearize(psi, hi=hi)
    ab = ws.band(diag, p)
    assert hi > 2 * K + 50
    rows = np.arange(K + 1, hi - K - 1)
    ref, got = jmv(np.ones(hi))[rows], _band_times(ab, np.ones(hi))[rows]
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
    picks = np.linspace(K + 1, hi - K - 2, 7).astype(int)
    ref, got = [], []
    for i in picks:
        # the row reads u on |j - i| <= K only, so the line is cut there
        u = np.where(np.abs(np.arange(hi) - i) <= K, s[:hi] - s[i], 0.0)
        ref.append(jmv(u)[i])
        got.append(_band_times(ab, u)[i])
    ref, got = np.array(ref), np.array(got)
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_krylov_operators_see_only_float64(monkeypatch):
    # every Jacobian product and preconditioner solve of a solve, bulk and
    # tail, receives float64 vectors: an operator built without a dtype is
    # probed by scipy with int8 zeros, one wasted product each
    import nlkpp.profile
    real, seen = nlkpp.profile.LinearOperator, []

    def recording(shape, matvec, **kwargs):
        def mv(x):
            seen.append(np.asarray(x).dtype)
            return matvec(x)
        return real(shape, matvec=mv, **kwargs)

    monkeypatch.setattr(nlkpp.profile, "LinearOperator", recording)
    prof = solve_profile(PAIR, LK1, 4.0)
    assert prof.residual_sup <= 1e-6
    assert len(seen) > 50 and set(seen) == {np.dtype(np.float64)}


def test_right_span_short_of_the_tail_is_a_toolkit_error(monkeypatch):
    # at c = 4 psi reaches 1e-3 theta near s = 23, so a right span of 20
    # leaves the tail window empty: the bulk rows are solved alone, and the
    # residual check, not an empty reduction, decides. The bulk phase's
    # first whole step does not lower its residual, which ends the phase,
    # so the refusal comes after at most two Jacobians (25 when the step
    # was backtracked)
    linearize, count = _Workspace.linearize, [0]

    def counted(self, psi, lo=0, hi=None):
        count[0] += 1
        return linearize(self, psi, lo=lo, hi=hi)

    monkeypatch.setattr(_Workspace, "linearize", counted)
    with pytest.raises(NonConvergence, match="residual"):
        solve_profile(PAIR, LK1, 4.0, grid=GridSpec(l_right=20.0))
    assert 0 < count[0] <= 2


@pytest.mark.parametrize("grid,tol,message", [
    (GridSpec(l_right=1.0), 1e-6, r"grid \[.*, 0\.99\d*\]: l_right is too short"),
    (GridSpec(l_left=0.5), 1e3, r"grid \[-0\.5, .*\]: l_left is too short")],
    ids=["right", "left"])
def test_span_short_of_the_crossing_names_the_grid(grid, tol, message):
    # at c = 4 a grid that ends at s = 1 converges with psi above theta/2
    # at its right end; one that starts at s = -0.5 passes a loose tol with
    # psi below theta/2 at its left end: the short span is named, not the
    # missing crossing
    with pytest.raises(UsageError, match=message):
        solve_profile(PAIR, LK1, 4.0, grid=grid, tol=tol)


def _record_newton(monkeypatch):
    """A list that gets (lo, hi, tol, window residual) of every Newton call."""
    import nlkpp.profile
    newton, calls = nlkpp.profile._newton, []

    def counted(ws, psi, lo, hi, tol, *args):
        out, res = newton(ws, psi, lo, hi, tol, *args)
        calls.append((lo, hi, tol, res))
        return out, res

    monkeypatch.setattr(nlkpp.profile, "_newton", counted)
    return calls


def test_right_span_in_the_bulk_runs_one_round(monkeypatch):
    # at c = 4 a right span of 20 still ends in the bulk after the bulk
    # phase; another round would only repeat that phase, so the solve is
    # refused after one Newton call, and the message names the short span
    calls = _record_newton(monkeypatch)
    with pytest.raises(NonConvergence, match="after correction round 1; .*l_right is too short"):
        solve_profile(PAIR, LK1, 4.0, grid=GridSpec(l_right=20.0))
    assert len(calls) == 1


@pytest.mark.parametrize("factor,rounds", [(1.0, 3), (1.2, 1), (2.0, 1)])
def test_reference_solves_need_few_rounds(rep, monkeypatch, factor, rounds):
    # a round is one bulk and one tail Newton call; at the double root c*
    # the tail takes three rounds to settle, above it one does
    calls = _record_newton(monkeypatch)
    prof = solve_profile(PAIR, LK1, factor * rep.c_star, report=rep)
    assert prof.residual_sup <= 1e-6
    assert 0 < len(calls) <= 2 * rounds, calls


def test_negative_speed_spans_are_the_callers():
    # for c < 0 the reflected pair is solved with the spans swapped, so
    # l_left still reaches left of the origin, and a short span is
    # reported on the caller's grid under the caller's name
    prof = solve_profile(PAIR, LK1, -4.0, grid=GridSpec(l_left=30.0, l_right=60.0))
    assert abs(prof.grid[0] + 30.0) < 0.1 and abs(prof.grid[-1] - 60.0) < 0.1
    with pytest.raises(UsageError, match=r"grid \[-0\.99\d*, 116\.\d*\]: l_left is too short"):
        solve_profile(PAIR, LK1, -4.0, grid=GridSpec(l_left=1.0))


@pytest.mark.parametrize("c,message", [
    (4.0, r"warm start .* grid \[-0\.004, 0\.006\]: l_right is too short"),
    (-4.0, r"warm start .* grid \[-0\.006, 0\.004\]: l_left is too short")],
    ids=["c=4", "c=-4"])
def test_warm_start_off_a_two_point_grid_is_refused(c, message):
    # spans of 0.004 at h = 0.01 leave N = 2 points, both above theta/2
    # after the sweeps, with the origin at the first: recentering would
    # shift by N cells and keep no row of the warm start, so the solve is
    # refused before Newton, on the caller's grid
    with pytest.raises(UsageError, match=message):
        solve_profile(PAIR, LK1, c, grid=GridSpec(l_left=0.004, l_right=0.004))


def test_weak_growth_gaussian_converges():
    # kappa_plus = 1.2 m, off the kappa_plus = 2m line, at 1.5 c*: with the
    # band as the tail's preconditioner the solve stalled near 1e-5
    pair, params = KernelPair(Gaussian(1.0), Gaussian(1.0)), Params(1.2, 1.0, 1.0, 0.0)
    rep = minimal_speed(pair, params)
    prof = solve_profile(pair, params, 1.5 * rep.c_star, report=rep)
    assert prof.residual_sup <= 1e-6
    assert np.all(np.diff(prof.values) < 0.0)
    assert abs(tail_asymptotics(prof).rate / prof.lambda_c - 1.0) <= 1e-2


def test_weak_growth_laplace_keeps_its_best_round(monkeypatch):
    # kappa_plus = 1.05 m at c*, on N = 45,859 points (about 2 s on two
    # shared vCPUs): the second round ends at 2.02e-7 of residual, a hair
    # above the rounds' stop, and the third ends at 9.2e-6; a round that
    # does not lower the residual ends the loop and is dropped, so the
    # solve stops after three rounds (six Newton calls) with the second
    # round's iterate
    calls = _record_newton(monkeypatch)
    pair, params = KernelPair(Laplace(1.0), Laplace(1.0)), Params(1.05, 1.0, 1.0, 0.0)
    rep = minimal_speed(pair, params)
    prof = solve_profile(pair, params, rep.c_star, report=rep)
    assert len(prof.grid) == 45_859
    assert prof.residual_sup <= 1e-6
    assert len(calls) == 6, calls
    # below round 2's residual the solve is refused, naming the round whose
    # iterate it returns, not the dropped third
    with pytest.raises(NonConvergence, match="after correction round 2$") as err:
        solve_profile(pair, params, rep.c_star, tol=1e-7, report=rep)
    assert err.value.diagnostics["residual"] == prof.residual_sup


@pytest.mark.parametrize("pair,params,factor,c", [
    (PAIR, LK1, 1.0, None), (PAIR, LK1, None, 4.0), (PAIR, LK1, 2.0, None),
    (*GAUSS_KN, 1.0, None)],
    ids=["reference-c_star", "reference-c=4", "reference-2c_star", "gaussian-nonlocal-c_star"])
def test_newton_phases_reach_their_tol(monkeypatch, pair, params, factor, c):
    # on these solves every Newton phase ends below its tol: its whole
    # steps keep lowering the window's residual, so ending a phase at the
    # first step that does not costs them nothing
    calls = _record_newton(monkeypatch)
    rep = minimal_speed(pair, params)
    prof = solve_profile(pair, params, factor * rep.c_star if c is None else c, report=rep)
    assert prof.residual_sup <= 1e-6
    assert calls and all(res < tol for _, _, tol, res in calls), calls


def test_rounds_solve_the_rows_above_the_right_graft(monkeypatch):
    # at c = 4 the warm start falls below the right graft's 3e-13 theta
    # 1,651 rows (16.5 units) short of the grid's right end; the graft's
    # decay ansatz replaces those rows, so the rounds solve the rows above
    # it only, with the ansatz as their right panel (solving them too cost
    # 47 tail products), on the caller's grid. The rows past the cut are
    # the ansatz anchored at its last row, bit for bit
    calls = _record_newton(monkeypatch)
    count = _count_products(monkeypatch, tail=True)
    prof = solve_profile(PAIR, LK1, 4.0)
    ws = _make_workspace(PAIR, LK1, 4.0, GridSpec())
    M = calls[-1][1]
    assert prof.residual_sup <= 1e-6
    assert 0 < count[0] <= 30
    assert len(prof.grid) == ws.N == 22_991 and M < ws.N
    assert prof.grid[0] == pytest.approx(-116.2156279372461, abs=1e-9)
    assert prof.grid[-1] == pytest.approx(113.68437206275391, abs=1e-9)
    assert np.array_equal(prof.values[M:], prof.values[M - 1] * ws.tailg(ws.s[M - 1], ws.N - M))


@pytest.mark.parametrize("pair,params,factor,c", [(PAIR, LK1, None, 4.0), (*GAUSS_KN, 2.0, None)],
                         ids=["reference-c=4", "gaussian-nonlocal-2c_star"])
def test_certificate_covers_the_whole_grid(monkeypatch, pair, params, factor, c):
    # the rounds stop at the right graft, but the residual a profile carries
    # is the caller's whole grid's, the grafted rows and the panel past
    # them included, as residual() recomputes it from the profile alone
    calls = _record_newton(monkeypatch)
    rep = minimal_speed(pair, params)
    prof = solve_profile(pair, params, factor * rep.c_star if c is None else c, report=rep)
    assert calls[-1][1] < len(prof.grid)
    assert prof.residual_sup <= 1e-6
    assert prof.residual_sup == pytest.approx(residual(prof, pair, params), rel=1e-6)
