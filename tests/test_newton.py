"""Tail Newton phase: the circulant preconditioner and what it costs."""

import numpy as np
import pytest
from scipy.fft import irfft, next_fast_len, rfft

from nlkpp.dispersion import minimal_speed
from nlkpp.errors import NonConvergence, UsageError
from nlkpp.kernels import Gaussian, KernelPair, Laplace, Params
from nlkpp.profile import (GridSpec, _make_workspace, _Workspace, solve_profile,
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
    linearize = _Workspace.linearize
    count = [0]

    def counted(self, psi, lo=0, hi=None):
        diag, jmv = linearize(self, psi, lo=lo, hi=hi)
        if lo == 0:
            return diag, jmv

        def tail_jmv(u):
            count[0] += 1
            return jmv(u)
        return diag, tail_jmv

    monkeypatch.setattr(_Workspace, "linearize", counted)
    c = rep.c_star if speed == "c_star" else speed
    prof = solve_profile(PAIR, LK1, c, report=rep)
    assert prof.residual_sup <= 1e-6
    assert 0 < count[0] <= 0.7 * head


def test_right_span_short_of_the_tail_is_a_toolkit_error():
    # at c = 4 psi reaches 1e-3 theta near s = 23, so a right span of 20
    # leaves the tail window empty: the bulk rows are solved alone, and the
    # residual check, not an empty reduction, decides
    with pytest.raises(NonConvergence, match="residual"):
        solve_profile(PAIR, LK1, 4.0, grid=GridSpec(l_right=20.0))


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


def test_right_span_in_the_bulk_runs_one_round(monkeypatch):
    # at c = 4 a right span of 20 still ends in the bulk after the bulk
    # phase; another round would only repeat that phase, so the solve is
    # refused after one Newton call, and the message names the short span
    import nlkpp.profile
    newton, calls = nlkpp.profile._newton, []

    def counted(*args):
        calls.append(args[2:4])
        return newton(*args)

    monkeypatch.setattr(nlkpp.profile, "_newton", counted)
    with pytest.raises(NonConvergence, match="after correction round 1; .*l_right is too short"):
        solve_profile(PAIR, LK1, 4.0, grid=GridSpec(l_right=20.0))
    assert len(calls) == 1


@pytest.mark.parametrize("factor,rounds", [(1.0, 3), (1.2, 1), (2.0, 1)])
def test_reference_solves_need_few_rounds(rep, monkeypatch, factor, rounds):
    # a round is one bulk and one tail Newton call; at the double root c*
    # the tail takes three rounds to settle, above it one does
    import nlkpp.profile
    newton, calls = nlkpp.profile._newton, []

    def counted(*args):
        calls.append(args[2:4])
        return newton(*args)

    monkeypatch.setattr(nlkpp.profile, "_newton", counted)
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
