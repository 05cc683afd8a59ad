"""Direct time stepping: equilibria, transport, ordering, front tracking."""

import numpy as np
import pytest

from nlkpp.errors import NonConvergence, UsageError
from nlkpp.evolution import evolve, front_speed, step_data
from nlkpp.kernels import KernelPair, Laplace, Params, theta

LK1 = Params(2.0, 1.0, 1.0, 0.0)
PAIR = KernelPair(Laplace(1.0), Laplace(1.0))

KN_PARAMS = Params(2.0, 1.0, 1.0, 0.5)
KN_PAIR = KernelPair(Laplace(1.0), Laplace(2.0))


def _run(u0, dt=0.02, horizon=3.0, pair=PAIR, params=LK1, **kw):
    kw.setdefault("domain", (-20.0, 20.0))
    kw.setdefault("h", 0.05)
    return evolve(pair, params, u0, dt, horizon, **kw)


# ---------------------------------------------------------------------------
# equilibria

@pytest.mark.parametrize("pair,params", [(PAIR, LK1), (KN_PAIR, KN_PARAMS)],
                         ids=["local", "split"])
def test_zero_state_is_fixed(pair, params):
    run = _run(lambda x: np.zeros_like(x), pair=pair, params=params)
    assert np.all(run.snapshots[-1] == 0.0)


@pytest.mark.parametrize("pair,params", [(PAIR, LK1), (KN_PAIR, KN_PARAMS)],
                         ids=["local", "split"])
def test_carrying_capacity_is_fixed(pair, params):
    th = theta(params)
    run = _run(lambda x: np.full_like(x, th), pair=pair, params=params)
    drift = np.max(np.abs(run.snapshots[-1] - th))
    assert drift < 1e-12 * th


@pytest.mark.parametrize("pair,params", [(PAIR, LK1), (KN_PAIR, KN_PARAMS)],
                         ids=["local", "split"])
@pytest.mark.parametrize("level", ["zero", "theta"])
def test_constant_states_fixed_exactly_for_50_steps(pair, params, level):
    # the constant panels enter through their responses; with them every
    # row's weights sum to the kernel mass, and dt * du rounds away at theta
    c = theta(params) if level == "theta" else 0.0
    run = _run(lambda x: np.full_like(x, c), horizon=1.0, snapshot_dt=0.02,
               pair=pair, params=params)
    assert len(run.snapshots) == 51
    for snap in run.snapshots:
        assert np.all(snap == c)


def test_states_between_equilibria_stay_bounded():
    th = theta(LK1)
    rng = np.random.default_rng(11)

    def u0(x):
        return th * rng.uniform(0.0, 1.0, np.shape(x))

    run = _run(u0, horizon=5.0)
    final = run.snapshots[-1]
    assert np.all(final >= 0.0)
    assert np.all(final <= th * (1.0 + 1e-9))
    # uniform reaction pulls interior states toward theta
    mid = np.abs(run.grid) < 10.0
    assert np.all(np.abs(final[mid] - th) < 0.2 * th)


# ---------------------------------------------------------------------------
# comparison principle

def test_order_preservation():
    th = theta(LK1)
    lo0 = lambda x: 0.5 * th / (1.0 + np.exp(np.asarray(x)))
    hi0 = lambda x: th / (1.0 + np.exp(np.asarray(x) - 1.0))
    lo = _run(lo0, horizon=4.0, widen=False)
    hi = _run(hi0, horizon=4.0, widen=False)
    for a, b in zip(lo.snapshots, hi.snapshots):
        assert np.max(a - b) < 1e-9 * th


def test_left_right_symmetry():
    # mirrored data under a symmetric kernel evolves to the mirror image
    th = theta(LK1)
    fwd = _run(step_data(0.0, th), horizon=4.0, widen=False)

    def mirrored(x):
        # step_data is theta on x < 0, so its mirror image is theta on x > 0
        return np.where(np.asarray(x) > 0.0, th, 0.0)

    bwd = _run(mirrored, horizon=4.0, widen=False)
    assert np.max(np.abs(fwd.snapshots[-1] - bwd.snapshots[-1][::-1])) < 1e-10


# ---------------------------------------------------------------------------
# front tracking

def test_front_positions_nondecreasing():
    run = _run(step_data(0.0, theta(LK1)), dt=0.01, horizon=8.0)
    pos = run.front_positions[~np.isnan(run.front_positions)]
    assert len(pos) > 20
    assert np.all(np.diff(pos) > -1e-9)


def test_front_speed_reported_with_window():
    run = _run(step_data(0.0, theta(LK1)), dt=0.01, horizon=12.0,
               domain=(-25.0, 25.0))
    sp = front_speed(run)
    lo, hi = run.speed_window
    assert lo <= sp <= hi
    assert 2.0 < sp < 4.0
    assert run.speed == sp


def test_front_speed_needs_enough_snapshots():
    run = _run(step_data(0.0, theta(LK1)), dt=0.02, horizon=1.0,
               snapshot_dt=0.5)
    with pytest.raises(UsageError):
        front_speed(run)


def test_front_leaving_domain_detected():
    run = _run(step_data(0.0, theta(LK1)), dt=0.01, horizon=12.0,
               domain=(-6.0, 6.0), widen=False)
    with pytest.raises(NonConvergence) as err:
        front_speed(run)
    assert err.value.label == "front-left-domain"


@pytest.mark.parametrize("pair,params", [(PAIR, LK1), (KN_PAIR, KN_PARAMS)],
                         ids=["local", "split"])
def test_step_after_widening_matches_padded_convolution(pair, params):
    # one step from the widened state, redone with the panels convolved as
    # part of the padded vector: the responses must serve the longer grid
    from nlkpp.profile import Convolver
    dt, th = 0.01, theta(params)
    run = _run(step_data(0.0, th), dt=dt, horizon=6.0, domain=(-8.0, 8.0),
               snapshot_dt=dt, pair=pair, params=params)
    lens = np.array([len(s) for s in run.snapshots])
    k = int(np.argmax(lens[1:] > lens[:-1]))
    assert lens[k + 1] > lens[k]
    u = np.concatenate([run.snapshots[k], np.zeros(lens[k + 1] - lens[k])])
    conv_plus = Convolver(pair.a_plus, run.h)
    K = conv_plus.K
    ext = np.concatenate([np.full(K, u[0]), u, np.full(K, u[-1])])
    kp, m, kl, kn = params.kappa_plus, params.m, params.kappa_local, params.kappa_nonlocal
    du = kp * conv_plus(ext) - m * u - kl * u * u
    if kn:
        du -= kn * u * Convolver(pair.a_minus, run.h, K)(ext)
    nxt = np.maximum(u + dt * du, 0.0)
    nxt[nxt < 3e-15 * th] = 0.0
    assert np.abs(run.snapshots[k + 1] - nxt).max() <= 1e-15 * th


def test_domain_widening_follows_front():
    narrow = _run(step_data(0.0, theta(LK1)), dt=0.01, horizon=10.0,
                  domain=(-8.0, 8.0), widen=True)
    assert narrow.grid[-1] > 8.0
    front_speed(narrow)  # crossings stay inside the widened grid


# ---------------------------------------------------------------------------
# initial data handling and guards

def test_dt_stability_guard():
    with pytest.raises(UsageError):
        _run(step_data(0.0, theta(LK1)), dt=0.3)


def test_initial_data_above_theta_rejected():
    with pytest.raises(UsageError):
        _run(lambda x: np.full_like(x, 2.0 * theta(LK1)))


def test_initial_data_negative_rejected():
    with pytest.raises(UsageError):
        _run(lambda x: -0.1 * np.ones_like(x))


def test_array_initial_data_shape_checked():
    with pytest.raises(UsageError):
        _run(np.zeros(7))


def test_summary_fields():
    run = _run(step_data(0.0, theta(LK1)), horizon=2.0)
    d = run.summary()
    for key in ("dt", "h", "theta", "level", "t_final", "n_snapshots",
                "grid_span", "burn_in"):
        assert key in d
