"""Direct time stepping: equilibria, transport, ordering, front tracking."""

import numpy as np
import pytest

from nlkpp.errors import NonConvergence, UsageError
from nlkpp.evolution import evolve, front_speed, step_data
from nlkpp.kernels import Gaussian, KernelPair, Laplace, Params, Truncated, Uniform, theta

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


def test_front_speed_matches_polyfit():
    # the slope and its band of two standard errors, against a LAPACK
    # least-squares line over the same post-burn-in snapshots
    run = _run(step_data(0.0, theta(LK1)), dt=0.01, horizon=12.0,
               domain=(-25.0, 25.0))
    keep = run.times >= run.burn_in * run.times[-1]
    (slope, _), cov = np.polyfit(run.times[keep], run.front_positions[keep], 1, cov=True)
    se = np.sqrt(cov[0, 0])
    got = (front_speed(run), *run.speed_window)
    ref = (slope, slope - 2.0 * se, slope + 2.0 * se)
    assert all(abs(a - b) <= 1e-12 * abs(b) for a, b in zip(got, ref)), (got, ref)


def test_front_speed_needs_enough_snapshots():
    run = _run(step_data(0.0, theta(LK1)), dt=0.02, horizon=1.0,
               snapshot_dt=0.5)
    with pytest.raises(UsageError):
        front_speed(run)


@pytest.mark.parametrize("grid", [
    {"h": 0.0}, {"h": -0.02}, {"h": float("nan")}, {"h": float("inf")},
    {"domain": (5.0, -5.0)}, {"domain": (0.0, 0.0)}, {"domain": (0.0, 0.01)}],
    ids=["h-zero", "h-negative", "h-nan", "h-inf", "reversed", "one-point",
         "shorter-than-h"])
def test_bad_grid_refused(grid):
    with pytest.raises(UsageError):
        _run(step_data(0.0, theta(LK1)), horizon=0.1, **grid)


@pytest.mark.parametrize("times", [
    {"dt": float("nan")}, {"dt": float("inf")}, {"horizon": float("nan")},
    {"horizon": float("inf")}, {"snapshot_dt": 0.0}, {"snapshot_dt": -0.05},
    {"snapshot_dt": float("nan")}],
    ids=["dt-nan", "dt-inf", "horizon-nan", "horizon-inf", "snapshot-zero",
         "snapshot-negative", "snapshot-nan"])
def test_bad_time_inputs_refused(times):
    kw = {"dt": 0.05, "horizon": 0.5, **times}
    with pytest.raises(UsageError):
        _run(step_data(0.0, theta(LK1)), **kw)



@pytest.mark.parametrize("horizon", [0.004, 0.005], ids=["under-half", "half-to-even"])
def test_horizon_of_no_step_refused(horizon):
    # round(horizon / dt) == 0: no step would run, and t_final 0 would read as done
    with pytest.raises(UsageError, match="no time step"):
        _run(step_data(0.0, theta(LK1)), dt=0.01, horizon=horizon)

@pytest.mark.parametrize("domain", [(float("nan"), 5.0), (-float("inf"), 5.0),
                                    (0.0, float("inf")), (0.0, float("nan"))],
                         ids=["lo-nan", "lo-inf", "hi-inf", "hi-nan"])
def test_non_finite_domain_refused(domain):
    with pytest.raises(UsageError, match="finite"):
        _run(step_data(0.0, theta(LK1)), horizon=0.1, domain=domain)


def test_fronts_tracked_at_half_theta():
    run = _run(step_data(0.0, theta(LK1)), dt=0.01, horizon=12.0,
               domain=(-25.0, 25.0))
    assert run.level == run.summary()["level"] == 0.5 * theta(LK1)
    x, u = run.snapshot_grid(40), run.snapshots[40]
    i = int(np.searchsorted(-u, -run.level))
    assert x[i - 1] <= run.front_positions[40] <= x[i]


def test_mass_defect_refused():
    # theta_R = 0.632 here, not theta = 1: the stepper's states would be wrong
    cut = Truncated(Laplace(1.0), 1.0)
    with pytest.raises(UsageError, match="probability kernels"):
        _run(step_data(0.0, theta(LK1)), horizon=0.1, pair=KernelPair(cut, cut))


def test_kernel_the_grid_misses_refused():
    # the nodes of step 0.02 nearest [0.001, 0.004] are 0 and 0.02: all weights vanish
    narrow = Uniform(0.001, 0.004)
    with pytest.raises(UsageError, match="h=0.02"):
        _run(step_data(0.0, theta(LK1)), horizon=0.1, h=0.02, pair=KernelPair(narrow, narrow))


def test_competition_weights_keep_their_own_half_width():
    # a_minus is wider than a_plus; its weights must not be cut at a_plus's
    # half-width (6.26 units here against 39.1) and renormalized
    pair, params = KernelPair(Gaussian(0.5), Laplace(1.0)), Params(2.0, 1.0, 0.5, 0.5)
    dt, h, th = 0.01, 0.02, theta(params)
    run = evolve(pair, params, step_data(0.0, th), dt, dt, domain=(-10.0, 10.0),
                 h=h, widen=False)
    u = run.snapshots[0]
    K = int(np.ceil(Laplace(1.0).support_radius(1e-17) / h))
    ext = np.concatenate([np.full(K, u[0]), u, np.full(K, u[-1])])

    def conv(kernel):
        w = h * kernel.pdf(np.arange(-K, K + 1) * h)
        return np.convolve(ext, w / w.sum(), mode="valid")

    kp, m, kl, kn = params.kappa_plus, params.m, params.kappa_local, params.kappa_nonlocal
    du = kp * conv(pair.a_plus) - m * u - kl * u * u - kn * u * conv(pair.a_minus)
    nxt = np.maximum(u + dt * du, 0.0)
    nxt[nxt < 3e-15 * th] = 0.0
    assert np.abs(run.snapshots[-1] - nxt).max() <= 1e-14 * th


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
    from nlkpp.profile import Convolver, _half_width
    dt, th = 0.01, theta(params)
    run = _run(step_data(0.0, th), dt=dt, horizon=6.0, domain=(-8.0, 8.0),
               snapshot_dt=dt, pair=pair, params=params)
    lens = np.array([len(s) for s in run.snapshots])
    k = int(np.argmax(lens[1:] > lens[:-1]))
    assert lens[k + 1] > lens[k]
    u = np.concatenate([run.snapshots[k], np.zeros(lens[k + 1] - lens[k])])
    conv_plus = Convolver(pair.a_plus, run.h, _half_width(pair.a_plus, run.h))
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
