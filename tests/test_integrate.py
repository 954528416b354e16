import io
import math
import os
import re
import threading
import tracemalloc
from dataclasses import replace
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fastslow import (
    ContractError,
    Coupling,
    FullState,
    IntegrationConfig,
    IntegrationError,
    ModelParams,
    ReducedField,
    Trajectory,
    critical_weights,
    integrate_full,
    integrate_reduced,
    make_kuramoto,
    phase_distance,
    phase_rhs,
    rk4_step,
    trajectory_to_csv,
    weight_rhs,
    wrap_phase,
)
from fastslow import integrate as integrate_module
from fastslow.integrate import MAX_DEFAULT_SAMPLES, MAX_HISTORY_BYTES, \
    _full_rhs, _integrate, _write_table

TWO_PI = 2 * np.pi


def test_config_validation():
    for t_end in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ContractError, match="t_end must be > 0"):
            IntegrationConfig(t_end, 10)
    # a step count is an int >= 1: neither a bool nor a float, even a whole one
    for steps in (0, -3, True, 10.0, np.float64(10.0), None, "10"):
        with pytest.raises(ContractError, match="n_steps must be an integer"):
            IntegrationConfig(1.0, steps)
    assert IntegrationConfig(1.0, np.int64(10)).n_steps == 10
    with pytest.raises(ContractError):
        IntegrationConfig(1.0, 10, sample_every=0)
    # 3 does not divide 10 steps; the last sample would be at 0.9
    with pytest.raises(ContractError, match="dividing the 10 steps"):
        IntegrationConfig(1.0, 10, sample_every=3)
    # a stride is an int: neither a bool nor a float, even a whole one
    for stride in (True, 2.0, np.float64(5.0)):
        with pytest.raises(ContractError, match="positive integer"):
            IntegrationConfig(1.0, 10, sample_every=stride)
    assert IntegrationConfig(1.0, 10,
                             sample_every=np.int64(5)).sample_every == 5
    # a count past the float range, which has no float step, and a step
    # that underflows to 0
    with pytest.raises(ContractError, match="that a float can count"):
        IntegrationConfig(1.0, 10 ** 400)
    with pytest.raises(ContractError, match="underflows to 0"):
        IntegrationConfig(5e-324, 2)
    # dt, the sample count and the sample times all follow from the steps
    cfg = IntegrationConfig(1.0, 10, 2)
    assert (cfg.dt, cfg.n_samples) == (0.1, 6)
    assert cfg.times.tolist() == np.linspace(0.0, 1.0, 6).tolist()
    # the last sample is t_end itself, each step t_end / n_steps: no dt can
    # stamp a last time that its steps do not reach
    cfg = IntegrationConfig(0.3000000002, 3)
    assert (cfg.dt, cfg.times[-1]) == (0.3000000002 / 3, 0.3000000002)
    # no array, string or None is a horizon
    for bad in (np.array([0.1, 0.2]), "a", None):
        with pytest.raises(ContractError, match="t_end must be > 0"):
            IntegrationConfig(bad, 10)
    # a run needs a config
    field = ReducedField(order=0, params=ModelParams(
        n_nodes=2, omega=np.zeros(2), epsilon=0.1), coupling=make_kuramoto(0.5))
    with pytest.raises(ContractError, match="IntegrationConfig"):
        integrate_reduced(field, np.zeros(2), None)
    # and a field: a callable with a node count
    for bad in (None, np.zeros(2)):
        with pytest.raises(ContractError, match="callable phase field"):
            integrate_reduced(bad, np.zeros(2), IntegrationConfig(1.0, 10))


@pytest.mark.parametrize("t_end, max_dt, sample_every, steps, dt", [
    # the shipped simulate and attract grids: dt is epsilon * dt_factor
    (2.0, 0.01 * 0.05, None, 4000, 0.01 * 0.05),
    (6 * 0.01, 0.01 * 0.05, None, 120, 0.01 * 0.05),
    # 10 007 steps is prime: stride 2 rounds it up to 10 008
    (5.0035, 0.01 * 0.05, None, 10_008, None),
    # off the grid of max_dt: a step a little shorter ends on t_end
    (0.5, 0.01 * 0.03, None, 1667, None),
    (6 * 0.01, 0.01 * 0.07, None, 86, None),
    # a set stride of 3 rounds 500 steps up to 501
    (0.5, 0.02 * 0.05, 3, 501, None),
    # the default stride past MAX_DEFAULT_SAMPLES steps
    (10_001.0, 1.0, None, 10_002, None),
    (14_000.0, 0.07, None, 200_000, 0.07),
    (1e9, 1.0, None, 10 ** 9, 1.0),
    # a set stride of 8 rounds 1228 steps up to 1232, each 1.535 / 154 / 8
    (1.535, 0.01 / 8, 8, 1232, 1.535 / 154 / 8),
    # all steps in one sample
    (0.5, 0.001, 500, 500, 0.001)])
def test_spanning_takes_the_fewest_steps_the_stride_divides(
        t_end, max_dt, sample_every, steps, dt):
    grid = IntegrationConfig.spanning(t_end, max_dt, sample_every)
    n = math.ceil(t_end / max_dt)
    stride = sample_every or -(-n // MAX_DEFAULT_SAMPLES)
    assert (grid.n_steps, grid.sample_every, grid.t_end) == (steps, stride,
                                                             t_end)
    assert steps % stride == 0 and steps - stride < n <= steps
    assert grid.dt <= max_dt and (dt is None or grid.dt == dt)
    assert abs(steps * grid.dt - t_end) <= 1e-9 * t_end
    if sample_every is None and n > MAX_DEFAULT_SAMPLES:
        assert 5000 <= steps // stride <= MAX_DEFAULT_SAMPLES


@pytest.mark.parametrize("t_end, max_dt, sample_every, match", [
    (0.0, 0.1, None, "t_end and max_dt must be > 0"),
    (-1.0, 0.1, None, "t_end and max_dt must be > 0"),
    (np.inf, 0.1, None, "t_end and max_dt must be > 0"),
    (np.nan, 0.1, None, "t_end and max_dt must be > 0"),
    ("2", 0.1, None, "t_end and max_dt must be > 0"),
    (1.0, 0.0, None, "t_end and max_dt must be > 0"),
    (1.0, True, None, "t_end and max_dt must be > 0"),
    (2.0, 1e-310, None, "t_end=2.0 is more steps of max_dt=1e-310 than"),
    (1.0, 0.1, 0, "sample_every must be a positive integer, got 0"),
    (1.0, 0.1, -2, "sample_every must be a positive integer"),
    (1.0, 0.1, 2.0, "sample_every must be a positive integer"),
    (1.0, 0.1, True, "sample_every must be a positive integer"),
    # a stride above the steps is refused, not taken as 10**12 steps
    (0.5, 0.001, 10 ** 12, "sample_every must be at most the 500 steps"),
    (0.5, 0.001, 501, "sample_every must be at most the 500 steps"),
    # a stride that rounds steps inside the float range up past it
    pytest.param(1.7e308, 0.95, 10 ** 307, "that a float can count",
                 id="stride-past-the-float-range")])
def test_spanning_rejects(t_end, max_dt, sample_every, match):
    with pytest.raises(ContractError, match=match):
        IntegrationConfig.spanning(t_end, max_dt, sample_every)


def test_rk4_scalar_decay():
    # y' = -y, dt = 0.1: one step applies the degree-4 Taylor polynomial
    # of exp(-0.1), which is 0.9048375 exactly
    out = rk4_step(lambda y: -y, np.array([1.0]), 0.1)
    assert out[0] == pytest.approx(0.9048375, abs=1e-15)


def test_rk4_is_fourth_order():
    # halving dt must shrink the endpoint error by about 2^4
    def solve(dt):
        y = np.array([1.0])
        for _ in range(int(round(1.0 / dt))):
            y = rk4_step(lambda v: -v, y, dt)
        return y[0]

    err_coarse = abs(solve(0.1) - np.exp(-1.0))
    err_fine = abs(solve(0.05) - np.exp(-1.0))
    assert 12.0 < err_coarse / err_fine < 20.0


def test_rk4_rejects_nonfinite():
    with pytest.raises(IntegrationError):
        rk4_step(lambda y: y * np.inf, np.array([1.0]), 0.1)


def textbook_rk4(rhs, state, dt):
    k1 = rhs(state)
    k2 = rhs(state + 0.5 * dt * k1)
    k3 = rhs(state + 0.5 * dt * k2)
    k4 = rhs(state + dt * k3)
    return state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


RK4_SHAPES = {
    "flat": ((7,), 0.03),
    "stack, dt column": ((3, 7), np.array([[0.01], [0.03], [0.07]])),
    "stack, dt full": ((3, 7), np.repeat([[0.01], [0.03], [0.07]], 7, 1)),
}


@pytest.mark.parametrize("shape, dt", RK4_SHAPES.values(), ids=RK4_SHAPES)
def test_rk4_step_writes_only_into_its_own_arrays(shape, dt):
    """rk4_step leaves the state and every array the rhs returned as they
    were, when the rhs hands out read-only arrays and when it hands the
    same cached array out again, as the certificate's scan memo does.  Its
    result has the bits of the textbook combination."""
    rng = np.random.default_rng(11)
    state = rng.normal(size=shape)
    matrix = rng.normal(size=(7, 7))

    def read_only(y):
        out = np.sin(y @ matrix)
        out.flags.writeable = False
        return out

    memo = {}

    def cached(y):
        key = y.tobytes()
        if key not in memo:
            memo[key] = np.sin(y @ matrix)
        return memo[key]

    before = state.copy()
    for rhs in (read_only, cached, cached):
        got = rk4_step(rhs, state, dt)
        assert got.tobytes() == textbook_rk4(rhs, state, dt).tobytes()
    assert state.tobytes() == before.tobytes()
    assert len(memo) == 4
    for key, out in memo.items():
        assert out.tobytes() == np.sin(
            np.frombuffer(key).reshape(shape) @ matrix).tobytes()

    # the one constant array every stage returns stays as it was
    constant = rng.normal(size=shape)
    kept = constant.copy()
    got = rk4_step(lambda y: constant, state, dt)
    assert constant.tobytes() == kept.tobytes()
    assert got.tobytes() == textbook_rk4(lambda y: kept, state, dt).tobytes()


@pytest.mark.parametrize("shape, dt", RK4_SHAPES.values(), ids=RK4_SHAPES)
def test_rk4_step_names_the_rows_that_are_not_finite(shape, dt):
    # a stage is inf above 0.5 and nan above 1.5: rows 1 and 2 of a stack
    # whose row r holds r, and row 0 of a flat state of 2s
    def rhs(y):
        return np.where(y > 1.5, np.nan, np.where(y > 0.5, np.inf, 0.0))

    state = np.full(shape, 2.0) if len(shape) == 1 else \
        np.repeat(np.arange(3.0)[:, None], 7, 1)
    with pytest.raises(IntegrationError, match="non-finite") as info:
        rk4_step(rhs, state, dt)
    assert info.value.rows == ((0,) if len(shape) == 1 else (1, 2))
    # finite values whose squares overflow are not an error
    big = np.full(shape, 1e200)
    assert rk4_step(lambda y: np.zeros_like(y), big, dt).tobytes() \
        == big.tobytes()


def setup_full(seed=0, n=3, alpha=0.5, epsilon=0.02):
    rng = np.random.default_rng(seed)
    params = ModelParams(n_nodes=n, omega=rng.uniform(-1.0, 1.0, n),
                         epsilon=epsilon)
    coupling = make_kuramoto(alpha)
    theta0 = rng.uniform(0.0, TWO_PI, n)
    state = FullState(theta=theta0,
                      weights=critical_weights(coupling, theta0))
    return params, coupling, state


def test_full_rejects_large_dt():
    params, coupling, state = setup_full()
    calls = []

    def gamma(d):
        calls.append(d.shape)
        return coupling.gamma(d)
    counting = Coupling(gamma=gamma, target=coupling.target)
    cfg = IntegrationConfig(1.0, 250)
    with pytest.raises(ContractError, match="stability guard"):
        integrate_full(params, counting, state, cfg)
    assert calls == []
    # dt exactly at the guard is allowed
    ok = IntegrationConfig(params.epsilon, 10)
    traj = integrate_full(params, counting, state, ok)
    assert calls
    # a view of the stepped rows, not a copy of the history
    assert not traj.weights.flags.owndata


def test_full_rejects_node_mismatch():
    params, coupling, state = setup_full(n=3)
    other = FullState(theta=np.zeros(4), weights=np.zeros((4, 4)))
    cfg = IntegrationConfig(0.1, 100)
    with pytest.raises(ContractError):
        integrate_full(params, coupling, other, cfg)
    with pytest.raises(ContractError, match="FullState"):
        integrate_full(params, coupling, None, cfg)
    with pytest.raises(ContractError, match="ModelParams"):
        integrate_full(None, coupling, state, cfg)
    field = ReducedField(order=0, params=params, coupling=coupling)
    for theta in (np.zeros(4), np.zeros((2, 2, 3))):
        with pytest.raises(ContractError, match="initial theta"):
            integrate_reduced(field, theta, cfg)


def test_synchronized_state_is_stationary():
    # identical phases, zero frequencies, weights on the equilibrium
    # surface: nothing moves
    n = 4
    params = ModelParams(n_nodes=n, omega=np.zeros(n), epsilon=0.02)
    coupling = make_kuramoto(0.6)
    theta0 = np.full(n, 1.25)
    state = FullState(theta=theta0,
                      weights=critical_weights(coupling, theta0))
    cfg = IntegrationConfig(1.0, 1000)
    traj = integrate_full(params, coupling, state, cfg)
    assert phase_distance(traj.thetas[-1], theta0) < 1e-12
    assert np.max(np.abs(traj.weights[-1] - state.weights)) < 1e-12


def test_frozen_phases_relax_at_unit_fast_rate():
    # with gamma identically zero the phases freeze and each weight decays
    # toward its target like exp(-t / epsilon)
    n = 3
    eps = 0.02
    params = ModelParams(n_nodes=n, omega=np.zeros(n), epsilon=eps)
    coupling = Coupling(gamma=lambda d: np.zeros_like(np.asarray(d, dtype=float)),
                        target=lambda u, v: 0.3 + np.cos(u - v))
    rng = np.random.default_rng(1)
    theta0 = rng.uniform(0.0, TWO_PI, n)
    w_star = critical_weights(coupling, theta0)
    w0 = w_star + rng.normal(size=(n, n))
    cfg = IntegrationConfig(3 * eps, 60)
    traj = integrate_full(params, coupling,
                          FullState(theta=theta0, weights=w0), cfg)
    decay = np.exp(-traj.grid.times[-1] / eps)
    want = w_star + (w0 - w_star) * decay
    # RK4 truncation at dt = eps/20 accumulates to about 1e-8 here
    assert np.max(np.abs(traj.weights[-1] - want)) < 1e-7
    assert phase_distance(traj.thetas[-1], theta0) < 1e-14


def test_two_node_antisymmetry():
    # omega and theta0 antisymmetric about zero: the configuration stays
    # antisymmetric because the model only sees phase differences
    params = ModelParams(n_nodes=2, omega=np.array([0.4, -0.4]), epsilon=0.02)
    coupling = make_kuramoto(0.5)
    theta0 = np.array([0.7, -0.7])
    state = FullState(theta=theta0,
                      weights=critical_weights(coupling, theta0))
    cfg = IntegrationConfig(2.0, 2000)
    traj = integrate_full(params, coupling, state, cfg)
    mirrored = (-traj.thetas[:, ::-1]) % TWO_PI
    err = np.abs(traj.thetas - mirrored)
    err = np.minimum(err, TWO_PI - err)
    assert np.max(err) < 1e-10


def test_weights_stay_bounded_at_guard_step():
    # starting inside |a_ij| <= |alpha| + 2 the weights never leave that
    # band, even at the coarsest admissible step
    alpha = 0.8
    params = ModelParams(n_nodes=4,
                         omega=np.random.default_rng(2).uniform(-1, 1, 4),
                         epsilon=0.05)
    coupling = make_kuramoto(alpha)
    rng = np.random.default_rng(3)
    theta0 = rng.uniform(0.0, TWO_PI, 4)
    w0 = rng.uniform(-(alpha + 2), alpha + 2, (4, 4))
    cfg = IntegrationConfig(10.0, 2000, sample_every=10)
    traj = integrate_full(params, coupling,
                          FullState(theta=theta0, weights=w0), cfg)
    assert np.max(np.abs(traj.weights)) <= alpha + 2 + 1e-12


def test_snapshots_are_canonical():
    params, coupling, state = setup_full(seed=4)
    cfg = IntegrationConfig(5.0, 5000, sample_every=50)
    traj = integrate_full(params, coupling, state, cfg)
    assert np.all(traj.thetas >= 0.0)
    assert np.all(traj.thetas < TWO_PI)
    final = FullState(theta=traj.thetas[-1], weights=traj.weights[-1])
    assert final.theta.shape == (3,)


@pytest.mark.filterwarnings("ignore:overflow encountered",
                            "ignore:invalid value encountered")
def test_full_reports_failure_location():
    params, _, state = setup_full(seed=5)
    exploding = Coupling(gamma=lambda d: np.exp(0.0 * d + 800.0),
                         target=lambda u, v: u * 0.0 + v * 0.0)
    cfg = IntegrationConfig(1.0, 1000)
    with pytest.raises(IntegrationError, match=r"^full-system integration "
                       r"failed at t=.*\(step 1\)"):
        integrate_full(params, exploding, state, cfg)
    field = ReducedField(order=0, params=params, coupling=exploding)
    with pytest.raises(IntegrationError, match=r"^reduced .*\(step 1\)"):
        integrate_reduced(field, state.theta, cfg)


def test_reduced_rigid_rotation():
    # identical phases and a common frequency: the reduced flow is a rigid
    # rotation at exactly that frequency (sin(0) kills the coupling)
    n = 4
    params = ModelParams(n_nodes=n, omega=np.full(n, 0.3), epsilon=0.01)
    field = ReducedField(order=1, params=params, coupling=make_kuramoto(0.5))
    theta0 = np.full(n, 1.0)
    cfg = IntegrationConfig(2.0, 200)
    traj = integrate_reduced(field, theta0, cfg)
    want = (theta0 + 0.3 * traj.grid.times[-1]) % TWO_PI
    assert phase_distance(traj.thetas[-1], want) < 1e-12


def test_reduced_step_halving():
    params = ModelParams(
        n_nodes=3, omega=np.random.default_rng(6).uniform(-1, 1, 3),
        epsilon=0.01)
    field = ReducedField(order=1, params=params, coupling=make_kuramoto(0.7))
    theta0 = np.array([0.1, 2.0, 4.0])
    coarse = integrate_reduced(field, theta0,
                               IntegrationConfig(2.0, 100))
    fine = integrate_reduced(field, theta0,
                             IntegrationConfig(2.0, 200))
    assert phase_distance(coarse.thetas[-1], fine.thetas[-1]) < 1e-8


def test_reduced_rejects_a_field_of_the_wrong_shape():
    calls = []

    def field(theta):
        calls.append(theta.shape)
        return np.zeros(2)
    field.n_nodes = 3
    with pytest.raises(ContractError, match=r"return the shape \(3,\) of the "
                       r"phases it is given, got \(2,\)"):
        integrate_reduced(field, np.zeros(3), IntegrationConfig(1.0, 2))
    assert calls == [(3,)]  # one call, before any step


def test_full_rhs_matches_public_fields():
    """integrate_full steps exactly the rhs made of the public phase_rhs
    and weight_rhs / epsilon, to the last bit."""
    params, coupling, state = setup_full(seed=9, n=4)
    n = params.n_nodes

    def rhs(flat):
        theta, w = flat[:n], flat[n:].reshape(n, n)
        dw = weight_rhs(coupling, theta, w) / params.epsilon
        return np.concatenate([phase_rhs(params, coupling, theta, w),
                               dw.ravel()])

    cfg = IntegrationConfig(3 * params.epsilon / 20, 3)
    traj = integrate_full(params, coupling, state, cfg)
    flat = np.concatenate([state.theta, state.weights.ravel()])
    for step in range(1, 4):
        flat = rk4_step(rhs, flat, cfg.dt)
        assert np.array_equal(traj.thetas[step], wrap_phase(flat[:n]))
        assert np.array_equal(traj.weights[step], flat[n:].reshape(n, n))


def phase_lag_coupling():
    """gamma(phi) = sin(phi - 0.3), target(u, v) = -sin(u - v + 1.1)."""
    return Coupling(gamma=lambda phi: np.sin(phi - 0.3),
                    target=lambda u, v: -np.sin(u - v + 1.1))


@pytest.mark.parametrize("kind", ["kuramoto", "phase_lag"])
@pytest.mark.parametrize("n", [5, 16])
def test_full_rhs_bits_match_public_fields_flat_and_stacked(n, kind):
    """_full_rhs on flat states at each of three epsilons equals public
    phase_rhs joined with weight_rhs / epsilon, bit for bit.  At N = 5
    numpy sums each row of fewer than 8 terms in order; at N = 16 it takes
    its unrolled pairwise sum."""
    rng = np.random.default_rng(n)
    coupling = make_kuramoto(0.7) if kind == "kuramoto" \
        else phase_lag_coupling()
    params = ModelParams(n_nodes=n, omega=rng.uniform(-1.0, 1.0, n),
                         epsilon=0.01)
    epsilons = np.array([0.0025, 0.01, 0.04])
    # unwrapped phases and weights off the surface
    states = rng.uniform(-3.0, 9.0, (3, n + n * n))

    def public(row, epsilon):
        theta, w = row[:n], row[n:].reshape(n, n)
        return np.concatenate([phase_rhs(params, coupling, theta, w),
                               (weight_rhs(coupling, theta, w)
                                / epsilon).ravel()])

    for row, epsilon in zip(states, epsilons):
        rhs = _full_rhs(replace(params, epsilon=epsilon), coupling)
        assert rhs(row).tobytes() == public(row, epsilon).tobytes()


def test_full_rhs_reads_its_state_and_returns_fresh_memory():
    """The rhs takes the weights as a view of the state, so it must never
    write into it; and each result is a new array, sharing no memory with
    the state or with the result of the call before."""
    n = 4
    rng = np.random.default_rng(31)
    params = ModelParams(n_nodes=n, omega=rng.uniform(-1.0, 1.0, n),
                         epsilon=0.01)
    rhs = _full_rhs(params, make_kuramoto(0.7))
    state = rng.uniform(-3.0, 9.0, n + n * n)
    before = state.copy()
    first = rhs(state)
    second = rhs(state)
    assert state.tobytes() == before.tobytes()
    assert first.tobytes() == second.tobytes()
    assert not np.shares_memory(first, state)
    assert not np.shares_memory(second, state)
    assert not np.shares_memory(first, second)


def test_stack_failure_names_rows_on_their_own_step_grid():
    # y' = y, except that row 0 blows up once it passes 1.5, which it does
    # within the fifth step of 0.6 / 6 (in the third sample spacing), while
    # row 1 steps on as before
    def rhs(state):
        out = state.copy()
        row0 = out if state.ndim == 1 else out[0]
        row0[row0 > 1.5] = np.inf
        return out

    with pytest.raises(IntegrationError,
                       match=r"^x integration failed in rows 0 at t=0\.5 "
                             r"\(step 5\): non-finite") as info:
        _integrate(rhs, np.ones((2, 3)), IntegrationConfig(0.6, 6, 2), "x")
    assert info.value.rows == (0,)


@pytest.mark.parametrize("low, high, coarse_fails", [
    # 0.045 = 4.5 steps of 0.01: a coarse stage, and a fine one
    (0.044, 0.046, True),
    # 0.0325 = 6.5 fine steps of 0.005, in the first half of a coarse step
    (0.032, 0.033, False),
    # 0.0375 = 7.5 fine steps, in the fine run's second half alone
    (0.037, 0.038, False)], ids=["coarse", "fine first half",
                                 "fine second half"])
def test_failed_pair_fails_as_its_two_runs(low, high, coarse_fails):
    """Every phase drifts at 1 until row 1, started at 0, lies in (low,
    high); a paired run raises the error of the two runs stepped on their
    own, the coarse one first, with its text and rows."""
    def field(theta):
        return np.where((low < theta) & (theta < high), np.nan, 1.0)
    field.n_nodes = 2
    theta0 = np.array([[1.0, 1.0], [0.0, 0.0]])
    config = IntegrationConfig(0.1, 10)
    fine = IntegrationConfig(0.1, 20, 2)
    errors = []
    for grid in (config, fine):
        try:
            integrate_reduced(field, theta0, grid)
        except IntegrationError as exc:
            errors.append(exc)
    assert len(errors) == 1 + coarse_fails
    with pytest.raises(IntegrationError) as info:
        integrate_reduced(field, theta0, config, paired=True)
    assert str(info.value) == str(errors[0])
    assert info.value.rows == errors[0].rows == (1,)


def test_history_over_the_memory_cap_is_rejected_before_allocating():
    """N = 400 with 10 001 samples would store 12.8 GB of history: the run
    is a ContractError that names the bytes and the stride, raised before
    anything large is allocated or any step is taken."""
    n = 400
    params = ModelParams(n_nodes=n, omega=np.zeros(n), epsilon=0.01)
    coupling = make_kuramoto(0.7)
    theta = np.linspace(0.0, 6.0, n)
    state = FullState(theta=theta, weights=critical_weights(coupling, theta))
    config = IntegrationConfig(5.0, 10_000)
    assert config.n_samples == 10_001
    tracemalloc.start()
    try:
        with pytest.raises(ContractError, match=r"needs 1\.28e\+10 bytes.*"
                           r"integration\.sample_every"):
            integrate_full(params, coupling, state, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert 8 * 10_001 * (n + n * n) > MAX_HISTORY_BYTES >= 2**31


def test_integration_is_deterministic():
    params, coupling, state = setup_full(seed=7)
    cfg = IntegrationConfig(0.5, 500)
    a = integrate_full(params, coupling, state, cfg)
    b = integrate_full(params, coupling, state, cfg)
    assert np.array_equal(a.thetas, b.thetas)
    assert np.array_equal(a.weights, b.weights)


def test_trajectory_validation():
    # the times are the grid's: a times array is no grid
    for grid in (np.array([0.0, 1.0]), None):
        with pytest.raises(ContractError, match="grid must be an "
                           "IntegrationConfig"):
            Trajectory(grid, np.zeros((2, 2)))
    grid = IntegrationConfig(1.0, 1)
    for thetas in (np.zeros((3, 2)), np.zeros((1, 2)), 0.5):
        with pytest.raises(ContractError, match="one row per sample, 2"):
            Trajectory(grid, thetas)
    # each row is (N,) or (S, N): no scalar rows and no deeper stacks
    for thetas in (np.zeros(2), np.zeros((2, 1, 1, 3))):
        with pytest.raises(ContractError, match=re.escape(
                f"each (N,) or (S, N), got {thetas.shape}")):
            Trajectory(grid, thetas)
    # a non-finite phase or weight is refused where it is made
    thetas, weights = np.zeros((2, 3)), np.ones((2, 3, 3))
    thetas[1, 2] = np.nan
    with pytest.raises(ContractError, match="thetas must be finite"):
        Trajectory(grid, thetas)
    weights[0, 1, 0] = np.inf
    with pytest.raises(ContractError, match="weights must be finite"):
        Trajectory(grid, np.zeros((2, 3)), weights)
    with pytest.raises(ContractError, match="non-numeric thetas"):
        Trajectory(grid, [["a", "b"], ["c", "d"]])
    # and the phases integrate_reduced starts from
    field = ReducedField(0, ModelParams(3, np.zeros(3), 0.1),
                         make_kuramoto(0.5))
    with pytest.raises(ContractError, match="non-numeric initial theta"):
        integrate_reduced(field, ["a", "b", "c"],
                          IntegrationConfig(1.0, 10))
    t = Trajectory(grid, np.zeros((2, 2)))
    assert t.weights is None and t.grid.times.tolist() == [0.0, 1.0]
    # weights must have N x N entries per sample for the N phases
    with pytest.raises(ContractError, match=r"thetas.shape \+ \(N,\)"):
        Trajectory(grid, np.zeros((2, 4)), weights=np.zeros((2, 3, 3)))
    with pytest.raises(ContractError, match=r"thetas.shape \+ \(N,\)"):
        Trajectory(grid, np.zeros((2, 3)), weights=np.zeros((2, 9)))


def test_stacked_trajectory_is_not_written_as_csv():
    field = ReducedField(order=0, params=ModelParams(
        n_nodes=3, omega=np.zeros(3), epsilon=0.01),
        coupling=make_kuramoto(0.5))
    traj = integrate_reduced(field, np.zeros((2, 3)),
                             IntegrationConfig(0.2, 2))
    assert traj.thetas.shape == (3, 2, 3)
    buf = io.StringIO()
    with pytest.raises(ContractError, match=r"thetas \(samples, N\)"):
        trajectory_to_csv(traj, buf)
    assert buf.getvalue() == ""


def test_csv_round_trip():
    params, coupling, state = setup_full(seed=8)
    cfg = IntegrationConfig(0.1, 100, sample_every=10)
    traj = integrate_full(params, coupling, state, cfg)
    buf = io.StringIO()
    trajectory_to_csv(traj, buf)
    text = buf.getvalue()
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    n = params.n_nodes
    assert header[:1 + n] == ["time"] + [f"theta_{i}" for i in range(1, n + 1)]
    assert header[1 + n] == "a_1_1"
    assert len(header) == 1 + n + n * n
    assert len(lines) - 1 == traj.grid.n_samples
    # 17 significant digits reproduce the doubles exactly
    parsed = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1)
    assert np.array_equal(parsed[:, 1:1 + n], traj.thetas)
    assert np.array_equal(parsed[:, 1 + n:].reshape(-1, n, n), traj.weights)

    # signed zero, the smallest subnormal, the largest double and an
    # integral float, next to an integer index column
    buf = io.StringIO()
    _write_table(buf, ["index", "value"],
                 [np.arange(4), np.array([-0.0, 5e-324, 1.7976931348623157e308,
                                          2.0])])
    assert buf.getvalue() == ("index,value\n0,-0\n1,4.9406564584124654e-324\n"
                              "2,1.7976931348623157e+308\n3,2\n")

    # a non-finite value is rejected, not written as nan: no trajectory
    # holds one
    weights = traj.weights.copy()
    weights[-1, 0, 1] = np.nan
    with pytest.raises(ContractError, match="weights must be finite"):
        Trajectory(traj.grid, traj.thetas, weights)


def csv_parts(n_rows, gathered):
    """Parts of a trajectory-shaped table, of a certify-shaped one whose
    triples and points are gathered by index, or ("last") of one whose last
    column is gathered from rows whose texts differ in length."""
    rng = np.random.default_rng(n_rows)
    if not gathered:
        return ([f"c{k}" for k in range(21)],
                [np.arange(n_rows) * 0.25, rng.random((n_rows, 4)),
                 rng.normal(size=(n_rows, 16))])
    r, p = np.arange(n_rows), 5
    if gathered == "last":
        values = np.concatenate([np.arange(13), [-0.0, 5e-324, 1e300]])
        return (["t", "x", "y", "index", "value"],
                [r * 0.25, rng.normal(size=(n_rows, 2)),
                 (r * 7 % 16, np.column_stack([np.arange(16), values]))])
    return (["i", "j", "k", "point", "x", "y", "fd", "fd2", "fd3"],
            [(r // p, rng.integers(0, 4, (-(-n_rows // p), 3))),
             (r % p, np.column_stack([np.arange(p), rng.random((p, 2))])),
             rng.normal(size=(n_rows, 3))])


def percent_csv(columns, parts):
    """The CSV _write_table writes, built value by value with "%.17g"."""
    table = np.column_stack([np.asarray(p[1], dtype=float)[p[0]]
                             if isinstance(p, tuple) else p for p in parts])
    return ",".join(columns) + "\n" + "".join(
        ",".join("%.17g" % v for v in row) + "\n" for row in table.tolist())


class Writes(io.StringIO):
    """A text stream that counts its writes."""
    calls = 0

    def write(self, text):
        self.calls += 1
        return super().write(text)


@pytest.mark.parametrize("gathered", [False, True, "last"])
@pytest.mark.parametrize("n_parts", [2, 3])
@pytest.mark.parametrize("n_rows", [1, 63, 64, 65, 4001])
def test_split_csv_has_the_bytes_of_one_part(monkeypatch, n_rows, n_parts,
                                             gathered):
    # n_parts writes of whole rows, each spelled in its own _spell call,
    # give the bytes of one write and of "%"
    columns, parts = csv_parts(n_rows, gathered)
    monkeypatch.setattr(integrate_module, "BLOCK_VALUES",
                        n_rows * len(columns))
    one = Writes()
    _write_table(one, columns, parts)
    assert one.calls == 2
    per_part = -(-n_rows // n_parts)
    monkeypatch.setattr(integrate_module, "BLOCK_VALUES",
                        per_part * len(columns))
    split = Writes()
    _write_table(split, columns, parts)
    assert split.calls == 1 + -(-n_rows // per_part)
    assert split.getvalue() == one.getvalue() == percent_csv(columns, parts)
    assert one.getvalue().count("\n") == n_rows + 1


def test_csv_is_written_in_one_part_without_fork_threads_or_cpus(
        monkeypatch):
    # one process and one thread write the whole table
    def refused(*args):
        raise AssertionError("the CSV writer started a process or thread")
    monkeypatch.setattr(os, "fork", refused)
    monkeypatch.setattr(threading.Thread, "start", refused)
    monkeypatch.setattr(os, "sched_getaffinity", refused, raising=False)
    columns, parts = csv_parts(4001, False)
    buf = io.StringIO()
    _write_table(buf, columns, parts)
    assert buf.getvalue() == percent_csv(columns, parts)


@pytest.mark.parametrize("failing_write", [2, 3])
def test_csv_stream_failure_leaves_whole_rows(monkeypatch, failing_write):
    # the stream fails on its second or third write: the error goes out
    # as it is, and every write before it held whole rows
    columns, parts = csv_parts(4001, False)
    monkeypatch.setattr(integrate_module, "BLOCK_VALUES", 100 * len(columns))

    class Full(Writes):
        def write(self, text):
            if self.calls + 1 == failing_write:
                raise OSError("disk full")
            return super().write(text)
    stream = Full()
    with pytest.raises(OSError, match="disk full"):
        _write_table(stream, columns, parts)
    expected = percent_csv(columns, parts).split("\n")
    assert stream.getvalue() == "\n".join(
        expected[:1 + 100 * (failing_write - 2)]) + "\n"


def spelled(values):
    """_spell's slots as text, one string per value."""
    slots = integrate_module._spell(values)
    return [bytes(s[s != 0]).decode("ascii") for s in slots]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                min_size=1, max_size=40))
def test_spelling_kernel_has_the_bytes_of_percent(values):
    assert spelled(values) == ["%.17g" % v for v in values]


def test_spelling_kernel_on_every_binade_and_its_edges():
    rng = np.random.default_rng(20261020)
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    integers = np.floor(rng.random(20_000)
                        * 10.0 ** rng.integers(0, 18, 20_000))
    halves = np.floor(rng.random(20_000) * 10.0 ** rng.integers(0, 16, 20_000))
    # exact ties: odd multiples of 2**-k with 18 significant digits, the
    # last a 5, which "%" rounds to even
    ties = [x for x in (int(n) / 2.0 ** k for k in range(1, 80) for n in
                        rng.integers(2 ** 40, 2 ** 52, 200) | 1)
            if len(Decimal(x).as_tuple().digits) == 18]
    assert len(ties) > 200
    values = np.concatenate([
        # 100 000 doubles drawn from their bits: every binade and sign
        rng.integers(0, 2 ** 64 - 2 ** 52, 100_000, np.uint64).view(float),
        powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf),
        [float(f"{m}e{k}") for k in range(-300, 300, 7) for m in
         ("9.99999999999999995", "9.99999999999999985",
          "1.00000000000000005")],
        halves + 0.5, (halves + 0.5) / 10.0 ** rng.integers(1, 20, 20_000),
        rng.integers(1, 2 ** 52, 5_000, np.int64).view(float),  # subnormal
        [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308],
        integers, 10.0 ** np.arange(18), 10.0 ** np.arange(18) - 1,
        2.0 ** np.arange(64), ties])
    values = values[np.isfinite(values)]
    values = np.concatenate([values, -values])
    assert len(values) > 200_000
    assert spelled(values) == ["%.17g" % v for v in values.tolist()]


def test_spelling_kernel_with_digits_on_both_sides_of_the_point():
    # exponent 1 to 15 with fractional digits: the "%" fallback's values
    rng = np.random.default_rng(35)
    drawn = rng.random(5_000) * 10.0 ** rng.integers(2, 17, 5_000)
    values = np.concatenate([[12.5, 3141592.6535, 999999999999999.9,
                              10.000000000000002, 99.999999999999986],
                             drawn[(drawn >= 10) & (drawn % 1 != 0)]])
    values = np.concatenate([values, -values])
    assert spelled(values) == ["%.17g" % v for v in values.tolist()]


def test_csv_writer_memory_does_not_grow_with_the_table():
    # the 38 MB text of a 30 000 x 64 table is spelled and written block
    # by block: the writer's own peak stays near one block's 1 MB, where
    # the whole text as one string would be 38 MB
    table = np.random.default_rng(1).normal(size=(30_000, 64))

    class Count:
        size = 0

        def write(self, text):
            self.size += len(text)
    stream = Count()
    tracemalloc.start()
    try:
        _write_table(stream, [f"c{k}" for k in range(64)], [table])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stream.size > 38_000_000
    assert peak < 4 * 2 ** 20
