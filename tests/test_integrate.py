import errno
import io
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

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
    default_config,
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
from fastslow.integrate import MAX_HISTORY_BYTES, _full_rhs, \
    _integrate, _sample_times, _write_table
from conftest import assert_no_child_left, use_cpus

TWO_PI = 2 * np.pi


def test_config_validation():
    with pytest.raises(ContractError):
        IntegrationConfig(dt=0.0, t_end=1.0)
    with pytest.raises(ContractError):
        IntegrationConfig(dt=0.1, t_end=0.0)
    with pytest.raises(ContractError):
        IntegrationConfig(dt=2.0, t_end=1.0)
    with pytest.raises(ContractError):
        IntegrationConfig(dt=0.1, t_end=1.0, sample_every=0)
    # 1.0 / 0.3 is not a whole number of steps; rounding would stop at 0.9
    with pytest.raises(ContractError, match="whole number of steps"):
        IntegrationConfig(dt=0.3, t_end=1.0)
    # 3 does not divide 10 steps; the last sample would be at 0.9
    with pytest.raises(ContractError, match="dividing the 10 steps"):
        IntegrationConfig(dt=0.1, t_end=1.0, sample_every=3)
    # a stride is an int: neither a bool nor a float, even a whole one
    for stride in (True, 2.0, np.float64(5.0)):
        with pytest.raises(ContractError, match="positive integer"):
            IntegrationConfig(dt=0.1, t_end=1.0, sample_every=stride)
    assert IntegrationConfig(dt=0.1, t_end=1.0,
                             sample_every=np.int64(5)).sample_every == 5
    # a step count past the float range, not an OverflowError from n_steps
    with pytest.raises(ContractError, match="than a float can count"):
        IntegrationConfig(dt=1e-310, t_end=1.0)
    cfg = IntegrationConfig(dt=0.1, t_end=1.0)
    assert cfg.n_steps == 10
    # no array, string or None is a step or a horizon
    for bad in (np.array([0.1, 0.2]), "a", None):
        with pytest.raises(ContractError, match="dt must be > 0"):
            IntegrationConfig(dt=bad, t_end=1.0)
        with pytest.raises(ContractError, match="t_end must be > 0"):
            IntegrationConfig(dt=0.1, t_end=bad)
    with pytest.raises(ContractError, match="epsilon and dt_factor"):
        default_config("a", 1.0)
    # a run needs a config
    field = ReducedField(order=0, params=ModelParams(
        n_nodes=2, omega=np.zeros(2), epsilon=0.1), coupling=make_kuramoto(0.5))
    with pytest.raises(ContractError, match="IntegrationConfig"):
        integrate_reduced(field, np.zeros(2), None)


def test_default_config_caps_samples():
    cfg = default_config(epsilon=0.01, t_end=2.0, max_samples=100)
    assert cfg.dt == pytest.approx(5e-4)
    assert cfg.n_steps == 4000
    assert cfg.n_steps / cfg.sample_every <= 100
    # 10 001 = 73 * 137 steps: stride 2 would drop the last one, so the
    # stride is the smallest divisor >= 2
    cfg = default_config(epsilon=0.01, t_end=5.0005)
    assert cfg.n_steps == 10_001
    assert cfg.sample_every == 73
    # 10 007 steps is prime, and 20 014 = 2 * 10 007 has no divisor from 3
    # to 10 006: the strides 10 007 would store only one or two samples
    with pytest.raises(ContractError, match="10007 steps.*only 1;"):
        default_config(epsilon=0.01, t_end=5.0035)
    with pytest.raises(ContractError, match="20014 steps.*only 2;"):
        default_config(epsilon=0.01, t_end=10.007)


@pytest.mark.parametrize("max_samples", [1, 2, 7, 100, 1000])
def test_default_config_stride_matches_linear_search(max_samples):
    for n_steps in range(1, 2001):
        stride = max(1, -(-n_steps // max_samples))
        while n_steps % stride:
            stride += 1
        if 100 * (n_steps // stride) < min(n_steps, max_samples):
            with pytest.raises(ContractError, match=f"is {stride}, which"):
                default_config(1.0, float(n_steps), 1.0, max_samples)
        else:
            cfg = default_config(1.0, float(n_steps), 1.0, max_samples)
            assert (cfg.n_steps, cfg.sample_every) == (n_steps, stride)


@pytest.mark.parametrize("max_samples", [0, -3, True, 2.0, None])
def test_default_config_rejects_a_sample_cap_that_is_not_a_count(max_samples):
    with pytest.raises(ContractError, match="max_samples must be an int >= 1"):
        default_config(epsilon=0.01, t_end=2.0, max_samples=max_samples)


def test_default_config_rejects_a_long_prime_grid_promptly():
    # 40 000 003 steps is prime; the search tries at most max_samples strides
    start = time.perf_counter()
    with pytest.raises(ContractError, match="40000003 steps.*only 1;"):
        default_config(epsilon=1.0, t_end=4_000_000.3, dt_factor=0.1)
    assert time.perf_counter() - start < 1.0


def test_trajectory_spacing_bound_scales_with_the_horizon():
    # at t near 1.4e4 the gaps of np.arange(...) * dt differ by about 1.5e-12
    times = _sample_times(default_config(0.7, 14000.0, 0.1))
    assert Trajectory(times=times, thetas=np.zeros((times.size, 1))).n_samples \
        == 10_001
    with pytest.raises(ContractError, match="uniformly spaced"):
        Trajectory(times=[0.0, 1.0, 1.5], thetas=np.zeros((3, 1)))


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
    cfg = IntegrationConfig(dt=params.epsilon / 5, t_end=1.0)
    with pytest.raises(ContractError, match="stability guard"):
        integrate_full(params, counting, state, cfg)
    assert calls == []
    # dt exactly at the guard is allowed
    ok = IntegrationConfig(dt=params.epsilon / 10, t_end=params.epsilon)
    traj = integrate_full(params, counting, state, ok)
    assert calls
    # a view of the stepped rows, not a copy of the history
    assert not traj.weights.flags.owndata


def test_full_rejects_node_mismatch():
    params, coupling, state = setup_full(n=3)
    other = FullState(theta=np.zeros(4), weights=np.zeros((4, 4)))
    cfg = IntegrationConfig(dt=params.epsilon / 20, t_end=0.1)
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
    cfg = IntegrationConfig(dt=params.epsilon / 20, t_end=1.0)
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
    cfg = IntegrationConfig(dt=eps / 20, t_end=3 * eps)
    traj = integrate_full(params, coupling,
                          FullState(theta=theta0, weights=w0), cfg)
    decay = np.exp(-traj.times[-1] / eps)
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
    cfg = IntegrationConfig(dt=params.epsilon / 20, t_end=2.0)
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
    cfg = IntegrationConfig(dt=params.epsilon / 10, t_end=10.0,
                            sample_every=10)
    traj = integrate_full(params, coupling,
                          FullState(theta=theta0, weights=w0), cfg)
    assert np.max(np.abs(traj.weights)) <= alpha + 2 + 1e-12


def test_snapshots_are_canonical():
    params, coupling, state = setup_full(seed=4)
    cfg = IntegrationConfig(dt=params.epsilon / 20, t_end=5.0, sample_every=50)
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
    cfg = IntegrationConfig(dt=params.epsilon / 20, t_end=1.0)
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
    cfg = IntegrationConfig(dt=0.01, t_end=2.0)
    traj = integrate_reduced(field, theta0, cfg)
    want = (theta0 + 0.3 * traj.times[-1]) % TWO_PI
    assert phase_distance(traj.thetas[-1], want) < 1e-12


def test_reduced_step_halving():
    params = ModelParams(
        n_nodes=3, omega=np.random.default_rng(6).uniform(-1, 1, 3),
        epsilon=0.01)
    field = ReducedField(order=1, params=params, coupling=make_kuramoto(0.7))
    theta0 = np.array([0.1, 2.0, 4.0])
    coarse = integrate_reduced(field, theta0,
                               IntegrationConfig(dt=0.02, t_end=2.0))
    fine = integrate_reduced(field, theta0,
                             IntegrationConfig(dt=0.01, t_end=2.0))
    assert phase_distance(coarse.thetas[-1], fine.thetas[-1]) < 1e-8


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

    dt = params.epsilon / 20
    traj = integrate_full(params, coupling, state,
                          IntegrationConfig(dt=dt, t_end=3 * dt))
    flat = np.concatenate([state.theta, state.weights.ravel()])
    for step in range(1, 4):
        flat = rk4_step(rhs, flat, dt)
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
    # within the fifth step of dt 0.1 (in the third sample spacing), while
    # row 1 steps on as before
    def rhs(state):
        out = state.copy()
        row0 = out if state.ndim == 1 else out[0]
        row0[row0 > 1.5] = np.inf
        return out

    with pytest.raises(IntegrationError,
                       match=r"^x integration failed in rows 0 at t=0\.5 "
                             r"\(step 5\): non-finite") as info:
        _integrate(rhs, np.ones((2, 3)), 0.1, 2, 4, "x")
    assert info.value.rows == (0,)


def test_history_over_the_memory_cap_is_rejected_before_allocating():
    """N = 400 with 10 001 samples would store 12.8 GB of history: the run
    is a ContractError that names the bytes and the stride, raised before
    anything large is allocated or any step is taken."""
    n = 400
    params = ModelParams(n_nodes=n, omega=np.zeros(n), epsilon=0.01)
    coupling = make_kuramoto(0.7)
    theta = np.linspace(0.0, 6.0, n)
    state = FullState(theta=theta, weights=critical_weights(coupling, theta))
    config = IntegrationConfig(dt=0.0005, t_end=5.0)
    assert _sample_times(config).size == 10_001
    tracemalloc.start()
    try:
        with pytest.raises(ContractError, match=r"needs 12833283200 bytes.*"
                           r"integration\.sample_every"):
            integrate_full(params, coupling, state, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert 8 * 10_001 * (n + n * n) > MAX_HISTORY_BYTES >= 2**31


def test_integration_is_deterministic():
    params, coupling, state = setup_full(seed=7)
    cfg = IntegrationConfig(dt=params.epsilon / 20, t_end=0.5)
    a = integrate_full(params, coupling, state, cfg)
    b = integrate_full(params, coupling, state, cfg)
    assert np.array_equal(a.thetas, b.thetas)
    assert np.array_equal(a.weights, b.weights)


def test_trajectory_validation():
    with pytest.raises(ContractError):
        Trajectory(times=np.array([0.0, 1.0, 1.5]), thetas=np.zeros((3, 2)))
    for times, match in [([0.0], ">= 2 entries"), ([1.0, 0.0], "increasing"),
                         ([0.0, np.nan], "finite"), ([0, 1, np.inf], "finite"),
                         ([np.nan] * 3, "finite")]:
        # unchecked, NaN compares false in the increasing and spacing tests
        with pytest.raises(ContractError, match=match):
            Trajectory(times=np.array(times), thetas=np.zeros((len(times), 2)))
    with pytest.raises(ContractError):
        Trajectory(times=np.array([0.0, 1.0]), thetas=np.zeros((3, 2)))
    with pytest.raises(ContractError, match="row count"):
        Trajectory(times=[0.0, 1.0], thetas=0.5)
    t = Trajectory(times=np.array([0.0, 1.0]), thetas=np.zeros((2, 2)))
    assert t.weights is None
    # weights must have N x N entries per sample for the N phases
    with pytest.raises(ContractError, match=r"thetas.shape \+ \(N,\)"):
        Trajectory(times=np.array([0.0, 1.0]), thetas=np.zeros((2, 4)),
                   weights=np.zeros((2, 3, 3)))
    with pytest.raises(ContractError, match=r"thetas.shape \+ \(N,\)"):
        Trajectory(times=np.array([0.0, 1.0]), thetas=np.zeros((2, 3)),
                   weights=np.zeros((2, 9)))


def test_stacked_trajectory_is_not_written_as_csv():
    field = ReducedField(order=0, params=ModelParams(
        n_nodes=3, omega=np.zeros(3), epsilon=0.01),
        coupling=make_kuramoto(0.5))
    traj = integrate_reduced(field, np.zeros((2, 3)),
                             IntegrationConfig(dt=0.1, t_end=0.2))
    assert traj.thetas.shape == (3, 2, 3)
    buf = io.StringIO()
    with pytest.raises(ContractError, match=r"thetas \(samples, N\)"):
        trajectory_to_csv(traj, buf)
    assert buf.getvalue() == ""


def test_csv_round_trip():
    params, coupling, state = setup_full(seed=8)
    cfg = IntegrationConfig(dt=params.epsilon / 20, t_end=0.1, sample_every=10)
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
    assert len(lines) - 1 == traj.n_samples
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

    # a non-finite value is rejected, not written as nan
    weights = traj.weights.copy()
    weights[-1, 0, 1] = np.nan
    bad = Trajectory(times=traj.times, thetas=traj.thetas, weights=weights)
    with pytest.raises(ContractError):
        trajectory_to_csv(bad, io.StringIO())


@pytest.mark.parametrize("lengths", [(64, 100), (100, 70)])
def test_write_table_rejects_unequal_parts(lengths):
    buf = io.StringIO()
    with pytest.raises(ContractError, match=r"parts have \[\d+, \d+\] rows"):
        _write_table(buf, ["a", "b"], [np.arange(float(m)) for m in lengths])
    with pytest.raises(ContractError, match=r"parts have \[\d+, \d+\] rows"):
        _write_table(buf, ["a", "b"], [np.arange(float(lengths[0])),
                                       (np.zeros(lengths[1], int), [1.0])])
    assert buf.getvalue() == ""


@pytest.mark.parametrize("index", [[0, 3], [-1, 0], [0.0, 1.0], [[0, 1]]])
def test_write_table_rejects_bad_gather_index(index):
    buf = io.StringIO()
    with pytest.raises(ContractError, match=r"integers in \[0, 3\)"):
        _write_table(buf, ["a", "b"], [np.arange(2.0),
                                       (np.array(index), [1.0, 2.0, 3.0])])
    assert buf.getvalue() == ""


def test_write_table_names_the_non_finite_cell():
    a, b = np.arange(200.0), np.ones((200, 2))
    b[150, 1] = np.nan
    b[160, 0] = np.inf
    buf = io.StringIO()
    with pytest.raises(ContractError, match="row 150, column c$"):
        _write_table(buf, ["a", "b", "c"], [a, b])
    assert buf.getvalue() == ""
    # the first offending row wins over an earlier part's later row
    a[170] = -np.inf
    with pytest.raises(ContractError, match="row 150, column c$"):
        _write_table(io.StringIO(), ["a", "b", "c"], [a, b])
    # a gathered table is checked whole, before any row is written, even
    # where no output row points to its bad row
    buf = io.StringIO()
    with pytest.raises(ContractError, match="gathered table row 2, column b$"):
        _write_table(buf, ["a", "b"], [np.arange(4.0), (
            np.zeros(4, int), np.array([1.0, 2.0, np.nan]))])
    assert buf.getvalue() == ""


def test_write_table_rejects_column_names_that_miss_the_parts():
    for names in (["a", "b"], ["a", "b", "c", "d"]):
        buf = io.StringIO()
        with pytest.raises(ContractError, match=f"{len(names)} CSV column "
                           "names for 3 columns"):
            _write_table(buf, names, [np.arange(2.0), np.ones((2, 2))])
        assert buf.getvalue() == ""
    # a bad cell or index in a column past the names is a contract error too
    b = np.ones((2, 2))
    b[1, 1] = np.nan
    with pytest.raises(ContractError, match="2 CSV column names for 3"):
        _write_table(io.StringIO(), ["a", "b"], [np.arange(2.0), b])
    with pytest.raises(ContractError, match=r"integers in \[0, 1\)"):
        _write_table(io.StringIO(), ["a"], [np.arange(2.0),
                                            (np.array([0, 1]), [1.0])])


@pytest.fixture
def forks(monkeypatch):
    """Force the CSV split on any table and list the children forked,
    through a wrapped os.fork.  A writer still waiting on a child after
    60 s fails instead of hanging."""
    def hung(signum, frame):
        raise TimeoutError("the CSV writer still waits on a child after 60 s")
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    calls, fork = [], os.fork

    def counting_fork():
        calls.append(1)
        return fork()
    monkeypatch.setattr(integrate_module, "MIN_VALUES_PER_PART", 1)
    monkeypatch.setattr(os, "fork", counting_fork)
    yield calls
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def csv_parts(n_rows, gathered):
    """Parts of a trajectory-shaped table, or of a certify-shaped one whose
    triples and points are gathered by index."""
    rng = np.random.default_rng(n_rows)
    if not gathered:
        return ([f"c{k}" for k in range(21)],
                [np.arange(n_rows) * 0.25, rng.random((n_rows, 4)),
                 rng.normal(size=(n_rows, 16))])
    r, p = np.arange(n_rows), 5
    return (["i", "j", "k", "point", "x", "y", "fd", "fd2", "fd3"],
            [(r // p, rng.integers(0, 4, (-(-n_rows // p), 3))),
             (r % p, np.column_stack([np.arange(p), rng.random((p, 2))])),
             rng.normal(size=(n_rows, 3))])


@pytest.mark.parametrize("gathered", [False, True])
@pytest.mark.parametrize("n_parts", [2, 3])
@pytest.mark.parametrize("n_rows", [1, 63, 64, 65, 4001])
def test_split_csv_has_the_bytes_of_one_part(forks, monkeypatch, n_rows,
                                             n_parts, gathered):
    columns, parts = csv_parts(n_rows, gathered)
    use_cpus(monkeypatch, 1)
    one = io.StringIO()
    _write_table(one, columns, parts)
    assert not forks
    use_cpus(monkeypatch, n_parts)
    split = io.StringIO()
    _write_table(split, columns, parts)
    # a part is at least one 64-row block: up to 64 rows fork no child
    assert len(forks) == min(n_parts, -(-n_rows // 64)) - 1
    assert split.getvalue() == one.getvalue()
    assert one.getvalue().count("\n") == n_rows + 1
    assert_no_child_left()


def test_csv_is_written_in_one_part_without_fork_threads_or_cpus(forks,
                                                                 monkeypatch):
    columns, parts = csv_parts(200, False)
    use_cpus(monkeypatch, 1)
    expected = io.StringIO()
    _write_table(expected, columns, parts)
    assert not forks

    def written():
        buf = io.StringIO()
        _write_table(buf, columns, parts)
        assert buf.getvalue() == expected.getvalue()
        return len(forks)
    use_cpus(monkeypatch, 2)
    # another thread alive
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert written() == 0
    finally:
        stop.set()
        thread.join(10)
    assert not thread.is_alive()
    assert written() == 1
    # without sched_getaffinity the CPU count is os.cpu_count()
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert written() == 1
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert written() == 2
    monkeypatch.delattr(os, "fork")
    assert written() == 2
    assert_no_child_left()


@pytest.mark.parametrize("n_parts", [2, 3])
def test_failed_csv_child_raises_and_no_child_is_left(forks, monkeypatch,
                                                      n_parts):
    use_cpus(monkeypatch, n_parts)
    columns, parts = csv_parts(4001, False)
    temporary = tempfile.TemporaryFile

    def no_room(text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def full(*args, **kwargs):  # only the children write these files
        part = temporary(*args, **kwargs)
        part.write = no_room
        return part
    monkeypatch.setattr(tempfile, "TemporaryFile", full)
    with pytest.raises(ChildProcessError, match=re.escape(
            f"CSV parts {list(range(1, n_parts))} of {n_parts} failed")):
        _write_table(io.StringIO(), columns, parts)
    assert_no_child_left()


@pytest.mark.parametrize("n_parts", [2, 3])
def test_csv_children_are_reaped_when_the_stream_fails(forks, monkeypatch,
                                                      n_parts):
    # the parent fails on its own part while its children still format
    use_cpus(monkeypatch, n_parts)
    columns, parts = csv_parts(4001, False)

    class Full(io.StringIO):
        def write(self, text):
            if self.tell() > 100_000:
                raise OSError("disk full")
            return super().write(text)
    with pytest.raises(OSError, match="disk full"):
        _write_table(Full(), columns, parts)
    assert len(forks) == n_parts - 1
    assert_no_child_left()


CHILD_PEAK = """
import os, resource, sys
import numpy as np
from fastslow import integrate
os.sched_getaffinity = lambda pid: {0, 1}
table = np.random.default_rng(1).normal(size=(30_000, 64))
with open(sys.argv[1], "w") as stream:
    integrate._write_table(stream, [f"c{k}" for k in range(64)], [table])
print(os.path.getsize(sys.argv[1]), *(resource.getrusage(who).ru_maxrss
      for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)))
"""


def test_csv_child_memory_does_not_grow_with_its_part(tmp_path):
    # the child writes its 19 MB part block by block, so its peak stays
    # below its parent's, which holds the table; a part held as one string
    # puts the child 25 MB above it
    src = os.path.dirname(os.path.dirname(integrate_module.__file__))
    out = subprocess.run(
        [sys.executable, "-c", CHILD_PEAK, str(tmp_path / "raw.csv")],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True,
        text=True, check=True).stdout
    size, own_kb, children_kb = map(int, out.split())
    assert size > 38_000_000
    assert children_kb < own_kb + 4096
