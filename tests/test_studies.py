from dataclasses import replace

import numpy as np
import pytest

from fastslow import studies
from fastslow import (
    ContractError,
    Coupling,
    ExperimentError,
    FullState,
    IntegrationConfig,
    ModelParams,
    ReducedField,
    attraction_study,
    convergence_study,
    critical_weights,
    default_config,
    distance_to_slow_manifold,
    fit_loglog,
    integrate_reduced,
    make_kuramoto,
    phase_distance,
    slow_manifold,
    weight_correction,
)

TWO_PI = 2 * np.pi


def test_fit_loglog_recovers_power_law():
    xs = np.array([0.1, 0.05, 0.025, 0.0125])
    fit = fit_loglog(xs, 3.0 * xs**2)
    assert fit.slope == pytest.approx(2.0, abs=1e-12)
    assert fit.intercept == pytest.approx(np.log(3.0), abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert not fit.poor_fit


def test_fit_loglog_flags_scatter():
    xs = np.array([0.1, 0.05, 0.025, 0.0125])
    ys = np.array([1.0, 5.0, 0.3, 2.0])
    fit = fit_loglog(xs, ys)
    assert fit.poor_fit
    assert fit.r_squared < 0.98


def test_fit_loglog_validation():
    with pytest.raises(ContractError):
        fit_loglog(np.array([0.1]), np.array([1.0]))
    with pytest.raises(ContractError):
        fit_loglog(np.array([0.1, 0.2]), np.array([1.0, 1.0]))  # increasing
    with pytest.raises(ContractError):
        fit_loglog(np.array([0.1, 0.05]), np.array([1.0, -1.0]))
    with pytest.raises(ContractError):
        fit_loglog(np.array([0.1, 0.0]), np.array([1.0, 1.0]))


def make_params(n=3, epsilon=0.01, omega=None, seed=0):
    if omega is None:
        omega = np.random.default_rng(seed).uniform(-1.0, 1.0, n)
    return ModelParams(n_nodes=n, omega=omega, epsilon=epsilon)


def test_distance_vanishes_on_each_surface():
    params = make_params()
    c = make_kuramoto(0.5)
    rng = np.random.default_rng(1)
    theta = rng.uniform(0.0, TWO_PI, 3)
    on0 = critical_weights(c, theta)
    assert distance_to_slow_manifold(params, c, theta, on0, order=0) == 0.0
    on1 = critical_weights(c, theta) \
        + params.epsilon * weight_correction(params, c, theta)
    assert distance_to_slow_manifold(params, c, theta, on1, order=1) == 0.0
    # the two surfaces differ at order epsilon
    gap = distance_to_slow_manifold(params, c, theta, on0, order=1)
    assert 0.0 < gap < 10.0 * params.epsilon


def test_distance_is_frobenius():
    params = make_params()
    c = make_kuramoto(0.5)
    theta = np.zeros(3)
    w = critical_weights(c, theta) + np.ones((3, 3))
    assert distance_to_slow_manifold(params, c, theta, w, order=0) == \
        pytest.approx(3.0, abs=1e-14)
    with pytest.raises(ContractError):
        distance_to_slow_manifold(params, c, theta, w, order=2)
    # on a stack (P, N), (P, N, N): each state's np.linalg.norm, bit for bit
    rng = np.random.default_rng(3)
    for n in (3, 7, 16):
        params = make_params(n=n)
        thetas = rng.uniform(0.0, TWO_PI, (5, n))
        weights = rng.normal(size=(5, n, n))
        got = distance_to_slow_manifold(params, c, thetas, weights, order=1)
        want = [np.linalg.norm(w - slow_manifold(params, c, t))
                for t, w in zip(thetas, weights)]
        assert np.array_equal(got, want)


def frozen_phase_coupling(alpha=0.3):
    """Coupling with gamma identically zero: phases freeze, weights relax
    at exactly unit rate in fast time."""
    zero = lambda d: np.zeros_like(np.asarray(d, dtype=float))
    return Coupling(gamma=zero,
                    target=lambda u, v: alpha + np.cos(u - v),
                    gamma_d1=zero,
                    target_du=lambda u, v: -np.sin(u - v),
                    target_dv=lambda u, v: np.sin(u - v))


def off_surface_state(params, coupling, seed=2, norm=1.0):
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, TWO_PI, params.n_nodes)
    base = critical_weights(coupling, theta) \
        + params.epsilon * weight_correction(params, coupling, theta)
    bump = rng.normal(size=base.shape)
    bump *= norm / np.linalg.norm(bump)
    return FullState(theta=theta, weights=base + bump)


def test_attraction_rate_exact_for_frozen_phases():
    params = make_params(epsilon=0.01, omega=np.zeros(3))
    c = frozen_phase_coupling()
    state = off_surface_state(params, c)
    config = default_config(params.epsilon, t_end=6 * params.epsilon)
    report = attraction_study(params, c, state, config)
    assert report.fitted_rate_per_fast_time == pytest.approx(1.0, abs=1e-6)
    assert report.residual < 1e-6
    assert report.epsilon == params.epsilon


def test_attraction_rate_near_one_with_moving_phases():
    params = make_params(epsilon=0.01, seed=3)
    c = make_kuramoto(0.6)
    state = off_surface_state(params, c, seed=4)
    config = default_config(params.epsilon, t_end=6 * params.epsilon)
    report = attraction_study(params, c, state, config)
    assert 0.9 <= report.fitted_rate_per_fast_time <= 1.1
    assert report.n_points >= 2
    assert report.fit_window[0] >= 0.0
    assert report.fit_window[1] <= 6.0 + 1e-9
    assert report.distances[0] == pytest.approx(1.0, abs=1e-12)


def test_attraction_rejects_on_surface_start():
    params = make_params(epsilon=0.01)
    c = make_kuramoto(0.6)
    state = off_surface_state(params, c, norm=0.01)
    config = default_config(params.epsilon, t_end=6 * params.epsilon)
    with pytest.raises(ContractError):
        attraction_study(params, c, state, config)


def test_attraction_short_horizon_has_empty_window():
    # over a tenth of a fast time unit the distance cannot reach half its
    # starting value, so there is nothing to fit
    params = make_params(epsilon=0.01, seed=5)
    c = make_kuramoto(0.6)
    state = off_surface_state(params, c, seed=6)
    config = IntegrationConfig(dt=params.epsilon / 20,
                               t_end=0.1 * params.epsilon)
    with pytest.raises(ExperimentError):
        attraction_study(params, c, state, config)


def test_convergence_validation():
    params = make_params()
    c = make_kuramoto(0.5)
    theta0 = np.zeros(3)
    with pytest.raises(ContractError):
        convergence_study(params, c, theta0, [0.02, 0.01])
    with pytest.raises(ContractError):
        convergence_study(params, c, theta0, [0.01, 0.02, 0.04])
    with pytest.raises(ContractError):
        convergence_study(params, c, theta0, [0.02, 0.01, 0.005],
                          dt_factor=0.2)
    # t_end = 0.3 is 300 and 600 steps at 0.02 and 0.01, but not whole at 0.014
    with pytest.raises(ContractError, match="whole number of steps"):
        convergence_study(params, c, theta0, [0.02, 0.014, 0.01], t_end=0.3)


def test_convergence_degenerate_for_synchronized_start():
    # synchronized phases with zero frequencies are stationary for the full
    # and both reduced systems alike: errors sit at machine level and the
    # report says so instead of fitting noise
    params = make_params(omega=np.zeros(3))
    c = make_kuramoto(0.5)
    report = convergence_study(params, c, np.full(3, 0.7),
                               [0.02, 0.01, 0.005], t_end=0.2)
    assert report.degenerate
    assert report.fit_order0 is None
    assert report.fit_order1 is None
    assert report.errors_order0.max() < 1e-12


def test_convergence_orders_on_small_sweep():
    params = make_params(n=3, seed=7)
    c = make_kuramoto(0.6)
    theta0 = np.random.default_rng(8).uniform(0.0, TWO_PI, 3)
    report = convergence_study(params, c, theta0, [0.02, 0.01, 0.005],
                               t_end=0.5, max_samples=500)
    assert not report.degenerate
    assert 0.7 <= report.fit_order0.slope <= 1.3
    assert report.fit_order1.slope >= 1.5
    assert not report.fit_order0.poor_fit
    assert not report.fit_order1.poor_fit
    # the corrected field is uniformly more accurate on this sweep
    assert np.all(report.errors_order1 < report.errors_order0)


@pytest.mark.filterwarnings("ignore:overflow encountered",
                            "ignore:invalid value encountered")
def test_convergence_wraps_integration_failure():
    # finite at the synchronized start, but the fast phase drift pushes the
    # steep exponential target past overflow within a few steps
    params = make_params(omega=np.full(3, 1e4))
    exploding = Coupling(gamma=np.sin,
                         target=lambda u, v: np.exp(50.0 * u + 0.0 * v),
                         gamma_d1=np.cos,
                         target_du=lambda u, v: 50.0 * np.exp(50.0 * u + 0.0 * v),
                         target_dv=lambda u, v: 0.0 * u)
    with pytest.raises(ExperimentError, match="epsilon"):
        convergence_study(params, exploding, np.zeros(3),
                          [0.02, 0.01, 0.005], t_end=0.1)


def record_runs(monkeypatch):
    """Record every (order, trajectory, config) the convergence study
    integrates: order None for the full system, the field's order for a
    reduced run."""
    runs = []

    def recording(name, order_of):
        real = getattr(studies, name)

        def run(*args):
            traj = real(*args)
            runs.append((order_of(args[0]), traj, args[-1]))
            return traj
        monkeypatch.setattr(studies, name, run)

    recording("integrate_full", lambda params: None)
    recording("integrate_reduced", lambda field: field.order)
    return runs


def check_sample_times(runs):
    """Each full run is followed by its reduced runs, which sample at the
    full run's sample times."""
    full = None
    for order, traj, _ in runs:
        if order is None:
            full = traj
        else:
            np.testing.assert_allclose(traj.times, full.times,
                                       rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("epsilons, max_samples, n_reduced", [
    # every full run samples every 0.001 (201 samples): order 0 runs once
    ([0.02, 0.01, 0.005, 0.0025], 200, 5),
    # spacings 0.001/0.0005/0.00025: order 0 runs on each grid
    ([0.02, 0.01, 0.005], 2000, 6),
    # every full run samples every 0.025: 3 reduced substeps per sample
    ([0.02, 0.01, 0.005], 8, 4),
])
def test_convergence_integrates_order0_once_per_grid(monkeypatch, epsilons,
                                                     max_samples, n_reduced):
    runs = record_runs(monkeypatch)
    params = make_params(n=3, seed=7)
    theta0 = np.random.default_rng(8).uniform(0.0, TWO_PI, 3)
    report = convergence_study(params, make_kuramoto(0.6), theta0, epsilons,
                               t_end=0.2, max_samples=max_samples)
    orders = [order for order, _, _ in runs]
    assert orders.count(None) == orders.count(1) == len(epsilons)
    assert orders.count(0) + orders.count(1) == n_reduced
    check_sample_times(runs)
    # the fewest equal substeps no longer than MAX_REDUCED_DT per sample
    for order, _, config in runs:
        if order is not None:
            substeps = config.sample_every
            assert config.dt <= studies.MAX_REDUCED_DT
            assert substeps == 1 or config.dt * substeps / (substeps - 1) \
                > studies.MAX_REDUCED_DT
    assert not report.degenerate


def test_reduced_step_error_budget(monkeypatch):
    """On the criterion-3 sweep the reduced fields stepped on the sample
    grid stay within 1e-3 of the smallest order-1 reduction error of the
    same fields stepped at the full system's dt = epsilon / 20."""
    runs = record_runs(monkeypatch)
    rng = np.random.default_rng(42)
    omega = rng.uniform(-1.0, 1.0, 5)
    theta0 = rng.uniform(0.0, TWO_PI, 5)
    params = ModelParams(n_nodes=5, omega=omega, epsilon=0.02)
    c = make_kuramoto(0.8)
    epsilons = [0.02, 0.01, 0.005, 0.0025]
    report = convergence_study(params, c, theta0, epsilons, t_end=2.0,
                               dt_factor=0.05, max_samples=2000)
    # all four full runs sample every 0.001, so order 0 runs once
    assert [order for order, _, _ in runs] == [None, 0, 1, None, 1, None, 1,
                                               None, 1]
    check_sample_times(runs)
    budget = 1e-3 * report.errors_order1.min()
    on_grid = [traj for order, traj, _ in runs if order is not None]
    stiff = [default_config(e, 2.0, 0.05, 2000) for e in epsilons]
    # the order-0 field is the same at every epsilon; its finest stiff run
    # is the reference
    fields = [ReducedField(order=0, params=params, coupling=c)] + [
        ReducedField(order=1, params=replace(params, epsilon=e), coupling=c)
        for e in epsilons]
    for traj, field, config in zip(on_grid, fields, stiff[-1:] + stiff):
        ref = integrate_reduced(field, theta0, config)
        assert phase_distance(traj.thetas, ref.thetas) <= budget
