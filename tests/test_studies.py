import errno
import io
import json
import os
import signal
import tempfile
import threading
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fastslow import integrate, studies
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
    integrate_full,
    integrate_reduced,
    make_kuramoto,
    phase_distance,
    slow_manifold,
    weight_correction,
    wrap_phase,
)
from conftest import assert_no_child_left, use_cpus
from test_model import callables_only

ROOT = Path(__file__).resolve().parents[1]
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


@pytest.mark.parametrize("xs, ys", [
    ([0.1, 0.05, 0.025], [1e-2, np.nan, 1e-4]),
    ([np.inf, 0.05, 0.025], [1e-2, 1e-3, 1e-4]),
    ([0.1, 0.05, np.nan], [1e-2, 1e-3, 1e-4]),
    ([0.1, 0.05, 0.025], [np.inf, 1e-3, 1e-4]),
], ids=["nan in ys", "inf in xs", "nan in xs", "inf in ys"])
def test_fit_loglog_rejects_nonfinite(xs, ys, capfd):
    # unchecked, a NaN in ys gives slope NaN flagged as a good fit, and an
    # inf in xs a LinAlgError after LAPACK writes to stderr
    with pytest.raises(ContractError, match="finite"):
        fit_loglog(np.array(xs), np.array(ys))
    assert capfd.readouterr().err == ""


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
    with pytest.raises(ContractError, match="weights must have shape"):
        distance_to_slow_manifold(make_params(n=4), c, np.zeros(4), w, 1)
    with pytest.raises(ContractError, match="weights must have shape"):
        distance_to_slow_manifold(params, c, np.zeros((5, 3)),
                                  np.zeros((2, 3, 3)), 1)
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


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_attraction_rejects_on_surface_start():
    params = make_params(epsilon=0.01)
    c = make_kuramoto(0.6)
    state = off_surface_state(params, c, norm=0.01)
    config = default_config(params.epsilon, t_end=6 * params.epsilon)
    with pytest.raises(ContractError):
        attraction_study(params, c, state, config)
    with pytest.raises(ContractError, match="FullState"):
        attraction_study(params, c, None, config)
    # finite weights whose distance overflows leave nothing to fit
    state = off_surface_state(params, c, norm=1e300)
    with pytest.raises(ContractError, match="finite distance, got inf"):
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
    # t_end = 0.3 is 300 and 600 steps at 0.02 and 0.01, but not whole at
    # the finest epsilon 0.007; at a coarser one it need not be
    with pytest.raises(ContractError, match="whole number of steps"):
        convergence_study(params, c, theta0, [0.02, 0.01, 0.007], t_end=0.3)
    assert convergence_study(params, c, theta0, [0.02, 0.014, 0.01],
                             t_end=0.3).epsilons.size == 3
    # unchecked, numpy raises ValueError for non-numeric phases
    with pytest.raises(ContractError, match="non-numeric"):
        convergence_study(params, c, ["a", "b", "c"], [0.02, 0.01, 0.005],
                          t_end=0.2)


@pytest.mark.parametrize("epsilons", [
    [[0.02], [0.01], [0.005]], np.array([[0.02], [0.01], [0.005]]),
    [0.02, np.nan, 0.005], [np.inf, 0.01, 0.005], [0.02, 0.01, -np.inf],
    [[0.02, 0.01], [0.005]], 0.01, ["a", "b", "c"]])
def test_convergence_rejects_epsilons_that_are_no_finite_sequence(
        monkeypatch, epsilons):
    def no_config(*args):
        raise AssertionError("a config was built")
    monkeypatch.setattr(studies, "default_config", no_config)
    with pytest.raises(ContractError, match="epsilons must be a 1-d "
                       "sequence of finite numbers, got "):
        convergence_study(make_params(), make_kuramoto(0.5), np.zeros(3),
                          epsilons)


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
    for epsilons, t_end, max_samples, at in [
            # three default grids, stepped as one stack on the finest
            ([0.02, 0.01, 0.005], 0.1, 2000, "t=0.0015 (step 6)"),
            # one default grid
            ([0.03, 0.015, 0.01], 0.3, 50, "t=0.006 (step 1)")]:
        with pytest.raises(ExperimentError) as info:
            convergence_study(params, exploding, np.zeros(3), epsilons,
                              t_end=t_end, max_samples=max_samples)
        # the rows share every step, so all fail in the same one, and each
        # is named by its own epsilon, not by the sweep
        assert str(info.value).startswith("integration failed at " + ", ".join(
            f"epsilon={e}" for e in epsilons) + ": full-system integration "
            "failed in rows 0, 1, 2 at " + at)
        assert str(epsilons) not in str(info.value)


def record_runs(monkeypatch):
    """Record every stack the convergence study integrates, in order:
    ("full", epsilons, config) for the full-system stack and ("reduced",
    epsilons, config, trajectory) for the reduced stack, whose epsilon is 0
    in the order-0 row.  A forked child's stack is not seen here, so the
    study runs in one process."""
    runs = []
    monkeypatch.setattr(studies, "_cpus", lambda: 1)
    real_full = studies._exponential_stack
    real_reduced = studies.integrate_reduced

    def full(params, coupling, epsilons, theta0, config):
        runs.append(("full", list(epsilons), config))
        return real_full(params, coupling, epsilons, theta0, config)

    def reduced(field, theta0, config):
        traj = real_reduced(field, theta0, config)
        runs.append(("reduced", field.epsilon.ravel().tolist(), config,
                     traj))
        return traj
    monkeypatch.setattr(studies, "_exponential_stack", full)
    monkeypatch.setattr(studies, "integrate_reduced", reduced)
    return runs


def check_stacks(runs, epsilons, t_end, max_samples):
    """One full stack of every epsilon, then one reduced stack of the
    order-0 field and the order-1 field at every epsilon, both on one grid:
    _sample_grid(default_config(epsilon)) of the finest epsilon, sampled at
    the times of that epsilon's default config."""
    assert [run[0] for run in runs] == ["full", "reduced"]
    (_, eps_full, grid), (_, eps, reduced_grid, traj) = runs
    assert eps_full == list(epsilons) and eps == [0.0] + eps_full
    assert reduced_grid == grid and traj.thetas.shape[1] == len(eps)
    config = default_config(epsilons[-1], t_end, 0.05, max_samples)
    assert grid == studies._sample_grid(config)
    times = np.arange(0, config.n_steps + 1, config.sample_every) * config.dt
    np.testing.assert_allclose(traj.times, times, rtol=1e-12, atol=0.0)


def test_convergence_builds_one_default_config(monkeypatch):
    # the middle epsilon's default grid (spacing 0.001) is finer than the
    # finest epsilon's (0.0015, 1020 of 2040 steps sampled): the sweep takes
    # the finest epsilon's, and builds no config at any other epsilon
    calls, real = [], studies.default_config

    def counted(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(studies, "default_config", counted)
    runs = record_runs(monkeypatch)
    params = make_params(n=3, seed=7)
    theta0 = np.random.default_rng(8).uniform(0.0, TWO_PI, 3)
    convergence_study(params, make_kuramoto(0.6), theta0, [0.03, 0.02, 0.015],
                      t_end=1.53)
    assert calls == [(0.015, 1.53, 0.05, 2000)]
    check_stacks(runs, [0.03, 0.02, 0.015], 1.53, 2000)
    assert runs[0][2].dt * runs[0][2].sample_every == pytest.approx(0.0015)


@pytest.mark.parametrize("epsilons, max_samples, n_reduced", [
    # every full run samples every 0.001 (201 samples): one grid, 5 rows
    ([0.02, 0.01, 0.005, 0.0025], 200, 5),
    # spacings 0.001/0.0005/0.00025: one stack of 4 rows on the finest
    ([0.02, 0.01, 0.005], 2000, 4),
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
    check_stacks(runs, epsilons, 0.2, max_samples)
    # one reduced stack, with one order-0 row
    _, eps, config, _ = runs[1]
    assert len(eps) == n_reduced and eps.count(0.0) == 1
    # the fewest equal substeps no longer than MAX_REDUCED_DT per sample
    substeps = config.sample_every
    assert config.dt <= studies.MAX_REDUCED_DT
    assert substeps == 1 or config.dt * substeps / (substeps - 1) \
        > studies.MAX_REDUCED_DT
    assert not report.degenerate


def test_reduced_step_error_budget(monkeypatch):
    """On the criterion-3 sweep the reduced fields stepped on the sample
    grid stay within 1e-3 of the smallest order-1 reduction error of the
    same fields stepped by RK4 at the finest full run's epsilon / 20.
    About 3.5 s, most of it the 16 000 reference steps."""
    runs = record_runs(monkeypatch)
    rng = np.random.default_rng(42)
    omega = rng.uniform(-1.0, 1.0, 5)
    theta0 = rng.uniform(0.0, TWO_PI, 5)
    params = ModelParams(n_nodes=5, omega=omega, epsilon=0.02)
    c = make_kuramoto(0.8)
    epsilons = [0.02, 0.01, 0.005, 0.0025]
    report = convergence_study(params, c, theta0, epsilons, t_end=2.0,
                               dt_factor=0.05, max_samples=2000)
    # all four full runs sample every 0.001: one full stack and one reduced
    # stack with order 0 once
    assert [run[0] for run in runs] == ["full", "reduced"]
    check_stacks(runs, epsilons, 2.0, 2000)
    budget = 1e-3 * report.errors_order1.min()
    _, eps, _, traj = runs[1]
    # each row's reference is its field stepped as one stack at
    # epsilon / 20 of the finest epsilon, 8 steps per sample; the order-0
    # field is the same at every epsilon, and is its row where epsilon is 0
    stiff = default_config(epsilons[-1], 2.0, 0.05, 2000)
    assert stiff.sample_every == 8
    field = studies._Core(params, c, 1, np.array(eps)[:, None, None])
    assert field(np.tile(theta0, (5, 1)))[0].tobytes() == ReducedField(
        order=0, params=params, coupling=c)(theta0).tobytes()
    refs = integrate._integrate(field, np.tile(theta0, (5, 1)), stiff.dt, 8,
                                traj.n_samples, "reduced")
    for row in range(5):
        assert phase_distance(traj.thetas[:, row], refs[:, row]) <= budget
    # a stacked row has the bits of its own run
    alone = integrate_reduced(ReducedField(order=1, params=replace(
        params, epsilon=eps[-1]), coupling=c), theta0, stiff)
    assert np.array_equal(wrap_phase(refs[:, -1]), alone.thetas)


def per_epsilon_errors(params, coupling, theta0, epsilons, grid):
    """Reduction errors from each epsilon's own one-row exponential run and
    reduced runs, integrated one at a time on the sweep's grid."""
    errs = np.empty((2, len(epsilons)))
    for m, e in enumerate(epsilons):
        p = replace(params, epsilon=e)
        full = integrate._exponential_stack(params, coupling, [e], theta0,
                                            grid)[:, 0]
        for order in (0, 1):
            red = integrate_reduced(ReducedField(order, p, coupling), theta0,
                                    grid)
            errs[order, m] = phase_distance(full, red.thetas)
    return errs


@pytest.mark.parametrize("epsilons, t_end, max_samples, n_grids", [
    ([0.02, 0.01, 0.005, 0.0025], 0.2, 200, 1),
    # spacings 0.001/0.0005/0.00025, stepped on the finest
    ([0.02, 0.01, 0.005], 0.2, 2000, 3),
    # 12, 8 and 4 full steps of epsilon / 20 per sample, one grid
    ([0.03, 0.015, 0.01], 0.3, 50, 1),
])
def test_stacked_errors_equal_per_epsilon_runs(monkeypatch, epsilons, t_end,
                                              max_samples, n_grids):
    assert len({studies._sample_grid(default_config(
        e, t_end, 0.05, max_samples)) for e in epsilons}) == n_grids
    params = make_params(n=4, seed=11)
    c = make_kuramoto(0.7)
    theta0 = np.random.default_rng(12).uniform(0.0, TWO_PI, 4)
    runs = record_runs(monkeypatch)
    report = convergence_study(params, c, theta0, epsilons, t_end=t_end,
                               max_samples=max_samples)
    check_stacks(runs, epsilons, t_end, max_samples)
    expected = per_epsilon_errors(params, c, theta0, epsilons, runs[0][2])
    assert np.array_equal(report.errors_order0, expected[0])
    assert np.array_equal(report.errors_order1, expected[1])


def shipped_converge_model():
    """The params, epsilons and initial phases of configs/converge.json,
    drawn from its field seeds as the CLI draws them, and its coupling."""
    cfg = json.loads((ROOT / "configs" / "converge.json").read_text())
    model, omega = cfg["model"], cfg["model"]["omega"]
    n = model["n_nodes"]
    params = ModelParams(n_nodes=n, omega=np.random.default_rng(
        omega["seed"]).uniform(omega["low"], omega["high"], n),
        epsilon=model["epsilon_list"][0])
    theta0 = np.random.default_rng(cfg["initial"]["theta"]["seed"]).uniform(
        0.0, TWO_PI, n)
    return params, model["epsilon_list"], theta0, make_kuramoto(
        model["coupling"]["alpha"])


def phase_lag_coupling(a=0.3, b=1.1):
    """gamma(phi) = sin(phi - a), target(u, v) = -sin(u - v + b)."""
    return Coupling(gamma=lambda phi: np.sin(phi - a),
                    target=lambda u, v: -np.sin(u - v + b),
                    gamma_d1=lambda phi: np.cos(phi - a),
                    target_du=lambda u, v: -np.cos(u - v + b),
                    target_dv=lambda u, v: np.cos(u - v + b))


@pytest.mark.parametrize("kind", ["kuramoto", "uv_slots", "phase_lag"])
def test_exponential_reference_matches_rk4(kind):
    """On the model and epsilons of configs/converge.json, the study's
    exponential reference stays within 1e-11 of RK4 at each epsilon's own
    epsilon / 20 on the study's 0.001 grid (measured <= 3.8e-13), and at
    the longest step MAX_REDUCED_DT within 1e-3 of the smallest order-1
    error of a study stepped there (measured 5.7e-10 against 9.1e-6).  The
    deviation form reads the target's derivative slots, which RK4 does
    not, so a wrong slot shows here: the difference form of make_kuramoto,
    the (u, v) slots alone and a phase-lag coupling.  About 2.5 s each,
    most of it the 30 000 one-row RK4 steps."""
    params, epsilons, theta0, coupling = shipped_converge_model()
    coupling = {"kuramoto": coupling,
                "uv_slots": callables_only(drop=("target_diff",
                                                 "target_diff_d1")),
                "phase_lag": phase_lag_coupling()}[kind]
    rk4 = []
    for e in epsilons:  # one run per epsilon at its own e / 20
        at = replace(params, epsilon=e)
        start = FullState(theta=theta0,
                          weights=slow_manifold(at, coupling, theta0))
        rk4.append(integrate_full(at, coupling, start, IntegrationConfig(
            dt=e / 20, t_end=2.0, sample_every=round(0.02 / e))).thetas)
    rk4 = np.stack(rk4, 1)  # sampled every 0.001
    grid = studies._sample_grid(default_config(epsilons[-1], 2.0, 0.05,
                                               2000))
    assert grid == IntegrationConfig(dt=0.001, t_end=2.0)
    exponential = integrate._exponential_stack(params, coupling, epsilons,
                                               theta0, grid)
    assert phase_distance(exponential, rk4) <= 1e-11
    longest = IntegrationConfig(dt=studies.MAX_REDUCED_DT, t_end=2.0)
    assert studies._sample_grid(default_config(
        epsilons[-1], 2.0, 0.05, 200)) == longest
    errors = convergence_study(params, coupling, theta0, epsilons,
                               max_samples=200).errors_order1
    coarse = integrate._exponential_stack(params, coupling, epsilons,
                                          theta0, longest)
    assert phase_distance(coarse, rk4[::10]) <= 1e-3 * errors.min()


@pytest.fixture
def forks(monkeypatch):
    """Run studies on two CPUs, and list the children forked, through a
    wrapped os.fork, and the references stepped in this process, through a
    wrapped studies._exponential_stack.  A study still waiting on a child
    after 60 s fails instead of hanging."""
    def hung(signum, frame):
        raise TimeoutError("the study still waits on a child after 60 s")
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    calls = {"fork": 0, "reference": 0}
    fork, reference = os.fork, studies._exponential_stack

    def counting_fork():
        calls["fork"] += 1
        return fork()

    def counting_reference(*args):
        calls["reference"] += 1
        return reference(*args)
    monkeypatch.setattr(os, "fork", counting_fork)
    monkeypatch.setattr(studies, "_exponential_stack", counting_reference)
    use_cpus(monkeypatch, 2)
    yield calls
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def report_bytes(report):
    """Every array of a ConvergenceReport, as bytes."""
    fits = [getattr(fit, name) for fit in (report.fit_order0,
                                           report.fit_order1)
            for name in ("xs", "ys", "slope", "intercept", "r_squared")]
    return [np.asarray(a).tobytes() for a in [
        report.epsilons, report.errors_order0, report.errors_order1] + fits]


def split_case(epsilons=(0.02, 0.01, 0.005, 0.0025), t_end=0.2,
               max_samples=200):
    """A study whose report bytes are returned on each call; by default one
    grid of four rows."""
    params = make_params(n=4, seed=11)
    theta0 = np.random.default_rng(12).uniform(0.0, TWO_PI, 4)
    return lambda: report_bytes(convergence_study(
        params, make_kuramoto(0.7), theta0, list(epsilons), t_end=t_end,
        max_samples=max_samples))


def one_process(monkeypatch, forks, study):
    """study() on one CPU, with the counts of forks reset after it."""
    use_cpus(monkeypatch, 1)
    result = study()
    assert forks["fork"] == 0
    forks.update(fork=0, reference=0)
    use_cpus(monkeypatch, 2)
    return result


@pytest.mark.parametrize("epsilons, t_end, max_samples, n_grids", [
    # one grid of four rows
    ([0.02, 0.01, 0.005, 0.0025], 0.2, 200, 1),
    # three default grids, shared by 0.04 and 0.008, 0.03 and 0.02, 0.025
    # and 0.0125, stepped as one stack on the finest
    ([0.04, 0.03, 0.025, 0.02, 0.0125, 0.008], 0.3, 20, 3),
    # three default grids of one epsilon each
    ([0.02, 0.01, 0.005], 0.2, 2000, 3),
])
def test_split_convergence_has_the_bits_of_one_process(forks, monkeypatch,
                                                      epsilons, t_end,
                                                      max_samples, n_grids):
    assert len({studies._sample_grid(default_config(
        e, t_end, 0.05, max_samples)) for e in epsilons}) == n_grids
    study = split_case(epsilons, t_end, max_samples)
    one = one_process(monkeypatch, forks, study)
    assert study() == one
    # one child steps the reference; this process steps none
    assert forks == {"fork": 1, "reference": 0}
    assert_no_child_left()


@pytest.mark.filterwarnings("ignore:overflow encountered",
                            "ignore:invalid value encountered")
def test_split_convergence_failure_is_the_one_process_failure(forks,
                                                             monkeypatch):
    # the two cases of test_convergence_wraps_integration_failure: three
    # default grids and one; the split fails and the study runs again in
    # one process, which raises the same error
    params = make_params(omega=np.full(3, 1e4))
    exploding = Coupling(gamma=np.sin,
                         target=lambda u, v: np.exp(50.0 * u + 0.0 * v),
                         gamma_d1=np.cos,
                         target_du=lambda u, v: 50.0 * np.exp(50.0 * u + 0.0 * v),
                         target_dv=lambda u, v: 0.0 * u)
    for epsilons, t_end, max_samples in [([0.02, 0.01, 0.005], 0.1, 2000),
                                         ([0.03, 0.015, 0.01], 0.3, 50)]:
        texts = []
        for cpus in (1, 2):
            use_cpus(monkeypatch, cpus)
            with pytest.raises(ExperimentError) as info:
                convergence_study(params, exploding, np.zeros(3), epsilons,
                                  t_end=t_end, max_samples=max_samples)
            texts.append(str(info.value))
        assert texts[0] == texts[1]
        assert texts[0].startswith(f"integration failed at epsilon={epsilons[0]}")
        assert forks["fork"] == 1
        forks["fork"] = 0
        assert_no_child_left()


def test_split_convergence_child_without_room_gives_one_process_result(
        forks, monkeypatch):
    study = split_case()
    one = one_process(monkeypatch, forks, study)

    class NoRoom(io.BytesIO):
        def write(self, data):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
    monkeypatch.setattr(tempfile, "TemporaryFile", lambda *args, **kwargs:
                        io.TextIOWrapper(NoRoom(), encoding="utf-8"))
    # the child fails to write its phases; the study runs again in one
    # process, which steps the reference
    assert study() == one
    assert forks == {"fork": 1, "reference": 1}
    assert_no_child_left()


def test_split_convergence_child_that_warns_gives_one_process_warnings(
        forks, monkeypatch):
    # a warning in the child fails the split, so that it is given once, by
    # this process, and not again on the child's stderr
    study = split_case(epsilons=(0.02, 0.01, 0.005), max_samples=2000)
    reference = studies._exponential_stack

    def warning_reference(*args):
        warnings.warn("the reference warns", RuntimeWarning)
        return reference(*args)
    monkeypatch.setattr(studies, "_exponential_stack", warning_reference)
    given = []
    for cpus in (1, 2):
        use_cpus(monkeypatch, cpus)
        with pytest.warns(RuntimeWarning, match="the reference warns") as seen:
            given.append(study())
        given.append([str(w.message) for w in seen])
    assert given[:2] == given[2:]
    assert given[1] == ["the reference warns"]
    assert forks["fork"] == 1
    assert_no_child_left()


def test_convergence_is_not_split_without_fork_threads_or_cpus(forks,
                                                               monkeypatch):
    study = split_case()
    one = one_process(monkeypatch, forks, study)
    # another thread alive
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert study() == one
    finally:
        stop.set()
        thread.join(10)
    assert not thread.is_alive()
    assert forks == {"fork": 0, "reference": 1}
    assert study() == one
    assert forks == {"fork": 1, "reference": 1}
    monkeypatch.delattr(os, "fork")
    assert study() == one
    assert forks == {"fork": 1, "reference": 2}
    assert_no_child_left()


@pytest.mark.parametrize("theta0", [[np.nan, 0.0, 0.0], np.zeros(4)],
                         ids=["nan", "4 phases"])
def test_convergence_checks_theta0_before_any_fork_or_step(forks, monkeypatch,
                                                          theta0):
    def no_step(*args):
        raise AssertionError("a Runge-Kutta step was taken")
    monkeypatch.setattr(integrate, "rk4_step", no_step)
    with pytest.raises(ContractError, match="theta0 must be 3 finite phases"):
        convergence_study(make_params(), make_kuramoto(0.5), theta0,
                          [0.02, 0.01, 0.005], t_end=0.2)
    assert forks == {"fork": 0, "reference": 0}
