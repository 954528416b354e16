import json
import math
import sys
import tracemalloc
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
    with pytest.raises(ContractError, match="non-numeric xs"):
        fit_loglog(["a", "b", "c"], [1e-2, 1e-3, 1e-4])
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
    config = IntegrationConfig(6 * params.epsilon, 120)
    report = attraction_study(params, c, state, config)
    assert report.fitted_rate_per_fast_time == pytest.approx(1.0, abs=1e-6)
    assert report.residual < 1e-6
    assert report.epsilon == params.epsilon


def test_attraction_distance_pass_adds_about_the_history(monkeypatch):
    # 8 samples of N = 12 a block: the pass over 121 samples holds one
    # block's surface beside the history, not the whole history's surface
    monkeypatch.setattr(studies, "BLOCK_VALUES", 96)
    params = make_params(n=12, epsilon=0.01, seed=3)
    c = make_kuramoto(0.6)
    seen = {}

    def integrate_then_mark(*args):
        seen["traj"] = integrate_full(*args)
        tracemalloc.reset_peak()
        seen["before"] = tracemalloc.get_traced_memory()[0]
        return seen["traj"]
    monkeypatch.setattr(studies, "integrate_full", integrate_then_mark)
    tracemalloc.start()
    try:
        report = attraction_study(params, c, off_surface_state(params, c),
                                  IntegrationConfig(6 * params.epsilon, 120))
        added = tracemalloc.get_traced_memory()[1] - seen["before"]
    finally:
        tracemalloc.stop()
    traj = seen["traj"]
    assert traj.weights.shape == (121, 12, 12)
    assert added <= traj.weights.nbytes
    whole = distance_to_slow_manifold(params, c, traj.thetas, traj.weights, 1)
    assert report.distances.tobytes() == whole.tobytes()


def test_attraction_rate_near_one_with_moving_phases():
    params = make_params(epsilon=0.01, seed=3)
    c = make_kuramoto(0.6)
    state = off_surface_state(params, c, seed=4)
    config = IntegrationConfig(6 * params.epsilon, 120)
    report = attraction_study(params, c, state, config)
    assert 0.9 <= report.fitted_rate_per_fast_time <= 1.1
    assert report.n_points >= 2
    assert report.fit_window[0] >= 0.0
    assert report.fit_window[1] <= 6.0 + 1e-9
    assert report.distances[0] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.filterwarnings("error")
def test_attraction_rejects_on_surface_start():
    params = make_params(epsilon=0.01)
    c = make_kuramoto(0.6)
    state = off_surface_state(params, c, norm=0.01)
    config = IntegrationConfig(6 * params.epsilon, 120)
    with pytest.raises(ContractError):
        attraction_study(params, c, state, config)
    with pytest.raises(ContractError, match="FullState"):
        attraction_study(params, c, None, config)
    # finite weights whose distance overflows leave nothing to fit, and
    # raise no numpy overflow warning on the way
    state = off_surface_state(params, c, norm=1e300)
    with pytest.raises(ContractError, match="finite distance, got inf"):
        attraction_study(params, c, state, config)


def test_attraction_short_horizon_has_empty_window():
    # over a tenth of a fast time unit the distance cannot reach half its
    # starting value, so there is nothing to fit
    params = make_params(epsilon=0.01, seed=5)
    c = make_kuramoto(0.6)
    state = off_surface_state(params, c, seed=6)
    config = IntegrationConfig(0.1 * params.epsilon, 2)
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
    for t_end in (0.0, -1.0, np.nan, np.inf, True, "2"):
        with pytest.raises(ContractError, match="t_end must be > 0"):
            convergence_study(params, c, theta0, [0.02, 0.01, 0.005],
                              t_end=t_end)
    # a history past MAX_HISTORY_BYTES is refused before it is allocated,
    # and the stride that converge picks itself is not offered as a mend
    with pytest.raises(ContractError, match=r"history of 1e\+11 samples "
                       r"needs 1\.44e\+13 bytes.*shorten integration\.t_end$"):
        convergence_study(params, c, theta0, [0.02, 0.01, 0.005], t_end=1e9)
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
    def no_field(*args):
        raise AssertionError("a field was built")
    monkeypatch.setattr(studies, "_Core", no_field)
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
                               t_end=0.5)
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
    for epsilons, t_end, at in [
            # samples every MAX_REDUCED_DT, the first step that long
            ([0.02, 0.01, 0.005], 0.1, "t=0.01 (step 1)"),
            # a horizon shorter than MAX_REDUCED_DT is one sample interval
            ([0.03, 0.015, 0.01], 0.005, "t=0.005 (step 1)")]:
        with pytest.raises(ExperimentError) as info:
            convergence_study(params, exploding, np.zeros(3), epsilons,
                              t_end=t_end)
        # the rows share every step, so all fail in the same one, and each
        # is named by its own epsilon, not by the sweep
        assert str(info.value).startswith("integration failed at " + ", ".join(
            f"epsilon={e}" for e in epsilons) + ": full-system integration "
            "failed in rows 0, 1, 2 at " + at)
        assert str(epsilons) not in str(info.value)


def record_runs(monkeypatch):
    """Record every stack the convergence study integrates, in the order of
    their grids' substeps, the full one first on each grid:
    ("full", epsilons, config, phases) for the full-system stack and
    ("reduced", epsilons, config, trajectory) for the reduced stack, whose
    epsilon is 0 in the order-0 row.  A paired call is recorded as the two
    runs it carries, on config and on the grid of twice its steps."""
    runs = []
    real_full = studies._exponential_stack
    real_reduced = studies.integrate_reduced

    def log(*run):
        runs.append(run)
        runs.sort(key=lambda run: run[2].sample_every)  # stable

    def full(params, coupling, epsilons, theta0, config, paired=False):
        phases = real_full(params, coupling, epsilons, theta0, config, paired)
        grids = [config, IntegrationConfig(config.t_end, 2 * config.n_steps,
                                           2 * config.sample_every)]
        for grid, run in zip(grids, phases if paired else [phases]):
            log("full", list(epsilons), grid, run)
        return phases

    def reduced(field, theta0, config, paired=False):
        trajs = real_reduced(field, theta0, config, paired=paired)
        for traj in trajs if paired else [trajs]:
            log("reduced", field.epsilon.ravel().tolist(), traj.grid, traj)
        return trajs
    monkeypatch.setattr(studies, "_exponential_stack", full)
    monkeypatch.setattr(studies, "integrate_reduced", reduced)
    return runs


def check_stacks(runs, epsilons, t_end, report):
    """Pairs of one full stack of every epsilon and one reduced stack of the
    order-0 field and the order-1 field at every epsilon, each pair on one
    grid: samples every t_end / ceil(t_end / MAX_REDUCED_DT) at 1, 2, 4, ...
    substeps, each grid stepped once.  Every pair but the last two has a
    self-gap to the next over the budget; the last two have the report's,
    within it, and the report's dt is the last grid's."""
    assert [run[0] for run in runs] == ["full", "reduced"] * (len(runs) // 2)
    intervals = int(np.ceil(t_end / studies.MAX_REDUCED_DT))
    spacing = t_end / intervals
    for k, ((_, eps_full, grid, phases), (_, eps, reduced_grid, traj)) in \
            enumerate(zip(runs[::2], runs[1::2])):
        assert eps_full == list(epsilons) and eps == [0.0] + eps_full
        assert reduced_grid == grid == IntegrationConfig(
            t_end, intervals * 2 ** k, 2 ** k)
        assert grid.dt == spacing / 2 ** k
        assert traj.thetas.shape[1] == len(eps)
        assert phases.shape == traj.thetas[:, 1:].shape
        np.testing.assert_allclose(traj.grid.times,
                                   np.arange(traj.grid.n_samples) * spacing,
                                   rtol=1e-12, atol=0.0)
        assert traj.grid.times[-1] == pytest.approx(t_end, rel=1e-12)
    pairs = [(full[3], reduced[3].thetas)
             for full, reduced in zip(runs[::2], runs[1::2])]
    assert len(pairs) >= 2 and report.dt == grid.dt
    for coarse, fine in zip(pairs, pairs[1:]):
        gap = max(map(phase_distance, coarse, fine))
        errs1 = [phase_distance(fine[0][:, m], fine[1][:, 1 + m])
                 for m in range(len(epsilons))]
        met = gap <= studies.SELF_GAP_BUDGET * min(errs1)
        if fine is pairs[-1]:
            assert gap == report.self_gap and (met or report.degenerate)
            assert np.array_equal(errs1, report.errors_order1)
        else:
            assert not met


@pytest.mark.parametrize("t_end, n_samples", [
    (2.0, 201), (1.53, 154), (1.535, 155), (0.50075, 52), (0.005, 2)])
def test_convergence_sample_spacing_is_set_by_t_end_alone(monkeypatch, t_end,
                                                         n_samples):
    # the fewest equal sample intervals no longer than MAX_REDUCED_DT, the
    # same for a sweep ten times coarser or finer
    runs = record_runs(monkeypatch)
    params = make_params(n=3, seed=7)
    theta0 = np.random.default_rng(8).uniform(0.0, TWO_PI, 3)
    for epsilons in ([0.03, 0.02, 0.015], [0.3, 0.02, 0.0015]):
        runs.clear()
        report = convergence_study(params, make_kuramoto(0.6), theta0,
                                   epsilons, t_end=t_end)
        check_stacks(runs, epsilons, t_end, report)
        assert runs[1][3].grid.n_samples == n_samples
        # the step is the sample spacing over the s substeps to the bit,
        # also where s exceeds the one sample interval of t_end = 0.005
        s = runs[-1][2].sample_every
        assert s >= 2 and report.dt == t_end / math.ceil(t_end / 0.01) / s


@pytest.mark.parametrize("epsilons, n_reduced, substeps", [
    ([0.02, 0.01, 0.005, 0.0025], 5, 2),
    ([0.02, 0.005, 0.00125], 4, 4),
    ([0.01, 0.002, 0.0005], 4, 8),
])
def test_convergence_integrates_order0_once_per_grid(monkeypatch, epsilons,
                                                     n_reduced, substeps):
    runs = record_runs(monkeypatch)
    params = make_params(n=3, seed=7)
    theta0 = np.random.default_rng(8).uniform(0.0, TWO_PI, 3)
    report = convergence_study(params, make_kuramoto(0.6), theta0, epsilons,
                               t_end=0.2)
    check_stacks(runs, epsilons, 0.2, report)
    # one reduced stack per grid, each with one order-0 row
    for _, eps, _, _ in runs[1::2]:
        assert len(eps) == n_reduced and eps.count(0.0) == 1
    # the step halves from MAX_REDUCED_DT until the self-gap meets its budget
    assert runs[-1][2].sample_every == substeps
    assert report.dt == studies.MAX_REDUCED_DT / substeps
    assert not report.degenerate


def test_reduced_step_error_budget(monkeypatch):
    """On the criterion-3 sweep the reduced fields stepped on the study's
    last grid stay within 1e-3 of the smallest order-1 reduction error of
    the same fields stepped by RK4 at the finest epsilon / 20.  About 3 s,
    most of it the 16 000 reference steps."""
    runs = record_runs(monkeypatch)
    rng = np.random.default_rng(42)
    omega = rng.uniform(-1.0, 1.0, 5)
    theta0 = rng.uniform(0.0, TWO_PI, 5)
    params = ModelParams(n_nodes=5, omega=omega, epsilon=0.02)
    c = make_kuramoto(0.8)
    epsilons = [0.02, 0.01, 0.005, 0.0025]
    report = convergence_study(params, c, theta0, epsilons, t_end=2.0)
    check_stacks(runs, epsilons, 2.0, report)
    budget = 1e-3 * report.errors_order1.min()
    _, eps, _, traj = runs[-1]
    # each row's reference is its field stepped as one stack at
    # epsilon / 20 of the finest epsilon, 80 steps per sample; the order-0
    # field is the same at every epsilon, and is its row where epsilon is 0
    stiff = IntegrationConfig(2.0, 16_000, sample_every=80)
    field = studies._Core(params, c, 1, np.array(eps)[:, None, None])
    assert field(np.tile(theta0, (5, 1)))[0].tobytes() == ReducedField(
        order=0, params=params, coupling=c)(theta0).tobytes()
    assert stiff.n_samples == traj.grid.n_samples
    refs = integrate._integrate(field, np.tile(theta0, (5, 1)), stiff,
                                "reduced")
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


@pytest.mark.parametrize("epsilons, t_end", [
    ([0.02, 0.01, 0.005, 0.0025], 0.2),
    # stepped four times per sample
    ([0.02, 0.005, 0.00125], 0.2),
    # samples every 0.01 for 0.3
    ([0.03, 0.015, 0.01], 0.3),
])
def test_stacked_errors_equal_per_epsilon_runs(monkeypatch, epsilons, t_end):
    params = make_params(n=4, seed=11)
    c = make_kuramoto(0.7)
    theta0 = np.random.default_rng(12).uniform(0.0, TWO_PI, 4)
    runs = record_runs(monkeypatch)
    report = convergence_study(params, c, theta0, epsilons, t_end=t_end)
    check_stacks(runs, epsilons, t_end, report)
    expected = per_epsilon_errors(params, c, theta0, epsilons, runs[-1][2])
    assert np.array_equal(report.errors_order0, expected[0])
    assert np.array_equal(report.errors_order1, expected[1])


def shipped_converge_model(name="converge"):
    """The params, epsilons and initial phases of configs/<name>.json,
    drawn from its field seeds as the CLI draws them, and its coupling."""
    cfg = json.loads((ROOT / "configs" / f"{name}.json").read_text())
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
    epsilon / 20 at h = 0.001 (measured <= 3.8e-13), and at the longest
    step MAX_REDUCED_DT and the study's own step within 1e-3 of the
    smallest order-1 error of the study (measured 5.7e-10 against 9.1e-6
    at the longest step).  The study's self-gap bounds its reference's
    error.  The deviation form reads the target's derivative slots, which
    RK4 does not, so a wrong slot shows here: the difference form of
    make_kuramoto, the (u, v) slots alone and a phase-lag coupling.  About
    2.5 s each, most of it the 30 000 one-row RK4 steps."""
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
            2.0, round(40 / e), sample_every=round(0.02 / e))).thetas)
    rk4 = np.stack(rk4, 1)  # sampled every 0.001
    exponential = integrate._exponential_stack(
        params, coupling, epsilons, theta0, IntegrationConfig(2.0, 2000))
    assert phase_distance(exponential, rk4) <= 1e-11
    report = convergence_study(params, coupling, theta0, epsilons)
    budget = 1e-3 * report.errors_order1.min()
    for h in (studies.MAX_REDUCED_DT, report.dt):
        coarse = integrate._exponential_stack(
            params, coupling, epsilons, theta0, IntegrationConfig(
                2.0, round(2.0 / h), sample_every=round(0.01 / h)))
        assert phase_distance(coarse, rk4[::10]) <= budget
    assert phase_distance(coarse, rk4[::10]) <= report.self_gap


@pytest.mark.parametrize("name, dt", [("converge", 0.005),
                                      ("converge_wide", 0.00125)])
def test_convergence_meets_its_self_gap_budget(name, dt):
    params, epsilons, theta0, coupling = shipped_converge_model(name)
    report = convergence_study(params, coupling, theta0, epsilons)
    assert report.self_gap <= 1e-3 * report.errors_order1.min()
    assert report.dt == dt


def test_convergence_past_its_self_gap_budget_is_experiment_error():
    # down to epsilon = 1e-6 the order-1 errors (~1e-13) reach the
    # reference's round-off, which no step can bring within the budget
    params, _, theta0, coupling = shipped_converge_model()
    with pytest.raises(ExperimentError, match=r"self-gap \S+ exceeds its "
                       r"budget \S+, 0.001 of the smallest order-1 error, at "
                       r"h=0.000156 \(64 substeps\)"):
        convergence_study(params, coupling, theta0, [1e-4, 1e-5, 1e-6],
                          t_end=0.2)


@pytest.mark.parametrize("theta0", [[np.nan, 0.0, 0.0], np.zeros(4)],
                         ids=["nan", "4 phases"])
def test_convergence_checks_theta0_before_any_step(monkeypatch, theta0):
    def no_step(*args):
        raise AssertionError("a step was taken")
    monkeypatch.setattr(integrate, "rk4_step", no_step)
    monkeypatch.setattr(studies, "_exponential_stack", no_step)
    with pytest.raises(ContractError, match="theta0 must be 3 finite phases"):
        convergence_study(make_params(), make_kuramoto(0.5), theta0,
                          [0.02, 0.01, 0.005], t_end=0.2)


# the smallest t_end whose finest step t_end / 1 / 64 is a normal float:
# just below 64 times the least, it rounds up to the least
LEAST_T_END = float(np.nextafter(64 * sys.float_info.min, 0.0))


@pytest.mark.parametrize("t_end, refused", [
    (5e-324, True), (float(np.nextafter(LEAST_T_END, 0.0)), True),
    (LEAST_T_END, False)])
def test_convergence_checks_t_end_floor_before_any_step(monkeypatch, t_end,
                                                        refused):
    def no_step(*args, **kwargs):
        raise AssertionError("a step was taken")
    monkeypatch.setattr(integrate, "rk4_step", no_step)
    monkeypatch.setattr(studies, "_exponential_stack", no_step)
    with pytest.raises(ContractError, match=f"^t_end={t_end!r} is too short: "
                       r"its finest step t_end / 1 / 64 is below the least "
                       "normal float") if refused else \
            pytest.raises(AssertionError, match="a step was taken"):
        convergence_study(make_params(), make_kuramoto(0.5), np.zeros(3),
                          [0.02, 0.01, 0.005], t_end=t_end)


def drifting_coupling(low, high):
    """No coupling (gamma = 0), so every phase drifts at its own omega, and
    a target whose d/du is nan while u lies in (low, high)."""
    return Coupling(gamma=lambda phi: 0.0 * phi,
                    target=lambda u, v: 0.0 * (u + v),
                    gamma_d1=lambda phi: 0.0 * phi,
                    target_du=lambda u, v: np.where(
                        (low < u + 0.0 * v) & (u < high), np.nan, 0.0),
                    target_dv=lambda u, v: 0.0 * (u + v))


@pytest.mark.parametrize("low, high, at", [
    # the fine run's second stage, h / 4 in, fails its first step
    (0.002, 0.003, "t=0.005 (step 1)"),
    # its second step fails, the second sweep of the pair's first step
    (0.007, 0.008, "t=0.01 (step 2)")])
def test_convergence_reports_a_failed_fine_reference_in_its_own_steps(
        low, high, at):
    # the phases drift at omega = 1 from 0; the coarse run at h = 0.01
    # evaluates them at multiples of 0.005 only, which the window misses
    epsilons = [0.02, 0.01, 0.005]
    with pytest.raises(ExperimentError) as info:
        convergence_study(make_params(omega=np.ones(3)),
                          drifting_coupling(low, high), np.zeros(3), epsilons,
                          t_end=0.1)
    assert str(info.value) == "integration failed at " + ", ".join(
        f"epsilon={e}" for e in epsilons) + ": full-system integration " \
        "failed in rows 0, 1, 2 at " + at + ": non-finite value in " \
        "exponential stage"


def random_model(n, kind):
    rng = np.random.default_rng(5)
    params = ModelParams(n_nodes=n, omega=rng.uniform(-1.0, 1.0, n),
                         epsilon=0.02)
    coupling = {"kuramoto": make_kuramoto(0.8),
                "uv_slots": callables_only(drop=("target_diff",
                                                 "target_diff_d1")),
                "phase_lag": phase_lag_coupling()}[kind]
    return params, coupling, rng.uniform(0.0, TWO_PI, n)


@pytest.mark.parametrize("n", [3, 16])
@pytest.mark.parametrize("kind", ["kuramoto", "uv_slots", "phase_lag"])
@pytest.mark.parametrize("epsilons, substeps", [
    ([0.02, 0.01, 0.005, 0.0025], 2),
    # configs/converge_wide.json's sweep
    ([0.02, 0.01, 0.005, 0.0025, 0.001, 0.0005, 0.00025, 0.000125], 16)])
def test_reference_pair_rows_equal_their_own_runs(monkeypatch, n, kind,
                                                  epsilons, substeps):
    """The study steps the runs of its reference and of its reduced stack
    at s = 1 and 2 as one paired stack each, and every later run alone;
    every one has the bytes of a run of its own on its grid, for the
    difference-form slots, the (u, v) slots and a phase-lag coupling."""
    params, coupling, theta0 = random_model(n, kind)
    runs, calls, starts = record_runs(monkeypatch), {}, {}

    def spy(name, at):  # logs (substeps, paired) and the last call's start
        recorded = getattr(studies, name)

        def call(*args, **kwargs):
            calls.setdefault(name, []).append(
                (args[at].sample_every, kwargs.get("paired", False)))
            starts[name] = args[:2]
            return recorded(*args, **kwargs)
        monkeypatch.setattr(studies, name, call)
    spy("_exponential_stack", 4)
    spy("integrate_reduced", 2)
    report = convergence_study(params, coupling, theta0, epsilons, t_end=0.2)
    check_stacks(runs, epsilons, 0.2, report)
    assert report.substeps == substeps
    expected = [(1, True)] + [(2 ** k, False) for k in range(
        2, substeps.bit_length())]
    assert calls == {"_exponential_stack": expected,
                     "integrate_reduced": expected}
    field, start = starts["integrate_reduced"]
    for (_, eps, grid, phases), (_, _, _, traj) in zip(runs[::2],
                                                       runs[1::2]):
        alone = integrate._exponential_stack(params, coupling, eps, theta0,
                                             grid)
        assert phases.tobytes() == alone.tobytes()
        alone = integrate.integrate_reduced(field, start, grid)
        assert traj.thetas.tobytes() == alone.thetas.tobytes()


def test_reference_forcing_calls_on_shipped_converge(monkeypatch):
    """configs/converge.json stops at s = 2: its paired reference makes 10
    forcing calls per sample interval, 2 000 over its 200, and evaluates
    the start once; two runs of their own made 3 000 and two.  Its paired
    reduced stack makes 8 field calls and 2 rk4_step calls per interval,
    1 600 and 400, and checks the start's shape in one call; two runs of
    their own made 2 400 and 600, and two."""
    calls = {"start": 0, "forcing": 0, "field": 0, "rk4_step": 0}

    class Counted(integrate._Core):
        def terms(self, theta, y=None):
            calls["start" if y is None else "forcing"] += 1
            return super().terms(theta, y)

    class Field(studies._Core):
        def __call__(self, theta):
            calls["field"] += 1
            return super().__call__(theta)

    real_rk4_step = integrate.rk4_step

    def rk4_step(*args):
        calls["rk4_step"] += 1
        return real_rk4_step(*args)
    monkeypatch.setattr(integrate, "_Core", Counted)
    monkeypatch.setattr(studies, "_Core", Field)
    monkeypatch.setattr(integrate, "rk4_step", rk4_step)
    params, epsilons, theta0, coupling = shipped_converge_model()
    report = convergence_study(params, coupling, theta0, epsilons)
    assert report.substeps == 2 and report.dt == 0.005
    assert calls == {"start": 1, "forcing": 2000, "field": 1601,
                     "rk4_step": 400}
