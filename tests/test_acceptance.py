"""Acceptance gate: one test per release criterion, with stated tolerances
and runtime budgets.  A summary block in conftest.py echoes one PASS/FAIL
line per criterion at the end of the run.

Every randomized input is drawn from a frozen generator seed so the numbers
below are reproducible bit for bit.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from fastslow import (
    DECISION_CERTIFIED,
    DECISION_NO_EVIDENCE,
    FullState,
    IntegrationConfig,
    ModelParams,
    PushforwardField,
    ReducedField,
    attraction_study,
    certify_nonpairwise,
    convergence_study,
    critical_weights,
    make_kuramoto,
    mixed_second_derivative_fd,
    node_respecting_transform,
    pair_correction,
    phase_rhs,
    triplet_interaction,
    triplet_mixed_derivative,
    weight_correction,
    weight_rhs,
)
from fastslow.cli import main

ROOT = Path(__file__).resolve().parents[1]
TWO_PI = 2 * np.pi
STAR_POINT = np.array([0.0, np.pi / 2, 0.0])


def kuramoto_field(order, alpha, epsilon, omega):
    omega = np.asarray(omega, dtype=float)
    params = ModelParams(n_nodes=omega.size, omega=omega, epsilon=epsilon)
    return ReducedField(order=order, params=params,
                        coupling=make_kuramoto(alpha))


def test_criterion_1_mixed_derivative_point_values():
    """Analytic mixed derivative at the star point is -alpha exactly, and
    the FD mixed derivative of the corrected field carries the epsilon/N^2
    prefactor on top of it."""
    start = time.perf_counter()
    coupling = make_kuramoto(0.7)
    analytic = triplet_mixed_derivative(coupling, 0, 1, 2, STAR_POINT)
    assert abs(analytic - (-0.7)) < 1e-12

    field = kuramoto_field(order=1, alpha=0.7, epsilon=0.01, omega=np.zeros(3))
    fd = mixed_second_derivative_fd(field, 0, 1, 2, STAR_POINT)
    expected = -0.7 * 0.01 / 9.0
    assert abs(fd - expected) < 1e-7
    assert time.perf_counter() - start < 1.0


def test_criterion_2_randomized_scan_separates_orders():
    """100 random (point, triple) probes: the uncorrected field shows only
    FD noise, the corrected field shows solid nonzero mixed derivatives,
    and the certification decision is positive."""
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    omega = rng.uniform(-1.0, 1.0, 5)
    field0 = kuramoto_field(order=0, alpha=0.7, epsilon=0.01, omega=omega)
    field1 = kuramoto_field(order=1, alpha=0.7, epsilon=0.01, omega=omega)

    values0 = []
    values1 = []
    for _ in range(100):
        theta = rng.uniform(0.0, TWO_PI, 5)
        i, j, k = rng.permutation(5)[:3]
        values0.append(abs(mixed_second_derivative_fd(field0, i, j, k, theta)))
        values1.append(abs(mixed_second_derivative_fd(field1, i, j, k, theta)))

    assert max(values0) < 1e-6
    assert max(values1) > 1e-5

    report = certify_nonpairwise(field1)
    assert report.decision == DECISION_CERTIFIED
    assert time.perf_counter() - start < 5.0


def test_criterion_3_reduction_error_orders():
    """Reduction errors over an epsilon sweep scale like epsilon for the
    uncorrected field and like epsilon^2 for the corrected one."""
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    omega = rng.uniform(-1.0, 1.0, 5)
    theta0 = rng.uniform(0.0, TWO_PI, 5)
    params = ModelParams(n_nodes=5, omega=omega, epsilon=0.02)
    report = convergence_study(params, make_kuramoto(0.8), theta0,
                               [0.02, 0.01, 0.005, 0.0025], t_end=2.0)
    assert not report.degenerate
    assert 0.8 <= report.fit_order0.slope <= 1.2
    assert report.fit_order0.r_squared >= 0.98
    assert report.fit_order1.slope >= 1.6
    assert report.fit_order1.r_squared >= 0.98
    assert time.perf_counter() - start < 60.0


def test_criterion_3_holds_over_three_decades(tmp_path):
    """configs/converge_wide.json: the shipped converge model at eight
    epsilons from 0.02 down to 1.25e-4, all sampled every 0.01 and stepped
    at the h = 0.00125 their error budget asks for (3 000 steps of each
    stack over its four runs, where RK4 at epsilon / 20 would take
    320 000 for the finest row alone), keeps the criterion-3 bounds.
    Measured: slope0 0.99776, slope1 1.99879, about 1 s."""
    start = time.perf_counter()
    out = tmp_path / "wide"
    assert main(["converge", "--config",
                 str(ROOT / "configs" / "converge_wide.json"),
                 "--out", str(out), "--quiet"]) == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert len(report["epsilons"]) == 8 and report["epsilons"][-1] == 1.25e-4
    assert not report["degenerate"]
    assert 0.8 <= report["fit_order0"]["slope"] <= 1.2
    assert report["fit_order0"]["r_squared"] >= 0.98
    assert report["fit_order1"]["slope"] >= 1.6
    assert report["fit_order1"]["r_squared"] >= 0.98
    assert time.perf_counter() - start < 60.0


def test_criterion_4_attraction_rate_is_epsilon_free():
    """Unit-norm perturbations off the corrected surface decay at rate 1
    per fast time unit, and the fitted rate is stable under halving
    epsilon."""
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    omega = rng.uniform(-1.0, 1.0, 5)
    theta0 = rng.uniform(0.0, TWO_PI, 5)
    coupling = make_kuramoto(0.7)

    rates = []
    for epsilon in (0.01, 0.005):
        params = ModelParams(n_nodes=5, omega=omega, epsilon=epsilon)
        surface = critical_weights(coupling, theta0) \
            + epsilon * weight_correction(params, coupling, theta0)
        noise = rng.standard_normal((5, 5))
        noise *= 1.0 / np.linalg.norm(noise)
        state = FullState(theta=theta0, weights=surface + noise)
        config = IntegrationConfig(6 * epsilon, 120)
        rates.append(attraction_study(params, coupling, state, config)
                     .fitted_rate_per_fast_time)

    assert 0.9 <= rates[0] <= 1.1
    assert abs(rates[1] - rates[0]) / rates[0] < 0.05
    assert time.perf_counter() - start < 30.0


def test_criterion_5_swapped_triplet_has_no_cross_term():
    """The companion summand with its last two phase slots swapped carries
    no mixed (j, k) dependence: its FD mixed derivative at the star point
    sits at the truncation floor.  The step is 1e-4 because the default
    1e-3 leaves O(step^2) truncation above the 1e-7 bound."""
    coupling = make_kuramoto(0.7)
    step = 1e-4

    def swapped_sum(theta):
        return triplet_interaction(coupling, 0, 2, 1, theta)

    ej = np.array([0.0, step, 0.0])
    ek = np.array([0.0, 0.0, step])
    fd = (swapped_sum(STAR_POINT + ej + ek)
          - swapped_sum(STAR_POINT + ej - ek)
          - swapped_sum(STAR_POINT - ej + ek)
          + swapped_sum(STAR_POINT - ej - ek)) / (4.0 * step * step)
    assert abs(fd) < 1e-7


def test_criterion_6_dual_route_consistency():
    """Three independent routes agree: the component formula for the weight
    correction against its finite-difference Jacobian oracle, the corrected
    field against substitution of the corrected surface, and the vectorized
    sums against naive loops."""
    rng = np.random.default_rng(13)
    coupling = make_kuramoto(0.7)

    # route 1: correction formula vs FD of the surface Jacobian
    for _ in range(20):
        n = int(rng.integers(3, 7))
        params = ModelParams(n_nodes=n, omega=rng.uniform(-1, 1, n),
                             epsilon=0.01)
        theta = rng.uniform(0.0, TWO_PI, n)
        f = phase_rhs(params, coupling, theta,
                      critical_weights(coupling, theta))
        fd = np.zeros((n, n))
        step = 1e-6
        for m in range(n):
            bump = theta.copy()
            bump[m] += step
            hi = critical_weights(coupling, bump)
            bump[m] -= 2 * step
            lo = critical_weights(coupling, bump)
            fd -= (hi - lo) / (2 * step) * f[m]
        got = weight_correction(params, coupling, theta)
        assert np.max(np.abs(got - fd)) < 1e-6

    # route 2: corrected field vs frozen-weight drift on the corrected
    # surface.  The residual must shrink at least like epsilon^2; here the
    # two routes are algebraically identical, so the residual sits at the
    # rounding floor, which is stronger than any finite slope.
    theta_batch = [rng.uniform(0.0, TWO_PI, 5) for _ in range(10)]
    omega = rng.uniform(-1.0, 1.0, 5)
    eps_list = np.array([1e-2, 5e-3, 2.5e-3])
    residuals = np.empty(eps_list.size)
    scale = 0.0
    for m, eps in enumerate(eps_list):
        field = kuramoto_field(order=1, alpha=0.7, epsilon=eps, omega=omega)
        params = field.params
        worst = 0.0
        for theta in theta_batch:
            w = critical_weights(coupling, theta) \
                + eps * weight_correction(params, coupling, theta)
            direct = field(theta)
            substituted = phase_rhs(params, coupling, theta, w)
            worst = max(worst, float(np.max(np.abs(direct - substituted))))
            scale = max(scale, float(np.max(np.abs(direct))))
        residuals[m] = worst
    if np.max(residuals) >= 1e-12 * scale:
        logs = np.polyfit(np.log(eps_list), np.log(residuals), 1)
        assert logs[0] >= 1.9

    # route 3: vectorized sums vs naive loops
    for _ in range(5):
        n = 5
        params = ModelParams(n_nodes=n, omega=rng.uniform(-1, 1, n),
                             epsilon=0.01)
        theta = rng.uniform(0.0, TWO_PI, n)
        weights = rng.normal(size=(n, n))
        naive_phase = np.array([
            params.omega[i]
            + sum(weights[i, j] * np.sin(theta[j] - theta[i])
                  for j in range(n)) / n
            for i in range(n)])
        assert np.max(np.abs(
            phase_rhs(params, coupling, theta, weights) - naive_phase)) < 1e-13
        naive_weight = np.array([
            [-weights[i, j] + 0.7 + np.cos(theta[i] - theta[j])
             for j in range(n)] for i in range(n)])
        assert np.max(np.abs(
            weight_rhs(coupling, theta, weights) - naive_weight)) < 1e-13
        field = ReducedField(order=1, params=params, coupling=coupling)
        naive = np.empty(n)
        for i in range(n):
            base = params.omega[i] + sum(
                (0.7 + np.cos(theta[i] - theta[j])) * np.sin(theta[j] - theta[i])
                for j in range(n)) / n
            pairs = sum(pair_correction(params, coupling, i, j, theta)
                        for j in range(n))
            trips = sum(triplet_interaction(coupling, i, j, k, theta)
                        for j in range(n) for k in range(n))
            naive[i] = base + params.epsilon * pairs / n \
                + params.epsilon * trips / n**2
        assert np.max(np.abs(field(theta) - naive)) < 1e-13


def test_criterion_7_decisions_survive_relabeling():
    """Shift-and-permute coordinate changes leave both certification
    decisions unchanged, and the maximizer's FD value transports to the
    relabeled triple at the transformed point."""
    omega = np.random.default_rng(5).uniform(-1.0, 1.0, 3)
    field0 = kuramoto_field(order=0, alpha=0.7, epsilon=0.01, omega=omega)
    field1 = kuramoto_field(order=1, alpha=0.7, epsilon=0.01, omega=omega)

    base0 = certify_nonpairwise(field0)
    base1 = certify_nonpairwise(field1)
    assert base0.decision == DECISION_NO_EVIDENCE
    assert base1.decision == DECISION_CERTIFIED

    rng = np.random.default_rng(11)
    for _ in range(10):
        perm = tuple(int(p) for p in rng.permutation(3))
        shifts = tuple(rng.uniform(0.0, TWO_PI, 3))

        pushed0 = PushforwardField(base=field0, permutation=perm, shifts=shifts)
        pushed1 = PushforwardField(base=field1, permutation=perm, shifts=shifts)
        assert certify_nonpairwise(pushed0).decision == DECISION_NO_EVIDENCE
        assert certify_nonpairwise(pushed1).decision == DECISION_CERTIFIED

        # transport the base maximizer through the transform
        inv = np.argsort(np.asarray(perm))
        i, j, k = base1.index_triple
        moved_point = node_respecting_transform(base1.point, perm, shifts)
        before = base1.fd_value
        after = mixed_second_derivative_fd(
            pushed1, int(inv[i]), int(inv[j]), int(inv[k]), moved_point)
        assert abs(before - after) < 1e-6
