"""Trajectory experiments: attraction to the slow weight surface and
reduction-error scaling in epsilon.

Both studies produce fitted scalars with the fit inputs attached, so a
report can always be re-derived from its own raw data.
"""

from __future__ import annotations

import sys
from contextlib import suppress
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .fields import _Core, _check_shapes, slow_manifold
from .integrate import BLOCK_VALUES, IntegrationConfig, _exponential_stack, \
    integrate_full, integrate_reduced
from .model import (
    ContractError,
    ExperimentError,
    FloatArray,
    FullState,
    IntegrationError,
    ModelParams,
    _floats,
    _is_positive,
    phase_distance,
)

# log-log fits with r^2 below this carry the poor-fit flag
MIN_R_SQUARED = 0.98

# attraction fits use samples with distance inside these bounds; the lower
# bound keeps the fit clear of the numerical floor, the upper bound (times
# the initial distance) trims the earliest samples where the linearized
# rate has not taken over yet
ATTRACTION_WINDOW_FLOOR = 1e-8
ATTRACTION_WINDOW_CEIL_FRACTION = 0.5

# below this, reduction errors are treated as identically zero and no
# slope is fitted
DEGENERATE_ERROR_FLOOR = 1e-12

# the convergence study samples at most this far apart and first steps its
# reference and reduced fields at that spacing, then halves the step until
# the step-doubling self-gap is at most SELF_GAP_BUDGET times the smallest
# order-1 error, or fails past MAX_SUBSTEPS steps per sample
MAX_REDUCED_DT = 0.01
SELF_GAP_BUDGET = 1e-3
MAX_SUBSTEPS = 64


@dataclass(frozen=True, eq=False)
class SlopeFit:
    """Least-squares line through (log x, log y).

    xs must be strictly decreasing and positive (epsilon sweeps are always
    stated largest first); ys positive.  poor_fit marks r_squared below
    0.98, in which case the slope should not be quoted as an order.
    """

    xs: FloatArray
    ys: FloatArray
    slope: float
    intercept: float
    r_squared: float
    poor_fit: bool


def fit_loglog(xs, ys) -> SlopeFit:
    xs, ys = _floats(xs, "xs"), _floats(ys, "ys")
    if xs.ndim != 1 or xs.size < 2 or xs.shape != ys.shape:
        raise ContractError("need two equally long 1-d arrays with >= 2 points")
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
        raise ContractError("log-log fit needs finite data")
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ContractError("log-log fit needs strictly positive data")
    if np.any(np.diff(xs) >= 0):
        raise ContractError("xs must be strictly decreasing")
    lx = np.log(xs)
    ly = np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    predicted = slope * lx + intercept
    ss_res = float(np.sum((ly - predicted) ** 2))
    ss_tot = float(np.sum((ly - np.mean(ly)) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return SlopeFit(xs=xs, ys=ys, slope=float(slope), intercept=float(intercept),
                    r_squared=r_squared, poor_fit=r_squared < MIN_R_SQUARED)


def distance_to_slow_manifold(params: ModelParams, coupling, theta, weights,
                              order: int):
    """Frobenius distance from the weights (..., N, N) to the slow manifold
    of the given order at the phases (..., N): a float for one state, one
    value per leading index for a stack, inf where the square overflows."""
    theta, weights = _check_shapes(params.n_nodes, theta, weights)
    gap = weights - slow_manifold(params, coupling, theta, order)
    # the dot product of the flattened gap with itself, as np.linalg.norm
    # takes it, so a stack reproduces the one-state values bit for bit
    g = gap.reshape(gap.shape[:-2] + (-1,))
    with np.errstate(over="ignore"):
        return np.sqrt((g[..., None, :] @ g[..., :, None])[..., 0, 0])


@dataclass(frozen=True, eq=False)
class AttractionReport:
    """Fitted exponential approach to the corrected weight surface.

    fitted_rate_per_fast_time is the decay exponent of the Frobenius
    distance per unit of fast time t / epsilon; the exact linearized value
    is 1.  fit_window is (first, last) fast time used; residual is the RMS
    misfit of log distance inside the window.
    """

    epsilon: float
    fitted_rate_per_fast_time: float
    fit_window: tuple
    residual: float
    n_points: int
    fast_times: FloatArray
    distances: FloatArray


def attraction_study(params: ModelParams, coupling, initial: FullState,
                     config: IntegrationConfig) -> AttractionReport:
    """Integrate the full system from off-surface initial data and fit the
    decay of the order-1 manifold distance against fast time.

    The initial distance must be finite and at least 0.1; starting on the
    surface leaves nothing to fit.  Samples enter the fit while their
    distance lies in [1e-8, half the initial distance].  An empty window is
    an experiment error.
    """
    if not isinstance(initial, FullState):
        raise ContractError(f"initial must be a FullState, got {initial!r}")
    d0 = distance_to_slow_manifold(params, coupling, initial.theta,
                                   initial.weights, order=1)
    if not 0.1 <= d0 < np.inf:
        raise ContractError(
            f"initial state must start off the surface (distance >= 0.1) "
            f"at a finite distance, got {d0:.3g}")
    traj = integrate_full(params, coupling, initial, config)
    # BLOCK_VALUES phases a block: the pass adds at most about the history
    block = max(1, BLOCK_VALUES // params.n_nodes)
    dists = np.concatenate([distance_to_slow_manifold(
        params, coupling, traj.thetas[at:at + block],
        traj.weights[at:at + block], order=1)
        for at in range(0, len(traj.thetas), block)])
    fast_times = config.times / params.epsilon
    ceil = ATTRACTION_WINDOW_CEIL_FRACTION * d0
    mask = (dists >= ATTRACTION_WINDOW_FLOOR) & (dists <= ceil)
    if np.count_nonzero(mask) < 2:
        raise ExperimentError(
            "attraction fit window is empty; the trajectory either stayed "
            "near its initial distance or hit the numerical floor at once")
    s = fast_times[mask]
    logd = np.log(dists[mask])
    slope, intercept = np.polyfit(s, logd, 1)
    resid = float(np.sqrt(np.mean((logd - (slope * s + intercept)) ** 2)))
    return AttractionReport(
        epsilon=params.epsilon,
        fitted_rate_per_fast_time=float(-slope),
        fit_window=(float(s[0]), float(s[-1])),
        residual=resid,
        n_points=int(s.size),
        fast_times=fast_times,
        distances=dists,
    )


@dataclass(frozen=True, eq=False)
class ConvergenceReport:
    """Reduction errors against epsilon for both truncation orders.

    fits are None when the degenerate flag is set (all errors at machine
    level, nothing to fit; this happens for synchronized starts with zero
    frequencies).  dt is the step of the run the errors come from, one of
    ``substeps`` per sample, and self_gap the largest phase distance between
    that run and the one at 2 dt, reference or reduced, on their shared
    samples, within self_gap_budget unless the sweep is degenerate.
    """

    epsilons: FloatArray
    errors_order0: FloatArray
    errors_order1: FloatArray
    fit_order0: Optional[SlopeFit]
    fit_order1: Optional[SlopeFit]
    degenerate: bool
    dt: float
    substeps: int
    self_gap: float
    self_gap_budget: float


def _named(names, step):
    """step(), an IntegrationError of its stack raised as an ExperimentError
    that names the rows holding the non-finite values, row r by names[r]."""
    try:
        return step()
    except IntegrationError as exc:
        failed = ", ".join(names[r] for r in exc.rows)
        raise ExperimentError(f"integration failed at {failed}: {exc}") from exc


def convergence_study(params_base: ModelParams, coupling, theta0,
                      epsilons: Sequence[float],
                      t_end: float = 2.0) -> ConvergenceReport:
    """Compare full-system phases against both reduced fields across an
    epsilon sweep.

    For each epsilon the full system starts on the corrected weight surface
    (suppressing the initial fast transient up to its own higher-order
    error).  The reference is the exponential route, _exponential_stack,
    which takes the weights' stiffness exactly, so one step serves the
    sweep.  It samples on spanning(t_end, MAX_REDUCED_DT, 1), n intervals
    0.01 apart at the default t_end.  The reference at every epsilon is one
    stack, the order-0 field and the order-1 field at every epsilon another,
    each row with the bits of its own run; both are stepped on
    IntegrationConfig(t_end, n * s, s), s = 1, 2, 4, ..., each run once,
    each stack's runs at s = 1 and 2 as one pair (integrate._integrate).
    The step is halved until the self-gap, the largest phase distance
    between a run and the one at twice its step, reference or reduced, is at
    most SELF_GAP_BUDGET = 1e-3 times the finer run's smallest order-1
    error, or the sweep is degenerate; the finer run's errors are reported.
    On the shipped converge model that is h = 0.005, a gap of 5.2e-10
    against a budget of 9.1e-9.  A gap still over budget at MAX_SUBSTEPS =
    64 substeps is an ExperimentError.  The error is the largest phase
    distance over the sampled window [0, t_end].  Requires a 1-d sequence
    of at least 3 finite epsilon values, strictly decreasing, t_end > 0
    whose finest step t_end / n / MAX_SUBSTEPS is a normal float (t_end of
    about 1.4e-306 or more) and theta0 N finite phases, all checked before
    any step.
    """
    eps = np.full(1, np.nan)  # kept if epsilons is no 1-d sequence of numbers
    with suppress(TypeError, ValueError):
        eps = np.fromiter(epsilons, float)
    if not np.isfinite(eps).all():
        raise ContractError("epsilons must be a 1-d sequence of finite "
                            f"numbers, got {epsilons!r}")
    if eps.size < 3:
        raise ContractError(f"need at least 3 epsilon values, got {eps.size}")
    if np.any(eps <= 0) or np.any(np.diff(eps) >= 0):
        raise ContractError("epsilons must be positive and strictly decreasing")
    if not _is_positive(t_end):
        raise ContractError(f"t_end must be > 0, got {t_end!r}")
    field = _Core(params_base, coupling, 1,
                  np.concatenate([[0.0], eps])[:, None, None])
    theta0, n = _check_shapes(None, theta0), field.n_nodes
    if theta0.shape != (n,) or not np.isfinite(theta0).all():
        raise ContractError(f"theta0 must be {n} finite phases, got {theta0!r}")
    intervals = IntegrationConfig.spanning(t_end, MAX_REDUCED_DT, 1).n_steps
    if t_end / intervals / MAX_SUBSTEPS < sys.float_info.min:
        raise ContractError(f"t_end={t_end!r} is too short: its finest step "
                            f"t_end / {intervals} / {MAX_SUBSTEPS} is below "
                            f"the least normal float {sys.float_info.min!r}")

    def grid(substeps):  # the sample grid, each interval in equal substeps
        return IntegrationConfig(t_end, intervals * substeps, substeps)

    def reference(config, paired=False):
        return _named([f"epsilon={e}" for e in eps], lambda: _exponential_stack(
            params_base, coupling, eps, theta0, config, paired=paired))

    def reduced(config, paired=False):
        runs = _named(["order 0"] + [f"order 1 at epsilon={e}" for e in eps],
                      lambda: integrate_reduced(field, np.tile(
                          theta0, (1 + eps.size, 1)), config, paired=paired))
        return tuple(run.thetas for run in runs) if paired else runs.thetas
    pairs = list(zip(reference(grid(1), True), reduced(grid(1), True)))
    substeps, fine = 1, pairs.pop(0)
    while True:
        substeps, coarse = 2 * substeps, fine
        fine = pairs.pop() if pairs else (reference(grid(substeps)),
                                          reduced(grid(substeps)))
        phases, thetas = fine
        # order k's error at epsilon m: the reduced row 0, or 1 + m
        errs0, errs1 = (np.array([phase_distance(phases[:, m], thetas[:, k * (
            1 + m)]) for m in range(eps.size)]) for k in (0, 1))
        gap = max(map(phase_distance, coarse, fine))
        budget = SELF_GAP_BUDGET * errs1.min()
        degenerate = bool(np.max([errs0, errs1]) < DEGENERATE_ERROR_FLOOR)
        if gap <= budget or degenerate:
            break
        if substeps == MAX_SUBSTEPS:
            raise ExperimentError(
                f"the step-doubling self-gap {gap:.3g} exceeds its budget "
                f"{budget:.3g}, {SELF_GAP_BUDGET:g} of the smallest order-1 "
                f"error, at h={grid(substeps).dt:.3g} ({substeps} substeps)")

    fit0, fit1 = (None, None) if degenerate else \
        (fit_loglog(eps, errs0), fit_loglog(eps, errs1))
    return ConvergenceReport(epsilons=eps, errors_order0=errs0,
                             errors_order1=errs1, fit_order0=fit0,
                             fit_order1=fit1, degenerate=degenerate,
                             dt=grid(substeps).dt, substeps=substeps,
                             self_gap=gap, self_gap_budget=budget)
