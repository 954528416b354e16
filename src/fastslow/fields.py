"""Vector fields of the fast-slow network and its reduced phase dynamics.

The full system in slow time is

    d theta_i / dt = omega_i + (1/N) sum_j a_ij gamma(theta_j - theta_i)
    d a_ij / dt    = (-a_ij + target(theta_i, theta_j)) / epsilon

The weight equation relaxes each a_ij toward ``target(theta_i, theta_j)``
on the fast time scale.  Freezing the phases gives the layer dynamics,
whose equilibrium surface is the matrix ``critical_weights(theta)``.
That surface plus its first-order correction in epsilon is the slow
manifold, :func:`slow_manifold`; the phase equation evaluated on it is the
closed phase-only field :class:`ReducedField`.

The model equations broadcast over leading axes: phases of shape (..., N)
and weights of shape (..., N, N) give one result per leading index, equal
to the result for that phase vector alone.  The scalar oracles
pair_correction and triplet_interaction take one phase vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    ContractError,
    FloatArray,
    ModelParams,
    require_first_order,
)


def _check_shapes(params: ModelParams, theta, weights=None):
    n = params.n_nodes
    theta = np.asarray(theta, dtype=float)
    if theta.shape[-1:] != (n,):
        raise ContractError(
            f"theta must have shape (..., {n}), got {theta.shape}")
    if weights is None:
        return theta
    weights = np.asarray(weights, dtype=float)
    if weights.shape[-2:] != (n, n):
        raise ContractError(
            f"weights must have shape (..., {n}, {n}), got {weights.shape}")
    return theta, weights


def pair_differences(theta: FloatArray) -> FloatArray:
    """Matrix of phase differences with entry (i, j) = theta_j - theta_i."""
    theta = np.asarray(theta, dtype=float)
    return theta[..., None, :] - theta[..., :, None]


def phase_rhs(params: ModelParams, coupling, theta, weights) -> FloatArray:
    """Slow equation right-hand side.

    Component i is omega_i + (1/N) sum_j weights[i, j] * gamma(theta_j - theta_i).
    The sum runs over every j including j = i.
    """
    theta, weights = _check_shapes(params, theta, weights)
    return _phase_rhs(params, weights, coupling.gamma(pair_differences(theta)))


def _phase_rhs(params: ModelParams, weights, g) -> FloatArray:
    """phase_rhs with g = gamma(pair_differences(theta)) already evaluated."""
    return params.omega + (weights * g).sum(axis=-1) / params.n_nodes


def weight_rhs(coupling, theta, weights) -> FloatArray:
    """Adaptation right-hand side, entry (i, j) = -a_ij + target(theta_i, theta_j).

    This is the raw adaptation field, not divided by epsilon.
    """
    theta = np.asarray(theta, dtype=float)
    weights = np.asarray(weights, dtype=float)
    n = theta.shape[-1]
    if weights.shape[-2:] != (n, n):
        raise ContractError(
            f"weights must have shape (..., {n}, {n}), got {weights.shape}")
    return -weights + coupling.target(theta[..., :, None], theta[..., None, :])


def critical_weights(coupling, theta) -> FloatArray:
    """Equilibrium weight matrix of the layer dynamics, entry (i, j) =
    target(theta_i, theta_j)."""
    theta = np.asarray(theta, dtype=float)
    return np.asarray(coupling.target(theta[..., :, None], theta[..., None, :]),
                      dtype=float)


def weight_correction(params: ModelParams, coupling, theta) -> FloatArray:
    """First-order (in epsilon) correction to the equilibrium weights.

    Entry (i, j) is
        - target_du(theta_i, theta_j) * f_i - target_dv(theta_i, theta_j) * f_j
    where f = phase_rhs evaluated on the equilibrium surface.  The correction
    accounts for the slow drift of the phases pulling the weights slightly
    off the instantaneous equilibrium.
    """
    theta = _check_shapes(params, theta)
    return _correction(params, coupling, theta, critical_weights(coupling, theta),
                       coupling.gamma(pair_differences(theta)))


def _correction(params: ModelParams, coupling, theta, w0, g) -> FloatArray:
    """weight_correction at checked phases whose critical weights are w0 and
    whose gamma(pair_differences(theta)) is g."""
    require_first_order(coupling)
    f = _phase_rhs(params, w0, g)
    u, v = theta[..., :, None], theta[..., None, :]
    du = coupling.target_du(u, v)
    dv = coupling.target_dv(u, v)
    return -(du * f[..., :, None] + dv * f[..., None, :])


def slow_manifold(params: ModelParams, coupling, theta, order: int = 1) -> FloatArray:
    """Weight surface of the reduction, truncated at ``order`` in epsilon.

    order 0: critical_weights(theta), the equilibrium of the layer dynamics.
    order 1: critical_weights(theta) + epsilon * weight_correction(theta).
    """
    if order not in (0, 1):
        raise ContractError(f"order must be 0 or 1, got {order}")
    return _slow_manifold(params, coupling, _check_shapes(params, theta), order)


def _slow_manifold(params: ModelParams, coupling, theta, order: int,
                   g=None) -> FloatArray:
    """slow_manifold at checked phases; g is gamma(pair_differences(theta))
    when the caller has already evaluated it."""
    w0 = critical_weights(coupling, theta)
    if order == 0:
        return w0
    if g is None:
        g = coupling.gamma(pair_differences(theta))
    return w0 + params.epsilon * _correction(params, coupling, theta, w0, g)


def pair_correction(params: ModelParams, coupling, i: int, j: int, theta) -> float:
    """Frequency-driven two-node term of the corrected reduced field.

    Value: -gamma(theta_j - theta_i) * (target_du(theta_i, theta_j) * omega_i
    + target_dv(theta_i, theta_j) * omega_j).  Scaled by epsilon/N when summed
    into the field.
    """
    require_first_order(coupling)
    theta = _check_shapes(params, theta)
    n = params.n_nodes
    if not (0 <= i < n and 0 <= j < n):
        raise ContractError(f"indices ({i}, {j}) out of range for {n} nodes")
    ti, tj = theta[i], theta[j]
    return float(-coupling.gamma(tj - ti)
                 * (coupling.target_du(ti, tj) * params.omega[i]
                    + coupling.target_dv(ti, tj) * params.omega[j]))


def triplet_interaction(coupling, i: int, j: int, k: int, theta) -> float:
    """Three-node term of the corrected reduced field.

    Value:
        - gamma(theta_j - theta_i) * target_du(theta_i, theta_j)
            * target(theta_i, theta_k) * gamma(theta_k - theta_i)
        - gamma(theta_j - theta_i) * target_dv(theta_i, theta_j)
            * target(theta_j, theta_k) * gamma(theta_k - theta_j)

    Equal indices are permitted; the double sum in the reduced field runs
    over all pairs (j, k) and the diagonal terms are kept as written.
    """
    require_first_order(coupling)
    theta = np.asarray(theta, dtype=float)
    n = theta.shape[0]
    if not (0 <= i < n and 0 <= j < n and 0 <= k < n):
        raise ContractError(f"indices ({i}, {j}, {k}) out of range for {n} nodes")
    ti, tj, tk = theta[i], theta[j], theta[k]
    g_ji = coupling.gamma(tj - ti)
    first = g_ji * coupling.target_du(ti, tj) * coupling.target(ti, tk) \
        * coupling.gamma(tk - ti)
    second = g_ji * coupling.target_dv(ti, tj) * coupling.target(tj, tk) \
        * coupling.gamma(tk - tj)
    return float(-first - second)


@dataclass(frozen=True)
class ReducedField:
    """Phase-only vector field: the phase equation evaluated on the slow
    manifold, phase_rhs(theta, slow_manifold(theta, order)).

    Expanded, component i is
    order 0: omega_i + (1/N) sum_j target(theta_i, theta_j)
             * gamma(theta_j - theta_i);
    order 1: the order-0 value plus epsilon/N times the sum over j of
             pair_correction(i, j) and epsilon/N^2 times the double sum over
             (j, k) of triplet_interaction(i, j, k).
    The tests check this expansion against those two functions.

    The field is an explicit truncation; terms beyond first order in epsilon
    are dropped by definition.
    """

    order: int
    params: ModelParams
    coupling: object

    def __post_init__(self):
        if self.order not in (0, 1):
            raise ContractError(f"order must be 0 or 1, got {self.order}")
        if self.order == 1:
            require_first_order(self.coupling)

    @property
    def n_nodes(self) -> int:
        return self.params.n_nodes

    def __call__(self, theta) -> FloatArray:
        # gamma(theta_j - theta_i) enters both the surface and the phase
        # equation on it; evaluate it once
        p, c = self.params, self.coupling
        theta = _check_shapes(p, theta)
        g = c.gamma(pair_differences(theta))
        return _phase_rhs(p, _slow_manifold(p, c, theta, self.order, g), g)
