"""Vector fields of the fast-slow network and its reduced phase dynamics.

The full system in slow time is

    d theta_i / dt = omega_i + (1/N) sum_j a_ij gamma(theta_j - theta_i)
    d a_ij / dt    = (-a_ij + target(theta_i, theta_j)) / epsilon

The weight equation relaxes each a_ij toward ``target(theta_i, theta_j)``
on the fast time scale.  Freezing the phases gives the layer dynamics,
whose equilibrium surface is the matrix ``critical_weights(theta)``.
That surface plus its first-order correction in epsilon is the slow
manifold, :func:`slow_manifold`; the phase equation evaluated on it is the
closed phase-only field :class:`ReducedField`.  These fields and the
full-system rhs of ``integrate_full`` are all built from one private
evaluation, ``_Terms``, which evaluates gamma and target at most once per
point, each on first use; its callers never write into what it returns.

The model equations broadcast over leading axes: phases of shape (..., N)
and weights of shape (..., N, N) give one result per leading index, equal
to the result for that phase vector alone.  The scalar oracles
pair_correction and triplet_interaction take one phase vector (N,) and
evaluate the coupling on their own, independently of ``_Terms``.
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


def _check_shapes(n: int, theta, weights=None):
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


def _check_indices(theta, indices, stack: bool = False) -> FloatArray:
    """theta as floats, one phase vector (N,), or any (..., N) with
    ``stack``; every index must be a node index in range(N)."""
    theta = np.asarray(theta, dtype=float)
    if not (stack or theta.ndim == 1):
        raise ContractError(f"theta must have shape (N,), got {theta.shape}")
    n = theta.shape[-1]
    if not all(0 <= i < n for i in indices):
        raise ContractError(f"indices {indices} out of range for {n} nodes")
    return theta


def pair_differences(theta: FloatArray) -> FloatArray:
    """Matrix of phase differences with entry (i, j) = theta_j - theta_i."""
    theta = np.asarray(theta, dtype=float)
    return theta[..., None, :] - theta[..., :, None]


class _Terms:
    """At checked phases (..., N): g = gamma(theta_j - theta_i) and w0 =
    target(theta_i, theta_j), the critical weights, each evaluated on first
    use and then kept; and what is built from them: the phase equation at
    any weights, h1 and the surface h0 + epsilon * h1.
    """

    __slots__ = ("params", "coupling", "u", "v", "_g", "_w0")

    def __init__(self, params: ModelParams, coupling, theta):
        self.params, self.coupling = params, coupling
        # theta_i down the rows of a matrix, theta_j along its columns
        self.u, self.v = theta[..., :, None], theta[..., None, :]
        self._g = self._w0 = None

    @property
    def g(self) -> FloatArray:
        if self._g is None:
            self._g = self.coupling.gamma(self.v - self.u)
        return self._g

    @property
    def w0(self) -> FloatArray:
        if self._w0 is None:
            self._w0 = self.coupling.target(self.u, self.v)
        return self._w0

    def phase_rhs(self, weights) -> FloatArray:
        p = self.params
        # the bits of ndarray.sum and of / N, at cheaper numpy calls
        return p.omega + np.add.reduce(weights * self.g, -1) / float(p.n_nodes)

    def correction(self) -> FloatArray:
        require_first_order(self.coupling)
        f = self.phase_rhs(self.w0)
        return -(self.coupling.target_du(self.u, self.v) * f[..., :, None]
                 + self.coupling.target_dv(self.u, self.v) * f[..., None, :])

    def surface(self, epsilon) -> FloatArray:
        """h0 + epsilon * h1 at a scalar epsilon, or at a column (..., 1, 1)
        of them; a scalar 0 gives h0 without evaluating h1."""
        if not isinstance(epsilon, np.ndarray) and epsilon == 0:
            return self.w0
        return self.w0 + epsilon * self.correction()


def phase_rhs(params: ModelParams, coupling, theta, weights) -> FloatArray:
    """Slow equation right-hand side.

    Component i is omega_i + (1/N) sum_j weights[i, j] * gamma(theta_j - theta_i).
    The sum runs over every j including j = i.
    """
    theta, weights = _check_shapes(params.n_nodes, theta, weights)
    return _Terms(params, coupling, theta).phase_rhs(weights)


def weight_rhs(coupling, theta, weights) -> FloatArray:
    """Adaptation right-hand side, entry (i, j) = -a_ij + target(theta_i, theta_j).

    This is the raw adaptation field, not divided by epsilon.
    """
    theta, weights = _check_shapes(np.shape(theta)[-1], theta, weights)
    return -weights + critical_weights(coupling, theta)


def critical_weights(coupling, theta) -> FloatArray:
    """Equilibrium weight matrix of the layer dynamics, entry (i, j) =
    target(theta_i, theta_j)."""
    theta = np.asarray(theta, dtype=float)
    return np.asarray(_Terms(None, coupling, theta).w0, dtype=float)


def weight_correction(params: ModelParams, coupling, theta) -> FloatArray:
    """First-order (in epsilon) correction to the equilibrium weights.

    Entry (i, j) is
        - target_du(theta_i, theta_j) * f_i - target_dv(theta_i, theta_j) * f_j
    where f = phase_rhs evaluated on the equilibrium surface.  The correction
    accounts for the slow drift of the phases pulling the weights slightly
    off the instantaneous equilibrium.
    """
    theta = _check_shapes(params.n_nodes, theta)
    return _Terms(params, coupling, theta).correction()


def slow_manifold(params: ModelParams, coupling, theta, order: int = 1) -> FloatArray:
    """Weight surface of the reduction, truncated at ``order`` in epsilon.

    order 0: critical_weights(theta), the equilibrium of the layer dynamics.
    order 1: critical_weights(theta) + epsilon * weight_correction(theta).
    """
    if order not in (0, 1):
        raise ContractError(f"order must be 0 or 1, got {order}")
    theta = _check_shapes(params.n_nodes, theta)
    # the surface truncated at order 0 is the one at epsilon 0
    return _Terms(params, coupling, theta).surface(order * params.epsilon)


def pair_correction(params: ModelParams, coupling, i: int, j: int, theta) -> float:
    """Frequency-driven two-node term of the corrected reduced field.

    Value: -gamma(theta_j - theta_i) * (target_du(theta_i, theta_j) * omega_i
    + target_dv(theta_i, theta_j) * omega_j).  Scaled by epsilon/N when summed
    into the field.
    """
    require_first_order(coupling)
    theta = _check_indices(_check_shapes(params.n_nodes, theta), (i, j))
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
    theta = _check_indices(theta, (i, j, k))
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
        terms = _Terms(self.params, self.coupling,
                       _check_shapes(self.params.n_nodes, theta))
        return terms.phase_rhs(terms.surface(self.order * self.params.epsilon))
