"""Vector fields of the fast-slow network and its reduced phase dynamics.

The full system in slow time is

    d theta_i / dt = omega_i + (1/N) sum_j a_ij gamma(theta_j - theta_i)
    d a_ij / dt    = (-a_ij + target(theta_i, theta_j)) / epsilon

The weight equation relaxes each a_ij toward ``target(theta_i, theta_j)``
on the fast time scale.  Freezing the phases gives the layer dynamics,
whose equilibrium surface is the matrix ``critical_weights(theta)``.
That surface plus its first-order correction in epsilon is the slow
manifold, :func:`slow_manifold`; the phase equation evaluated on it is the
closed phase-only field :class:`ReducedField`.  These fields, the
full-system rhs of ``integrate_full`` and the forcing that the exponential
reference of ``convergence_study`` steps are all built from one private
core, ``_Core``, which forms phi_ij = theta_j - theta_i once per call and
evaluates each slot it uses once; callers never write into what it returns.
It alone holds the truncation order and, given both difference-form slots,
evaluates the target at (u, v) = (theta_i, theta_j) as target_diff(phi),
its d/du -target_diff_d1(phi, g) and its d/dv +target_diff_d1(phi, g), g
the gamma(phi) of the same call.

The model equations take phases of shape (..., N) and weights of shape
(..., N, N) with the same leading axes, and give one result per leading
index, equal to the result for that phase vector alone.  critical_weights
evaluates target(u, v) itself; the scalar oracles pair_correction and
triplet_interaction take one phase vector (N,) and evaluate the coupling on
their own, not through ``_Core``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    ContractError,
    FloatArray,
    ModelParams,
    _floats,
    _is_int,
    require_derivatives,
)


def _check_shapes(n, theta, weights=None):
    """theta as floats (..., N), N = n unless n is None, and weights as
    floats of shape theta.shape + (N,) if given."""
    theta = _floats(theta, "phases")
    weights = None if weights is None else _floats(weights, "weights")
    n = theta.shape[-1] if n is None and theta.ndim else n
    if theta.shape[-1:] != (n,):
        raise ContractError(f"theta must have shape (..., {n or 'N'}), got "
                            f"{theta.shape or 'a scalar'}")
    if weights is None:
        return theta
    if weights.shape != theta.shape + (n,):
        raise ContractError(f"weights must have shape {theta.shape + (n,)} "
                            f"to match theta, got {weights.shape}")
    return theta, weights


def _check_indices(theta, indices, stack: bool = False) -> FloatArray:
    """theta as floats, one phase vector (N,), or any (..., N) with
    ``stack``; every index must be an int (not a bool) in range(N)."""
    theta = _check_shapes(None, theta)
    if not (stack or theta.ndim == 1):
        raise ContractError(f"theta must have shape (N,), got {theta.shape}")
    n = theta.shape[-1]
    if not all(_is_int(i) and 0 <= i < n for i in indices):
        raise ContractError(
            f"indices {indices} are not ints or out of range for {n} nodes")
    return theta


def _check_field(field) -> int:
    """The node count of a phase field: a callable with an int n_nodes."""
    if not (callable(field) and _is_int(getattr(field, "n_nodes", None))):
        raise ContractError(f"field must be a callable phase field with an "
                            f"int n_nodes, got {field!r}")
    return field.n_nodes


def _phi(theta) -> FloatArray:  # phi_ij = theta_j - theta_i at (..., N)
    return theta[..., None, :] - theta[..., :, None]


class _Core:
    """One coupling's equations at checked phases (..., N) to ``order``, the
    int 0 or 1 whose slots it requires, the target's form chosen here alone.
    Called, the reduced field at ``epsilon`` (params' if None), a scalar or
    a column (..., 1, 1); an order-1 row at 0 is the order-0 field."""

    __slots__ = ("n_nodes", "omega", "order", "epsilon", "coupling", "diff")

    def __init__(self, params: ModelParams, coupling, order=0, epsilon=None):
        if not isinstance(params, ModelParams):
            raise ContractError(f"params must be a ModelParams, got {params!r}")
        if not (_is_int(order) and order in (0, 1)):
            raise ContractError(f"order must be the int 0 or 1, got {order!r}")
        require_derivatives(coupling, order)
        self.n_nodes, self.omega, self.order = params.n_nodes, params.omega, order
        self.epsilon = params.epsilon if epsilon is None else epsilon
        self.coupling = coupling
        self.diff = all(getattr(coupling, name, None) is not None
                        for name in ("target_diff", "target_diff_d1"))

    def phase(self, weights, g) -> FloatArray:  # at weights (..., N, N)
        # the bits of ndarray.sum and of / N, at cheaper numpy calls
        return self.omega + np.add.reduce(weights * g, -1) / float(self.n_nodes)

    def terms(self, theta, y=None):
        """(g, w0, f, h1): gamma(phi), the critical weights and, at order 1,
        the phase f at weights w0 + y (w0 if y is None) and the correction
        h1 = -(T_u f_i + T_v f_j), the forcing of y = w - w0: y' = -y/eps + h1."""
        c, phi = self.coupling, _phi(theta)  # slots read per call: tracers patch them
        g = c.gamma(phi)
        if self.diff:
            w0 = c.target_diff(phi)
            if self.order:
                dv = c.target_diff_d1(phi, g)
        else:  # u = theta_i down the rows, v = theta_j along the columns
            u, v = theta[..., :, None], theta[..., None, :]
            w0 = c.target(u, v)
            if self.order:
                du, dv = c.target_du(u, v), c.target_dv(u, v)
        del phi
        if not self.order:
            return g, w0, None, None
        f = self.phase(w0 if y is None else w0 + y, g)
        # -(dv f_j - dv f_i): a - b is a + (-b) in IEEE arithmetic, so the
        # bits of -(du f_i + dv f_j) at du = -dv, with no du array
        h1 = np.multiply(dv, f[..., None, :],
                         out=np.empty(theta.shape + theta.shape[-1:]))
        if self.diff:
            h1 -= dv * f[..., :, None]
        else:
            h1 += du * f[..., :, None]
        return g, w0, f, np.negative(h1, out=h1)

    def surface(self, theta):  # (g, h0 + epsilon * h1)
        g, w0, _, h1 = self.terms(theta)
        return g, w0 if h1 is None else w0 + self.epsilon * h1

    def __call__(self, theta) -> FloatArray:
        g, w = self.surface(theta)
        return self.phase(w, g)


def phase_rhs(params: ModelParams, coupling, theta, weights) -> FloatArray:
    """Slow equation right-hand side.

    Component i is omega_i + (1/N) sum_j weights[i, j] * gamma(theta_j - theta_i).
    The sum runs over every j including j = i.
    """
    core = _Core(params, coupling)
    theta, weights = _check_shapes(core.n_nodes, theta, weights)
    return core.phase(weights, coupling.gamma(_phi(theta)))


def weight_rhs(coupling, theta, weights) -> FloatArray:
    """Adaptation right-hand side, entry (i, j) = -a_ij + target(theta_i, theta_j).

    This is the raw adaptation field, not divided by epsilon.
    """
    theta, weights = _check_shapes(None, theta, weights)
    return -weights + critical_weights(coupling, theta)


def critical_weights(coupling, theta) -> FloatArray:
    """Equilibrium weight matrix of the layer dynamics, entry (i, j) =
    target(theta_i, theta_j), evaluated as ``target(u, v)`` at phases (..., N)."""
    theta = _check_shapes(None, theta)
    return coupling.target(theta[..., :, None], theta[..., None, :])


def weight_correction(params: ModelParams, coupling, theta) -> FloatArray:
    """First-order (in epsilon) correction to the equilibrium weights.

    Entry (i, j) is
        - target_du(theta_i, theta_j) * f_i - target_dv(theta_i, theta_j) * f_j
    where f = phase_rhs evaluated on the equilibrium surface.  The correction
    accounts for the slow drift of the phases pulling the weights slightly
    off the instantaneous equilibrium.
    """
    return _Core(params, coupling, 1).terms(
        _check_shapes(params.n_nodes, theta))[3]


def slow_manifold(params: ModelParams, coupling, theta, order: int = 1) -> FloatArray:
    """Weight surface of the reduction, truncated at ``order`` in epsilon,
    the int 0 or 1 (a bool or float order is rejected).

    order 0: critical_weights(theta), the layer dynamics' equilibrium.
    order 1: critical_weights(theta) + epsilon * weight_correction(theta).
    """
    core = _Core(params, coupling, order)
    theta = _check_shapes(params.n_nodes, theta)
    return core.surface(theta)[1] if order else critical_weights(coupling, theta)


def pair_correction(params: ModelParams, coupling, i: int, j: int, theta) -> float:
    """Frequency-driven two-node term of the corrected reduced field.

    Value: -gamma(theta_j - theta_i) * (target_du(theta_i, theta_j) * omega_i
    + target_dv(theta_i, theta_j) * omega_j).  Scaled by epsilon/N when summed
    into the field.
    """
    n = _Core(params, coupling, 1).n_nodes  # checks params and the slots
    theta = _check_indices(_check_shapes(n, theta), (i, j))
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
    require_derivatives(coupling, 1)
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
    are dropped by definition.  ``order`` is the int 0 or 1; a bool or float
    order raises ContractError.
    """

    order: int
    params: ModelParams
    coupling: object

    def __post_init__(self):
        object.__setattr__(self, "_core",
                           _Core(self.params, self.coupling, self.order))

    @property
    def n_nodes(self) -> int:
        return self.params.n_nodes

    def __call__(self, theta) -> FloatArray:
        return self._core(_check_shapes(self.params.n_nodes, theta))
