"""Domain types for adaptive phase-oscillator networks.

The state of the network is a pair (theta, a): N oscillator phases on the
torus (the slow variables) and an N x N matrix of coupling weights (the
fast variables).  A coupling is a pair of functions: ``gamma`` acts on
phase differences in the phase equation, and ``target`` is the value each
weight relaxes toward in the adaptation equation.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real
from typing import Callable, Optional

import numpy as np
from numpy.typing import NDArray

FloatArray = NDArray[np.float64]

TWO_PI = 2.0 * np.pi


class ContractError(ValueError):
    """An argument violates a documented precondition."""


class CapabilityError(ContractError):
    """A coupling lacks derivative data required by the requested operation."""


class IntegrationError(RuntimeError):
    """Numerical integration produced a non-finite state or diverged.

    ``rows`` indexes the rows of a stacked state (S, D) that hold the
    non-finite values; it is empty when they are not known."""

    def __init__(self, message: str, rows=()):
        super().__init__(message)
        self.rows = tuple(int(r) for r in rows)


class ExperimentError(RuntimeError):
    """An experiment could not produce a meaningful result from its inputs."""


def _is_int(x) -> bool:
    """True for a Python or numpy integer; bool is not a count or index."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _is_positive(x) -> bool:
    """True for a finite real number > 0 that is not a bool."""
    return isinstance(x, Real) and not isinstance(x, bool) and 0 < x < np.inf


def _floats(x, what: str) -> np.ndarray:
    """x as floats, or ContractError naming ``what`` for non-numbers."""
    try:
        return np.asarray(x, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ContractError(f"non-numeric {what}: {exc}") from exc


def wrap_phase(x):
    """Map angles to the canonical representative in [0, 2*pi).

    Accepts scalars or arrays.  Non-finite input is rejected because a NaN
    phase silently poisons every downstream trigonometric evaluation.
    """
    x = _floats(x, "phases")
    if not np.all(np.isfinite(x)):
        raise ContractError("phase values must be finite")
    wrapped = np.mod(x, TWO_PI, out=np.empty_like(x))
    # mod can return 2*pi itself when x is a tiny negative number
    np.subtract(wrapped, TWO_PI, out=wrapped, where=wrapped >= TWO_PI)
    if wrapped.ndim == 0:
        return float(wrapped)
    return wrapped


def phase_distance(a, b) -> float:
    """Largest wrapped angular distance between two phase vectors.

    Component distance is min(|a-b| mod 2pi, 2pi - |a-b| mod 2pi); the
    vector distance is the maximum over components.  This is a metric on
    the torus.  On stacks of phase vectors it is the maximum over every
    sample and component.
    """
    a, b = _floats(a, "phases"), _floats(b, "phases")
    if a.shape != b.shape:
        raise ContractError(f"phase vectors differ in shape: {a.shape} vs {b.shape}")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ContractError("phase values must be finite")
    d = np.abs(a - b) % TWO_PI
    return float(np.max(np.minimum(d, TWO_PI - d))) if a.size else 0.0


@dataclass(frozen=True, eq=False)
class ModelParams:
    """Network size, natural frequencies and time-scale separation.

    Parameters
    ----------
    n_nodes : int
        Number of oscillators, at least 1.  Certificate experiments need
        at least 3 nodes; that is enforced where the certificate runs.
    omega : array of float
        Natural frequencies, radians per slow-time unit, length n_nodes.
    epsilon : float
        Time-scale separation, strictly positive.  Experiments use values
        well below 1 but the library does not cap it.
    """

    n_nodes: int
    omega: FloatArray
    epsilon: float

    def __post_init__(self):
        if not (_is_int(self.n_nodes) and self.n_nodes >= 1):
            raise ContractError(
                f"n_nodes must be an int >= 1, got {self.n_nodes!r}")
        om = _floats(self.omega, "omega")
        if om.shape != (self.n_nodes,):
            raise ContractError(
                f"omega must have shape ({self.n_nodes},), got {om.shape}")
        if not np.all(np.isfinite(om)):
            raise ContractError("omega must be finite")
        if not _is_positive(self.epsilon):
            raise ContractError(f"epsilon must be > 0, got {self.epsilon!r}")
        object.__setattr__(self, "omega", om)


@dataclass(frozen=True, eq=False)
class FullState:
    """Phases plus weight matrix, dimensions tied together."""

    theta: FloatArray
    weights: FloatArray

    def __post_init__(self):
        th, w = _floats(self.theta, "theta"), _floats(self.weights, "weights")
        if th.ndim != 1:
            raise ContractError("theta must be a 1-d array")
        n = th.shape[0]
        if w.shape != (n, n):
            raise ContractError(
                f"weights must have shape ({n}, {n}), got {w.shape}")
        if not (np.all(np.isfinite(th)) and np.all(np.isfinite(w))):
            raise ContractError("theta and weights must be finite")
        object.__setattr__(self, "theta", th)
        object.__setattr__(self, "weights", w)

    @property
    def n_nodes(self) -> int:
        return self.theta.shape[0]


PhaseFn = Callable[..., object]


@dataclass(frozen=True)
class Coupling:
    """Evaluation contract for a coupling pair.

    ``gamma`` is the phase-difference coupling entering the phase equation;
    ``target`` is the adaptation target the weights relax toward.  Both must
    be 2*pi-periodic in every argument and broadcast elementwise over numpy
    arrays.  Derivatives are optional: supply the slots ``DERIVATIVE_SLOTS``
    lists for the intended operations (order 1 for the corrected reduced
    field, order 2 for the analytic certificate).  Any object with these
    callables as attributes works alike; no other method is needed.
    Derivatives may be closed form or finite-difference backed; either way
    they must be consistent with the function one order below.

    Naming: ``gamma_d1`` is d gamma / d phi, ``target_du`` and ``target_dv``
    are the partials in the first and second slot, and so on for second
    order.  A target of phi = v - u alone may add both target_diff(phi) =
    target(u, v) and target_diff_d1 = d/dv = -d/du, which the fields then use
    in place of the (u, v) slots; those stay required.
    """

    gamma: PhaseFn
    target: PhaseFn
    gamma_d1: Optional[PhaseFn] = None
    gamma_d2: Optional[PhaseFn] = None
    target_du: Optional[PhaseFn] = None
    target_dv: Optional[PhaseFn] = None
    target_duv: Optional[PhaseFn] = None
    target_dvv: Optional[PhaseFn] = None
    target_diff: Optional[PhaseFn] = None
    target_diff_d1: Optional[PhaseFn] = None


# the derivative slots an operation of each order needs: order 1 is the
# corrected surface and field, order 2 the analytic certificate
DERIVATIVE_SLOTS = {0: (), 1: ("gamma_d1", "target_du", "target_dv"),
                    2: ("gamma_d1", "target_du", "target_dv",
                        "gamma_d2", "target_duv", "target_dvv")}


def missing_derivatives(coupling, order: int) -> list:
    """The slots of ``DERIVATIVE_SLOTS[order]`` that ``coupling`` has no
    attribute for, or holds None in; empty when it supports ``order``."""
    return [name for name in DERIVATIVE_SLOTS[order]
            if getattr(coupling, name, None) is None]


def require_derivatives(coupling, order: int) -> None:
    """Raise CapabilityError naming the slots of ``order`` it lacks."""
    missing = missing_derivatives(coupling, order)
    if missing:
        raise CapabilityError(f"coupling lacks order-{order} derivative "
                              f"slots: {', '.join(missing)}")


def _cos_target(alpha, phi):  # the Kuramoto target at phi = v - u
    return alpha + np.cos(phi)


def _cos_target_d1(phi):  # 0.0 - sin, not -sin: at u == v, phi = +0 = sin(u - v)
    return 0.0 - np.sin(phi)


@dataclass(frozen=True)
class KuramotoCoupling:
    """Adaptive Kuramoto coupling: gamma(phi) = sin(phi),
    target(u, v) = alpha + cos(u - v), all derivatives in closed form.

    Structurally interchangeable with :class:`Coupling` (bound methods in
    place of stored callables).
    """

    alpha: float

    def __post_init__(self):
        if not (isinstance(self.alpha, Real) and not isinstance(self.alpha, bool)
                and np.isfinite(self.alpha)):
            raise ContractError(f"alpha must be a finite real number, got "
                                f"{self.alpha!r}")

    def gamma(self, phi):
        return np.sin(phi)

    def gamma_d1(self, phi):
        return np.cos(phi)

    def gamma_d2(self, phi):
        return -np.sin(phi)

    def target_diff(self, phi):
        return _cos_target(self.alpha, phi)

    def target_diff_d1(self, phi):
        return _cos_target_d1(phi)

    def target(self, u, v):
        return _cos_target(self.alpha, v - u)

    def target_du(self, u, v):
        return -_cos_target_d1(v - u)

    def target_dv(self, u, v):
        return _cos_target_d1(v - u)

    def target_duv(self, u, v):
        return np.cos(u - v)

    def target_dvv(self, u, v):
        return -np.cos(u - v)


def make_kuramoto(alpha: float) -> KuramotoCoupling:
    """Build the adaptive Kuramoto coupling with adaptation offset alpha."""
    return KuramotoCoupling(alpha=float(alpha))
