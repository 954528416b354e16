"""Mixed-derivative certification that a phase field is genuinely nonpairwise.

A field whose every component splits into two-node functions has vanishing
mixed second derivatives d^2 F_i / (d theta_j d theta_k) for pairwise
distinct (i, j, k).  A single nonzero mixed derivative therefore certifies
that no pairwise decomposition exists.  The converse is false, so the
negative outcome is reported as absence of evidence, never as a proof of
pairwiseness.

Two evaluation routes are kept deliberately separate: a 4-point central
finite-difference stencil applied to any callable field, and an exact
chain-rule differentiation of the triplet-interaction terms.  Tests compare
them; neither replaces the other.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .fields import ReducedField, _check_field, _check_indices, _check_shapes
from .model import (
    ContractError,
    FloatArray,
    _floats,
    _is_int,
    _is_positive,
    missing_derivatives,
    require_derivatives,
    wrap_phase,
)

DEFAULT_FD_STEP = 1e-3
DEFAULT_SCAN_SEED = 20240817
DEFAULT_RANDOM_POINTS = 50

DECISION_CERTIFIED = "NonpairwiseCertified"
DECISION_NO_EVIDENCE = "NoEvidence"

# FD values below max(10 * measured pairwise noise floor, this) never certify
MIN_THRESHOLD = 1e-6


@dataclass(frozen=True, eq=False)
class CertificateReport:
    """Outcome of a nonpairwise-certification scan.

    ``fd_value`` is the finite-difference mixed derivative of the scanned
    field at the maximizing tuple.  ``analytic_value`` is the exact mixed
    derivative of the bare triplet double sum at the same tuple (without
    the epsilon / N^2 prefactor carried by the field); it is present only
    when the scanned field exposes coupling data of second order.
    """

    index_triple: tuple
    point: FloatArray
    fd_value: float
    analytic_value: Optional[float]
    decision: str
    fd_step: float
    threshold: float
    noise_floor: float


def mixed_second_derivative_fd(field, i: int, j: int, k: int, theta,
                               step: float = DEFAULT_FD_STEP):
    """Central 4-point estimate of d^2 field_i / (d theta_j d theta_k).

    ``theta`` is one point (N,), giving a float, or a stack of points
    (P, N), giving one value per row; the field is called once per stencil
    offset with the whole stack.  Truncation error is O(step^2).  The
    indices must be pairwise distinct node indices; the pairwise-vanishing
    statement this certificate rests on says nothing about repeated
    indices.  A step that collapses the stencil is a ContractError.
    """
    theta = _check_indices(theta, (i, j, k), stack=True)
    if len({i, j, k}) != 3:
        raise ContractError(f"indices must be pairwise distinct, got ({i}, {j}, {k})")
    scale = 4.0 * step * step if _is_positive(step) else 0.0
    collapses = not sys.float_info.min <= scale < np.inf
    # no theta absorbs a step above ulp(|theta|_2), which is >= ulp(max |theta|)
    if not collapses and step <= math.ulp(math.sqrt(np.vdot(theta, theta))):
        moved = theta[..., (j, k)]
        collapses = np.any((moved + step == moved) | (moved - step == moved))
    if collapses:
        raise ContractError(f"step={step!r} must be a finite real > 0 with 4 "
                            f"step^2 a normal double that no theta_{j} or "
                            f"theta_{k} absorbs")
    ej, ek = np.zeros(theta.shape[-1]), np.zeros(theta.shape[-1])
    ej[j] = ek[k] = step
    plus, minus = theta + ej, theta - ej
    val = (field(plus + ek)[..., i] - field(plus - ek)[..., i]
           - field(minus + ek)[..., i] + field(minus - ek)[..., i])
    return val / scale


def _mixed_derivative_of_triplet(coupling, a: float, b: float, d: float) -> float:
    """Exact d^2/(db dd) of the triplet interaction with phases (a, b, d)
    in the (first, second, third) slots.

    The interaction is
        t = - gamma(b - a) * target_du(a, b) * target(a, d) * gamma(d - a)
            - gamma(b - a) * target_dv(a, b) * target(b, d) * gamma(d - b)
    and both factors in each product depend on at most one of (b, d) except
    the final target * gamma pair in the second summand, which needs the
    product rule in both variables.
    """
    c = coupling
    g_ba = c.gamma(b - a)
    g1_ba = c.gamma_d1(b - a)
    # first summand: (b-dependent prefix) * (d-dependent suffix)
    d_prefix_db = g1_ba * c.target_du(a, b) + g_ba * c.target_duv(a, b)
    d_suffix_dd = c.target_dv(a, d) * c.gamma(d - a) \
        + c.target(a, d) * c.gamma_d1(d - a)
    first = -d_prefix_db * d_suffix_dd
    # second summand: suffix target(b, d) * gamma(d - b) depends on both
    suffix_dd = c.target_dv(b, d) * c.gamma(d - b) \
        + c.target(b, d) * c.gamma_d1(d - b)
    suffix_dd_db = (c.target_duv(b, d) * c.gamma(d - b)
                    - c.target_dv(b, d) * c.gamma_d1(d - b)
                    + c.target_du(b, d) * c.gamma_d1(d - b)
                    - c.target(b, d) * c.gamma_d2(d - b))
    second = -(g1_ba * c.target_dv(a, b) * suffix_dd
               + g_ba * c.target_dvv(a, b) * suffix_dd
               + g_ba * c.target_dv(a, b) * suffix_dd_db)
    return float(first + second)


def triplet_mixed_derivative(coupling, i: int, j: int, k: int, theta) -> float:
    """Exact mixed derivative d^2/(d theta_j d theta_k) of the sum of the
    two triplet interactions with node i first and (j, k) in either order.

    Only those two summands of the full double sum survive the mixed
    derivative when i, j, k are pairwise distinct: every other term misses
    one of the two differentiation variables.  Multiply by epsilon / N^2
    to obtain the corresponding contribution at field level.
    """
    theta = _check_indices(theta, (i, j, k))
    if len({i, j, k}) != 3:
        raise ContractError(f"indices must be pairwise distinct, got ({i}, {j}, {k})")
    require_derivatives(coupling, 2)
    direct = _mixed_derivative_of_triplet(coupling, theta[i], theta[j], theta[k])
    swapped = _mixed_derivative_of_triplet(coupling, theta[i], theta[k], theta[j])
    return direct + swapped


def anchor_point(n_nodes: int) -> FloatArray:
    """Scan anchor: second phase at pi/2, all others at 0.

    At this point, with Kuramoto coupling and the triple (0, 1, 2), the
    analytic mixed derivative collapses to -alpha, which makes it a
    guaranteed hit for the scan whenever alpha is away from zero.
    """
    if not (_is_int(n_nodes) and n_nodes >= 3):
        raise ContractError(f"need an int n_nodes >= 3, got {n_nodes!r}")
    p = np.zeros(n_nodes)
    p[1] = np.pi / 2.0
    return p


def default_scan_points(n_nodes: int, seed: int = DEFAULT_SCAN_SEED,
                        n_random: int = DEFAULT_RANDOM_POINTS) -> FloatArray:
    """Scan points as one (1 + n_random, N) array: the anchor point, then
    seeded uniform random phase vectors; ``seed`` is an int >= 0."""
    if not (_is_int(n_random) and n_random >= 0):
        raise ContractError(f"n_random must be an int >= 0, got {n_random!r}")
    if not (_is_int(seed) and seed >= 0):
        raise ContractError(f"seed must be an int >= 0, got {seed!r}")
    rng = np.random.default_rng(seed)
    return np.vstack([anchor_point(n_nodes),
                      rng.uniform(0.0, 2.0 * np.pi, (n_random, n_nodes))])


def scan_mixed_derivatives(field, points,
                           fd_step: float = DEFAULT_FD_STEP) -> FloatArray:
    """FD mixed derivatives of every (triple, point) candidate.

    Returns a (T * P, 5) array of rows (i, j, k, point_index, value) over
    the T ordered triples of distinct nodes and the P rows of ``points``,
    ordered lexicographically in (i, j, k, point_index).  That fixed order
    makes the downstream argmax tie-breaking deterministic.  Each triple is
    one stencil over the whole stack, so the field must accept a stack
    (P, N).  The four stencil stacks theta +- e_j +- e_k do not depend on i
    and are the same bits for (j, k) and (k, j), so the field is evaluated
    once per distinct stack, keyed on its bytes, and that output is shared
    by the 2(N - 2) triples that use it: 2 N(N - 1) field calls per scan,
    each row the same bits as an unshared stencil.
    """
    n, points = _check_field(field), _floats(points, "points")
    if points.ndim != 2 or not len(points) or points.shape[1] != n:
        raise ContractError(f"points must be a (P >= 1, {n}) stack, got {points.shape}")
    if not np.all(np.isfinite(points)):
        raise ContractError("scan points must be finite")
    outputs = {}

    def shared(stack):
        key = stack.tobytes()
        if key not in outputs:
            outputs[key] = field(stack)
        return outputs[key]

    triples = list(itertools.permutations(range(n), 3))
    values = [mixed_second_derivative_fd(shared, i, j, k, points, fd_step)
              for i, j, k in triples]
    return np.column_stack([
        np.repeat(np.reshape(triples, (-1, 3)), len(points), axis=0),
        np.tile(np.arange(len(points)), len(triples)),
        np.reshape(values, -1)])


def _pairwise_reference(field):
    """A field from the same family that is pairwise by construction, used
    to measure the FD noise floor.  None when no such companion exists."""
    if isinstance(field, ReducedField):
        if field.order == 0:
            return field
        return ReducedField(order=0, params=field.params, coupling=field.coupling)
    if isinstance(field, PushforwardField):
        ref = _pairwise_reference(field.base)
        if ref is None:
            return None
        return PushforwardField(base=ref, permutation=field.permutation,
                                shifts=field.shifts)
    return None


def certify_nonpairwise(field, points=None,
                        fd_step: float = DEFAULT_FD_STEP) -> CertificateReport:
    """Scan (triple, point) candidates and decide whether the field is
    certified nonpairwise.

    The decision threshold is max(10 * noise_floor, 1e-6), where the noise
    floor is the largest |FD value| of the same scan applied to a pairwise
    reference field (the uncorrected member of the family).
    Self-calibration means an order-0 field can never certify itself,
    which is the honest outcome for a pairwise field.

    Returns the report at the maximizer of |FD value|; ties resolve to the
    lexicographically first (i, j, k, point index).
    """
    n = _check_field(field)
    if n < 3:
        raise ContractError(
            f"certification needs at least 3 nodes, got {n}")
    points = default_scan_points(n) if points is None \
        else _floats(points, "points")
    rows = scan_mixed_derivatives(field, points, fd_step)
    best = rows[np.argmax(np.abs(rows[:, 4]))]

    noise_floor = 0.0
    reference = _pairwise_reference(field)
    if reference is not None:
        ref_rows = rows if reference is field \
            else scan_mixed_derivatives(reference, points, fd_step)
        noise_floor = float(np.abs(ref_rows[:, 4]).max())
    threshold = max(10.0 * noise_floor, MIN_THRESHOLD)

    i, j, k, g = (int(x) for x in best[:4])
    decision = DECISION_CERTIFIED if abs(best[4]) > threshold else DECISION_NO_EVIDENCE

    analytic = None
    if isinstance(field, ReducedField) and field.order == 1 \
            and not missing_derivatives(field.coupling, 2):
        analytic = triplet_mixed_derivative(field.coupling, i, j, k, points[g])

    return CertificateReport(
        index_triple=(i, j, k),
        point=points[g],
        fd_value=float(best[4]),
        analytic_value=analytic,
        decision=decision,
        fd_step=fd_step,
        threshold=threshold,
        noise_floor=noise_floor,
    )


def node_respecting_transform(theta, permutation, shifts) -> FloatArray:
    """Relabel nodes by a permutation and shift each phase, component i of
    the output being theta[permutation[i]] + shifts[i], canonicalized."""
    theta = _check_indices(theta, ())  # one phase vector (N,)
    perm, shifts = _check_transform(permutation, shifts, theta.shape[0])
    return wrap_phase(theta[perm] + shifts)


def _check_transform(permutation, shifts, n: int):
    """The permutation as ints rearranging 0..n-1 and n finite shifts."""
    if np.ndim(permutation) != 1 or not all(_is_int(p) for p in permutation) \
            or sorted(permutation) != list(range(n)):
        raise ContractError(
            f"permutation must hold ints rearranging 0..{n - 1}, got {permutation}")
    shifts = _floats(shifts, "shifts")
    if shifts.shape != (n,):
        raise ContractError(f"shifts length must match the node count {n}, "
                            f"got shape {shifts.shape}")
    if not np.all(np.isfinite(shifts)):
        raise ContractError("shifts must be finite")
    return np.asarray(permutation, dtype=int), shifts


@dataclass(frozen=True, eq=False)
class PushforwardField:
    """Image of a phase field under a shift-and-permute coordinate change.

    With y_i = theta[perm[i]] + shifts[i], component i of the pushed field
    at y equals component perm[i] of the base field at the preimage point.
    For these transforms the chain-rule factors are all 1, so mixed
    derivatives transport to relabeled indices and transformed points with
    their values unchanged.
    """

    base: object
    permutation: tuple
    shifts: tuple

    def __post_init__(self):
        perm, shifts = _check_transform(self.permutation, self.shifts,
                                        _check_field(self.base))
        object.__setattr__(self, "permutation", tuple(int(p) for p in perm))
        object.__setattr__(self, "shifts", tuple(shifts.tolist()))

    @property
    def n_nodes(self) -> int:
        return self.base.n_nodes

    @property
    def inverse(self) -> np.ndarray:
        """Inverse permutation, with inverse[permutation[i]] == i."""
        return np.argsort(self.permutation)

    def __call__(self, y) -> FloatArray:
        y = _check_shapes(self.n_nodes, y)
        inv = self.inverse
        shifts = np.asarray(self.shifts, dtype=float)
        theta = y[..., inv] - shifts[inv]
        return self.base(theta)[..., np.asarray(self.permutation, dtype=int)]


def pushforward_certificate_invariance(field, permutation, shifts, point,
                                       triple, fd_step: float = DEFAULT_FD_STEP):
    """FD mixed derivative before and after a shift-and-permute pushforward.

    ``before`` is taken at (triple, point) on the original field.  ``after``
    is taken on the pushed-forward field at the relabeled triple (inverse
    permutation applied to each index) and the transformed point.  The two
    agree up to FD tolerance.
    """
    try:
        i, j, k = triple
    except (TypeError, ValueError):
        raise ContractError(f"triple must be three node indices, got "
                            f"{triple!r}") from None
    pushed = PushforwardField(base=field, permutation=permutation,
                              shifts=shifts)
    before = mixed_second_derivative_fd(field, i, j, k, point, fd_step)
    inv = pushed.inverse
    moved_point = node_respecting_transform(point, permutation, shifts)
    after = mixed_second_derivative_fd(
        pushed, int(inv[i]), int(inv[j]), int(inv[k]), moved_point, fd_step)
    return before, after
