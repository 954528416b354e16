"""Mixed-derivative certification that a phase field is genuinely nonpairwise.

A field whose every component splits into two-node functions has vanishing
mixed second derivatives d^2 F_i / (d theta_j d theta_k) for pairwise
distinct (i, j, k).  A single nonzero mixed derivative therefore certifies
that no pairwise decomposition exists.  The converse is false, so the
negative outcome is reported as absence of evidence, never as a proof of
pairwiseness.

Two evaluation routes are kept deliberately separate: a 4-point central
finite-difference stencil applied to any callable field, and the exact
mixed derivative of the triplet interaction summed over its harmonic table.
Tests compare them; neither replaces the other.
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

# FD values up to max(10 * the pairwise companion's largest |FD| at the
# winning point, this) never certify
MIN_THRESHOLD = 1e-6


@dataclass(frozen=True, eq=False)
class CertificateReport:
    """Outcome of a nonpairwise-certification scan.

    ``fd_value`` is the finite-difference mixed derivative of the scanned
    field at the maximizing tuple.  ``analytic_value`` is the exact mixed
    derivative of the bare triplet double sum at the same tuple (without
    the epsilon / N^2 prefactor carried by the field); it is present only
    when the scanned field's coupling has a triplet harmonic table.
    ``noise_floor`` is the largest |FD value| of the pairwise companion over
    every triple at ``point`` (0 with no companion), and ``threshold`` is
    max(10 * noise_floor, MIN_THRESHOLD).  ``noise_floor_source`` is
    "companion" or, for a field without one, "none".
    """

    index_triple: tuple
    point: FloatArray
    fd_value: float
    analytic_value: Optional[float]
    decision: str
    fd_step: float
    threshold: float
    noise_floor: float
    noise_floor_source: str


def _stencil_scale(theta, step, pairs) -> float:
    """4 step^2, the stencil's divisor; a step that collapses the stencil
    moving theta_j and theta_k for a (j, k) in ``pairs`` is a ContractError."""
    scale = 4.0 * step * step if _is_positive(step) else 0.0
    normal = sys.float_info.min <= scale < np.inf
    # no theta absorbs a step above ulp(|theta|_2), which is >= ulp(max |theta|)
    if normal and step > math.ulp(math.sqrt(np.vdot(theta, theta))):
        return scale
    for j, k in pairs:
        moved = theta[..., (j, k)]
        if not normal or np.any((moved + step == moved) | (moved - step == moved)):
            raise ContractError(f"step={step!r} must be a finite real > 0 with 4 "
                                f"step^2 a normal double that no theta_{j} or "
                                f"theta_{k} absorbs")
    return scale


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
    scale = _stencil_scale(theta, step, [(j, k)])
    ej, ek = np.zeros(theta.shape[-1]), np.zeros(theta.shape[-1])
    ej[j] = ek[k] = step
    plus, minus = theta + ej, theta - ej
    val = (field(plus + ek)[..., i] - field(plus - ek)[..., i]
           - field(minus + ek)[..., i] + field(minus - ek)[..., i])
    return val / scale


def triplet_mixed_derivative(coupling, i: int, j: int, k: int, theta) -> float:
    """Exact mixed derivative d^2/(d theta_j d theta_k) of the sum of the
    two triplet interactions with node i first and (j, k) in either order.

    Only those two summands of the full double sum survive the mixed
    derivative when i, j, k are pairwise distinct: every other term misses
    one of the two differentiation variables.  Each row a * sin(m . theta)
    of the coupling's harmonic table gives a * (-m_j m_k) * sin(m . theta),
    its (j, k) part summed first so that swapping j and k keeps every bit.
    Times epsilon / N^2 this is the contribution at field level.
    """
    theta = _check_indices(theta, (i, j, k))
    if len({i, j, k}) != 3:
        raise ContractError(f"indices must be pairwise distinct, got ({i}, {j}, {k})")
    require_derivatives(coupling, 2)
    m, a = coupling.triplet_harmonics()
    mi, mj, mk = np.asarray(m).T
    head = mi * theta[i]
    return float(np.sum(a * (-mj * mk) * (
        np.sin(head + (mj * theta[j] + mk * theta[k]))
        + np.sin(head + (mk * theta[j] + mj * theta[k])))))


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


def _scan_bytes(n: int, n_points: int) -> int:
    """Bytes a scan of a reduced field of n nodes at P = n_points holds at
    its peak: 8 KiB of Python objects, the (T, 3) triple indices, and the
    (N, N, P, N) by-pair values beside one pair call's at most 8 arrays (4P,
    N, N) or beside the (T, P, 5) table and its finite check, under 6TP
    doubles."""
    per_point = n * n + max(6 * (n - 1) * (n - 2), 32 * n)
    return 8192 + 8 * n * (3 * (n - 1) * (n - 2) + n_points * per_point)


def scan_mixed_derivatives(field, points,
                           fd_step: float = DEFAULT_FD_STEP) -> FloatArray:
    """FD mixed derivatives of every (triple, point) candidate.

    Returns a (T * P, 5) array of rows (i, j, k, point_index, value) over
    the T ordered triples of distinct nodes and the P rows of ``points``,
    ordered lexicographically in (i, j, k, point_index).  That fixed order
    makes the downstream argmax tie-breaking deterministic.  The stencil
    stacks theta +- e_j +- e_k do not depend on i and are the same for
    (j, k) and (k, j), so each node pair j < k is one field call on its
    four stacks joined, (4P, N), serving its 2(N - 2) triples: N(N - 1)/2
    calls per scan.  Contract: the field's value at a row is that row's
    alone, whatever else its stack holds, so each value has the bits of
    mixed_second_derivative_fd at its triple.  A step that collapses the
    stencil of a triple, or a value that is not finite, is a ContractError
    for the first such triple in row order, the step before any field call.
    Below 3 nodes T = 0: the table is empty and the field is not called.
    """
    n, points = _check_field(field), _floats(points, "points")
    if points.ndim != 2 or not len(points) or points.shape[1] != n:
        raise ContractError(f"points must be a (P >= 1, {n}) stack, got {points.shape}")
    if not np.all(np.isfinite(points)):
        raise ContractError("scan points must be finite")
    off = ~np.eye(n, dtype=bool)  # off[j, k]: j != k
    triples = np.argwhere(off[:, :, None] & off[:, None] & off)
    if not len(triples):  # fewer than 3 nodes: T = 0
        return np.empty((0, 5))
    scale = _stencil_scale(points, fd_step, ((j, k) for _, j, k in triples))
    by_pair, e = np.empty((n, n) + points.shape), fd_step * np.eye(n)
    for j, k in itertools.combinations(range(n), 2):
        plus, minus = points + e[j], points - e[j]
        a, b, c, d = np.split(field(np.concatenate(
            [plus + e[k], plus - e[k], minus + e[k], minus - e[k]])), 4)
        by_pair[j, k], by_pair[k, j] = a - b - c + d, a - c - b + d
    rows = np.empty((len(triples), len(points), 5))  # no temporary table
    rows[..., :3] = triples[:, None]
    rows[..., 3] = np.arange(len(points))
    block = len(triples) // n  # the (N - 1)(N - 2) triples of each i
    for i in range(n):  # a gather of all T values would be a (T, P) temporary
        rows[i * block:(i + 1) * block, :, 4] = \
            by_pair[..., i][off & off[i] & off[i, :, None]]
    rows[..., 4] /= scale
    bad = np.argwhere(~np.isfinite(rows[..., 4]))
    if len(bad):
        t, g = bad[0]
        raise ContractError(f"the FD value of triple {tuple(triples[t].tolist())} "
                            f"at point {g} is not finite: {rows[t, g, 4]}")
    return rows.reshape(-1, 5)


def _pairwise_reference(field):
    """A field from the same family that is pairwise by construction, used
    to measure the FD noise floor.  None when no such companion exists."""
    if isinstance(field, ReducedField):
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
    floor is the largest |FD value| over every triple at the maximizer's
    point of a pairwise reference field (the uncorrected member of the
    family): a scan of that one point, N(N - 1)/2 field calls of 4 rows.
    An order-0 field's reference has its rows there, by the scan's row
    locality, so |fd| <= noise floor: it can never certify itself, which
    is the honest outcome for a pairwise field.

    Returns the report at the maximizer of |FD value|; ties resolve to the
    lexicographically first (i, j, k, point index).  A scan value that is
    not finite, or a maximizer whose value differs in any bit from
    mixed_second_derivative_fd at its point alone (a field that breaks the
    scan's contract), is a ContractError, raised before anything is decided.
    """
    n = _check_field(field)
    if n < 3:
        raise ContractError(
            f"certification needs at least 3 nodes, got {n}")
    points = default_scan_points(n) if points is None \
        else _floats(points, "points")
    rows = scan_mixed_derivatives(field, points, fd_step)
    best = rows[np.argmax(np.abs(rows[:, 4]))]
    i, j, k, g = (int(x) for x in best[:4])

    reference = _pairwise_reference(field)
    noise_floor = 0.0 if reference is None else float(np.abs(
        scan_mixed_derivatives(reference, points[g:g + 1], fd_step)[:, 4]).max())
    threshold = max(10.0 * noise_floor, MIN_THRESHOLD)

    confirmed = mixed_second_derivative_fd(field, i, j, k, points[g], fd_step)
    if np.float64(confirmed).tobytes() != best[4].tobytes():
        raise ContractError(f"triple {(i, j, k)} at point {g} is {float(best[4])!r}"
                            f" in the scan but {float(confirmed)!r} by its own "
                            "stencil: a field's row must not depend on its stack")
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
        noise_floor_source="none" if reference is None else "companion",
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

    def __call__(self, y) -> FloatArray:
        y = _check_shapes(self.n_nodes, y)
        inv = np.argsort(self.permutation)  # inv[permutation[i]] == i
        shifts = np.asarray(self.shifts, dtype=float)
        theta = y[..., inv] - shifts[inv]
        return self.base(theta)[..., np.asarray(self.permutation, dtype=int)]

