import dataclasses
import itertools
import re

import numpy as np
import pytest

from fastslow import (
    DECISION_CERTIFIED,
    DECISION_NO_EVIDENCE,
    CapabilityError,
    ContractError,
    Coupling,
    ModelParams,
    PushforwardField,
    ReducedField,
    anchor_point,
    certificate,
    certify_nonpairwise,
    default_scan_points,
    make_kuramoto,
    mixed_second_derivative_fd,
    node_respecting_transform,
    scan_mixed_derivatives,
    triplet_mixed_derivative,
)

TWO_PI = 2 * np.pi


class BilinearProbe:
    """Tiny test field on one point (N,) or a stack (P, N): component 0 is
    theta_1 * theta_2, the rest zero.  The 4-point stencil is exact on
    bilinear functions."""

    n_nodes = 3

    def __call__(self, theta):
        theta = np.asarray(theta, dtype=float)
        out = np.zeros_like(theta)
        out[..., 0] = theta[..., 1] * theta[..., 2]
        return out


def order1_field(alpha=0.7, n=3, epsilon=0.01, omega=None):
    if omega is None:
        omega = np.zeros(n)
    params = ModelParams(n_nodes=n, omega=omega, epsilon=epsilon)
    return ReducedField(order=1, params=params, coupling=make_kuramoto(alpha))


def test_stencil_exact_on_bilinear():
    probe = BilinearProbe()
    got = mixed_second_derivative_fd(probe, 0, 1, 2, np.zeros(3))
    assert got == pytest.approx(1.0, abs=1e-10)
    # a component with no (j, k) cross term gives exactly zero
    assert mixed_second_derivative_fd(probe, 1, 0, 2, np.zeros(3)) == 0.0


def test_stencil_rejects_repeated_indices():
    probe = BilinearProbe()
    with pytest.raises(ContractError):
        mixed_second_derivative_fd(probe, 0, 0, 2, np.zeros(3))
    with pytest.raises(ContractError):
        mixed_second_derivative_fd(probe, 0, 1, 1, np.zeros(3))
    with pytest.raises(ContractError):
        mixed_second_derivative_fd(probe, 0, 1, 2, np.zeros(3), step=0.0)
    # a step that is no finite real > 0 or whose 4 step^2 is no normal
    # double: 1e-300 would divide by 0, 1e300 by inf
    for step in ("a", None, True, np.nan, np.inf, -1e-3, 1e-300, 1e300):
        with pytest.raises(ContractError, match=re.escape(f"step={step!r}")):
            mixed_second_derivative_fd(probe, 0, 1, 2, np.zeros(3), step=step)
    # a step that some point's theta_j or theta_k absorbs: 1.0 + 1e-154 is
    # 1.0, so that stencil would difference equal points, where 0.0 does not
    points = np.zeros((2, 3))
    points[1, 0] = 1.0  # theta_i is not moved
    assert mixed_second_derivative_fd(probe, 0, 1, 2, points, 1e-154).shape \
        == (2,)
    for m in (1, 2):
        points[1, m] = 1.0
        with pytest.raises(ContractError, match="no theta_1 or theta_2 "
                           "absorbs"):
            mixed_second_derivative_fd(probe, 0, 1, 2, points, 1e-154)
    # distinct but not node indices: (0, 4, -1) would be d^2 F_0 / d theta_4^2
    with pytest.raises(ContractError):
        mixed_second_derivative_fd(order1_field(n=5), 0, 4, -1, np.zeros(5))
    # an index that is no int is the indices' error, checked before the
    # distinctness test would hash it
    with pytest.raises(ContractError, match=re.escape(
            "indices ([0], 1, 2) are not ints or out of range for 3 nodes")):
        mixed_second_derivative_fd(probe, [0], 1, 2, np.zeros(3))
    # non-numeric phases: unchecked, numpy raises ValueError
    with pytest.raises(ContractError, match="non-numeric"):
        mixed_second_derivative_fd(probe, 0, 1, 2, ["a", "b", "c"])
    with pytest.raises(ContractError, match="non-numeric"):
        triplet_mixed_derivative(make_kuramoto(0.5), 0, 1, 2, ["a", "b", "c"])


def test_stack_equals_per_point():
    """A stack (P, N) of points gives, row by row, exactly the one-point
    values, for the FD stencil and for a pushed-forward field."""
    rng = np.random.default_rng(11)
    field = order1_field(n=5, omega=rng.uniform(-1.0, 1.0, 5))
    pushed = PushforwardField(base=field, permutation=(3, 0, 4, 1, 2),
                              shifts=tuple(rng.uniform(0.0, TWO_PI, 5)))
    points = rng.uniform(0.0, TWO_PI, (6, 5))
    assert np.array_equal(pushed(points), [pushed(p) for p in points])
    for f in (field, pushed):
        stacked = mixed_second_derivative_fd(f, 0, 2, 4, points)
        per_point = [mixed_second_derivative_fd(f, 0, 2, 4, p) for p in points]
        assert all(isinstance(v, float) for v in per_point)
        assert stacked.shape == (6,)
        assert np.array_equal(stacked, per_point)


def test_triplet_mixed_derivative_star_value():
    for alpha, theta, value in [
            (0.7, (0.0, np.pi / 2, 0.0), -0.7),
            (0.0, (0.0, np.pi / 2, 0.0), 0.0),  # the anchor value is -alpha
            # the eighth-lattice witness: claim 3 does not rest on alpha != 0
            (0.0, (0.0, 0.0, np.pi / 4), -2.0),
            (0.7, (0.0, 0.0, np.pi / 4), -2.0 - (1.0 - np.sqrt(2.0) / 4.0) * 0.7)]:
        got = triplet_mixed_derivative(make_kuramoto(alpha), 0, 1, 2, np.array(theta))
        assert got == pytest.approx(value, abs=1e-12)


def test_triplet_mixed_derivative_symmetric_in_jk():
    c = make_kuramoto(0.4)
    rng = np.random.default_rng(0)
    theta = rng.uniform(0.0, TWO_PI, 4)
    assert triplet_mixed_derivative(c, 0, 1, 3, theta) == \
        triplet_mixed_derivative(c, 0, 3, 1, theta)


def test_triplet_mixed_derivative_requires_second_order():
    first_only = Coupling(gamma=np.sin,
                          target=lambda u, v: np.cos(u - v),
                          gamma_d1=np.cos,
                          target_du=lambda u, v: -np.sin(u - v),
                          target_dv=lambda u, v: np.sin(u - v))
    with pytest.raises(CapabilityError):
        triplet_mixed_derivative(first_only, 0, 1, 2, np.zeros(3))
    with pytest.raises(ContractError):
        triplet_mixed_derivative(make_kuramoto(0.1), 0, 1, 1, np.zeros(3))
    # one phase vector only, and node indices only
    with pytest.raises(ContractError, match="shape"):
        triplet_mixed_derivative(make_kuramoto(0.1), 0, 1, 2, np.zeros((2, 3)))
    with pytest.raises(ContractError, match="out of range"):
        triplet_mixed_derivative(make_kuramoto(0.1), 0, 1, 3, np.zeros(3))
    with pytest.raises(ContractError, match=re.escape(
            "indices ([0], 1, 2) are not ints or out of range for 3 nodes")):
        triplet_mixed_derivative(make_kuramoto(0.1), [0], 1, 2, np.zeros(3))


@pytest.mark.parametrize("seed", range(8))
def test_analytic_matches_field_fd(seed):
    """The exact triplet mixed derivative times epsilon / N^2 reproduces the
    FD mixed derivative of the corrected field; for zero frequencies the
    triplet double sum is the only source of cross terms."""
    rng = np.random.default_rng(seed)
    n = 4
    field = order1_field(alpha=rng.uniform(0.2, 1.0), n=n,
                         omega=rng.uniform(-1.0, 1.0, n))
    theta = rng.uniform(0.0, TWO_PI, n)
    i, j, k = rng.permutation(n)[:3]
    fd = mixed_second_derivative_fd(field, i, j, k, theta)
    analytic = triplet_mixed_derivative(field.coupling, i, j, k, theta)
    scaled = analytic * field.params.epsilon / n**2
    assert abs(fd - scaled) < 1e-5 * max(1.0, abs(analytic))


def test_fd_value_scales_linearly_in_epsilon():
    theta = np.array([0.2, 1.7, 4.1])
    small = order1_field(epsilon=1e-3)
    large = order1_field(epsilon=1e-2)
    v_small = mixed_second_derivative_fd(small, 0, 1, 2, theta)
    v_large = mixed_second_derivative_fd(large, 0, 1, 2, theta)
    assert v_large / v_small == pytest.approx(10.0, rel=1e-2)


def test_anchor_and_default_points():
    p = anchor_point(4)
    assert p[1] == pytest.approx(np.pi / 2)
    assert p[0] == p[2] == p[3] == 0.0
    with pytest.raises(ContractError):
        anchor_point(2)
    pts = default_scan_points(3, seed=123, n_random=5)
    assert len(pts) == 6
    assert np.array_equal(pts[0], anchor_point(3))
    assert np.array_equal(pts, default_scan_points(3, seed=123, n_random=5))


@pytest.mark.parametrize("call", [
    lambda: anchor_point(3.0),
    lambda: anchor_point(True),
    lambda: default_scan_points(4, n_random=2.0),
    lambda: default_scan_points(4, n_random=-1),
    lambda: default_scan_points(3.0),
    lambda: default_scan_points(3, seed=-1),
    lambda: default_scan_points(3, seed=1.0),
], ids=["float nodes", "bool nodes", "float n_random", "negative n_random",
        "float nodes via default points", "negative seed", "float seed"])
def test_scan_points_reject_non_int_counts(call):
    # unchecked, numpy raises its own TypeError or ValueError on these
    with pytest.raises(ContractError):
        call()


@pytest.mark.parametrize("n, seed", [(3, 1), (5, 20240817), (7, 4), (12, 99)])
def test_default_scan_points_match_per_row_draws(n, seed):
    """One (n_random, N) draw gives the doubles of n_random draws of one
    row each, the stream the certify raw.csv was written from."""
    rng = np.random.default_rng(seed)
    rows = [anchor_point(n)] + [rng.uniform(0.0, TWO_PI, n) for _ in range(7)]
    pts = default_scan_points(n, seed=seed, n_random=7)
    assert pts.shape == (8, n)
    assert np.array_equal(pts, rows)


def test_scan_row_order_is_lexicographic():
    field = order1_field()
    points = [np.zeros(3), anchor_point(3), np.full(3, 2.0)]
    rows = scan_mixed_derivatives(field, points)
    # all ordered triples of 3 nodes, 3 points
    assert rows.shape == (6 * 3, 5)
    keys = [tuple(r[:4]) for r in rows.tolist()]
    assert keys == sorted(keys)
    # column 3 runs over the point indices within each triple
    assert np.array_equal(rows[:, 3].reshape(6, 3), np.tile(np.arange(3), (6, 1)))


def test_certify_order1_on_default_grid():
    report = certify_nonpairwise(order1_field())
    assert report.decision == DECISION_CERTIFIED
    assert abs(report.fd_value) > report.threshold
    assert report.analytic_value is not None
    assert report.noise_floor < 1e-8  # order-0 companion is pairwise
    assert report.threshold == pytest.approx(1e-6)


def recorded_scans(monkeypatch):
    """The points of every scan certify_nonpairwise makes, in order."""
    scans = []

    def recording(field, points, *args):
        scans.append(np.array(points))
        return scan_mixed_derivatives(field, points, *args)
    monkeypatch.setattr(certificate, "scan_mixed_derivatives", recording)
    return scans


def test_certify_order0_is_never_evidence(monkeypatch):
    params = ModelParams(n_nodes=3, omega=np.array([0.3, -0.1, 0.8]),
                         epsilon=0.01)
    field = ReducedField(order=0, params=params, coupling=make_kuramoto(0.7))
    scans = recorded_scans(monkeypatch)
    report = certify_nonpairwise(field)
    assert report.decision == DECISION_NO_EVIDENCE
    assert report.analytic_value is None
    # self-calibration: the companion scanned at the winning point is an
    # order-0 field of the same family, whose rows there are the field's
    # own, so the floor has the bits of the first scan's rows at that point
    points = scans[0]
    g = int(np.flatnonzero((points == report.point).all(1))[0])
    assert [s.shape for s in scans] == [points.shape, (1, 3)]
    rows = scan_mixed_derivatives(field, points)
    assert report.noise_floor == np.abs(rows[rows[:, 3] == g, 4]).max()
    assert abs(report.fd_value) <= report.noise_floor


@pytest.mark.parametrize("kind", ["order1", "phase_lag", "pushforward"])
def test_noise_floor_is_the_companion_at_the_winning_point(monkeypatch, kind):
    # the companion is scanned at the winner's point alone, and by the
    # scan's row-locality its largest |value| there has the bits of the
    # rows at that point of a full companion scan
    field = scan_field(kind, 5)
    points = default_scan_points(5, seed=5, n_random=10)
    scans = recorded_scans(monkeypatch)
    report = certify_nonpairwise(field, points)
    g = int(np.flatnonzero((points == report.point).all(1))[0])
    assert [s.shape for s in scans] == [points.shape, (1, 5)]
    assert np.array_equal(scans[1], points[g:g + 1])
    rows = scan_mixed_derivatives(certificate._pairwise_reference(field),
                                  points)
    assert report.noise_floor == np.abs(rows[rows[:, 3] == g, 4]).max()
    assert report.threshold == max(10.0 * report.noise_floor,
                                   certificate.MIN_THRESHOLD)


def test_a_field_without_companion_has_no_noise_floor():
    pushed = PushforwardField(base=BilinearProbe(), permutation=(2, 0, 1),
                              shifts=(0.1, 0.2, 0.3))
    assert certificate._pairwise_reference(pushed) is None
    report = certify_nonpairwise(pushed)
    assert report.noise_floor == 0.0
    assert report.threshold == certificate.MIN_THRESHOLD


def test_certify_on_synchronized_grid_finds_nothing():
    # every scan point fully synchronized: all triplet cross terms vanish
    # there, so even the corrected field yields no evidence
    sync = [np.zeros(3), np.full(3, 1.0), np.full(3, 4.0)]
    report = certify_nonpairwise(order1_field(), points=sync)
    assert report.decision == DECISION_NO_EVIDENCE
    assert abs(report.fd_value) < 1e-8


def test_certify_zero_additive_constant_still_certifies():
    # killing the constant part of the target does not make the field
    # pairwise: the triplet terms survive through the cosine part
    report = certify_nonpairwise(order1_field(alpha=0.0))
    assert report.decision == DECISION_CERTIFIED


def test_certify_needs_three_nodes():
    params = ModelParams(n_nodes=2, omega=np.zeros(2), epsilon=0.01)
    field = ReducedField(order=1, params=params, coupling=make_kuramoto(0.5))
    with pytest.raises(ContractError):
        certify_nonpairwise(field)


@pytest.mark.parametrize("n", [1, 2])
def test_scan_of_fewer_than_three_nodes_is_empty(n):
    # no triple of distinct nodes: the (T * P, 5) table with T = 0, and
    # no field call
    params = ModelParams(n_nodes=n, omega=np.zeros(n), epsilon=0.01)
    counting = CountingField(ReducedField(order=1, params=params,
                                          coupling=make_kuramoto(0.5)))
    rows = scan_mixed_derivatives(counting, np.zeros((2, n)))
    assert rows.shape == (0, 5)
    assert counting.calls == 0


def test_certify_empty_points_rejected():
    with pytest.raises(ContractError):
        certify_nonpairwise(order1_field(), points=[])
    # one phase vector is not a stack of points
    with pytest.raises(ContractError, match="stack"):
        certify_nonpairwise(order1_field(), points=anchor_point(3))
    with pytest.raises(ContractError, match="stack"):
        scan_mixed_derivatives(order1_field(), np.zeros(3))
    # points of another node count are the points' error, not the indices'
    with pytest.raises(ContractError, match=re.escape(
            "points must be a (P >= 1, 3) stack, got (2, 2)")):
        certify_nonpairwise(order1_field(), points=np.zeros((2, 2)))


class OverflowingProbe:
    """Component 2 is inf where theta_0 + theta_1 > 1.0015, which at the
    default step h = 1e-3 the stencil stack theta + h e_0 + h e_1 alone
    reaches from theta_0 + theta_1 = 1; zero elsewhere."""

    n_nodes = 3

    def __call__(self, theta):
        out = np.zeros_like(theta)
        out[..., 2] = np.where(theta[..., 0] + theta[..., 1] > 1.0015,
                               np.inf, 0.0)
        return out


def test_a_non_finite_scan_value_is_refused():
    points = np.array([[0.0, 0.0, 0.0], [0.5, 0.5, 0.0]])
    message = re.escape("the FD value of triple (2, 0, 1) at point 1 is "
                        "not finite: inf")
    with pytest.raises(ContractError, match=message):
        scan_mixed_derivatives(OverflowingProbe(), points)
    # certify decides on no nan: it raises before it returns a report
    with pytest.raises(ContractError, match=message):
        certify_nonpairwise(OverflowingProbe(), points)


@pytest.mark.parametrize("call", [
    lambda: certify_nonpairwise(None),
    lambda: scan_mixed_derivatives(None, np.zeros((1, 3))),
    lambda: PushforwardField(base=None, permutation=(0, 1, 2),
                             shifts=(0.0, 0.0, 0.0))])
def test_entry_points_reject_a_non_field(call):
    with pytest.raises(ContractError, match="field must be a callable phase "
                       "field with an int n_nodes, got None"):
        call()


def test_certify_rejects_non_finite_points():
    # one NaN or inf phase would make every stencil through it, the noise
    # floor and the threshold NaN, and the decision a silent NoEvidence
    for bad in (np.nan, np.inf, -np.inf):
        points = default_scan_points(5, n_random=4)
        points[2, 3] = bad
        with pytest.raises(ContractError, match="finite"):
            certify_nonpairwise(order1_field(n=5), points=points)
    with pytest.raises(ContractError, match="non-numeric points"):
        certify_nonpairwise(order1_field(n=3), points=[["a", "b", "c"]])


class CountingField:
    """Wraps a field and counts the calls it gets and the points they hold."""

    def __init__(self, field):
        self.field = field
        self.n_nodes = field.n_nodes
        self.calls = self.rows = 0

    def __call__(self, theta):
        self.calls += 1
        self.rows += len(np.atleast_2d(theta))
        return self.field(theta)


def scan_field(kind, n):
    rng = np.random.default_rng(n)
    params = ModelParams(n_nodes=n, omega=rng.uniform(-1.0, 1.0, n),
                         epsilon=0.01)
    if kind == "phase_lag":
        # gamma(phi) = sin(phi - a), target(u, v) = -sin(u - v + b)
        a, b = 0.3, 1.1
        coupling = Coupling(gamma=lambda phi: np.sin(phi - a),
                            target=lambda u, v: -np.sin(u - v + b),
                            gamma_d1=lambda phi: np.cos(phi - a),
                            target_du=lambda u, v: -np.cos(u - v + b),
                            target_dv=lambda u, v: np.cos(u - v + b))
        return ReducedField(order=1, params=params, coupling=coupling)
    order = 0 if kind == "order0" else 1
    field = ReducedField(order=order, params=params,
                         coupling=make_kuramoto(0.7))
    if kind == "pushforward":
        field = PushforwardField(base=field,
                                 permutation=tuple(rng.permutation(n)),
                                 shifts=tuple(rng.uniform(0.0, TWO_PI, n)))
    return field


@pytest.mark.parametrize("n", [3, 5, 7])
@pytest.mark.parametrize("kind", ["order0", "order1", "phase_lag", "pushforward"])
def test_shared_scan_equals_per_triple_stencils(kind, n):
    """The scan evaluates each of the 4 N(N - 1) / 2 distinct stencil stacks
    once, in one field call per node pair, and every row is bit for bit the
    stencil of its own triple on the bare field."""
    field = scan_field(kind, n)
    points = default_scan_points(n, seed=n, n_random=10)
    counting = CountingField(field)
    rows = scan_mixed_derivatives(counting, points)
    assert counting.calls == n * (n - 1) // 2
    assert counting.rows == 4 * n * (n - 1) // 2 * len(points)
    triples = list(itertools.permutations(range(n), 3))
    expected = [mixed_second_derivative_fd(field, i, j, k, points)
                for i, j, k in triples]
    assert np.array_equal(rows[:, :3], np.repeat(triples, len(points), axis=0))
    assert np.array_equal(rows[:, 4], np.concatenate(expected))
    if kind != "order0":  # order 0 is pairwise: round-off only
        assert np.abs(rows[:, 4]).max() > 1e-6


class StackSizeProbe:
    """Component 0 is theta_1 * theta_2 times the number of rows in the
    stack it is called with: a field whose value at a point depends on the
    rest of its stack, against the scan's contract."""

    n_nodes = 3

    def __call__(self, theta):
        theta = np.asarray(theta, dtype=float)
        out = np.zeros_like(theta)
        out[..., 0] = theta[..., 1] * theta[..., 2] * len(theta)
        return out


def test_certify_confirms_the_winner_by_its_own_stencil():
    # a step of 2^-7 keeps the stencil exact: the scan's stack holds 4 * 2
    # rows, the single-point stencil's 3 phases
    points = np.array([[0.0, 1.0, 2.0], [0.5, 0.5, 0.5]])
    with pytest.raises(ContractError, match=re.escape(
            "triple (0, 1, 2) at point 0 is 8.0 in the scan but 3.0 by its "
            "own stencil: a field's row must not depend on its stack")):
        certify_nonpairwise(StackSizeProbe(), points=points, fd_step=2.0 ** -7)


@pytest.mark.parametrize("point, fd_step, triple", [
    ((0.0, 0.0, 0.0), 1e-300, (0, 1, 2)),  # 4 step^2 underflows
    ((1e20, 0.5, 0.5), 1e-3, (1, 0, 2))])  # theta_0 absorbs the step
def test_scan_refuses_a_collapsing_step_before_any_field_call(point, fd_step,
                                                              triple):
    # the stencil's own message for the first triple in row order that the
    # step collapses, raised before the scan calls the field
    _, j, k = triple
    message = re.escape(f"step={fd_step!r} must be a finite real > 0 with 4 "
                        f"step^2 a normal double that no theta_{j} or "
                        f"theta_{k} absorbs")
    counting = CountingField(BilinearProbe())
    with pytest.raises(ContractError, match=message):
        scan_mixed_derivatives(counting, [point], fd_step)
    assert counting.calls == 0
    with pytest.raises(ContractError, match=message):
        mixed_second_derivative_fd(counting, *triple, [point], fd_step)


def test_certify_tie_resolves_to_first_candidate():
    # d^2 F_0 / (d theta_1 d theta_2) is exactly 1 for (0, 1, 2) and
    # (0, 2, 1) at both points, so four candidates tie for the maximum
    points = [np.zeros(3), np.array([5.0, 0.0, 0.0])]
    rows = scan_mixed_derivatives(BilinearProbe(), points)
    assert np.count_nonzero(np.abs(rows[:, 4]) == 1.0) == 4
    report = certify_nonpairwise(BilinearProbe(), points=points)
    assert report.decision == DECISION_CERTIFIED
    assert report.index_triple == (0, 1, 2)
    assert np.array_equal(report.point, points[0])
    assert report.fd_value == 1.0


# ---------------------------------------------------------------------------
# shift-and-permute transport


def test_node_respecting_transform_examples():
    theta = np.array([0.5, 1.5, 2.5])
    same = node_respecting_transform(theta, [0, 1, 2], np.zeros(3))
    assert np.allclose(same, theta)
    rotated = node_respecting_transform(theta, [1, 2, 0], np.zeros(3))
    assert np.allclose(rotated, [1.5, 2.5, 0.5])
    shifted = node_respecting_transform(theta, [0, 1, 2], np.full(3, TWO_PI))
    assert np.max(np.abs(shifted - theta)) < 1e-12


def test_node_respecting_transform_validation():
    theta = np.zeros(3)
    with pytest.raises(ContractError):
        node_respecting_transform(theta, [0, 1, 1], np.zeros(3))
    with pytest.raises(ContractError):
        node_respecting_transform(theta, [0, 1, 2], np.zeros(4))
    with pytest.raises(ContractError):
        node_respecting_transform(theta, [0, 1, 2], np.array([0.0, np.inf, 0.0]))
    with pytest.raises(ContractError, match="non-numeric phases"):
        node_respecting_transform(["a", "b", "c"], [0, 1, 2], np.zeros(3))
    with pytest.raises(ContractError, match="non-numeric shifts"):
        node_respecting_transform(theta, [0, 1, 2], ["a", "b", "c"])


def test_pushforward_pure_permutation_values():
    field = order1_field(omega=np.array([0.1, -0.2, 0.5]))
    perm = (2, 0, 1)
    pushed = PushforwardField(base=field, permutation=perm, shifts=(0.0,) * 3)
    theta = np.array([0.3, 1.1, 5.0])
    y = node_respecting_transform(theta, perm, np.zeros(3))
    got = pushed(y)
    want = field(theta)[list(perm)]
    assert np.max(np.abs(got - want)) < 1e-14


def transported_fd(field, permutation, shifts, point, triple):
    """The FD mixed derivative at (triple, point) before and after a
    shift-and-permute pushforward: after is taken on the pushed field at
    the triple relabeled by the inverse permutation and the moved point."""
    i, j, k = triple
    pushed = PushforwardField(base=field, permutation=permutation,
                              shifts=shifts)
    inv = np.argsort(permutation)
    moved_point = node_respecting_transform(point, permutation, shifts)
    after = mixed_second_derivative_fd(
        pushed, int(inv[i]), int(inv[j]), int(inv[k]), moved_point)
    return mixed_second_derivative_fd(field, i, j, k, point), after


def test_pushforward_identity_is_exact():
    field = order1_field()
    before, after = transported_fd(
        field, (0, 1, 2), np.zeros(3), anchor_point(3), (0, 1, 2))
    assert before == after


def test_pushforward_global_shift_preserves_fd():
    field = order1_field(omega=np.array([0.4, 0.0, -0.3]))
    before, after = transported_fd(
        field, (0, 1, 2), np.full(3, 1.0), anchor_point(3), (0, 1, 2))
    assert abs(before - after) < 1e-6
    assert abs(before) > 1e-5  # the compared value is not trivially zero


def test_pushforward_permutation_preserves_fd():
    field = order1_field(omega=np.array([0.4, 0.0, -0.3]))
    rng = np.random.default_rng(9)
    point = rng.uniform(0.0, TWO_PI, 3)
    before, after = transported_fd(
        field, (1, 2, 0), rng.uniform(0.0, TWO_PI, 3), point, (0, 1, 2))
    assert abs(before - after) < 1e-6


def test_pushforward_of_pairwise_field_stays_silent():
    params = ModelParams(n_nodes=3, omega=np.array([0.2, 0.5, -0.1]),
                         epsilon=0.01)
    base = ReducedField(order=0, params=params, coupling=make_kuramoto(0.6))
    before, after = transported_fd(
        base, (2, 1, 0), np.array([0.3, 2.0, 4.4]), anchor_point(3), (0, 1, 2))
    assert abs(before) < 1e-8
    assert abs(after) < 1e-8


def test_pushforward_validation():
    field = order1_field()
    with pytest.raises(ContractError):
        PushforwardField(base=field, permutation=(0, 1), shifts=(0.0, 0.0))
    with pytest.raises(ContractError):
        PushforwardField(base=field, permutation=(0, 1, 1), shifts=(0.0,) * 3)
    with pytest.raises(ContractError, match="shifts length"):
        PushforwardField(base=field, permutation=(1, 2, 0), shifts=(0.0,) * 2)
    with pytest.raises(ContractError, match="non-numeric shifts"):
        PushforwardField(base=field, permutation=(1, 2, 0),
                         shifts=["a", "b", "c"])
    pushed = PushforwardField(base=field, permutation=(1, 2, 0),
                              shifts=(0.0,) * 3)
    assert pushed.permutation == (1, 2, 0)
    assert PushforwardField(base=field, permutation=np.array([2, 0, 1]),
                            shifts=(0.0,) * 3).permutation == (2, 0, 1)
    with pytest.raises(ContractError):
        pushed(np.zeros(4))
    with pytest.raises(ContractError):
        pushed(np.zeros((2, 2)))
    with pytest.raises(ContractError, match="non-numeric"):
        pushed(["a", "b", "c"])


@pytest.mark.parametrize("perm", [
    (0.5, 1, 2), [True, False, 2], np.array([1.0, 0.0, 2.0]),
    np.array([True, False, True]), 1, [[0, 1, 2]],
], ids=["float", "bool", "float array", "bool array", "scalar", "2-d"])
def test_permutation_entries_must_be_ints(perm):
    """A permutation entry that is not an int is refused, not cast: as ints
    (0.5, 1, 2) would pass as the identity and [True, False, 2] as
    (1, 0, 2)."""
    with pytest.raises(ContractError, match="ints"):
        PushforwardField(base=order1_field(), permutation=perm,
                         shifts=(0.0,) * 3)
    with pytest.raises(ContractError, match="ints"):
        node_respecting_transform(np.array([0.1, 0.2, 0.3]), perm,
                                  np.zeros(3))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_pushforward_rejects_nonfinite_shifts(bad):
    # unchecked, such a field returns all-NaN values, and a certificate on
    # it a quiet NoEvidence
    with pytest.raises(ContractError, match="finite"):
        PushforwardField(base=order1_field(), permutation=(1, 2, 0),
                         shifts=(0.0, bad, 0.0))


def test_certified_decision_transports_through_pushforward():
    field = order1_field(omega=np.array([0.4, 0.0, -0.3]))
    pushed = PushforwardField(base=field, permutation=(1, 2, 0),
                              shifts=(0.5, 1.5, 2.5))
    plain = certify_nonpairwise(field)
    moved = certify_nonpairwise(pushed)
    assert plain.decision == moved.decision == DECISION_CERTIFIED


def test_epsilon_replacement_keeps_decision():
    field = order1_field()
    shrunk = dataclasses.replace(
        field, params=dataclasses.replace(field.params, epsilon=1e-3))
    report = certify_nonpairwise(shrunk)
    assert report.decision == DECISION_CERTIFIED
