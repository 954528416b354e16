from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from fastslow import (
    CapabilityError,
    ContractError,
    Coupling,
    FullState,
    IntegrationConfig,
    ModelParams,
    ReducedField,
    critical_weights,
    distance_to_slow_manifold,
    integrate_full,
    make_kuramoto,
    mixed_second_derivative_fd,
    pair_correction,
    phase_rhs,
    slow_manifold,
    triplet_interaction,
    triplet_mixed_derivative,
    weight_correction,
    weight_rhs,
)
from fastslow.fields import _Core

TWO_PI = 2 * np.pi


def skewed_coupling(a=0.4, b=0.6, lag=0.3):
    """Non-Kuramoto coupling with closed-form first derivatives: a phase-lag
    gamma and a target that is not symmetric in its two slots."""
    return Coupling(
        gamma=lambda phi: np.sin(phi + lag),
        gamma_d1=lambda phi: np.cos(phi + lag),
        target=lambda u, v: a + np.cos(u - v) + b * np.sin(u),
        target_du=lambda u, v: -np.sin(u - v) + b * np.cos(u),
        target_dv=lambda u, v: np.sin(u - v))


def random_setup(seed, n=4, alpha=0.7, epsilon=0.01, coupling=None):
    rng = np.random.default_rng(seed)
    params = ModelParams(n_nodes=n, omega=rng.uniform(-1.0, 1.0, n),
                         epsilon=epsilon)
    coupling = make_kuramoto(alpha) if coupling is None else coupling
    theta = rng.uniform(0.0, TWO_PI, n)
    weights = rng.normal(size=(n, n))
    return params, coupling, theta, weights


# ---------------------------------------------------------------------------
# naive-loop oracles: every vectorized field must agree with a direct
# transcription of the sums


def naive_phase_rhs(params, coupling, theta, weights):
    n = params.n_nodes
    out = np.empty(n)
    for i in range(n):
        acc = 0.0
        for j in range(n):
            acc += weights[i, j] * coupling.gamma(theta[j] - theta[i])
        out[i] = params.omega[i] + acc / n
    return out


def naive_weight_rhs(coupling, theta, weights):
    n = theta.size
    out = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            out[i, j] = -weights[i, j] + coupling.target(theta[i], theta[j])
    return out


def naive_reduced(field, theta):
    p, c = field.params, field.coupling
    n = p.n_nodes
    w0 = critical_weights(c, theta)
    out = np.empty(n)
    for i in range(n):
        base = p.omega[i]
        for j in range(n):
            base += w0[i, j] * c.gamma(theta[j] - theta[i]) / n
        if field.order == 0:
            out[i] = base
            continue
        pair_sum = 0.0
        for j in range(n):
            pair_sum += pair_correction(p, c, i, j, theta)
        trip_sum = 0.0
        for j in range(n):
            for k in range(n):
                trip_sum += triplet_interaction(c, i, j, k, theta)
        out[i] = base + p.epsilon * pair_sum / n + p.epsilon * trip_sum / n**2
    return out


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_phase_rhs_matches_naive(seed):
    params, coupling, theta, weights = random_setup(seed)
    got = phase_rhs(params, coupling, theta, weights)
    want = naive_phase_rhs(params, coupling, theta, weights)
    assert np.max(np.abs(got - want)) < 1e-14


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_weight_rhs_matches_naive(seed):
    params, coupling, theta, weights = random_setup(seed)
    got = weight_rhs(coupling, theta, weights)
    want = naive_weight_rhs(coupling, theta, weights)
    assert np.max(np.abs(got - want)) < 1e-14


@pytest.mark.parametrize("order", [0, 1])
@pytest.mark.parametrize("seed", [3, 4])
def test_reduced_field_matches_naive(order, seed):
    """The field, phase_rhs on the slow manifold, equals its expansion into
    pair and triplet terms, for Kuramoto and for a coupling whose target is
    not symmetric."""
    for n in (3, 5, 8):
        for coupling in (make_kuramoto(0.7), skewed_coupling()):
            params, coupling, theta, _ = random_setup(seed, n=n,
                                                      coupling=coupling)
            field = ReducedField(order=order, params=params, coupling=coupling)
            got = field(theta)
            want = naive_reduced(field, theta)
            assert np.max(np.abs(got - want)) < 1e-13, (n, coupling)


def test_phase_rhs_two_node_by_hand():
    # N=2, w = [[0, 1], [1, 0]], theta = (0, pi/2), omega = 0:
    # node 0 sees sin(pi/2)/2 = 0.5, node 1 sees sin(-pi/2)/2 = -0.5
    params = ModelParams(n_nodes=2, omega=np.zeros(2), epsilon=0.1)
    c = make_kuramoto(0.0)
    theta = np.array([0.0, np.pi / 2])
    w = np.array([[0.0, 1.0], [1.0, 0.0]])
    got = phase_rhs(params, c, theta, w)
    assert np.allclose(got, [0.5, -0.5], atol=1e-15)


@st.composite
def phase_stacks(draw):
    """Params plus a stack of 1-6 phase vectors and matching weights."""
    n = draw(st.integers(3, 8))
    p = draw(st.integers(1, 6))
    omega = draw(hnp.arrays(float, n, elements=st.floats(-1.0, 1.0)))
    thetas = draw(hnp.arrays(float, (p, n), elements=st.floats(0.0, TWO_PI)))
    weights = draw(hnp.arrays(float, (p, n, n), elements=st.floats(-2.0, 2.0)))
    return ModelParams(n_nodes=n, omega=omega, epsilon=0.01), thetas, weights


@settings(max_examples=30, deadline=None)
@given(phase_stacks())
def test_stack_equals_per_point(stack):
    """On a stack (P, N) every field function returns, row by row, exactly
    what it returns for that row alone."""
    params, thetas, weights = stack
    for coupling in (make_kuramoto(0.7), skewed_coupling()):
        cases = [(partial(phase_rhs, params, coupling), (thetas, weights)),
                 (partial(weight_rhs, coupling), (thetas, weights)),
                 (partial(critical_weights, coupling), (thetas,))]
        for order in (0, 1):
            cases.append((partial(slow_manifold, params, coupling, order=order),
                          (thetas,)))
            cases.append((ReducedField(order=order, params=params,
                                       coupling=coupling), (thetas,)))
        for fn, args in cases:
            per_point = np.array([fn(*row) for row in zip(*args)])
            assert np.array_equal(fn(*args), per_point), (fn, coupling)


# ---------------------------------------------------------------------------
# critical surface and its first correction


def test_weight_rhs_vanishes_on_critical_surface():
    params, coupling, theta, _ = random_setup(6)
    w0 = critical_weights(coupling, theta)
    assert np.max(np.abs(weight_rhs(coupling, theta, w0))) < 1e-14


def test_critical_weights_values():
    c = make_kuramoto(0.7)
    theta = np.array([0.0, np.pi / 2])
    w0 = critical_weights(c, theta)
    assert w0[0, 0] == pytest.approx(1.7)
    assert w0[0, 1] == pytest.approx(0.7)  # cos(-pi/2) = 0
    assert w0[1, 0] == pytest.approx(0.7)


def test_weight_correction_hand_case():
    # N=2, alpha=1, omega=(1,0), theta=(0,pi/2).
    # Drift on the surface: f = (1 + 0.5*sin(pi/2)*h00? ...) worked out
    # directly: f = (1.5, -0.5); correction[0,1] =
    # -(du*f0 + dv*f1) = -(-sin(-pi/2)*1.5 + sin(-pi/2)*(-0.5)) = -2.
    params = ModelParams(n_nodes=2, omega=np.array([1.0, 0.0]), epsilon=0.01)
    c = make_kuramoto(1.0)
    theta = np.array([0.0, np.pi / 2])
    h1 = weight_correction(params, c, theta)
    assert h1[0, 1] == pytest.approx(-2.0, abs=1e-14)


def fd_weight_correction(params, coupling, theta, step=1e-6):
    """Independent oracle: minus the Jacobian of the critical surface
    contracted with the on-surface drift, each column by central FD."""
    f = phase_rhs(params, coupling, theta,
                  critical_weights(coupling, theta))
    n = theta.size
    out = np.zeros((n, n))
    for m in range(n):
        bumped = theta.copy()
        bumped[m] += step
        hi = critical_weights(coupling, bumped)
        bumped[m] -= 2 * step
        lo = critical_weights(coupling, bumped)
        out -= (hi - lo) / (2 * step) * f[m]
    return out


@pytest.mark.parametrize("seed", range(6))
def test_weight_correction_matches_fd_oracle(seed):
    params, coupling, theta, _ = random_setup(seed, n=4)
    got = weight_correction(params, coupling, theta)
    want = fd_weight_correction(params, coupling, theta)
    assert np.max(np.abs(got - want)) < 1e-6


def test_correction_term_decomposition():
    # The full corrected-surface contribution h1_ij * gamma_ij splits into
    # the frequency-driven pair term plus the mean of the triplet terms
    # over the third index; this is the identity behind
    # test_order1_equals_substitution.
    params, coupling, theta, _ = random_setup(7, n=4)
    n = params.n_nodes
    h1 = weight_correction(params, coupling, theta)
    g = coupling.gamma(theta[None, :] - theta[:, None])
    for i in range(n):
        for j in range(n):
            trip_mean = sum(triplet_interaction(coupling, i, j, k, theta)
                            for k in range(n)) / n
            want = pair_correction(params, coupling, i, j, theta) + trip_mean
            assert h1[i, j] * g[i, j] == pytest.approx(want, abs=1e-13)


def test_oracles_take_one_phase_vector():
    """The scalar oracles reject a stack of phase vectors and indices that
    are not node indices."""
    params, coupling, theta, _ = random_setup(12, n=4)
    stack = np.stack([theta, theta + 0.5])
    for bad in (stack, theta[0]):
        with pytest.raises(ContractError, match="shape"):
            pair_correction(params, coupling, 0, 1, bad)
        with pytest.raises(ContractError, match="shape"):
            triplet_interaction(coupling, 0, 1, 2, bad)
    with pytest.raises(ContractError, match="out of range"):
        pair_correction(params, coupling, 0, 4, theta)
    with pytest.raises(ContractError, match="out of range"):
        triplet_interaction(coupling, -1, 1, 2, theta)


@pytest.mark.parametrize("index", [True, np.True_, 1.0, np.float64(1.0)],
                         ids=["bool", "numpy bool", "float", "numpy float"])
def test_node_indices_must_be_ints(index):
    """A bool would pass the range check (0 <= True < N) and, as an index,
    add an axis; a float would raise IndexError.  Both are contract errors,
    while a numpy integer is a node index like any int."""
    params, coupling, theta, _ = random_setup(12, n=4)
    field = ReducedField(order=1, params=params, coupling=coupling)
    for call in (lambda i: pair_correction(params, coupling, i, 0, theta),
                 lambda i: triplet_interaction(coupling, i, 0, 2, theta),
                 lambda i: triplet_mixed_derivative(coupling, i, 0, 2, theta),
                 lambda i: mixed_second_derivative_fd(field, i, 0, 2, theta)):
        with pytest.raises(ContractError, match="not ints"):
            call(index)
        assert call(np.int64(1)) == call(1)


def test_triplet_interaction_star_value():
    # theta = (0, pi/2, 0), alpha = 0.7, indices (0, 1, 2): the first
    # summand dies because gamma(theta_k - theta_i) = sin(0) = 0 and the
    # second is -(1 * (-1) * 0.7 * (-1)) = -alpha
    c = make_kuramoto(0.7)
    theta = np.array([0.0, np.pi / 2, 0.0])
    val = triplet_interaction(c, 0, 1, 2, theta)
    assert val == pytest.approx(-0.7, abs=1e-15)
    # the defining product, written out once as an anchor:
    want = -c.gamma(theta[1] - theta[0]) * c.target_du(theta[0], theta[1]) \
        * c.target(theta[0], theta[2]) * c.gamma(theta[2] - theta[0]) \
        - c.gamma(theta[1] - theta[0]) * c.target_dv(theta[0], theta[1]) \
        * c.target(theta[1], theta[2]) * c.gamma(theta[2] - theta[1])
    assert val == pytest.approx(want, abs=1e-15)


# ---------------------------------------------------------------------------
# reduced field structure


def test_order0_equals_surface_drift():
    params, coupling, theta, _ = random_setup(8, n=5)
    field = ReducedField(order=0, params=params, coupling=coupling)
    w0 = critical_weights(coupling, theta)
    assert np.array_equal(slow_manifold(params, coupling, theta, order=0), w0)
    assert np.array_equal(field(theta),
                          phase_rhs(params, coupling, theta, w0))


def test_order1_is_affine_in_epsilon():
    base, coupling, theta, _ = random_setup(9, n=5)
    import dataclasses
    f0 = ReducedField(order=0, params=base, coupling=coupling)(theta)
    eps1 = ReducedField(order=1, params=base, coupling=coupling)(theta)
    doubled = dataclasses.replace(base, epsilon=2 * base.epsilon)
    eps2 = ReducedField(order=1, params=doubled, coupling=coupling)(theta)
    ratio = (eps2 - f0) / (eps1 - f0)
    assert np.max(np.abs(ratio - 2.0)) < 1e-12


def test_order1_equals_substitution():
    """Evaluating the frozen-weight drift on the corrected surface
    reproduces the first-order field to rounding; the two routes are
    algebraically identical for this model family."""
    for seed in range(5):
        params, coupling, theta, _ = random_setup(seed, n=5)
        field = ReducedField(order=1, params=params, coupling=coupling)
        w = critical_weights(coupling, theta) \
            + params.epsilon * weight_correction(params, coupling, theta)
        assert np.array_equal(slow_manifold(params, coupling, theta), w)
        direct = field(theta)
        substituted = phase_rhs(params, coupling, theta, w)
        scale = max(1.0, np.max(np.abs(direct)))
        assert np.max(np.abs(direct - substituted)) < 1e-13 * scale


def counting_coupling(base, counts, difference_slots=(), seen=None):
    """A Coupling whose slots call those of ``base`` and tally each call,
    by slot name, in ``counts``; it also has the ``difference_slots`` of
    the target's difference form, from ``base``, a KuramotoCoupling.  A
    ``seen`` dict gets each slot's last (args, result) by name."""
    def counted(name):
        fn = getattr(base, name)

        def call(*args):
            counts[name] = counts.get(name, 0) + 1
            out = fn(*args)
            if seen is not None:
                seen[name] = args, out
            return out
        return call
    return Coupling(**{name: counted(name) for name in
                       ("gamma", "gamma_d1", "target", "target_du",
                        "target_dv") + difference_slots})


@pytest.mark.parametrize("case, want", [
    ("full", {"gamma": 1, "target": 1}),
    ("order0", {"gamma": 1, "target": 1}),
    ("order1", {"gamma": 1, "target": 1, "target_du": 1, "target_dv": 1}),
    ("difference form full", {"gamma": 1, "target_diff": 1}),
    ("difference form order0", {"gamma": 1, "target_diff": 1}),
    ("difference form order1", {"gamma": 1, "target_diff": 1,
                                "target_diff_d1": 1}),
    ("target_diff alone order1", {"gamma": 1, "target": 1, "target_du": 1,
                                  "target_dv": 1}),
])
def test_one_coupling_evaluation_per_call(case, want):
    """The full-system rhs and the reduced fields evaluate each coupling
    slot they need once per call: gamma and target are shared between the
    phase equation, the weight equation and the surface.  A coupling with
    a difference form is evaluated through it alone, both partials from
    one target_diff_d1, which is handed the very array gamma returned, and
    never through target(u, v) or its partials; the two difference slots
    go together, so target_diff alone is unused."""
    params, base, theta, _ = random_setup(13, n=5)
    counts, seen = {}, {}
    slots = ("target_diff", "target_diff_d1") if case.startswith("difference") \
        else ("target_diff",) if case.startswith("target_diff") else ()
    coupling = counting_coupling(base, counts, slots, seen)
    if case.endswith("full"):
        state = FullState(theta=theta, weights=critical_weights(base, theta))
        # one RK4 step calls the rhs four times
        integrate_full(params, coupling, state,
                       IntegrationConfig(params.epsilon / 20, 1))
        calls = 4
    else:
        field = ReducedField(order=int(case[-1]), params=params,
                             coupling=coupling)
        field(theta)
        calls = 1
    assert {k: v / calls for k, v in counts.items()} == want
    if "target_diff_d1" in want:
        assert seen["target_diff_d1"][0][1] is seen["gamma"][1]


def parent_terms(core, theta, y=None):
    """_Core.terms at order 1 as it was written with a one-argument
    target_diff_d1: the Kuramoto partial 0.0 - sin(phi) of its own sine,
    du = -dv, and h1 = -(du f_i + dv f_j) through np.empty."""
    c, phi = core.coupling, theta[..., None, :] - theta[..., :, None]
    g = c.gamma(phi)
    if core.diff:
        w0 = c.target_diff(phi)
        dv = 0.0 - np.sin(phi)
        du = -dv
    else:
        u, v = theta[..., :, None], theta[..., None, :]
        w0 = c.target(u, v)
        du, dv = c.target_du(u, v), c.target_dv(u, v)
    f = core.phase(w0 if y is None else w0 + y, g)
    h1 = np.multiply(du, f[..., :, None],
                     out=np.empty(theta.shape + theta.shape[-1:]))
    h1 += dv * f[..., None, :]
    return g, w0, f, np.negative(h1, out=h1)


@pytest.mark.parametrize("kind", ["difference form", "uv slots"])
@pytest.mark.parametrize("with_y", [False, True])
def test_order1_terms_keep_the_bits_of_the_du_formula(kind, with_y):
    """_Core.terms builds h1 as dv f_j, then minus dv f_i (difference form)
    or plus du f_i, then negated: every one of its four outputs has the
    bits of the du = -dv formula, on stacks with coincident phases (phi =
    +0 and -0 on and off the diagonal), rows where f has exact zeros, and
    random rows."""
    rng = np.random.default_rng(31)
    params = ModelParams(n_nodes=4, omega=np.array([0.0, -0.0, 0.4, -0.3]),
                         epsilon=0.01)
    coupling = make_kuramoto(0.7) if kind == "difference form" \
        else skewed_coupling()
    theta = np.vstack([
        np.zeros(4), [0.0, -0.0, 0.0, -0.0], [-0.0, -0.0, -0.0, -0.0],
        [0.0, -0.0, np.pi, -np.pi], [1.3, 1.3, -0.0, 2.5],
        rng.uniform(-TWO_PI, TWO_PI, (6, 4))])
    y = rng.normal(size=theta.shape + (4,)) if with_y else None
    core = _Core(params, coupling, 1)
    got, want = core.terms(theta, y), parent_terms(core, theta, y)
    if not with_y and kind == "difference form":
        assert np.count_nonzero(want[2] == 0) >= 6
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("case, want", [
    ("phase_rhs", {"gamma": 1}),
    ("slow_manifold order 0", {"target": 1}),
])
def test_each_coupling_slot_is_evaluated_on_first_use(case, want):
    """A public field evaluates only the slots it uses: phase_rhs takes the
    weights it is given, so it never evaluates target, and the order-0
    surface is target alone, so it never evaluates gamma."""
    params, base, theta, weights = random_setup(17, n=5)
    counts = {}
    coupling = counting_coupling(base, counts)
    if case == "phase_rhs":
        got = phase_rhs(params, coupling, theta, weights)
        assert np.array_equal(got, phase_rhs(params, base, theta, weights))
    else:
        got = slow_manifold(params, coupling, theta, order=0)
        assert np.array_equal(got, critical_weights(base, theta))
    assert counts == want


def test_rotational_equivariance():
    # adding a common constant to every phase leaves both orders unchanged
    params, coupling, theta, _ = random_setup(10, n=5)
    for order in (0, 1):
        field = ReducedField(order=order, params=params, coupling=coupling)
        for shift in (0.3, np.pi, 5.0):
            assert np.max(np.abs(field(theta + shift) - field(theta))) < 1e-13


def test_order1_requires_first_order_coupling():
    params = ModelParams(n_nodes=3, omega=np.zeros(3), epsilon=0.01)
    bare = Coupling(gamma=np.sin, target=lambda u, v: np.cos(u - v))
    with pytest.raises(CapabilityError):
        ReducedField(order=1, params=params, coupling=bare)
    with pytest.raises(CapabilityError):
        slow_manifold(params, bare, np.zeros(3), order=1)
    # order 0 never needs derivatives
    field = ReducedField(order=0, params=params, coupling=bare)
    assert field(np.zeros(3)).shape == (3,)


def test_reduced_field_rejects_bad_order():
    params = ModelParams(n_nodes=3, omega=np.zeros(3), epsilon=0.01)
    c, theta = make_kuramoto(0.1), np.array([0.1, 1.2, 2.5])
    weights = critical_weights(c, theta)
    # the order is the int 0 or 1: a bool or a float is not an order
    for order in (2, True, np.True_, 1.0, np.float64(1.0)):
        with pytest.raises(ContractError):
            ReducedField(order=order, params=params, coupling=c)
        with pytest.raises(ContractError):
            slow_manifold(params, c, theta, order=order)
        with pytest.raises(ContractError):
            distance_to_slow_manifold(params, c, theta, weights, order)
    order = np.int64(1)
    assert np.array_equal(ReducedField(order=order, params=params, coupling=c)(
        theta), ReducedField(order=1, params=params, coupling=c)(theta))
    assert np.array_equal(slow_manifold(params, c, theta, order=order),
                          slow_manifold(params, c, theta, order=1))
    assert distance_to_slow_manifold(params, c, theta, weights, order) \
        == distance_to_slow_manifold(params, c, theta, weights, 1)


def test_field_rejects_wrong_shape():
    params = ModelParams(n_nodes=3, omega=np.zeros(3), epsilon=0.01)
    c = make_kuramoto(0.1)
    field = ReducedField(order=0, params=params, coupling=c)
    with pytest.raises(ContractError):
        field(np.zeros(4))
    with pytest.raises(ContractError, match="ModelParams"):
        ReducedField(order=1, params=None, coupling=c)
    with pytest.raises(ContractError, match="weights must have shape"):
        phase_rhs(params, c, np.zeros(3), np.zeros((3, 2)))
    # the weights' leading axes are the phases', not broadcast against them
    for call in (lambda t, w: phase_rhs(params, c, t, w),
                 lambda t, w: weight_rhs(c, t, w)):
        with pytest.raises(ContractError, match=r"shape \(5, 3, 3\)"):
            call(np.zeros((5, 3)), np.zeros((2, 3, 3)))
    with pytest.raises(ContractError, match="ModelParams"):
        phase_rhs(None, c, np.zeros(3), np.zeros((3, 3)))
    with pytest.raises(ContractError, match="ModelParams"):
        pair_correction(None, c, 0, 1, np.zeros(3))
    # a scalar phase has no node axis: unchecked, numpy raises IndexError
    with pytest.raises(ContractError, match="scalar"):
        weight_rhs(c, 0.5, np.zeros((1, 1)))
    with pytest.raises(ContractError, match="scalar"):
        critical_weights(c, 0.5)
    # non-numeric phases or weights: unchecked, numpy raises ValueError
    text = ["a", "b", "c"]
    for call in (lambda: field(text),
                 lambda: phase_rhs(params, c, text, np.zeros((3, 3))),
                 lambda: phase_rhs(params, c, np.zeros(3), [text] * 3),
                 lambda: weight_rhs(c, text, np.zeros((3, 3))),
                 lambda: critical_weights(c, text),
                 lambda: slow_manifold(params, c, text),
                 lambda: weight_correction(params, c, text),
                 lambda: pair_correction(params, c, 0, 1, text),
                 lambda: triplet_interaction(c, 0, 1, 2, text)):
        with pytest.raises(ContractError, match="non-numeric"):
            call()
