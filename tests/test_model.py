import dataclasses
import itertools
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fastslow import (
    DECISION_CERTIFIED,
    CapabilityError,
    ContractError,
    Coupling,
    FullState,
    IntegrationConfig,
    KuramotoCoupling,
    ModelParams,
    ReducedField,
    attraction_study,
    certify_nonpairwise,
    convergence_study,
    default_scan_points,
    make_kuramoto,
    pair_correction,
    phase_distance,
    slow_manifold,
    triplet_interaction,
    triplet_mixed_derivative,
    weight_correction,
    wrap_phase,
)
from fastslow.integrate import _full_rhs
from fastslow.model import DERIVATIVE_SLOTS, missing_derivatives

TWO_PI = 2 * np.pi


def test_public_names_resolve():
    import fastslow
    assert len(set(fastslow.__all__)) == len(fastslow.__all__)
    for name in fastslow.__all__:
        assert hasattr(fastslow, name), name

finite_angles = st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, allow_infinity=False)


def test_wrap_phase_basic():
    assert wrap_phase(0.0) == 0.0
    assert wrap_phase(TWO_PI) == 0.0
    assert wrap_phase(-np.pi / 2) == pytest.approx(3 * np.pi / 2, abs=1e-15)


def test_wrap_phase_rejects_nonfinite():
    with pytest.raises(ContractError):
        wrap_phase(np.nan)
    with pytest.raises(ContractError):
        wrap_phase(np.array([0.0, np.inf]))
    # unchecked, numpy raises ValueError for non-numeric phases
    with pytest.raises(ContractError, match="non-numeric phases"):
        wrap_phase(["a", "b", "c"])


@given(finite_angles)
def test_wrap_phase_range_and_idempotence(x):
    w = wrap_phase(x)
    assert 0.0 <= w < TWO_PI
    assert wrap_phase(w) == w


def test_phase_distance_examples():
    a = np.array([0.0, 1.0, 2.0])
    assert phase_distance(a, a) == 0.0
    b = a.copy()
    b[0] = TWO_PI - 0.1
    assert phase_distance(a, b) == pytest.approx(0.1, abs=1e-12)
    assert phase_distance(np.array([0.0, np.pi]),
                          np.array([np.pi, 0.0])) == pytest.approx(np.pi)


def test_phase_distance_shape_mismatch():
    with pytest.raises(ContractError):
        phase_distance(np.zeros(3), np.zeros(4))
    with pytest.raises(ContractError, match="non-numeric phases"):
        phase_distance(np.zeros(3), ["a", "b", "c"])
    # non-finite phases are rejected as wrap_phase rejects them, silently
    # and without numpy's RuntimeWarning
    for a, b in (([np.nan], [0.0]), ([0.0], [np.inf]), ([-np.inf], [1.0])):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContractError, match="must be finite"):
                phase_distance(a, b)


@given(st.lists(finite_angles, min_size=1, max_size=6),
       st.lists(finite_angles, min_size=1, max_size=6),
       st.lists(finite_angles, min_size=1, max_size=6))
def test_phase_distance_metric(xs, ys, zs):
    n = min(len(xs), len(ys), len(zs))
    a, b, c = np.array(xs[:n]), np.array(ys[:n]), np.array(zs[:n])
    assert phase_distance(a, b) == phase_distance(b, a)
    assert phase_distance(a, a) == 0.0
    # triangle inequality; slack covers subtraction roundoff at the 1e6
    # magnitude the strategy allows
    assert phase_distance(a, c) <= phase_distance(a, b) + phase_distance(b, c) + 1e-9


def test_model_params_validation():
    with pytest.raises(ContractError):
        ModelParams(n_nodes=0, omega=np.array([]), epsilon=0.1)
    with pytest.raises(ContractError):
        ModelParams(n_nodes=2, omega=np.zeros(3), epsilon=0.1)
    with pytest.raises(ContractError):
        ModelParams(n_nodes=2, omega=np.zeros(2), epsilon=0.0)
    with pytest.raises(ContractError):
        ModelParams(n_nodes=2, omega=np.array([np.nan, 0.0]), epsilon=0.1)
    with pytest.raises(ContractError, match="non-numeric omega"):
        ModelParams(n_nodes=3, omega=["a", "b", "c"], epsilon=0.1)
    # no array, string or None is an epsilon
    for epsilon in (np.array([0.1, 0.2]), "a", None):
        with pytest.raises(ContractError, match="epsilon must be > 0"):
            ModelParams(n_nodes=2, omega=np.zeros(2), epsilon=epsilon)
    p = ModelParams(n_nodes=2, omega=np.zeros(2), epsilon=1e-3)
    assert p.epsilon == 1e-3


@pytest.mark.parametrize("n_nodes", [3.0, True, np.float64(3.0), np.True_],
                         ids=["float", "bool", "numpy float", "numpy bool"])
def test_model_params_n_nodes_must_be_an_int(n_nodes):
    # unchecked, a float or a bool passes the shape check, since
    # (3,) == (3.0,) and (1,) == (True,), and fails later with a TypeError
    with pytest.raises(ContractError, match="n_nodes must be an int"):
        ModelParams(n_nodes=n_nodes, omega=np.zeros(int(n_nodes)),
                    epsilon=0.1)
    assert ModelParams(n_nodes=np.int64(3), omega=np.zeros(3),
                       epsilon=0.1).n_nodes == 3


def test_full_state_validation():
    with pytest.raises(ContractError):
        FullState(theta=np.zeros(3), weights=np.zeros((2, 2)))
    with pytest.raises(ContractError):
        FullState(theta=np.zeros(2), weights=np.full((2, 2), np.inf))
    with pytest.raises(ContractError):
        FullState(theta=np.array([np.nan, 0.0]), weights=np.zeros((2, 2)))
    with pytest.raises(ContractError, match="1-d"):
        FullState(theta=np.zeros((1, 2)), weights=np.zeros((2, 2)))
    with pytest.raises(ContractError, match="non-numeric theta"):
        FullState(theta=["a", "b", "c"], weights=np.zeros((3, 3)))
    s = FullState(theta=np.zeros(2), weights=np.ones((2, 2)))
    assert s.n_nodes == 2


def test_make_kuramoto_values():
    c = make_kuramoto(0.7)
    assert c.target(0.0, 0.0) == pytest.approx(1.7)
    assert c.gamma(np.pi / 2) == pytest.approx(1.0)
    # target_du(0, pi/2) = -sin(-pi/2) = 1
    assert c.target_du(0.0, np.pi / 2) == pytest.approx(1.0)
    assert missing_derivatives(c, 2) == []


def test_kuramoto_rejects_nonfinite_alpha():
    with pytest.raises(ContractError):
        KuramotoCoupling(alpha=np.inf)
    for alpha in (np.array([1.0, 2.0]), "0.5", None, True):
        with pytest.raises(ContractError, match="finite real number"):
            KuramotoCoupling(alpha=alpha)


@pytest.mark.parametrize("alpha", [0.7, 0.0])
def test_triplet_harmonics_are_the_spectrum_of_the_kernel(alpha):
    """The FFT of triplet_interaction on a 16^3 grid has coefficient
    -i a / 2 at each row m of the table and +i a / 2 at -m, and every other
    coefficient is below 1e-15.  Every |m| <= 4 < 8, so nothing aliases."""
    c = make_kuramoto(alpha)
    grid = np.arange(16) * TWO_PI / 16
    kernel = [triplet_interaction(c, 0, 1, 2, np.array(theta))
              for theta in itertools.product(grid, repeat=3)]
    spectrum = np.fft.fftn(np.reshape(kernel, (16, 16, 16))) / 16 ** 3
    m, a = c.triplet_harmonics()
    assert m.shape == (10, 3) and a.shape == (10,)
    table = np.zeros_like(spectrum)
    table[tuple(m.T)], table[tuple(-m.T)] = -0.5j * a, 0.5j * a
    assert np.max(np.abs(spectrum - table)) < 1e-15


def _periodicity_points():
    rng = np.random.default_rng(3)
    return rng.uniform(-TWO_PI, 2 * TWO_PI, size=(20, 2))


def test_kuramoto_periodicity():
    c = make_kuramoto(0.3)
    for u, v in _periodicity_points():
        assert abs(c.gamma(u + TWO_PI) - c.gamma(u)) < 1e-12
        assert abs(c.target(u + TWO_PI, v) - c.target(u, v)) < 1e-12
        assert abs(c.target(u, v + TWO_PI) - c.target(u, v)) < 1e-12


def test_kuramoto_difference_only():
    # target(u + c, v + c) = target(u, v) exactly for the Kuramoto pair
    c = make_kuramoto(1.1)
    for u, v in _periodicity_points():
        for shift in (0.5, np.pi, 4.0):
            assert c.target(u + shift, v + shift) == c.target(u, v)


def _parity_pairs():
    """(u, v): sampled phases, every pair of the special values, and each
    special value against sampled phases."""
    special = np.array([0.0, -0.0, np.pi, -np.pi, TWO_PI, -TWO_PI, 1e6, -1e6,
                        5e-324, -5e-324, 2.2e-308, -2.2e-308])
    rng = np.random.default_rng(23)
    sampled = rng.uniform(-50.0, 50.0, (2, 2000))
    k = special.size
    return (np.concatenate([sampled[0], np.repeat(special, k), special,
                            sampled[0, :k]]),
            np.concatenate([sampled[1], np.tile(special, k), sampled[1, :k],
                            special]))


def test_difference_form_has_the_bits_of_the_uv_formulas():
    """The Kuramoto target and its partials on phi = v - u, and the (u, v)
    slots now written through them, equal the (u, v) formulas alpha +
    cos(u - v), -sin(u - v) and sin(u - v) bit for bit: on arrays, which
    numpy evaluates in its SIMD loops, and on numpy scalars, as the scalar
    oracles and the analytic certificate pass them.  The one exception is
    u = -0, v = +0: phi is +0 there, as at u == v, so no function of phi
    can give sin(u - v) = -0, and the partials are zeros of the other
    sign."""
    alpha = 0.7
    c = make_kuramoto(alpha)
    u, v = _parity_pairs()
    exempt = (u == 0) & np.signbit(u) & (v == 0) & ~np.signbit(v)
    assert np.count_nonzero(exempt) == 1

    def oracle(u, v):
        return alpha + np.cos(u - v), -np.sin(u - v), np.sin(u - v)

    def difference_form(u, v):
        d = c.target_diff_d1(v - u)
        return c.target_diff(v - u), -d, d

    def uv_slots(u, v):
        return c.target(u, v), c.target_du(u, v), c.target_dv(u, v)

    def scalars(form):  # iterating an array gives numpy scalars
        return np.array([form(a, b) for a, b in zip(u, v)]).T

    for evaluate in (lambda form: np.array(form(u, v)), scalars):
        want = evaluate(oracle)
        for form in (difference_form, uv_slots):
            got = evaluate(form)
            assert got[0].tobytes() == want[0].tobytes()
            same = got.view(np.int64) == want.view(np.int64)
            assert np.all(same[1:] | exempt)
            assert np.array_equal(got[1:, exempt], want[1:, exempt])


@pytest.mark.parametrize("theta", [
    np.array([0.3, 2.9, 5.1, 1.2]), np.array([0.0, np.pi / 2, 0.0, 0.0])],
    ids=["distinct phases", "anchor: equal phases"])
def test_kuramoto_fields_keep_the_bits_of_the_uv_formulas(theta):
    """The fields of make_kuramoto, which take the difference form, equal
    those of a Coupling holding only the (u, v) formulas, bit for bit: the
    surfaces, the correction, both reduced fields and the full rhs."""
    alpha = 0.7
    uv = Coupling(gamma=np.sin, gamma_d1=np.cos,
                  target=lambda u, v: alpha + np.cos(u - v),
                  target_du=lambda u, v: -np.sin(u - v),
                  target_dv=lambda u, v: np.sin(u - v))
    params = ModelParams(n_nodes=4, omega=np.array([0.4, -0.3, 0.8, -1.0]),
                         epsilon=0.01)
    state = np.concatenate([theta, np.linspace(-1.0, 2.0, 16)])
    stack = np.stack([theta, theta + 1.0])
    for fn in (lambda c: slow_manifold(params, c, stack, order=0),
               lambda c: slow_manifold(params, c, stack, order=1),
               lambda c: weight_correction(params, c, stack),
               lambda c: ReducedField(0, params, c)(stack),
               lambda c: ReducedField(1, params, c)(stack),
               lambda c: _full_rhs(params, c)(state)):
        assert fn(make_kuramoto(alpha)).tobytes() == fn(uv).tobytes()


FD_STEP = 1e-5
FD_TOL = 1e-6


def _central(fn, x, h=FD_STEP):
    return (fn(x + h) - fn(x - h)) / (2 * h)


def test_derivative_consistency_on_grid():
    """Every declared derivative matches a central difference of the
    function one order below, on a 16 x 16 grid of (u, v)."""
    c = make_kuramoto(0.7)
    us = np.linspace(0.0, TWO_PI, 16, endpoint=False)
    grid_u, grid_v = np.meshgrid(us, us)

    def check(analytic, fd):
        assert np.max(np.abs(analytic - fd)) < FD_TOL

    check(c.gamma_d1(grid_u), _central(c.gamma, grid_u))
    check(c.target_du(grid_u, grid_v),
          _central(lambda u: c.target(u, grid_v), grid_u))
    check(c.target_dv(grid_u, grid_v),
          _central(lambda v: c.target(grid_u, v), grid_v))


def test_generic_coupling_capability_flags():
    bare = Coupling(gamma=np.sin, target=lambda u, v: np.cos(u - v))
    assert missing_derivatives(bare, 0) == []
    assert missing_derivatives(bare, 1) == ["gamma_d1", "target_du",
                                            "target_dv"]
    first = Coupling(gamma=np.sin, target=lambda u, v: np.cos(u - v),
                     gamma_d1=np.cos,
                     target_du=lambda u, v: -np.sin(u - v),
                     target_dv=lambda u, v: np.sin(u - v))
    assert missing_derivatives(first, 1) == []
    assert missing_derivatives(first, 2) == ["triplet_harmonics"]


# ---------------------------------------------------------------------------
# a coupling is its callables: any object whose attributes hold the slots
# works, and a missing slot is reported by name before anything is evaluated

SLOTS = [f.name for f in dataclasses.fields(Coupling)]


def test_every_coupling_slot_is_a_kuramoto_method():
    # callables_only copies these methods, and perfbench's tracer counts
    # model.<slot> only for slots it finds in KuramotoCoupling.__dict__
    for name in SLOTS:
        assert callable(KuramotoCoupling.__dict__.get(name)), name


def callables_only(drop=(), calls=None):
    """The slot callables of make_kuramoto(0.7) on a plain namespace,
    with no other attribute, less the slots in ``drop``.  When ``calls``
    is a list, every evaluation appends its slot name to it."""
    base = make_kuramoto(0.7)

    def slot(name):
        fn = getattr(base, name)
        if calls is None:
            return fn

        def recorded(*args):
            calls.append(name)
            return fn(*args)
        return recorded
    return SimpleNamespace(**{name: slot(name) for name in SLOTS
                              if name not in drop})


def test_callables_only_coupling_gives_kuramoto_bits():
    kuramoto, duck = make_kuramoto(0.7), callables_only()
    rng = np.random.default_rng(5)
    params = ModelParams(n_nodes=4, omega=rng.uniform(-1.0, 1.0, 4),
                         epsilon=0.01)
    thetas = rng.uniform(0.0, TWO_PI, (3, 4))

    def same(fn):
        want, got = fn(kuramoto), fn(duck)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    for order in (0, 1):
        same(lambda c: ReducedField(order=order, params=params,
                                    coupling=c)(thetas))
        same(lambda c: slow_manifold(params, c, thetas, order=order))
    same(lambda c: weight_correction(params, c, thetas))
    same(lambda c: triplet_mixed_derivative(c, 0, 1, 2, thetas[0]))
    want, got = (certify_nonpairwise(
        ReducedField(order=1, params=params, coupling=c),
        default_scan_points(4, n_random=6)) for c in (kuramoto, duck))
    assert got.decision == want.decision == DECISION_CERTIFIED
    assert got.index_triple == want.index_triple
    assert got.fd_value == want.fd_value
    assert got.analytic_value == want.analytic_value


def _attract(params, coupling, theta):
    kicked = FullState(theta=theta, weights=np.ones((3, 3)))
    return attraction_study(params, coupling, kicked,
                            IntegrationConfig(0.1, 100))


# each entry point that needs derivatives, and the order it needs
ENTRY_POINTS = {
    "ReducedField": (1, lambda p, c, th: ReducedField(order=1, params=p,
                                                       coupling=c)),
    "slow_manifold": (1, lambda p, c, th: slow_manifold(p, c, th, order=1)),
    "weight_correction": (1, lambda p, c, th: weight_correction(p, c, th)),
    "pair_correction": (1, lambda p, c, th: pair_correction(p, c, 0, 1, th)),
    "triplet_interaction": (
        1, lambda p, c, th: triplet_interaction(c, 0, 1, 2, th)),
    "triplet_mixed_derivative": (
        2, lambda p, c, th: triplet_mixed_derivative(c, 0, 1, 2, th)),
    "convergence_study": (
        1, lambda p, c, th: convergence_study(p, c, th, [0.04, 0.02, 0.01])),
    "attraction_study": (1, _attract),
}


@pytest.mark.parametrize("entry, slot", [
    (entry, slot) for entry, (order, _) in ENTRY_POINTS.items()
    for slot in DERIVATIVE_SLOTS[order]])
def test_missing_slot_is_named_before_any_evaluation(entry, slot):
    """A slot counts as missing when the attribute is absent and when it
    holds None; either way the entry point raises CapabilityError naming
    it before evaluating any slot of the coupling."""
    _, call = ENTRY_POINTS[entry]
    params = ModelParams(n_nodes=3, omega=np.array([0.3, -0.2, 0.1]),
                         epsilon=0.01)
    theta = np.array([0.1, 1.2, 2.9])
    calls = []
    absent = callables_only(drop=(slot,), calls=calls)
    holds_none = Coupling(**{**vars(callables_only(calls=calls)), slot: None})
    for coupling in (absent, holds_none):
        with pytest.raises(CapabilityError, match=slot):
            call(params, coupling, theta)
    assert calls == []
