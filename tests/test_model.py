import dataclasses
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
    check(c.gamma_d2(grid_u), _central(c.gamma_d1, grid_u))
    check(c.target_du(grid_u, grid_v),
          _central(lambda u: c.target(u, grid_v), grid_u))
    check(c.target_dv(grid_u, grid_v),
          _central(lambda v: c.target(grid_u, v), grid_v))
    check(c.target_duu(grid_u, grid_v),
          _central(lambda u: c.target_du(u, grid_v), grid_u))
    check(c.target_duv(grid_u, grid_v),
          _central(lambda v: c.target_du(grid_u, v), grid_v))
    check(c.target_dvv(grid_u, grid_v),
          _central(lambda v: c.target_dv(grid_u, v), grid_v))


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
    assert missing_derivatives(first, 2) == ["gamma_d2", "target_duv",
                                             "target_dvv"]


# ---------------------------------------------------------------------------
# a coupling is its callables: any object whose attributes hold the slots
# works, and a missing slot is reported by name before anything is evaluated

SLOTS = [f.name for f in dataclasses.fields(Coupling)]


def callables_only(drop=(), calls=None):
    """The nine slot callables of make_kuramoto(0.7) on a plain namespace,
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
                            IntegrationConfig(dt=1e-3, t_end=0.1))


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
