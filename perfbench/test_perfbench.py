"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import signal
import time
from pathlib import Path

import numpy as np
import pytest
from speed import REFERENCE_PROBE_S, SpeedProbe, speed
from tracer import Tracer, instrument, self_times
from worker import load_fastslow, run_pass
from workloads import (
    DEFAULT_SEED,
    WORKLOADS,
    check_outputs,
    golden_mismatches,
    load_golden,
    make_configs,
    write_configs,
)

ROOT = Path(__file__).resolve().parent.parent
MODULES = load_fastslow(ROOT)

# small configs covering every command and every traced layer
TINY = {
    "converge": {
        "model": {"n_nodes": 3, "omega": {"seed": 3}, "epsilon_list": [0.02, 0.01, 0.005],
                  "coupling": {"kind": "kuramoto", "alpha": 0.6}},
        "initial": {"theta": {"seed": 4}}, "integration": {"t_end": 0.1}},
    "certify": {
        "model": {"n_nodes": 3, "omega": [0.0, 0.0, 0.0], "epsilon": 0.01,
                  "coupling": {"kind": "kuramoto", "alpha": 0.7}},
        "certify": {"n_random_points": 4}},
    "simulate": {
        "model": {"n_nodes": 3, "omega": {"seed": 1}, "epsilon": 0.02,
                  "coupling": {"kind": "kuramoto", "alpha": 0.5}},
        "initial": {"theta": {"seed": 2}, "weights": "slow_manifold",
                    "perturbation": {"norm": 0.5, "seed": 3}},
        "integration": {"t_end": 0.2}},
    "attract": {
        "model": {"n_nodes": 3, "omega": {"seed": 5}, "epsilon": 0.01,
                  "coupling": {"kind": "kuramoto", "alpha": 0.6}},
        "initial": {"theta": {"seed": 6}},
        "attract": {"perturbation_norm": 1.0, "perturbation_seed": 7}},
}


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] -> a [1, 4] -> c [2, 3]; root -> b [5, 9]
    parent = np.array([-1, 0, 1, 0])
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    np.testing.assert_allclose(self_times(parent, end - start), [3.0, 2.0, 1.0, 4.0])


def test_summary_aggregates_calls_total_and_self_time():
    tracer = Tracer()
    for name, parent, start, end in [("root", -1, 0.0, 10.0), ("leaf", 0, 1.0, 4.0),
                                     ("leaf", 0, 5.0, 6.0), ("root", -1, 20.0, 21.0)]:
        tracer.name_id.append(tracer._id(name))
        tracer.parent.append(parent)
        tracer.start.append(start)
        tracer.end.append(end)
    summary = tracer.summary()
    assert summary["root"] == {"calls": 2, "s": 11.0, "self_s": 7.0}
    assert summary["leaf"] == {"calls": 2, "s": 4.0, "self_s": 4.0}


def test_span_records_nesting_and_returns_result_unchanged():
    tracer = Tracer()
    marker = object()
    inner = tracer.span("inner", lambda: marker)
    outer = tracer.span("outer", lambda x: (inner(), x))
    assert outer(5) == (marker, 5)
    assert outer(6)[0] is marker
    assert list(tracer.parent) == [-1, 0, -1, 2]
    assert [tracer.names[i] for i in tracer.name_id] == ["outer", "inner"] * 2


def test_span_closes_when_wrapped_function_raises():
    tracer = Tracer()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.span("boom", boom)()
    after = tracer.span("after", lambda: 1)
    after()
    assert list(tracer.parent) == [-1, -1]
    assert tracer.end[0] >= tracer.start[0] > 0


def test_counter_counts_and_returns_result_unchanged():
    tracer = Tracer()
    f = tracer.counter("model.gamma", np.sin)
    x = np.linspace(0, 1, 7)
    assert np.array_equal(f(x), np.sin(x))
    f(x)
    assert tracer.counts["model.gamma"] == 2


def test_patched_functions_return_what_the_originals_return():
    fields, model = MODULES["fields"], MODULES["model"]
    params = model.ModelParams(n_nodes=4, omega=np.array([0.1, -0.2, 0.3, 0.0]),
                               epsilon=0.01)
    field = fields.ReducedField(order=1, params=params,
                                coupling=model.make_kuramoto(0.7))
    theta = np.array([0.3, 1.2, 2.0, 5.5])
    expected = field(theta)
    originals = {name: getattr(MODULES["studies"], name)
                 for name in ("integrate_full", "phase_distance")}
    tracer = Tracer()
    with instrument(tracer, MODULES):
        assert np.array_equal(field(theta), expected)
        assert MODULES["studies"].phase_distance(theta, theta + 0.5) == \
            originals["phase_distance"](theta, theta + 0.5)
    assert tracer.summary()["fields.ReducedField"]["calls"] == 1
    assert tracer.counts["fields.ReducedField.points"] == 1.0
    assert tracer.counts["model.gamma"] > 0
    # every patch is undone
    assert "__call__" in vars(fields.ReducedField)
    assert np.array_equal(field(theta), expected)
    assert tracer.summary()["fields.ReducedField"]["calls"] == 1
    for name, fn in originals.items():
        assert getattr(MODULES["studies"], name) is fn


def test_traced_and_probed_passes_write_the_same_bytes_as_a_plain_pass(tmp_path):
    paths = {}
    for command, config in TINY.items():
        paths[command] = tmp_path / f"{command}.json"
        paths[command].write_text(json.dumps(config))
    _, plain = run_pass(MODULES, paths, tmp_path / "plain")
    tracer = Tracer()
    _, traced = run_pass(MODULES, paths, tmp_path / "traced", tracer)
    probe = SpeedProbe(period_s=0.002)
    _, probed = run_pass(MODULES, paths, tmp_path / "probed", probe=probe)
    assert probe.samples
    for (command, rc_a, out_a), (_, rc_b, out_b), (_, rc_c, out_c) in zip(
            plain, traced, probed):
        assert rc_a == rc_b == rc_c == 0, command
        for name in ("report.json", "raw.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
            assert (out_a / name).read_bytes() == (out_c / name).read_bytes()
    summary = tracer.summary()
    for name in ("cli.converge", "cli.certify", "cli.simulate", "cli.attract",
                 "integrate.integrate_full", "integrate.integrate_reduced",
                 "integrate.rk4_step", "integrate.trajectory_to_csv",
                 "certificate.certify_nonpairwise",
                 "certificate.scan_mixed_derivatives",
                 "certificate.mixed_second_derivative_fd",
                 "studies.convergence_study", "studies.attraction_study",
                 "studies.phase_distance", "studies.fit_loglog",
                 "studies.distance_to_slow_manifold", "cli.write_json",
                 "fields.ReducedField"):
        assert summary[name]["calls"] > 0, name
    assert summary["certificate.scan_mixed_derivatives"]["calls"] == 3
    assert tracer.counts["integrate.trajectory_to_csv.bytes"] > 0


def test_speed_is_the_mean_share_of_reference_speed():
    assert speed([REFERENCE_PROBE_S] * 3) == pytest.approx(1.0)
    assert speed([REFERENCE_PROBE_S, 2 * REFERENCE_PROBE_S]) == \
        pytest.approx(0.75)
    with pytest.raises(ValueError):
        speed([])


def test_probe_samples_subtracts_itself_and_restores_the_alarm():
    def previous(signum, frame):
        pass

    before = signal.signal(signal.SIGALRM, previous)
    try:
        probe = SpeedProbe(period_s=0.005)
        with probe:
            t0 = time.perf_counter()
            while time.perf_counter() - t0 < 0.1:
                pass
        assert signal.getsignal(signal.SIGALRM) is previous
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
        assert len(probe.samples) >= 5
        share = speed(probe.samples)
        assert probe.at_reference_speed(1.0) == pytest.approx(
            (1.0 - sum(probe.samples)) * share)
    finally:
        signal.signal(signal.SIGALRM, before)


def _seed_fields(doc, path=""):
    """path -> value of every seed field in a config document."""
    if isinstance(doc, dict):
        found = {}
        for key, value in doc.items():
            if key.endswith("seed"):
                found[f"{path}.{key}"] = value
            found.update(_seed_fields(value, f"{path}.{key}"))
        return found
    return {}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_config_generator_is_deterministic_per_seed(workload, tmp_path):
    assert make_configs(workload, 3) == make_configs(workload, 3)
    seeds_3 = _seed_fields(make_configs(workload, 3))
    seeds_4 = _seed_fields(make_configs(workload, 4))
    assert seeds_3 and seeds_3.keys() == seeds_4.keys()
    for field, value in seeds_3.items():
        assert value != seeds_4[field], field
    a = write_configs(make_configs(workload, 3), tmp_path / "a")
    b = write_configs(make_configs(workload, 3), tmp_path / "b")
    for command in a:
        assert a[command].read_bytes() == b[command].read_bytes()


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_default_seed_passes_checks_and_matches_golden(workload, tmp_path):
    configs = make_configs(workload, DEFAULT_SEED)
    paths = write_configs(configs, tmp_path / "configs")
    golden = load_golden()[workload]
    _, invocations = run_pass(MODULES, paths, tmp_path / "out")
    for command, rc, out in invocations:
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert check_outputs(command, configs[command], out, report) == []
        assert golden_mismatches(command, report, golden[command]) == []


def test_golden_comparison_flags_a_moved_value():
    golden = load_golden()["converge-n5"]["converge"]
    moved = json.loads(json.dumps(golden))
    moved["fit_order1"]["slope"] += 0.01
    assert golden_mismatches("converge", golden, golden) == []
    assert golden_mismatches("converge", moved, golden) == [
        f"converge golden fit_order1.slope: {moved['fit_order1']['slope']!r} "
        f"vs golden {golden['fit_order1']['slope']!r}"]
