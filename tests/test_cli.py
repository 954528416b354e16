import copy
import io
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from fastslow import ContractError, ExperimentError, integrate
from fastslow.certificate import scan_mixed_derivatives
from fastslow.cli import COMMANDS, _resolve_integration, main, write_json
from fastslow.integrate import MAX_HISTORY_BYTES, _write_table

SIMULATE = {
    "model": {
        "n_nodes": 3,
        "omega": {"distribution": "uniform", "seed": 1},
        "epsilon": 0.02,
        "coupling": {"kind": "kuramoto", "alpha": 0.5},
    },
    "initial": {"theta": {"seed": 2}},
    "integration": {"t_end": 0.5},
}

CERTIFY = {
    "model": {
        "n_nodes": 3,
        "omega": [0.0, 0.0, 0.0],
        "epsilon": 0.01,
        "coupling": {"kind": "kuramoto", "alpha": 0.7},
    },
    "certify": {"n_random_points": 10},
}

CONVERGE = {
    "model": {
        "n_nodes": 3,
        "omega": {"distribution": "uniform", "seed": 3},
        "epsilon_list": [0.02, 0.01, 0.005],
        "coupling": {"kind": "kuramoto", "alpha": 0.6},
    },
    "initial": {"theta": {"seed": 4}},
    "integration": {"t_end": 0.3},
}

ATTRACT = {
    "model": {
        "n_nodes": 3,
        "omega": {"distribution": "uniform", "seed": 5},
        "epsilon": 0.01,
        "coupling": {"kind": "kuramoto", "alpha": 0.6},
    },
    "initial": {"theta": {"seed": 6}},
    "attract": {"perturbation_norm": 1.0, "perturbation_seed": 7},
}


def run(tmp_path, command, config, extra=(), name="cfg.json"):
    tmp_path.mkdir(parents=True, exist_ok=True)
    path = tmp_path / name
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    return main([command, "--config", str(path), "--out", str(out), *extra]), out


def test_simulate_writes_all_outputs(tmp_path, capsys):
    code, out = run(tmp_path, "simulate", SIMULATE)
    assert code == 0
    assert (out / "manifest.json").is_file()
    assert (out / "report.json").is_file()
    assert (out / "raw.csv").is_file()
    report = json.loads((out / "report.json").read_text())
    assert report["command"] == "simulate"
    assert len(report["final_theta"]) == 3
    assert len(report["final_weights"]) == 3
    lines = (out / "raw.csv").read_text().splitlines()
    assert lines[0].startswith("#")
    assert lines[1].split(",")[:2] == ["time", "theta_1"]
    # the trajectory is streamed into raw.csv: every sample, header first
    assert len(lines) == 2 + report["n_samples"]
    assert "simulate: " in capsys.readouterr().out


def test_simulate_csv_is_the_same_split_or_not(tmp_path, monkeypatch):
    # the shipped simulate run, 4001 samples of 31 values: its raw.csv has
    # the bytes of "%.17g" on the values it holds, written in 128 kB blocks
    # or one row per write and per kernel call
    cfg = json.loads((Path(__file__).parents[1] / "configs" /
                      "simulate.json").read_text())
    code, out = run(tmp_path / "blocks", "simulate", cfg, ["--quiet"])
    assert code == 0
    monkeypatch.setattr(integrate, "BLOCK_VALUES", 1)
    code, rows = run(tmp_path / "rows", "simulate", cfg, ["--quiet"])
    assert code == 0
    text = (out / "raw.csv").read_text()
    assert (rows / "raw.csv").read_text() == text
    values = np.loadtxt(out / "raw.csv", delimiter=",", skiprows=2, ndmin=2)
    assert values.shape == (4001, 1 + 5 + 25)
    assert text.split("\n", 2)[2] == "".join(
        ",".join("%.17g" % v for v in row) + "\n" for row in values.tolist())


def test_simulate_starts_from_explicit_weights(tmp_path):
    weights = [[0.0, 0.5, -0.25], [1.0, 0.0, 0.125], [-2.0, 0.75, 0.0]]
    cfg = copy.deepcopy(SIMULATE)
    cfg["initial"]["weights"] = weights
    code, out = run(tmp_path, "simulate", cfg)
    assert code == 0
    lines = (out / "raw.csv").read_text().splitlines()
    first = dict(zip(lines[1].split(","), lines[2].split(",")))
    assert [[float(first[f"a_{i}_{j}"]) for j in (1, 2, 3)]
            for i in (1, 2, 3)] == weights


def test_non_square_weights_are_config_error(tmp_path, capsys):
    cfg = copy.deepcopy(SIMULATE)
    cfg["initial"]["weights"] = [[0.0, 0.5, -0.25], [1.0, 0.0, 0.125]]
    err = expect_config_error(tmp_path, capsys, "simulate", cfg)
    assert "initial.weights" in err
    # an initial entry of the wrong type is named too
    for key, value in [("weights", 1.5), ("theta", "random")]:
        cfg = copy.deepcopy(SIMULATE)
        cfg["initial"][key] = value
        err = expect_config_error(tmp_path, capsys, "simulate", cfg)
        assert err.startswith(f"config error: initial.{key}: must be")


def test_manifest_records_seeds_and_versions(tmp_path):
    _, out = run(tmp_path, "simulate", SIMULATE)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["seed_override"] is None
    assert manifest["resolved_seeds"]["omega"] == 1
    assert manifest["resolved_seeds"]["theta"] == 2
    assert set(manifest["versions"]) == {"fastslow", "numpy", "python"}
    assert manifest["config"] == SIMULATE


def test_reports_are_byte_identical_across_runs(tmp_path):
    code1, out1 = run(tmp_path / "a", "simulate", SIMULATE)
    code2, out2 = run(tmp_path / "b", "simulate", SIMULATE)
    assert code1 == code2 == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    assert (out1 / "raw.csv").read_bytes() == (out2 / "raw.csv").read_bytes()
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    m1.pop("created_at")
    m2.pop("created_at")
    assert m1 == m2


@pytest.mark.parametrize("value", [-0.0, 2.0, 0.1, 5e-324, 1e16])
def test_write_json_round_trips_floats(tmp_path, value):
    path = tmp_path / "report.json"
    write_json(path, {"value": value, "list": [value]})
    got = json.loads(path.read_text(encoding="utf-8"))
    for x in (got["value"], got["list"][0]):
        assert type(x) is float and x.hex() == value.hex()


UNENCODABLE = [float("nan"), float("inf"), np.int64(1)]


@pytest.mark.parametrize("value", UNENCODABLE, ids=["nan", "inf", "int64"])
def test_write_json_rejects_unencodable_values(tmp_path, value):
    with pytest.raises(ContractError):
        write_json(tmp_path / "report.json", {"value": [value]})


@pytest.mark.parametrize("value", UNENCODABLE, ids=["nan", "inf", "int64"])
def test_unencodable_report_is_contract_error(tmp_path, capsys, monkeypatch,
                                              value):
    monkeypatch.setitem(COMMANDS, "certify",
                        lambda raw, seeds: ({"value": value}, None, ""))
    cfg = dict(CERTIFY, output={"formats": ["json"]})
    assert run(tmp_path, "certify", cfg)[0] == 2
    assert capsys.readouterr().err.startswith("contract error: ")


def test_an_unexpected_failure_is_exit_3_in_one_line(tmp_path, capsys,
                                                    monkeypatch):
    def broken(raw, seeds):
        raise KeyError("lost")
    monkeypatch.setitem(COMMANDS, "certify", broken)
    code, out = run(tmp_path, "certify", CERTIFY)
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("unexpected failure: KeyError") \
        and err.count("\n") == 1 and err.endswith("\n")
    assert not (out / "manifest.json").exists()


def test_manifest_is_written_last_and_only_beside_its_outputs(
        tmp_path, capsys, monkeypatch):
    """A run removes the manifest of the run before and writes its own
    last, so a run that fails while writing leaves no manifest echoing a
    config whose outputs are not there."""
    written = []

    def recording(path, obj):
        written.append(path.name)
        return write_json(path, obj)
    monkeypatch.setattr("fastslow.cli.write_json", recording)
    code, out = run(tmp_path, "certify", CERTIFY, extra=["--quiet"])
    assert code == 0 and written == ["report.json", "manifest.json"]
    report = (out / "report.json").read_bytes()
    monkeypatch.setitem(COMMANDS, "certify",
                        lambda raw, seeds: ({"value": math.nan}, None, ""))
    cfg = dict(CERTIFY, certify={"n_random_points": 10, "fd_step": 0.002})
    assert run(tmp_path, "certify", cfg)[0] == 2
    assert capsys.readouterr().err.startswith("contract error: ")
    assert not (out / "manifest.json").exists()
    assert (out / "report.json").read_bytes() == report


@pytest.mark.parametrize("formats, kept", [
    (["json"], {"manifest.json", "report.json"}),
    (["csv"], {"manifest.json", "raw.csv"})])
def test_a_dropped_format_leaves_no_earlier_output(tmp_path, formats, kept):
    # a run into the directory of a run with both formats removes the
    # output its own formats leave out, so no raw.csv ending at t = 0.5
    # sits beside a report and manifest of t_end 0.2
    assert run(tmp_path, "simulate", SIMULATE, extra=["--quiet"])[0] == 0
    cfg = dict(SIMULATE, integration={"t_end": 0.2},
               output={"formats": formats})
    code, out = run(tmp_path, "simulate", cfg, extra=["--quiet"])
    assert code == 0 and {p.name for p in out.iterdir()} == kept
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["integration"]["t_end"] == 0.2
    if "raw.csv" in kept:
        assert (out / "raw.csv").read_text().splitlines()[-1].startswith(
            "0.20000000000000001,")
    else:
        assert json.loads((out / "report.json").read_text())["t_end"] == 0.2


@pytest.mark.parametrize("fd_step", [1e-300, 1e-154, 1e300])
def test_step_that_collapses_the_stencil_is_contract_error(tmp_path, capfd,
                                                           fd_step):
    # 4 step^2 underflows, theta absorbs the step, or 4 step^2 overflows:
    # refused before any file is written, with no numpy warning
    cfg = dict(CERTIFY, certify={"n_random_points": 10, "fd_step": fd_step})
    code, out = run(tmp_path, "certify", cfg)
    assert code == 2 and not out.exists()
    err = capfd.readouterr().err
    assert err.startswith(f"contract error: step={fd_step!r}") \
        and err.count("\n") == 1


def test_seed_override_changes_results(tmp_path):
    _, base = run(tmp_path / "a", "simulate", SIMULATE)
    code, moved = run(tmp_path / "b", "simulate", SIMULATE, extra=["--seed", "99"])
    assert code == 0
    manifest = json.loads((moved / "manifest.json").read_text())
    assert manifest["seed_override"] == 99
    assert manifest["resolved_seeds"]["omega"] == [99, 1]
    r_base = json.loads((base / "report.json").read_text())
    r_moved = json.loads((moved / "report.json").read_text())
    assert r_base["final_theta"] != r_moved["final_theta"]


def test_config_from_stdin(tmp_path, capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(CERTIFY)))
    out = tmp_path / "out"
    code = main(["certify", "--config", "-", "--out", str(out)])
    assert code == 0
    assert (out / "report.json").is_file()


def test_quiet_suppresses_stdout(tmp_path, capsys):
    code, _ = run(tmp_path, "simulate", SIMULATE, extra=["--quiet"])
    assert code == 0
    assert capsys.readouterr().out == ""


def test_csv_only_format(tmp_path):
    cfg = copy.deepcopy(SIMULATE)
    cfg["output"] = {"formats": ["csv"]}
    _, out = run(tmp_path, "simulate", cfg)
    assert (out / "raw.csv").is_file()
    assert (out / "manifest.json").is_file()
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("formats", [["json"], ["csv", "json"]])
def test_certify_table_is_formatted_only_for_csv(tmp_path, monkeypatch, formats):
    scanned = []

    def tracked_scan(*args, **kwargs):
        rows = scan_mixed_derivatives(*args, **kwargs)
        scanned.append(len(rows))
        return rows

    monkeypatch.setattr("fastslow.cli.scan_mixed_derivatives", tracked_scan)
    cfg = copy.deepcopy(CERTIFY)
    cfg["output"] = {"formats": formats}
    code, out = run(tmp_path, "certify", cfg)
    assert code == 0
    assert (out / "report.json").is_file()
    if "csv" in formats:
        assert len(scanned) == 1 and scanned[0] > 0
        assert len((out / "raw.csv").read_text().splitlines()) == 2 + scanned[0]
    else:
        # the CLI's own table scan runs only inside the csv writer
        assert not (out / "raw.csv").exists()
        assert scanned == []


@pytest.mark.parametrize("formats", [["csv"], ["csv", "json"]])
def test_certify_refuses_an_overflowing_field(tmp_path, capsys, formats):
    """alpha = 1e308 is finite, but the field it makes overflows: the scan
    refuses its first non-finite value before certify decides, so no
    output is written and the run is a contract error, whose one line is
    all stderr holds: numpy warns of nothing on the way."""
    cfg = copy.deepcopy(CERTIFY)
    cfg["model"]["coupling"]["alpha"] = 1e308
    cfg["certify"]["n_random_points"] = 2
    cfg["output"] = {"formats": formats}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out = run(tmp_path, "certify", cfg, extra=["--quiet"])
    assert code == 2
    assert capsys.readouterr().err == ("contract error: the FD value of "
                                       "triple (0, 1, 2) at point 0 is not "
                                       "finite: nan\n")
    for name in ("manifest.json", "report.json", "raw.csv"):
        assert not (out / name).exists()


@pytest.mark.parametrize("command, code, message", [
    ("simulate", 2, "contract error: theta and weights must be finite\n"),
    ("converge", 3, "runtime error: integration failed at epsilon=0.02, "
     "epsilon=0.01, epsilon=0.005, epsilon=0.0025: full-system integration "
     "failed in rows 0, 1, 2, 3 at t=0.01 (step 1): non-finite value in "
     "exponential stage\n")], ids=["simulate", "converge"])
def test_an_overflowing_field_prints_one_stderr_line(tmp_path, capsys, command,
                                                     code, message):
    # the shipped config at alpha = 1e308: the program's own refusal is the
    # one line stderr holds, where numpy would warn of overflow and nan
    cfg = json.loads((Path(__file__).parents[1] / "configs" /
                      f"{command}.json").read_text())
    cfg["model"]["coupling"]["alpha"] = 1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(tmp_path, command, cfg, extra=["--quiet"])[0] == code
    assert capsys.readouterr().err == message


def test_certify_table_bytes(tmp_path, monkeypatch):
    scans = []

    def tracked_scan(*args):
        rows = scan_mixed_derivatives(*args)
        scans.append((args[1], rows))
        return rows

    monkeypatch.setattr("fastslow.cli.scan_mixed_derivatives", tracked_scan)
    for n in (3, 5, 7):
        for order in (0, 1):
            cfg = copy.deepcopy(CERTIFY)
            cfg["model"]["n_nodes"] = n
            cfg["model"]["omega"] = {"distribution": "uniform", "seed": n}
            cfg["certify"]["order"] = order
            code, out = run(tmp_path / f"n{n}-order{order}", "certify", cfg)
            assert code == 0
            points, rows = scans.pop()
            table = np.column_stack([rows[:, :4],
                                     points[rows[:, 3].astype(int)],
                                     rows[:, 4]])
            expected = "".join(",".join("%.17g" % v for v in row) + "\n"
                               for row in table.tolist())
            text = (out / "raw.csv").read_text()
            assert text.split("\n", 2)[2] == expected
    # the spellings of test_csv_round_trip, printed from a gathered table
    buf = io.StringIO()
    _write_table(buf, ["index", "value"], [np.arange(5), (
        np.array([0, 1, 2, 3, 3]),
        np.array([-0.0, 5e-324, 1.7976931348623157e308, 2.0]))])
    assert buf.getvalue() == ("index,value\n0,-0\n1,4.9406564584124654e-324\n"
                              "2,1.7976931348623157e+308\n3,2\n4,2\n")


def test_certify_prints_decision_line(tmp_path, capsys):
    code, out = run(tmp_path, "certify", CERTIFY)
    assert code == 0
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert last.startswith("NONPAIRWISE-CERTIFIED at (i,j,k)=")
    assert "value=" in last
    report = json.loads((out / "report.json").read_text())
    assert report["decision"] == "NonpairwiseCertified"
    assert abs(report["fd_value"]) > report["threshold"]
    # scan csv carries one row per (triple, point) candidate
    rows = [ln for ln in (out / "raw.csv").read_text().splitlines()
            if ln and not ln.startswith("#")]
    assert len(rows) - 1 == 6 * report["n_points"]


def test_certify_order0_finds_nothing(tmp_path, capsys):
    cfg = copy.deepcopy(CERTIFY)
    cfg["certify"]["order"] = 0
    cfg["model"]["omega"] = [0.3, -0.2, 0.6]
    code, out = run(tmp_path, "certify", cfg)
    assert code == 0
    assert capsys.readouterr().out.strip().splitlines()[-1] == "NO-EVIDENCE"
    report = json.loads((out / "report.json").read_text())
    assert report["decision"] == "NoEvidence"
    assert report["analytic_value"] is None


def test_converge_prints_slopes(tmp_path, capsys):
    code, out = run(tmp_path, "converge", CONVERGE)
    assert code == 0
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert last.startswith("slope0=")
    assert "slope1=" in last
    report = json.loads((out / "report.json").read_text())
    assert not report["degenerate"]
    assert 0.5 < report["fit_order0"]["slope"] < 1.5
    assert report["fit_order1"]["slope"] > 1.4


def test_converge_degenerate_message(tmp_path, capsys):
    cfg = copy.deepcopy(CONVERGE)
    cfg["model"]["omega"] = [0.0, 0.0, 0.0]
    cfg["initial"]["theta"] = [1.0, 1.0, 1.0]
    code, out = run(tmp_path, "converge", cfg)
    assert code == 0
    assert "degenerate" in capsys.readouterr().out
    report = json.loads((out / "report.json").read_text())
    assert report["degenerate"]
    assert report["fit_order0"] is None


def test_shipped_converge_manifest_records_its_step_and_self_gap(tmp_path):
    """The manifest's diagnostics hold the study's step, its substeps per
    sample and the self-gap within its budget, which report.json leaves
    out: 5.2e-10 against 9.1e-9 at h = 0.005 on configs/converge.json."""
    config = json.loads((Path(__file__).resolve().parents[1] / "configs"
                         / "converge.json").read_text())
    code, out = run(tmp_path, "converge", config, extra=["--quiet"])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    diagnostics = manifest["diagnostics"]
    assert list(diagnostics) == ["h", "substeps", "self_gap",
                                 "self_gap_budget"]
    assert diagnostics["h"] == 0.005 and diagnostics["substeps"] == 2
    assert 5e-10 < diagnostics["self_gap"] < 5.3e-10
    assert 9e-9 < diagnostics["self_gap_budget"] < 9.1e-9
    assert "self_gap" not in json.loads((out / "report.json").read_text())


def test_attract_reports_rate(tmp_path, capsys):
    code, out = run(tmp_path, "attract", ATTRACT)
    assert code == 0
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert last.startswith("rate=")
    report = json.loads((out / "report.json").read_text())
    assert 0.9 < report["fitted_rate_per_fast_time"] < 1.1
    rows = [ln for ln in (out / "raw.csv").read_text().splitlines()
            if ln and not ln.startswith("#")]
    assert rows[0] == "fast_time,distance"


@pytest.mark.parametrize("dt_factor", [0.07, 0.09])
def test_attract_default_horizon_is_whole_steps(tmp_path, dt_factor):
    # 6 fast-time units are not a whole number of steps of dt_factor; the
    # horizon stays 6 and is cut into the fewest equal steps no longer
    cfg = copy.deepcopy(ATTRACT)
    cfg["integration"] = {"dt_factor": dt_factor}
    code, out = run(tmp_path, "attract", cfg, extra=["--quiet"])
    assert code == 0
    rows = (out / "raw.csv").read_text().splitlines()[2:]
    fast_times = np.array([float(row.split(",")[0]) for row in rows])
    assert len(rows) == math.ceil(6.0 / dt_factor) + 1
    assert fast_times[-1] == 6.0 and np.diff(fast_times).max() <= dt_factor


@pytest.mark.parametrize("command,epsilons", [
    ("simulate", {"epsilon": 0.08}),
    ("converge", {"epsilon_list": [0.08, 0.04, 0.02]}),
    ("converge", {"epsilon_list": [0.03, 0.02, 0.01]})])
def test_default_t_end_is_whole_steps(tmp_path, command, epsilons):
    # 2.0 is not a whole number of steps of 0.07 * epsilon; the default
    # horizon stays 2.0, which simulate cuts into the fewest equal steps no
    # longer and converge into its own grid
    cfg = copy.deepcopy(SIMULATE if command == "simulate" else CONVERGE)
    cfg["model"].update(epsilons)
    cfg["integration"] = {"dt_factor": 0.07}
    code, out = run(tmp_path, command, cfg, extra=["--quiet"])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["t_end"] == 2.0
    if command == "simulate":
        assert report["n_samples"] == math.ceil(2.0 / (0.08 * 0.07)) + 1


def test_prime_step_count_rounds_up_to_the_default_stride(tmp_path):
    # 10 007 steps of 0.01 * 0.05 is prime: the default stride 2 rounds it
    # up to 10 008 steps, 5 005 samples that end on t_end
    cfg = copy.deepcopy(SIMULATE)
    cfg["model"]["epsilon"] = 0.01
    cfg["integration"] = {"t_end": 5.0035}
    config = _resolve_integration(cfg, 0.01)
    assert (config.n_steps, config.sample_every) == (10_008, 2)
    code, out = run(tmp_path, "simulate", cfg, extra=["--quiet"])
    report = json.loads((out / "report.json").read_text())
    assert code == 0 and (report["n_samples"], report["t_end"]) == (5005,
                                                                   5.0035)
    # a set stride is taken as it is
    cfg["integration"]["sample_every"] = 1
    config = _resolve_integration(cfg, 0.01)
    assert (config.n_steps, config.sample_every) == (10_007, 1)


def test_history_over_the_memory_cap_is_contract_error(tmp_path, capsys):
    # 10 001 samples of N = 400 would store 12.8 GB
    cfg = copy.deepcopy(SIMULATE)
    cfg["model"].update(n_nodes=400, epsilon=0.01)
    cfg["integration"] = {"t_end": 5.0, "sample_every": 1}
    err = expect_config_error(tmp_path, capsys, "simulate", cfg)
    assert err.startswith("contract error") and "bytes" in err \
        and err.endswith("; raise integration.sample_every\n")
    # horizons so long that the sample counts have 300 digits: refused
    # before any sample time is built, in three significant digits, and
    # converge, which picks its own stride, is offered a shorter t_end
    for command, config, mend in [
            ("simulate", SIMULATE, "raise integration.sample_every"),
            ("converge", CONVERGE, "shorten integration.t_end")]:
        cfg = copy.deepcopy(config)
        cfg["integration"] = {"t_end": 1e300}
        if command == "simulate":
            cfg["integration"]["sample_every"] = 1
        err = expect_config_error(tmp_path, capsys, command, cfg)
        assert err.startswith("contract error") and " samples needs " in err \
            and err.endswith(f"; {mend}\n") and len(err) < 200


def test_converge_horizon_needs_no_whole_steps(tmp_path, capsys):
    # 2003 steps of 0.00025 at the finest epsilon 0.005, a prime count that
    # no stride under a sample cap divides: converge samples every
    # 0.50075 / 51 and steps by its own error budget, not by dt_factor
    cfg = copy.deepcopy(CONVERGE)
    cfg["integration"] = {"t_end": 0.50075}
    code, out = run(tmp_path, "converge", cfg, extra=["--quiet"])
    assert code == 0 and capsys.readouterr().err == ""
    report = json.loads((out / "report.json").read_text())
    assert report["t_end"] == 0.50075 and not report["degenerate"]
    rows = (out / "raw.csv").read_text().splitlines()
    assert len(rows) == 2 + len(report["epsilons"])


# ---------------------------------------------------------------------------
# exit-code contract


def expect_config_error(tmp_path, capsys, command, config):
    code, _ = run(tmp_path, command, config)
    assert code == 2
    err = capsys.readouterr().err
    assert "error" in err
    return err


def test_missing_epsilon_is_config_error(tmp_path, capsys):
    cfg = copy.deepcopy(SIMULATE)
    del cfg["model"]["epsilon"]
    expect_config_error(tmp_path, capsys, "simulate", cfg)


def test_short_epsilon_list_is_config_error(tmp_path, capsys):
    cfg = copy.deepcopy(CONVERGE)
    cfg["model"]["epsilon_list"] = [0.02, 0.01]
    err = expect_config_error(tmp_path, capsys, "converge", cfg)
    assert "epsilon_list" in err


def test_increasing_epsilon_list_is_config_error(tmp_path, capsys):
    cfg = copy.deepcopy(CONVERGE)
    cfg["model"]["epsilon_list"] = [0.005, 0.01, 0.02]
    expect_config_error(tmp_path, capsys, "converge", cfg)


def test_epsilon_list_on_simulate_is_config_error(tmp_path, capsys):
    cfg = copy.deepcopy(SIMULATE)
    del cfg["model"]["epsilon"]
    cfg["model"]["epsilon_list"] = [0.02, 0.01, 0.005]
    expect_config_error(tmp_path, capsys, "simulate", cfg)


def test_zero_perturbation_is_config_error(tmp_path, capfd):
    cfg = copy.deepcopy(ATTRACT)
    cfg["attract"]["perturbation_norm"] = 0.0
    err = expect_config_error(tmp_path, capfd, "attract", cfg)
    assert "perturbation_norm" in err
    # a kick whose starting distance overflows: the contract error alone,
    # with no numpy overflow warning before it
    cfg["attract"]["perturbation_norm"] = 1e300
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        err = expect_config_error(tmp_path, capfd, "attract", cfg)
    assert err == ("contract error: initial state must start off the surface "
                   "(distance >= 0.1) at a finite distance, got inf\n")


def test_large_dt_factor_is_config_error(tmp_path, capsys):
    cfg = copy.deepcopy(SIMULATE)
    cfg["integration"] = {"dt_factor": 0.5}
    err = expect_config_error(tmp_path, capsys, "simulate", cfg)
    assert "dt_factor" in err
    # converge's reference has no step guard: dt_factor is only echoed,
    # so the message gives the range without a reason
    cfg = copy.deepcopy(CONVERGE)
    cfg["integration"]["dt_factor"] = 0.2
    err = expect_config_error(tmp_path, capsys, "converge", cfg)
    assert err == "config error: integration.dt_factor: must lie in (0, 0.1]\n"
    # a step of 1e-310, or one that underflows to 0, counts no steps to
    # t_end, with or without a set t_end: a config error, not an OverflowError
    cfg = copy.deepcopy(SIMULATE)
    cfg["model"]["epsilon"] = 1e-300
    for integration, why in [
            ({"dt_factor": 1e-10}, "t_end=2.0 is more steps of max_dt=1e-310 "
             "than a float can count"),
            ({"dt_factor": 1e-10, "t_end": 1.0}, "t_end=1.0 is more steps of "
             "max_dt=1e-310 than a float can count"),
            ({"dt_factor": 1e-30}, "t_end and max_dt must be > 0, got 2.0 "
             "and 0.0")]:
        cfg["integration"] = integration
        err = expect_config_error(tmp_path, capsys, "simulate", cfg)
        assert err == f"config error: integration: {why}\n"


def test_t_end_off_the_step_grid_ends_on_it(tmp_path):
    # 0.01 * 0.03 = 3e-4 does not divide t_end = 0.5: 1667 steps of 0.5 /
    # 1667 do, with or without a set stride, and the last sample is 0.5 to
    # the bit, not the 0.49999999999999994 of 1667 * (0.5 / 1667)
    cfg = copy.deepcopy(SIMULATE)
    cfg["model"]["epsilon"] = 0.01
    cfg["integration"] = {"t_end": 0.5, "dt_factor": 0.03}
    for stride in (None, 1):
        if stride is not None:
            cfg["integration"]["sample_every"] = stride
        config = _resolve_integration(cfg, 0.01)
        assert (config.n_steps, config.dt) == (1667, 0.5 / 1667)
        code, out = run(tmp_path, "simulate", cfg, extra=["--quiet"])
        report = json.loads((out / "report.json").read_text())
        assert code == 0 and (report["n_samples"], report["t_end"]) == (1668,
                                                                       0.5)
        assert (out / "raw.csv").read_text().splitlines()[-1].startswith("0.5,")


def test_sample_every_on_converge_is_config_error(tmp_path, capsys):
    cfg = copy.deepcopy(CONVERGE)
    cfg["integration"]["sample_every"] = 5
    err = expect_config_error(tmp_path, capsys, "converge", cfg)
    assert "integration.sample_every" in err


def test_sample_every_rounds_the_steps_up(tmp_path, capsys):
    # 500 steps of dt = 0.001: a stride of 3 takes 501 shorter steps, so
    # that the last sample is still at 0.5
    cfg = copy.deepcopy(SIMULATE)
    cfg["integration"]["sample_every"] = 3
    config = _resolve_integration(cfg, 0.02)
    assert (config.n_steps, config.sample_every, config.dt) == (501, 3,
                                                                0.5 / 501)
    code, out = run(tmp_path, "simulate", cfg, extra=["--quiet"])
    report = json.loads((out / "report.json").read_text())
    assert code == 0 and (report["n_samples"], report["t_end"]) == (168, 0.5)
    # a stride that is no positive integer is the stride's error
    for stride in (0, 2.0):
        cfg["integration"]["sample_every"] = stride
        err = expect_config_error(tmp_path, capsys, "simulate", cfg)
        assert err == (f"config error: integration: sample_every must be a "
                       f"positive integer, got {stride!r}\n")
    # a stride past the 500 steps is refused before any step, not taken as
    # 10**12 steps of 5e-13; all 500 steps in one sample are fine
    cfg["integration"]["sample_every"] = 500
    assert _resolve_integration(cfg, 0.02).n_steps == 500
    for stride in (501, 10 ** 12):
        cfg["integration"]["sample_every"] = stride
        err = expect_config_error(tmp_path, capsys, "simulate", cfg)
        assert err == (f"config error: integration: sample_every must be at "
                       f"most the 500 steps of t_end / max_dt, got {stride}\n")


def test_missing_seed_is_config_error(tmp_path, capsys):
    cfg = copy.deepcopy(SIMULATE)
    del cfg["model"]["omega"]["seed"]
    err = expect_config_error(tmp_path, capsys, "simulate", cfg)
    assert "seed" in err


def test_top_level_seed_fills_in(tmp_path):
    cfg = copy.deepcopy(SIMULATE)
    del cfg["model"]["omega"]["seed"]
    cfg["seed"] = 42
    code, out = run(tmp_path, "simulate", cfg)
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["resolved_seeds"]["omega"] == [42, 1]


def test_wrong_omega_length_is_config_error(tmp_path, capsys):
    cfg = copy.deepcopy(CERTIFY)
    cfg["model"]["omega"] = [0.0, 0.0]
    expect_config_error(tmp_path, capsys, "certify", cfg)
    cfg["model"]["omega"] = "uniform"
    err = expect_config_error(tmp_path, capsys, "certify", cfg)
    assert err.startswith("config error: model.omega: must be")


def test_omega_range_beyond_the_float_range_is_config_error(tmp_path, capsys):
    # high - low overflows, and no uniform draw can span it
    cfg = copy.deepcopy(SIMULATE)
    cfg["model"]["omega"].update(low=-1e308, high=1e308)
    err = expect_config_error(tmp_path, capsys, "simulate", cfg)
    assert err.startswith("config error: model.omega: low must be below high")


@pytest.mark.parametrize("n_random", [10 ** 12, 140_467])
def test_certify_point_count_over_the_memory_cap_is_config_error(
        tmp_path, capsys, monkeypatch, n_random):
    # at N = 7 a scan holds 13 232 bytes and 15 288 per point at its peak;
    # 140 468 points are the fewest over MAX_HISTORY_BYTES, refused before
    # the points are drawn
    def reached(*args, **kwargs):
        raise ExperimentError("scan points drawn")
    monkeypatch.setattr("fastslow.cli.default_scan_points", reached)
    cfg = copy.deepcopy(CERTIFY)
    cfg["model"].update(n_nodes=7, omega=[0.0] * 7)
    cfg["certify"]["n_random_points"] = n_random
    err = expect_config_error(tmp_path, capsys, "certify", cfg)
    assert err.startswith("config error: certify.n_random_points: a scan of "
                          f"{n_random + 1} points needs ")
    assert err.endswith(f"over MAX_HISTORY_BYTES = {MAX_HISTORY_BYTES}\n")
    # one point fewer passes the cap and goes on to draw its points
    cfg["certify"]["n_random_points"] = 140_466
    assert run(tmp_path, "certify", cfg)[0] == 3
    assert capsys.readouterr().err == "runtime error: scan points drawn\n"


def test_two_nodes_cannot_certify(tmp_path, capsys):
    cfg = copy.deepcopy(CERTIFY)
    cfg["model"]["n_nodes"] = 2
    cfg["model"]["omega"] = [0.0, 0.0]
    code, _ = run(tmp_path, "certify", cfg)
    assert code == 2


def test_bad_json_reports_position(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"model": }')
    code = main(["simulate", "--config", str(path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "line" in err


def test_missing_file_is_config_error(tmp_path, capsys):
    code = main(["simulate", "--config", str(tmp_path / "nope.json")])
    assert code == 2


@pytest.mark.parametrize("content, message", [
    ('{"model": "\xe9"}'.encode("latin-1"), "not valid UTF-8"),
    (b"[1]", "config root must be a JSON object"),
    (b'{"seed": ' + b"7" * 5000 + b"}", "4300 digits"),
], ids=["latin-1", "list-root", "5000-digit-integer"])
def test_unusable_config_file_is_config_error(tmp_path, capsys, content,
                                              message):
    path = tmp_path / "cfg.json"
    path.write_bytes(content)
    code = main(["simulate", "--config", str(path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err


@pytest.mark.parametrize("key, value, code", [
    ("alpha", 10**20, 0),  # finite although beyond any 64-bit integer
    ("epsilon", 10**400, 2),  # beyond the float range
], ids=["alpha-1e20", "epsilon-1e400"])
def test_large_integer_literal(tmp_path, capsys, key, value, code):
    cfg = copy.deepcopy(CERTIFY)
    if key == "alpha":
        cfg["model"]["coupling"]["alpha"] = value
    else:
        cfg["model"]["epsilon"] = value
    assert run(tmp_path, "certify", cfg)[0] == code
    if code == 2:
        assert capsys.readouterr().err.startswith(
            "config error: model.epsilon")


@pytest.mark.parametrize("command", ["certify", "simulate"])
@pytest.mark.parametrize("n_nodes", [2**32, 10**20])
def test_n_nodes_beyond_the_index_range_is_config_error(tmp_path, capsys,
                                                        command, n_nodes):
    # an N x N weight matrix with N*N above the largest array index
    cfg = copy.deepcopy(CERTIFY if command == "certify" else SIMULATE)
    cfg["model"]["n_nodes"] = n_nodes
    cfg["model"]["omega"] = {"distribution": "uniform", "seed": 1}
    assert run(tmp_path, command, cfg)[0] == 2
    assert capsys.readouterr().err.startswith("config error: model.n_nodes")


def test_unknown_format_is_config_error(tmp_path, capsys):
    cfg = copy.deepcopy(SIMULATE)
    cfg["output"] = {"formats": ["yaml"]}
    expect_config_error(tmp_path, capsys, "simulate", cfg)


def test_empty_window_is_runtime_error(tmp_path, capsys):
    cfg = copy.deepcopy(ATTRACT)
    cfg["integration"] = {"t_end": 0.001}  # a tenth of a fast time unit
    code, _ = run(tmp_path, "attract", cfg)
    assert code == 3
    assert "runtime error" in capsys.readouterr().err


def test_output_block_is_checked_before_the_run(tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("convergence_study ran before output was checked")
    monkeypatch.setattr("fastslow.cli.convergence_study", never)
    cfg = copy.deepcopy(CONVERGE)
    cfg["output"] = {"formats": ["yaml"]}
    err = expect_config_error(tmp_path, capsys, "converge", cfg)
    assert "output.formats" in err


@pytest.mark.parametrize("order", [True, 1.0, 2])
def test_bad_certify_order_is_config_error(tmp_path, capsys, order):
    cfg = copy.deepcopy(CERTIFY)
    cfg["certify"]["order"] = order
    err = expect_config_error(tmp_path, capsys, "certify", cfg)
    assert "certify.order" in err


@pytest.mark.parametrize("where, value, extra, named", [
    ("top", True, (), "seed:"),
    ("top", -3, (), "seed:"),
    ("omega", -5, (), "model.omega"),
    ("omega", False, (), "model.omega"),
    (None, None, ("--seed", "-1"), "--seed"),
    ("grid", -1, (), "certify.grid_seed"),
], ids=["top-bool", "top-negative", "field-negative", "field-bool",
        "flag-negative", "grid-negative"])
def test_unusable_seed_is_config_error(tmp_path, capsys, where, value, extra,
                                       named):
    command = "certify" if where == "grid" else "simulate"
    cfg = copy.deepcopy(CERTIFY if where == "grid" else SIMULATE)
    if where == "top":
        del cfg["model"]["omega"]["seed"]
        cfg["seed"] = value
    elif where == "omega":
        cfg["model"]["omega"]["seed"] = value
    elif where == "grid":
        cfg["certify"]["grid_seed"] = value
    code, _ = run(tmp_path, command, cfg, extra=extra)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: " + named)
