"""Benchmark workloads: configs generated from a workload seed, and the
checks every CLI output must pass.

Each workload is a list of CLI invocations (command, config name).  The
program only ever sees the generated JSON configs; every omega, theta,
grid and perturbation seed inside them is derived from the workload seed,
so the same seed gives byte-identical configs.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

DEFAULT_SEED = 1

# Correctness gates, matching the acceptance-test bounds.
SLOPE0_RANGE = (0.8, 1.2)
SLOPE1_MIN = 1.6
R_SQUARED_MIN = 0.98
RATE_RANGE = (0.9, 1.1)
# |fd_value - analytic_value * eps / N^2| relative to the analytic value;
# the FD truncation at fd_step 1e-3 leaves about 2e-6.
FD_ANALYTIC_RTOL = 1e-4

# Golden comparison for the default seed: (rel_tol, abs_tol) per command.
# converge allows the "same slopes to 3 decimals" that step-size changes to
# the reduced integration promise; simulate and attract allow
# reordered floating-point sums in the stepping code.
GOLDEN_TOLERANCE = {
    "converge": (1e-3, 1e-12),
    "certify": (1e-6, 1e-12),
    "simulate": (1e-9, 1e-9),
    "attract": (1e-6, 1e-9),
}
# noise_floor is the FD round-off of a pairwise field whose exact mixed
# derivative is zero, so its value carries no information to pin.
GOLDEN_IGNORED = {"certify": {"noise_floor"}}

GOLDEN_PATH = Path(__file__).with_name("golden.json")


def derive_seed(workload: str, seed: int, purpose: str) -> int:
    """Stable 31-bit seed for one randomized config field."""
    digest = hashlib.sha256(f"{workload}/{seed}/{purpose}".encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


def _omega(workload: str, seed: int) -> dict:
    return {"distribution": "uniform", "low": -1.0, "high": 1.0,
            "seed": derive_seed(workload, seed, "omega")}


def _converge(seed: int) -> dict:
    w = "converge-n5"
    return {"converge": {
        "model": {"n_nodes": 5, "omega": _omega(w, seed),
                  "epsilon_list": [0.02, 0.01, 0.005, 0.0025],
                  "coupling": {"kind": "kuramoto", "alpha": 0.8}},
        "initial": {"theta": {"seed": derive_seed(w, seed, "theta")}},
        "integration": {"t_end": 2.0, "dt_factor": 0.05},
    }}


def _certify(seed: int) -> dict:
    w = "certify-n7"
    return {"certify": {
        "model": {"n_nodes": 7, "omega": _omega(w, seed), "epsilon": 0.01,
                  "coupling": {"kind": "kuramoto", "alpha": 0.7}},
        "certify": {"order": 1, "fd_step": 0.001, "n_random_points": 50,
                    "grid_seed": derive_seed(w, seed, "grid")},
    }}


def _simulate(seed: int) -> dict:
    w = "simulate-n16"
    model = {"n_nodes": 16, "omega": _omega(w, seed), "epsilon": 0.01,
             "coupling": {"kind": "kuramoto", "alpha": 0.7}}
    theta = {"seed": derive_seed(w, seed, "theta")}
    return {
        "simulate": {
            "model": model,
            "initial": {"theta": theta, "weights": "slow_manifold",
                        "perturbation": {
                            "norm": 0.5,
                            "seed": derive_seed(w, seed, "perturbation")}},
            "integration": {"t_end": 2.0, "dt_factor": 0.05,
                            "sample_every": 1},
        },
        "attract": {
            "model": model,
            "initial": {"theta": theta},
            "attract": {"perturbation_norm": 1.0,
                        "perturbation_seed": derive_seed(w, seed, "attract")},
            "integration": {"dt_factor": 0.05},
        },
    }


# workload name -> config generator; invocations run in dict order
WORKLOADS = {
    "converge-n5": _converge,
    "certify-n7": _certify,
    "simulate-n16": _simulate,
}


def make_configs(workload: str, seed: int) -> dict:
    """Map of command -> config document for one pass of the workload."""
    return WORKLOADS[workload](seed)


def write_configs(configs: dict, directory: Path) -> dict:
    """Write each config of ``make_configs`` as JSON, read it back and
    validate it.  Returns command -> config path.
    """
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for command, config in configs.items():
        path = directory / f"{command}.json"
        path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
        if json.loads(path.read_text(encoding="utf-8")) != config:
            raise ValueError(f"{path}: config did not round-trip")
        _validate(command, config)
        paths[command] = path
    return paths


def _validate(command: str, config: dict) -> None:
    model = config["model"]
    if not (isinstance(model["n_nodes"], int) and model["n_nodes"] >= 3):
        raise ValueError(f"{command}: n_nodes must be an integer >= 3")
    eps = model.get("epsilon_list", [model.get("epsilon")])
    if not all(isinstance(e, float) and e > 0 for e in eps) \
            or any(b >= a for a, b in zip(eps, eps[1:])):
        raise ValueError(f"{command}: epsilons must be positive and decreasing")
    dt_factor = config.get("integration", {}).get("dt_factor", 0.05)
    if not 0 < dt_factor <= 0.1:
        raise ValueError(f"{command}: dt_factor outside (0, 0.1]")


# ---------------------------------------------------------------------------
# output checks


def check_outputs(command: str, config: dict, out_dir: Path, report: dict
                  ) -> list:
    """Problems with one invocation's outputs; empty when all checks pass."""
    problems = []

    def expect(condition, message):
        if not condition:
            problems.append(f"{command}: {message}")

    if command == "converge":
        expect(not report["degenerate"], "sweep is degenerate")
        fit0, fit1 = report["fit_order0"], report["fit_order1"]
        if fit0 is None or fit1 is None:
            return problems
        lo, hi = SLOPE0_RANGE
        expect(lo <= fit0["slope"] <= hi, f"slope0 {fit0['slope']} not in [{lo}, {hi}]")
        expect(fit1["slope"] >= SLOPE1_MIN, f"slope1 {fit1['slope']} < {SLOPE1_MIN}")
        for name, fit in (("fit_order0", fit0), ("fit_order1", fit1)):
            expect(fit["r_squared"] >= R_SQUARED_MIN,
                   f"{name}.r_squared {fit['r_squared']} < {R_SQUARED_MIN}")
    elif command == "certify":
        n = config["model"]["n_nodes"]
        eps = config["model"]["epsilon"]
        expect(report["decision"] == "NonpairwiseCertified",
               f"decision is {report['decision']}")
        expect(len(set(report["index_triple"])) == 3, "index triple not distinct")
        expect(report["n_points"] == 1 + config["certify"]["n_random_points"],
               f"scanned {report['n_points']} points")
        analytic = report["analytic_value"]
        if analytic is None:
            problems.append(f"{command}: no analytic value")
        else:
            expected = analytic * eps / n ** 2
            expect(abs(report["fd_value"] - expected) <= FD_ANALYTIC_RTOL * abs(expected),
                   f"fd_value {report['fd_value']} does not match "
                   f"analytic * eps / N^2 = {expected}")
    elif command == "simulate":
        n = config["model"]["n_nodes"]
        dt = config["model"]["epsilon"] * config["integration"]["dt_factor"]
        n_samples = round(config["integration"]["t_end"] / dt) + 1
        expect(report["n_samples"] == n_samples,
               f"{report['n_samples']} samples, expected {n_samples}")
        expect(math.isclose(report["t_end"], config["integration"]["t_end"]),
               f"t_end {report['t_end']}")
        theta = report["final_theta"]
        expect(len(theta) == n and all(0.0 <= v < 2 * math.pi for v in theta),
               "final_theta not canonical")
        weights = report["final_weights"]
        expect(len(weights) == n and all(len(r) == n and all(map(math.isfinite, r))
                                         for r in weights),
               "final_weights not a finite N x N matrix")
        with open(out_dir / "raw.csv", "rb") as fh:
            fh.readline()  # comment line
            columns = fh.readline().count(b",") + 1
            rows = sum(1 for _ in fh)
        expect(columns == 1 + n + n * n, f"raw.csv has {columns} columns")
        expect(rows == n_samples, f"raw.csv has {rows} rows")
    elif command == "attract":
        lo, hi = RATE_RANGE
        rate = report["fitted_rate_per_fast_time"]
        expect(lo <= rate <= hi, f"attract rate {rate} not in [{lo}, {hi}]")
    return problems


def accuracy(reports: dict, configs: dict) -> dict:
    """Accuracy figures of one pass; 0 where the workload has no such claim."""
    out = {"slope0_gap": 0.0, "slope1_gap": 0.0, "cert_margin": 0.0,
           "rate_gap": 0.0}
    if reports.get("converge", {}).get("fit_order0"):
        out["slope0_gap"] = abs(reports["converge"]["fit_order0"]["slope"] - 1.0)
        out["slope1_gap"] = abs(reports["converge"]["fit_order1"]["slope"] - 2.0)
    if "certify" in reports:
        r = reports["certify"]
        out["cert_margin"] = abs(r["fd_value"]) / r["threshold"]
    if "attract" in reports:
        out["rate_gap"] = abs(reports["attract"]["fitted_rate_per_fast_time"] - 1.0)
    return out


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


def golden_mismatches(command: str, report: dict, golden: dict) -> list:
    """Fields of ``report`` outside the golden tolerance for ``command``."""
    rel, abs_ = GOLDEN_TOLERANCE[command]
    ignored = GOLDEN_IGNORED.get(command, set())
    problems = []

    def compare(path, got, want):
        if isinstance(want, dict):
            if not isinstance(got, dict) or set(got) != set(want):
                problems.append(f"{path}: keys differ")
                return
            for key in want:
                if path == "" and key in ignored:
                    continue
                compare(f"{path}.{key}" if path else key, got[key], want[key])
        elif isinstance(want, list):
            if not isinstance(got, list) or len(got) != len(want):
                problems.append(f"{path}: length differs")
                return
            for idx, (g, w) in enumerate(zip(got, want)):
                compare(f"{path}[{idx}]", g, w)
        elif _is_number(want) and _is_number(got):
            if not math.isclose(got, want, rel_tol=rel, abs_tol=abs_):
                problems.append(f"{path}: {got!r} vs golden {want!r}")
        elif got != want:
            problems.append(f"{path}: {got!r} vs golden {want!r}")

    compare("", report, golden)
    return [f"{command} golden {p}" for p in problems]
