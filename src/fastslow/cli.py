"""Command-line entry point: four experiment pipelines driven by one JSON
config document each.

Subcommands: simulate | certify | converge | attract.  Flags are limited
to --config, --out, --seed and --quiet; every experiment knob lives in the
config so the emitted manifest is self-describing.

Exit codes: 0 success, 2 config or contract error, 3 runtime or numerical
failure.  Outputs per run: manifest.json (config echo, resolved seeds,
versions, timestamp; converge's step and self-gap as ``diagnostics``),
report.json, raw.csv.  The JSON files spell each float as its shortest
round-trip repr, raw.csv with 17 significant digits; both spellings
parse back to the same double.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import platform
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .certificate import (
    DEFAULT_FD_STEP,
    DEFAULT_RANDOM_POINTS,
    DEFAULT_SCAN_SEED,
    DECISION_CERTIFIED,
    _scan_bytes,
    certify_nonpairwise,
    default_scan_points,
    scan_mixed_derivatives,
)
from .fields import ReducedField, critical_weights, slow_manifold
from .integrate import (MAX_HISTORY_BYTES, IntegrationConfig, _write_table,
                        integrate_full, trajectory_to_csv)
from .model import (
    ContractError,
    ExperimentError,
    FullState,
    IntegrationError,
    ModelParams,
    make_kuramoto,
    wrap_phase,
)
from .studies import attraction_study, convergence_study

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

# stream tags for deriving per-purpose generators from one top-level seed
SEED_TAGS = {"omega": 1, "theta": 2, "perturbation": 3}

DEFAULT_DT_FACTOR = 0.05
DEFAULT_T_END = 2.0
# attraction horizon in fast-time units; long enough to traverse several
# e-foldings of the transient, short enough to stay above the distance
# floor left by the neglected second-order surface terms
DEFAULT_ATTRACT_FAST_HORIZON = 6.0


class ConfigError(ContractError):
    """Config field failed validation; message carries the field path."""


# ---------------------------------------------------------------------------
# config validation


def _expect(condition: bool, path: str, message: str) -> None:
    if not condition:
        raise ConfigError(f"{path}: {message}")


def _get_block(cfg: dict, key: str, required: bool = False) -> dict:
    block = cfg.get(key)
    if block is None:
        _expect(not required, key, "block is required")
        return {}
    _expect(isinstance(block, dict), key, "must be an object")
    return block


def _as_float(value, path: str) -> float:
    _expect(isinstance(value, (int, float)) and not isinstance(value, bool),
            path, f"must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond the float range
        number = math.inf
    _expect(math.isfinite(number), path, "must be finite")
    return number


def _as_int(value, path: str) -> int:
    _expect(isinstance(value, int) and not isinstance(value, bool),
            path, f"must be an integer, got {value!r}")
    return int(value)


def _as_seed(value, path: str) -> int:
    _expect(isinstance(value, int) and not isinstance(value, bool)
            and value >= 0, path,
            f"must be a non-negative integer seed, got {value!r}")
    return value


def _as_float_list(value, path: str, length=None):
    _expect(isinstance(value, list), path, "must be a list of numbers")
    out = [_as_float(v, f"{path}[{i}]") for i, v in enumerate(value)]
    if length is not None:
        _expect(len(out) == length, path, f"must have length {length}")
    return np.asarray(out, dtype=float)


class SeedBook:
    """Resolves the generator for each randomized config field.

    Precedence: the --seed flag overrides everything and derives one
    stream per purpose; otherwise a field-local seed is used; otherwise a
    top-level config seed derives the stream; otherwise the field is an
    error, because randomized inputs without a recorded seed are not
    reproducible.
    """

    def __init__(self, override, top_seed):
        self.override = None if override is None else _as_seed(override, "--seed")
        self.top_seed = None if top_seed is None else _as_seed(top_seed, "seed")
        self.resolved: dict = {}

    def rng(self, purpose: str, local_seed, path: str):
        if local_seed is not None:
            _as_seed(local_seed, path)
        if self.override is not None:
            key = [self.override, SEED_TAGS[purpose]]
        elif local_seed is not None:
            key = local_seed
        elif self.top_seed is not None:
            key = [self.top_seed, SEED_TAGS[purpose]]
        else:
            raise ConfigError(
                f"{path}: randomized field needs a seed (field seed, "
                f"top-level seed, or --seed)")
        self.resolved[purpose] = key
        return np.random.default_rng(key)


def _resolve_model(cfg: dict, command: str, seeds: SeedBook):
    model = _get_block(cfg, "model", required=True)
    n_nodes = _as_int(model.get("n_nodes"), "model.n_nodes")
    _expect(n_nodes >= 1, "model.n_nodes", "must be >= 1")
    _expect(n_nodes * n_nodes <= np.iinfo(np.intp).max, "model.n_nodes",
            "is too large for an N x N weight matrix")

    omega_cfg = model.get("omega")
    _expect(omega_cfg is not None, "model.omega", "is required")
    if isinstance(omega_cfg, list):
        omega = _as_float_list(omega_cfg, "model.omega", length=n_nodes)
    elif isinstance(omega_cfg, dict):
        dist = omega_cfg.get("distribution", "uniform")
        _expect(dist == "uniform", "model.omega.distribution",
                f"only 'uniform' is supported, got {dist!r}")
        low = _as_float(omega_cfg.get("low", -1.0), "model.omega.low")
        high = _as_float(omega_cfg.get("high", 1.0), "model.omega.high")
        _expect(0 < high - low < math.inf, "model.omega",
                "low must be below high, by a finite range")
        rng = seeds.rng("omega", omega_cfg.get("seed"), "model.omega")
        omega = rng.uniform(low, high, n_nodes)
    else:
        raise ConfigError("model.omega: must be a list or a distribution object")

    has_eps = "epsilon" in model
    has_list = "epsilon_list" in model
    _expect(has_eps != has_list, "model",
            "exactly one of epsilon / epsilon_list is required")
    needs_list = command == "converge"
    _expect(has_list == needs_list, "model",
            f"subcommand '{command}' requires "
            f"{'epsilon_list' if needs_list else 'a single epsilon'}")
    if has_eps:
        epsilon = _as_float(model["epsilon"], "model.epsilon")
        _expect(epsilon > 0, "model.epsilon", "must be > 0")
        epsilon_list = None
    else:
        raw_list = model["epsilon_list"]
        epsilon_list = _as_float_list(raw_list, "model.epsilon_list")
        _expect(epsilon_list.size >= 3, "model.epsilon_list",
                "needs at least 3 entries")
        _expect(bool(np.all(epsilon_list > 0)), "model.epsilon_list",
                "entries must be > 0")
        _expect(bool(np.all(np.diff(epsilon_list) < 0)), "model.epsilon_list",
                "entries must be strictly decreasing")
        epsilon = float(epsilon_list[0])

    coupling_cfg = _get_block(model, "coupling", required=True)
    kind = coupling_cfg.get("kind", "kuramoto")
    _expect(kind == "kuramoto", "model.coupling.kind",
            f"only 'kuramoto' is supported, got {kind!r}")
    alpha = _as_float(coupling_cfg.get("alpha", 0.0), "model.coupling.alpha")
    coupling = make_kuramoto(alpha)

    params = ModelParams(n_nodes=n_nodes, omega=omega, epsilon=epsilon)
    return params, epsilon_list, coupling


def _resolve_horizon(cfg: dict, default_t_end: float = DEFAULT_T_END):
    """Return (dt_factor, t_end); an unset t_end is ``default_t_end``."""
    block = _get_block(cfg, "integration")
    dt_factor = _as_float(block.get("dt_factor", DEFAULT_DT_FACTOR),
                          "integration.dt_factor")
    # checked here for every command, converge too, which only echoes it
    _expect(0 < dt_factor <= 0.1, "integration.dt_factor",
            "must lie in (0, 0.1]")
    t_end = _as_float(block.get("t_end", default_t_end), "integration.t_end")
    _expect(t_end > 0, "integration.t_end", "must be > 0")
    return dt_factor, t_end


def _resolve_integration(cfg: dict, epsilon: float,
                         default_t_end: float = DEFAULT_T_END):
    """Return IntegrationConfig.spanning(t_end, epsilon * dt_factor,
    sample_every): steps of at most epsilon * dt_factor that end on t_end;
    its ContractError, which names its key, is reported as "integration:"."""
    dt_factor, t_end = _resolve_horizon(cfg, default_t_end)
    sample_every = _get_block(cfg, "integration").get("sample_every")
    try:
        return IntegrationConfig.spanning(t_end, epsilon * dt_factor,
                                          sample_every)
    except ContractError as exc:
        raise ConfigError(f"integration: {exc}") from exc


def _resolve_theta0(cfg: dict, n_nodes: int, seeds: SeedBook):
    initial = _get_block(cfg, "initial", required=True)
    theta_cfg = initial.get("theta")
    _expect(theta_cfg is not None, "initial.theta", "is required")
    if isinstance(theta_cfg, list):
        return wrap_phase(_as_float_list(theta_cfg, "initial.theta", n_nodes))
    if isinstance(theta_cfg, dict):
        rng = seeds.rng("theta", theta_cfg.get("seed"), "initial.theta")
        return rng.uniform(0.0, 2.0 * np.pi, n_nodes)
    raise ConfigError("initial.theta: must be a list or {\"seed\": ...}")


def _kick(seeds: SeedBook, n: int, norm: float, local_seed, path: str):
    """Seeded N x N weight perturbation with Frobenius norm ``norm``."""
    noise = seeds.rng("perturbation", local_seed, path).standard_normal((n, n))
    return noise * (norm / np.linalg.norm(noise))


def _resolve_output(cfg: dict, out_flag):
    block = _get_block(cfg, "output")
    directory = out_flag or block.get("directory", "out")
    _expect(isinstance(directory, str) and directory != "", "output.directory",
            "must be a non-empty string")
    formats = block.get("formats", ["csv", "json"])
    _expect(isinstance(formats, list) and formats, "output.formats",
            "must be a non-empty list")
    for f in formats:
        _expect(f in ("csv", "json"), "output.formats",
                f"entries must be 'csv' or 'json', got {f!r}")
    return Path(directory), set(formats)


# ---------------------------------------------------------------------------
# output files


def write_json(path: Path, obj) -> None:
    try:
        text = json.dumps(obj, indent=2, allow_nan=False)
    except (TypeError, ValueError) as exc:  # a non-finite or foreign value
        raise ContractError(f"cannot serialize to JSON: {exc}") from exc
    path.write_text(text + "\n", encoding="utf-8")


def _write_outputs(out_dir: Path, formats: set, command: str, raw_config: dict,
                   seeds: SeedBook, report: dict, write_csv,
                   diagnostics=None) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "command": command,
        "config": raw_config,
        "seed_override": seeds.override,
        "resolved_seeds": seeds.resolved,
        "versions": {
            "fastslow": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        "created_at": datetime.datetime.now(datetime.timezone.utc)
        .isoformat(timespec="seconds"),
    }
    if diagnostics is not None:
        manifest["diagnostics"] = diagnostics
    # a manifest is written last, beside only the outputs its own run wrote
    for name, kind in [("manifest.json", None), ("report.json", "json"),
                       ("raw.csv", "csv")]:
        if kind not in formats:
            (out_dir / name).unlink(missing_ok=True)
    if "json" in formats:
        write_json(out_dir / "report.json", report)
    if "csv" in formats:
        with (out_dir / "raw.csv").open("w", encoding="utf-8") as stream:
            write_csv(stream)
    write_json(out_dir / "manifest.json", manifest)


# ---------------------------------------------------------------------------
# subcommands: each validates its config blocks, runs, and returns
# (report, write_csv, summary[, diagnostics]); main writes raw.csv with
# write_csv(stream), so a long trajectory is never one string in memory,
# and a run without csv output never builds or formats its table


def cmd_simulate(raw_config, seeds: SeedBook):
    params, _, coupling = _resolve_model(raw_config, "simulate", seeds)
    theta0 = _resolve_theta0(raw_config, params.n_nodes, seeds)
    initial_block = _get_block(raw_config, "initial", required=True)

    weights_cfg = initial_block.get("weights", "critical")
    if weights_cfg == "critical":
        weights = critical_weights(coupling, theta0)
    elif weights_cfg == "slow_manifold":
        weights = slow_manifold(params, coupling, theta0)
    elif isinstance(weights_cfg, list):
        weights = np.asarray(
            [_as_float_list(r, f"initial.weights[{i}]", params.n_nodes)
             for i, r in enumerate(weights_cfg)])
        _expect(weights.shape == (params.n_nodes, params.n_nodes),
                "initial.weights", "must be an N x N matrix")
    else:
        raise ConfigError(
            "initial.weights: must be 'critical', 'slow_manifold' or a matrix")

    pert = initial_block.get("perturbation")
    if pert is not None:
        _expect(isinstance(pert, dict), "initial.perturbation",
                "must be an object")
        norm = _as_float(pert.get("norm", 0.0), "initial.perturbation.norm")
        _expect(norm >= 0, "initial.perturbation.norm", "must be >= 0")
        if norm > 0:
            weights = weights + _kick(seeds, params.n_nodes, norm,
                                      pert.get("seed"), "initial.perturbation")

    config = _resolve_integration(raw_config, params.epsilon)
    traj = integrate_full(params, coupling,
                          FullState(theta=theta0, weights=weights), config)

    report = {
        "command": "simulate",
        "epsilon": params.epsilon,
        "n_samples": config.n_samples,
        "t_end": config.t_end,
        "final_theta": traj.thetas[-1].tolist(),
        "final_weights": traj.weights[-1].tolist(),
    }

    def write_csv(stream):
        stream.write("# full-system trajectory; phases canonical in "
                     "[0, 2pi), weights row-major\n")
        trajectory_to_csv(traj, stream)

    return report, write_csv, \
        f"simulate: {config.n_samples} samples to t={config.t_end:g}"


def cmd_certify(raw_config, seeds: SeedBook):
    params, _, coupling = _resolve_model(raw_config, "certify", seeds)
    block = _get_block(raw_config, "certify")
    order = _as_int(block.get("order", 1), "certify.order")
    _expect(order in (0, 1), "certify.order", "must be 0 or 1")
    fd_step = _as_float(block.get("fd_step", DEFAULT_FD_STEP), "certify.fd_step")
    _expect(fd_step > 0, "certify.fd_step", "must be > 0")
    n_random = _as_int(block.get("n_random_points", DEFAULT_RANDOM_POINTS),
                       "certify.n_random_points")
    _expect(n_random >= 0, "certify.n_random_points", "must be >= 0")
    needs = _scan_bytes(params.n_nodes, n_random + 1)
    _expect(needs <= MAX_HISTORY_BYTES, "certify.n_random_points",
            f"a scan of {n_random + 1} points needs {needs:.3g} bytes, over "
            f"MAX_HISTORY_BYTES = {MAX_HISTORY_BYTES}")
    grid_seed = _as_seed(block.get("grid_seed", DEFAULT_SCAN_SEED),
                         "certify.grid_seed")

    field = ReducedField(order=order, params=params, coupling=coupling)
    points = default_scan_points(params.n_nodes, seed=grid_seed,
                                 n_random=n_random)
    result = certify_nonpairwise(field, points=points, fd_step=fd_step)

    report = {
        "command": "certify",
        "order": order,
        "decision": result.decision,
        "index_triple": list(result.index_triple),
        "point": result.point.tolist(),
        "fd_value": result.fd_value,
        "analytic_value": result.analytic_value,
        "fd_step": result.fd_step,
        "threshold": result.threshold,
        "noise_floor": result.noise_floor,
        "n_points": len(points),
        "grid_seed": grid_seed,
    }

    def write_csv(stream):
        stream.write("# mixed-derivative scan over node triples and phase points\n")
        rows = scan_mixed_derivatives(field, points, fd_step)
        # row r is triple r // P at point r % P: each is printed once
        p, r = len(points), np.arange(len(rows))
        _write_table(stream, ["i", "j", "k", "point_index"] + [
            f"theta_{m + 1}" for m in range(params.n_nodes)] + ["fd_value"],
            [(r // p, rows[::p, :3]),
             (r % p, np.column_stack([np.arange(p), points])), rows[:, 4]])
    if result.decision != DECISION_CERTIFIED:
        return report, write_csv, "NO-EVIDENCE"
    theta_txt = "[" + ", ".join(f"{v:.6g}" for v in result.point) + "]"
    return report, write_csv, (
        f"NONPAIRWISE-CERTIFIED at (i,j,k)={result.index_triple} "
        f"theta={theta_txt} value={result.fd_value!r}")


def cmd_converge(raw_config, seeds: SeedBook):
    params_base, epsilon_list, coupling = _resolve_model(
        raw_config, "converge", seeds)
    theta0 = _resolve_theta0(raw_config, params_base.n_nodes, seeds)
    # convergence_study grids t_end itself; dt_factor is only echoed
    _expect("sample_every" not in _get_block(raw_config, "integration"),
            "integration.sample_every", "is not used by converge; remove it")
    dt_factor, t_end = _resolve_horizon(raw_config)

    result = convergence_study(params_base, coupling, theta0,
                               epsilon_list, t_end=t_end)

    def fit_dict(fit):
        if fit is None:
            return None
        return {"slope": fit.slope, "intercept": fit.intercept,
                "r_squared": fit.r_squared, "poor_fit": fit.poor_fit}

    report = {
        "command": "converge",
        "epsilons": result.epsilons.tolist(),
        "errors_order0": result.errors_order0.tolist(),
        "errors_order1": result.errors_order1.tolist(),
        "fit_order0": fit_dict(result.fit_order0),
        "fit_order1": fit_dict(result.fit_order1),
        "degenerate": result.degenerate,
        "t_end": t_end,
        "dt_factor": dt_factor,
    }

    diagnostics = {"h": result.dt, "substeps": result.substeps,
                   "self_gap": result.self_gap,
                   "self_gap_budget": result.self_gap_budget}

    def write_csv(stream):
        stream.write("# reduction errors against epsilon\n")
        _write_table(stream, ["epsilon", "error_order0", "error_order1"], [
            result.epsilons, result.errors_order0, result.errors_order1])
    if result.degenerate:
        return report, write_csv, "degenerate case: errors at machine " \
            "precision, no slopes fitted", diagnostics
    return report, write_csv, (f"slope0={result.fit_order0.slope!r} "
                              f"slope1={result.fit_order1.slope!r}"), diagnostics


def cmd_attract(raw_config, seeds: SeedBook):
    params, _, coupling = _resolve_model(raw_config, "attract", seeds)
    theta0 = _resolve_theta0(raw_config, params.n_nodes, seeds)
    block = _get_block(raw_config, "attract")
    norm = _as_float(block.get("perturbation_norm", 1.0),
                     "attract.perturbation_norm")
    _expect(norm > 0, "attract.perturbation_norm", "must be > 0")

    weights = slow_manifold(params, coupling, theta0) + _kick(
        seeds, params.n_nodes, norm, block.get("perturbation_seed"),
        "attract.perturbation_seed")

    config = _resolve_integration(
        raw_config, params.epsilon,
        DEFAULT_ATTRACT_FAST_HORIZON * params.epsilon)

    result = attraction_study(params, coupling,
                              FullState(theta=theta0, weights=weights), config)

    report = {
        "command": "attract",
        "epsilon": result.epsilon,
        "perturbation_norm": norm,
        "fitted_rate_per_fast_time": result.fitted_rate_per_fast_time,
        "fit_window": [result.fit_window[0], result.fit_window[1]],
        "residual": result.residual,
        "n_points": result.n_points,
    }

    def write_csv(stream):
        stream.write("# order-1 manifold distance against fast time t/epsilon\n")
        _write_table(stream, ["fast_time", "distance"],
                     [result.fast_times, result.distances])
    return report, write_csv, \
        f"rate={result.fitted_rate_per_fast_time!r}"


COMMANDS = {
    "simulate": cmd_simulate,
    "certify": cmd_certify,
    "converge": cmd_converge,
    "attract": cmd_attract,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fastslow",
        description="Fast-slow adaptive oscillator networks: simulation, "
                    "slow-manifold reduction and nonpairwise certification.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("simulate", "integrate the full fast-slow system"),
            ("certify", "scan for nonzero mixed derivatives of a reduced field"),
            ("converge", "reduction error against epsilon for both orders"),
            ("attract", "decay rate of the distance to the weight surface")):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True,
                       help="path to a JSON config, or '-' for stdin")
        p.add_argument("--out", default=None,
                       help="output directory (overrides output.directory)")
        p.add_argument("--seed", type=int, default=None,
                       help="override every seed in the config except "
                            "certify.grid_seed")
        p.add_argument("--quiet", action="store_true",
                       help="suppress the stdout summary lines")
    return parser


def read_config(path: str) -> dict:
    try:
        raw = json.loads(sys.stdin.read() if path == "-"
                         else Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"parse error at line {exc.lineno} column "
                          f"{exc.colno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not valid UTF-8: {exc}") from exc
    except ValueError as exc:  # such as an integer literal over 4300 digits
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return raw


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        raw_config = read_config(args.config)
        seeds = SeedBook(override=args.seed, top_seed=raw_config.get("seed"))
        out_dir, formats = _resolve_output(raw_config, args.out)
        # the program's own checks refuse every non-finite value, in one line
        with np.errstate(all="ignore"):
            report, write_csv, summary, *diagnostics = COMMANDS[args.command](
                raw_config, seeds)
            _write_outputs(out_dir, formats, args.command, raw_config, seeds,
                           report, write_csv, *diagnostics)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ContractError as exc:
        print(f"contract error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (IntegrationError, ExperimentError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as exc:  # keep the exit-code contract even for bugs
        print(f"unexpected failure: {exc!r}", file=sys.stderr)
        return EXIT_RUNTIME
    if not args.quiet:
        print(f"wrote {out_dir}/manifest.json"
              + (", report.json" if "json" in formats else "")
              + (", raw.csv" if "csv" in formats else ""))
        print(summary)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
