"""Benchmark worker: set up one workload, then time passes of its CLI
invocations, run in-process through ``fastslow.cli.main``.

Started by run.py with BLAS pinned to one thread.  Prints one JSON line:
the moment set-up finished and, unless --setup-only, one record per pass.

Set-up is importing fastslow plus generating and validating the configs.
Right after set-up the worker gauges the host's speed with back-to-back
runs of the speed probe (speed.py).  A pass runs every invocation of the
workload once; its wall time covers the ``cli.main`` calls only.  An
untraced pass runs under the speed probe, which also gives the pass time
at reference host speed.  After each pass every output is checked:
exit code, the workload's correctness gates, byte-identity of report.json
and raw.csv with the first pass, and for the default seed the golden
report.  A traced pass patches the tracer in, and must still produce the
same bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import resource
import shutil
import sys
import time
from pathlib import Path

import numpy as np

from speed import SpeedProbe, sample_speed
from tracer import Tracer, instrument
from workloads import (
    DEFAULT_SEED,
    accuracy,
    check_outputs,
    golden_mismatches,
    load_golden,
    make_configs,
    write_configs,
)

# two passes with one seed are the least a reproducibility check needs
MIN_PASSES = 2
# back-to-back probe runs that gauge the host's speed at the end of set-up
SETUP_PROBES = 20
COMMAND_NAMES = ("simulate", "certify", "converge", "attract")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--root", required=True, type=Path)
    p.add_argument("--work", required=True, type=Path)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans", type=Path, default=None,
                   help="write the spans of the last traced pass here (.npz)")
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def load_fastslow(root: Path) -> dict:
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import fastslow
    from fastslow import certificate, cli, fields, integrate, model, studies
    if src not in Path(fastslow.__file__).resolve().parents:
        raise SystemExit(f"fastslow imported from {fastslow.__file__}, not {src}")
    return {"cli": cli, "certificate": certificate, "fields": fields,
            "integrate": integrate, "model": model, "studies": studies}


def run_pass(modules, config_paths, pass_dir: Path, tracer=None, probe=None):
    """Run each invocation once; return (wall seconds, [(command, rc, out)]).

    A ``probe`` (SpeedProbe) is active only while ``cli.main`` runs.
    """
    invocations = []
    wall = 0.0
    patches = instrument(tracer, modules) if tracer else contextlib.nullcontext()
    with patches:
        for command, config_path in config_paths.items():
            out = pass_dir / command
            argv = [command, "--config", str(config_path), "--out", str(out),
                    "--quiet"]
            with probe if probe is not None else contextlib.nullcontext():
                t0 = time.perf_counter()
                try:
                    rc = modules["cli"].main(argv)
                except SystemExit as exc:
                    rc = exc.code
                except Exception as exc:  # an uncaught bug is a failed invocation
                    rc = f"raised {exc!r}"
                wall += time.perf_counter() - t0
            invocations.append((command, rc, out))
    return wall, invocations


def _digest(path: Path):
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


def layer_metrics(tracer, output_bytes: int, candidates: int) -> dict:
    spans = tracer.summary()

    def get(name, field):
        return spans.get(name, {}).get(field, 0)

    field_calls = get("fields.ReducedField", "calls")
    per_call = (lambda total: total / field_calls) if field_calls else (lambda _: 0.0)
    metrics = {
        "model.coupling_evals": sum(v for k, v in tracer.counts.items()
                                    if k.startswith("model.")),
        "fields.ReducedField.calls": field_calls,
        "fields.ReducedField.self_s": get("fields.ReducedField", "self_s"),
        "fields.ReducedField.us_per_call":
            1e6 * per_call(get("fields.ReducedField", "s")),
        "fields.ReducedField.points_per_call":
            per_call(tracer.counts.get("fields.ReducedField.points", 0)),
        "integrate.rk4_step.calls": get("integrate.rk4_step", "calls"),
        "integrate.integrate_reduced.s": get("integrate.integrate_reduced", "s"),
        "integrate.integrate_full.self_s": get("integrate.integrate_full", "self_s"),
        "integrate.trajectory_to_csv.s": get("integrate.trajectory_to_csv", "s"),
        "integrate.trajectory_to_csv.bytes":
            tracer.counts.get("integrate.trajectory_to_csv.bytes", 0),
        "integrate.weights_stack_bytes":
            tracer.maxima.get("integrate.weights_stack_bytes", 0),
        "certificate.certify_nonpairwise.s":
            get("certificate.certify_nonpairwise", "s"),
        "certificate.scan_mixed_derivatives.calls":
            get("certificate.scan_mixed_derivatives", "calls"),
        "certificate.mixed_second_derivative_fd.calls":
            get("certificate.mixed_second_derivative_fd", "calls"),
        "certificate.field_calls_per_candidate":
            field_calls / candidates if candidates else 0.0,
        "studies.convergence_study.self_s":
            get("studies.convergence_study", "self_s"),
        "studies.phase_distance.calls": get("studies.phase_distance", "calls"),
        "studies.fit_loglog.s": get("studies.fit_loglog", "s"),
        "studies.attraction_study.self_s": get("studies.attraction_study", "self_s"),
        "studies.distance_to_slow_manifold.calls":
            get("studies.distance_to_slow_manifold", "calls"),
        "cli.write_json.s": get("cli.write_json", "s"),
        "cli.output_bytes": output_bytes,
    }
    for command in COMMAND_NAMES:
        metrics[f"cli.{command}.self_s"] = get(f"cli.{command}", "self_s")
    return metrics


def scan_candidates(configs: dict) -> int:
    """(node triples) x (scan points) of the certify invocation, else 0."""
    cfg = configs.get("certify")
    if cfg is None:
        return 0
    n = cfg["model"]["n_nodes"]
    return n * (n - 1) * (n - 2) * (1 + cfg["certify"]["n_random_points"])


def main(argv=None) -> int:
    args = parse_args(argv)
    root = args.root.resolve()
    modules = load_fastslow(root)
    configs = make_configs(args.workload, args.seed)
    config_paths = write_configs(configs, args.work / "configs")
    t_ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    setup_speed = sample_speed(SETUP_PROBES)
    if args.setup_only:
        print(json.dumps({"t_ready": t_ready, "setup_speed": setup_speed}))
        return 0

    candidates = scan_candidates(configs)
    golden = load_golden()[args.workload] if args.seed == DEFAULT_SEED else None
    reference = {}
    passes = []
    last_tracer = None
    deadline = time.perf_counter() + args.seconds
    # start a pass only if it should end within half a pass of the deadline,
    # so a run lasts --seconds give or take half a pass
    while len(passes) < MIN_PASSES \
            or time.perf_counter() + 0.5 * passes[-1]["wall_s"] < deadline:
        index = len(passes)
        traced = bool(args.trace) and index % 2 == 1
        tracer = Tracer() if traced else None
        probe = None if traced else SpeedProbe()
        pass_dir = args.work / f"pass{index}"
        gc.collect()
        wall, invocations = run_pass(modules, config_paths, pass_dir, tracer, probe)

        failures = []
        reports = {}
        output_bytes = 0
        for command, rc, out in invocations:
            if rc != 0:
                failures.append(f"{command}: exit code {rc}")
                continue
            problems = []
            try:
                report = json.loads((out / "report.json").read_text(encoding="utf-8"))
                problems += check_outputs(command, configs[command], out, report)
                reports[command] = report
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problems.append(f"{command}: unreadable output: {exc!r}")
            digests = (_digest(out / "report.json"), _digest(out / "raw.csv"))
            if reference.setdefault(command, digests) != digests:
                problems.append(f"{command}: report.json/raw.csv differ from pass 0")
            if golden is not None and command in reports:
                problems += golden_mismatches(command, reports[command],
                                              golden[command])
            output_bytes += sum(f.stat().st_size for f in out.iterdir())
            if problems:
                failures.append("; ".join(problems))
        shutil.rmtree(pass_dir, ignore_errors=True)

        record = {"wall_s": wall, "traced": traced,
                  "invocations": len(invocations), "failures": failures,
                  "accuracy": accuracy(reports, configs)}
        if probe is not None:
            record["probes"] = len(probe.samples)
            record["probe_s"] = sum(probe.samples)
            record["ref_wall_s"] = probe.at_reference_speed(wall)
        if traced:
            record["layers"] = layer_metrics(tracer, output_bytes, candidates)
            last_tracer = tracer
        passes.append(record)

    if last_tracer is not None and args.spans is not None:
        args.spans.parent.mkdir(parents=True, exist_ok=True)
        last_tracer.save(args.spans)
    print(json.dumps({
        "t_ready": t_ready,
        "setup_speed": setup_speed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": np.__version__,
        "passes": passes,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
