"""fastslow benchmark: one workload through the real CLI, timed end to end,
or traced layer by layer.

    python3 perfbench/run.py --workload converge-n5 --seed 1 --seconds 30 --trace 0

Run from the repository root.  The workloads and metrics are declared in
BENCHMARK.json; perfbench/README.md says why each exists and which
end-to-end metric each per-layer metric should move.

Every pass runs in a worker process (BLAS pinned to one thread).  With
--trace 0 the result holds the end-to-end metrics: median pass time,
median set-up time over several fresh workers, and the worker's peak
resident memory.  Both times are given at reference host speed: the host
is shared and its speed swings by up to a factor of two, so each worker
gauges it with a probe (speed.py), during each pass and right after
set-up, and scales the time by it.  The raw times are printed and kept in
the record.  With --trace 1 the worker alternates untraced and traced
passes and the result holds the per-layer metrics.  The last line of
stdout is the JSON result; a human-readable summary precedes it.  Outputs
live under .perfbench/ in the repository root: work/ is removed at exit,
results/ keeps one record per run (machine, versions, every pass) and the
spans of the last traced pass.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 1
# fresh workers timed for setup_s, on top of the measuring worker
SETUP_SAMPLES = 7
# every run must end well inside three minutes
RUN_BUDGET_S = 170.0
SINGLE_THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, required=True,
                   help="measure for this long (at least two passes run)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_worker(args, work: Path, deadline: float, extra=()) -> dict:
    """Run one worker to completion; return its JSON line plus setup_s."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
           "--work", str(work), "--workload", args.workload,
           "--seed", str(args.seed), *extra]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time budget exhausted before the worker started")
    env = {**os.environ, **SINGLE_THREAD_ENV}
    t_spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n"
                         + proc.stderr[-4000:])
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["raw_setup_s"] = result["t_ready"] - t_spawn
    result["setup_s"] = result["raw_setup_s"] * result["setup_speed"]
    return result


def machine(seed: int, numpy_version: str) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=30).stdout.strip() or "unknown"
        except (OSError, subprocess.TimeoutExpired):
            commit = "unknown"
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu or "unknown", "python": platform.python_version(),
            "numpy": numpy_version, "seed": seed, "commit": commit}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def measure(args) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    work = ROOT / ".perfbench" / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    results_dir = ROOT / ".perfbench" / "results"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        setups = [] if args.trace else [
            run_worker(args, work, deadline, ["--setup-only"])
            for _ in range(SETUP_SAMPLES)]
        result = run_worker(args, work, deadline, [
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--spans", str(results_dir / f"spans-{tag}.npz")])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    setups.append(result)

    passes = result["passes"]
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    attempted = sum(p["invocations"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    metrics = {
        "wall_s": statistics.median(p["ref_wall_s"] for p in untraced),
        "setup_s": statistics.median(w["setup_s"] for w in setups),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    layers = {}
    if traced:
        for name in traced[0]["layers"]:
            layers[name] = statistics.median(p["layers"][name] for p in traced)
        for name in traced[0]["accuracy"]:
            layers[f"accuracy.{name}"] = traced[-1]["accuracy"][name]
        # untraced passes less the probe's own time, at the host's speed
        layers["trace.overhead_s"] = (
            statistics.median(p["wall_s"] for p in traced)
            - statistics.median(p["wall_s"] - p["probe_s"] for p in untraced))
    record = {
        "workload": args.workload, "trace": args.trace,
        "machine": machine(args.seed, result["numpy"]),
        "attempted": attempted, "failed": len(failures), "failures": failures,
        "end_to_end": metrics, "per_layer": layers,
        "accuracy": passes[0]["accuracy"],
        "wall_s_untraced": [p["ref_wall_s"] for p in untraced],
        "raw_wall_s_untraced": [p["wall_s"] for p in untraced],
        "probe_s_untraced": [p["probe_s"] for p in untraced],
        "probes_untraced": [p["probes"] for p in untraced],
        "wall_s_traced": [p["wall_s"] for p in traced],
        "setup_s_samples": [w["setup_s"] for w in setups],
        "raw_setup_s_samples": [w["raw_setup_s"] for w in setups],
    }
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    return record


def print_summary(record: dict, spec: dict) -> None:
    m = record["machine"]
    untraced = record["wall_s_untraced"]
    raw_wall = statistics.median(record["raw_wall_s_untraced"])
    raw_setup = statistics.median(record["raw_setup_s_samples"])
    print(f"fastslow benchmark  workload={record['workload']} seed={m['seed']} "
          f"trace={record['trace']}")
    print(f"machine  nproc={m['nproc']} cpu={m['cpu']!r} python={m['python']} "
          f"numpy={m['numpy']} commit={m['commit']}")
    q1, q3 = quartiles(untraced)
    e2e = record["end_to_end"]
    units = {x["name"]: x["unit"] for x in spec["end_to_end"]}
    print(f"  {'wall_s':<44} {e2e['wall_s']:>14.6g} {units['wall_s']:<6} "
          f"median of {len(untraced)} untraced passes, q1 {q1:.6g} q3 {q3:.6g}, "
          f"at reference speed; raw {raw_wall:.6g}")
    print(f"  {'setup_s':<44} {e2e['setup_s']:>14.6g} {units['setup_s']:<6} "
          f"median of {len(record['setup_s_samples'])} workers, at reference "
          f"speed; raw {raw_setup:.6g}")
    print(f"  {'peak_rss_mb':<44} {e2e['peak_rss_mb']:>14.6g} "
          f"{units['peak_rss_mb']:<6} measuring worker")
    ops_failed = record["failed"] / record["attempted"]
    print(f"  {'ops_failed':<44} {ops_failed:>14.6g} {'share':<6} "
          f"{record['failed']} of {record['attempted']} CLI invocations")
    for name, value in record["accuracy"].items():
        if value:
            print(f"  {name:<44} {value:>14.6g} {'1':<6} accuracy, pass 0")
    if record["per_layer"]:
        layer_units = {x["name"]: x["unit"] for x in spec["per_layer"]}
        for name, value in record["per_layer"].items():
            print(f"  {name:<44} {value:>14.6g} {layer_units.get(name, '?'):<6} "
                  f"median of {len(record['wall_s_traced'])} traced passes")
    for failure in record["failures"][:20]:
        print(f"FAILED {failure}")


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        print(f"unknown workload {args.workload!r}; choose from {workloads}",
              file=sys.stderr)
        return 2
    if not (ROOT / "src" / "fastslow" / "__init__.py").is_file():
        print(f"no fastslow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        record = measure(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 3
    print_summary(record, spec)
    chosen = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = record["per_layer"] if args.trace else record["end_to_end"]
    missing = [x["name"] for x in chosen if x["name"] not in values]
    if missing:
        print(f"benchmark error: no value for {missing}", file=sys.stderr)
        return 3
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {x["name"]: {"value": values[x["name"]], "unit": x["unit"]}
                    for x in chosen},
    }))
    return 0 if record["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
