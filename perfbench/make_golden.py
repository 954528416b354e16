"""Regenerate perfbench/golden.json: the report.json of every invocation of
every workload at the default seed.

    python3 perfbench/make_golden.py

Run from the repository root, and only when a change to the reports is
intended and explained.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from workloads import (DEFAULT_SEED, GOLDEN_PATH, WORKLOADS, make_configs,
                       write_configs)
from worker import load_fastslow, run_pass

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    modules = load_fastslow(ROOT)
    golden = {}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for workload in WORKLOADS:
            paths = write_configs(make_configs(workload, DEFAULT_SEED),
                                  Path(tmp) / workload)
            _, invocations = run_pass(modules, paths, Path(tmp) / workload / "out")
            golden[workload] = {}
            for command, rc, out in invocations:
                if rc != 0:
                    print(f"{workload} {command}: exit code {rc}", file=sys.stderr)
                    return 1
                golden[workload][command] = json.loads(
                    (out / "report.json").read_text(encoding="utf-8"))
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
