"""Smoke runs of the example script under scripts/ with small arguments.

The script imports only the public package API, so a renamed or removed
export breaks it; a run must exit 0 and end on its summary line.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args, last_line_start", [
    ("alpha_sweep.py", ["--alphas", "0.7"], "0.70"),
], ids=["alpha_sweep"])
def test_script_runs(script, args, last_line_start):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    last = proc.stdout.strip().splitlines()[-1].strip()
    assert last.startswith(last_line_start), last
