"""The shipped configs reproduce their committed reports.

Each golden file under tests/golden/ is the report.json that
``fastslow <cmd> --config configs/<cmd>.json`` wrote before the integrator
refactor that introduced this test; the converge report was regenerated
when the reduced fields moved from the full system's step to its sample
grid, which moved its floats by at most 2.5e-8 relative.  Strings, integers, booleans and list
lengths must match exactly; floats must agree to a relative 1e-12, which
leaves room for last-bit BLAS/SIMD differences between machines.
"""

import json
import math
from pathlib import Path

import pytest

from fastslow.cli import main

ROOT = Path(__file__).resolve().parents[1]
FLOAT_RTOL = 1e-12


def assert_matches(got, want, path="report"):
    if isinstance(want, dict):
        assert isinstance(got, dict), path
        assert list(got) == list(want), path
        for key in want:
            assert_matches(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list), path
        assert len(got) == len(want), path
        for m, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{path}[{m}]")
    elif isinstance(want, bool) or isinstance(got, bool):
        assert got is want, path
    elif isinstance(want, float) or isinstance(got, float):
        # an integral float is written without a decimal point, so either
        # side may parse as int
        assert isinstance(got, (int, float)), path
        assert math.isclose(got, want, rel_tol=FLOAT_RTOL, abs_tol=0.0), \
            f"{path}: {got!r} != {want!r}"
    else:
        assert type(got) is type(want) and got == want, path


@pytest.mark.parametrize("command", ["simulate", "certify", "converge", "attract"])
def test_shipped_config_matches_golden(tmp_path, command):
    out = tmp_path / command
    code = main([command, "--config", str(ROOT / "configs" / f"{command}.json"),
                 "--out", str(out), "--quiet"])
    assert code == 0
    got = json.loads((out / "report.json").read_text(encoding="utf-8"))
    want = json.loads(
        (ROOT / "tests" / "golden" / f"{command}.report.json")
        .read_text(encoding="utf-8"))
    assert_matches(got, want)
