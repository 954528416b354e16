"""The shipped configs reproduce their committed reports and tables.

Each golden file under tests/golden/ is the report.json that ``fastslow
<cmd> --config configs/<name>.json`` wrote before the integrator refactor
that introduced this test; <cmd> is <name> up to its first underscore.  The
converge_wide report and table, of the 8-epsilon sweep, were written later,
when every epsilon was already stepped on one sample grid.  The converge
report was regenerated when the reduced fields moved from the full system's
step to its sample grid, which moved its floats by at most 2.5e-8 relative,
and the converge report and table again when the RK4 reference at epsilon /
20 gave way to the exponential reference on the sample grid, which moved
the errors by at most 2.6e-13 absolute (3.7e-9 relative).  Both converge
reports and tables were regenerated when the study went from the finest
epsilon's 0.001 sample grid to samples every 0.01, stepped at the h its
self-gap budget asks for (0.005 for converge, 0.00125 for converge_wide),
which moved the errors by at most 3.85e-5 relative, most of it the sampled
maximum: converge slope0 0.99428344 -> 0.99427749 and slope1 1.99684072 ->
1.99682660, converge_wide slope0 0.99775829 -> 0.99776173 and slope1
1.99879190 -> 1.99878920.  Strings, integers, booleans and list lengths
must match exactly; floats must agree to a relative 1e-12, which leaves
room for last-bit BLAS/SIMD differences between machines.  The certify
report's noise_floor also passes within FD_ABS_TOL, for the reason given
below for the fd_value cells: it is the largest |fd_value| of the pairwise
companion's scan, round-off of structural zeros.

The certify, converge and attract raw.csv goldens were written before the
CSV tables moved to one writer.  Their comment line, header and integer
index columns must match exactly, and every other cell to FLOAT_RTOL.  The
certify table's fd_value cells also pass within FD_ABS_TOL: the 4-point
stencil divides by fd_step**2 = 1e-6, so a last-bit change in one field
value moves a cell by about 1e-10, and a structural zero reads as round-off
of that size (2.8e-11 in the golden) rather than as a relative quantity.  The
2.4 MB simulate table is not committed: its header and row count are
checked, and its last row must parse to the report's final state exactly.
"""

import json
import math
from pathlib import Path

import pytest

from fastslow.cli import main

ROOT = Path(__file__).resolve().parents[1]
FLOAT_RTOL = 1e-12
FD_ABS_TOL = 1e-9
# leading integer index columns of each committed raw.csv golden
CSV_INT_COLUMNS = {"certify": 4, "converge": 0, "attract": 0}


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
        # the committed goldens were written by an older emitter that spelled
        # an integral float without a decimal point, so a golden value may
        # parse as int
        assert isinstance(got, (int, float)), path
        abs_tol = FD_ABS_TOL if path == "report.noise_floor" else 0.0
        assert math.isclose(got, want, rel_tol=FLOAT_RTOL, abs_tol=abs_tol), \
            f"{path}: {got!r} != {want!r}"
    else:
        assert type(got) is type(want) and got == want, path


@pytest.mark.parametrize("name", ["simulate", "certify", "converge",
                                  "converge_wide", "attract"])
def test_shipped_config_matches_golden(tmp_path, name):
    command = name.split("_")[0]
    out = tmp_path / name
    code = main([command, "--config", str(ROOT / "configs" / f"{name}.json"),
                 "--out", str(out), "--quiet"])
    assert code == 0
    got = json.loads((out / "report.json").read_text(encoding="utf-8"))
    want = json.loads(
        (ROOT / "tests" / "golden" / f"{name}.report.json")
        .read_text(encoding="utf-8"))
    assert_matches(got, want)
    if command == "simulate":
        assert_simulate_table(out / "raw.csv", got)
    else:
        assert_table_matches(out / "raw.csv",
                             ROOT / "tests" / "golden" / f"{name}.raw.csv",
                             CSV_INT_COLUMNS[command])


def assert_table_matches(got_path, want_path, int_columns):
    got = got_path.read_text(encoding="utf-8").splitlines()
    want = want_path.read_text(encoding="utf-8").splitlines()
    assert got[:2] == want[:2], "comment line and header"
    assert len(got) == len(want), "row count"
    abs_tols = [FD_ABS_TOL if name == "fd_value" else 0.0
                for name in want[1].split(",")]
    for m, (got_row, want_row) in enumerate(zip(got[2:], want[2:])):
        g, w = got_row.split(","), want_row.split(",")
        assert len(g) == len(w), f"row {m}"
        assert g[:int_columns] == w[:int_columns], f"row {m}"
        for c in range(int_columns, len(w)):
            assert math.isclose(float(g[c]), float(w[c]), rel_tol=FLOAT_RTOL,
                                abs_tol=abs_tols[c]), \
                f"row {m} column {c}: {g[c]} != {w[c]}"


def assert_simulate_table(path, report):
    with path.open(encoding="utf-8") as stream:
        comment, header = next(stream), next(stream)
        n_rows, last = 0, None
        for last in stream:
            n_rows += 1
    n = len(report["final_theta"])
    assert comment.startswith("# full-system trajectory")
    assert header.rstrip("\n").split(",") == (
        ["time"] + [f"theta_{i + 1}" for i in range(n)]
        + [f"a_{i + 1}_{j + 1}" for i in range(n) for j in range(n)])
    assert n_rows == report["n_samples"]
    values = [float(v) for v in last.split(",")]
    assert values[0] == report["t_end"]
    assert values[1:1 + n] == report["final_theta"]
    assert values[1 + n:] == [w for row in report["final_weights"] for w in row]
