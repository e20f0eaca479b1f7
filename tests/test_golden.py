"""`cy converge` on the bundled configs against stored golden CSVs.

The files in tests/data/golden/ were written by
`cy converge src/cylattice/configs/<name>.json --out <name>.csv` with the
per-point polynomial evaluation that preceded batched evaluation.  Later
changes may reorder floating-point arithmetic, so values are compared at
1e-12 relative, with an absolute floor for values at roundoff level; the
integer columns must match exactly.  Regenerate a file only for a change
that is meant to alter results, and say so where the change is recorded.
"""

import csv
import math
from pathlib import Path

import pytest

import cylattice
from cylattice.cli import main

CONFIG_DIR = Path(cylattice.__file__).parent / "configs"
GOLDEN_DIR = Path(__file__).parent / "data" / "golden"
RUNNABLE = ("affine_triangle", "degenerate_eps0", "degenerate_eps1",
            "random_n3_d4", "unit_triangle")
EXACT_COLUMNS = {"s", "c2_pass", "within_bound"}
REL_TOL = 1e-12
ABS_FLOOR = 1e-14


def _read(path: Path):
    with path.open(newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def _same(got: str, want: str) -> bool:
    a, b = float(got), float(want)
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_FLOOR)


@pytest.mark.parametrize("name", RUNNABLE)
def test_converge_csv_matches_golden(name, tmp_path, capsys):
    out = tmp_path / f"{name}.csv"
    assert main(["converge", str(CONFIG_DIR / f"{name}.json"), "--out", str(out)]) == 0
    capsys.readouterr()
    header, rows = _read(out)
    golden_header, golden_rows = _read(GOLDEN_DIR / f"{name}.csv")
    assert header == golden_header
    assert len(rows) == len(golden_rows)
    for row, golden in zip(rows, golden_rows):
        for column, got, want in zip(header, row, golden):
            if column in EXACT_COLUMNS:
                assert got == want, (row[0], column)
            else:
                assert _same(got, want), (row[0], column, got, want)


def test_golden_set_covers_every_bundled_config():
    bundled = {path.stem for path in CONFIG_DIR.glob("*.json")}
    assert bundled == set(RUNNABLE) | {"parallel_lines"}
    assert {path.stem for path in GOLDEN_DIR.glob("*.csv")} == set(RUNNABLE)


def test_converge_parallel_lines_exits_3(tmp_path, capsys):
    out = tmp_path / "parallel_lines.csv"
    assert main(["converge", str(CONFIG_DIR / "parallel_lines.json"), "--out", str(out)]) == 3
    assert "degenerate family" in capsys.readouterr().err
    assert not out.exists()
