"""`cy converge|lattice|verify|rate` on the bundled configs against golden copies.

The files in tests/data/golden/ were written by, for each runnable config
src/cylattice/configs/<name>.json:

- `cy converge <config> --out <name>.csv`, with the per-point polynomial
  evaluation that preceded batched evaluation;
- `cy lattice <config> --out <name>_lattice.json` and the output of
  `cy verify <config> --sign-flip` (<name>_verify.txt), with the per-subset
  vertex solves that preceded the batched vertex table;
- the output of `cy rate <config> --s-max 32` (<name>_rate.txt), with its
  own per-index loop and hypothesis check, before `cy rate` and
  `convergence_experiment` shared them.  Its `pk_max` column alone was
  regenerated when the sup of |P_K| moved from 1000 random points of the
  ball to the ball grid on which the sup error is measured; the other
  columns are the converge rows' (see test_rate_golden_agrees_with_the_converge_golden).

Later changes may reorder floating-point arithmetic, so values are compared
at 1e-12 relative, with an absolute floor for values at roundoff level; the
integer columns, the keys and the verify check names and verdicts must match
exactly.  The rate output prints 4 significant digits and is compared byte
for byte, exit code included.  Regenerate a file only for a change that is
meant to alter results, and say so where the change is recorded.
"""

import csv
import json
import math
import re
import sys
from pathlib import Path

import pytest

import cylattice
from cylattice import convergence, divdiff, poly
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


def _same_tree(got, want, path="") -> None:
    if isinstance(want, dict):
        assert set(got) == set(want), path
        for key in want:
            _same_tree(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (a, b) in enumerate(zip(got, want)):
            _same_tree(a, b, f"{path}[{i}]")
    elif isinstance(want, int):
        assert got == want, path
    else:
        assert math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_FLOOR), (path, got, want)


@pytest.mark.parametrize("name", RUNNABLE)
def test_lattice_json_matches_golden(name, tmp_path, capsys):
    out = tmp_path / f"{name}.json"
    assert main(["lattice", str(CONFIG_DIR / f"{name}.json"), "--out", str(out)]) == 0
    capsys.readouterr()
    golden = json.loads((GOLDEN_DIR / f"{name}_lattice.json").read_text())
    _same_tree(json.loads(out.read_text()), golden)


VERDICT = re.compile(r"^\[(PASS|FAIL)\] (\S+)")


def _verdicts(text: str):
    return [m.groups() for m in map(VERDICT.match, text.splitlines()) if m]


@pytest.mark.parametrize("name", RUNNABLE)
def test_verify_sign_flip_verdicts_match_golden(name, capsys):
    code = main(["verify", str(CONFIG_DIR / f"{name}.json"), "--sign-flip"])
    got = _verdicts(capsys.readouterr().out)
    want = _verdicts((GOLDEN_DIR / f"{name}_verify.txt").read_text())
    assert len(want) == 8
    assert got == want
    assert code == (0 if all(status == "PASS" for status, _ in want) else 4)


@pytest.mark.parametrize("name", RUNNABLE)
def test_rate_output_matches_golden(name, capsys):
    code = main(["rate", str(CONFIG_DIR / f"{name}.json"), "--s-max", "32"])
    captured = capsys.readouterr()
    assert captured.out == (GOLDEN_DIR / f"{name}_rate.txt").read_text()
    assert captured.err == ""
    assert code == 0


# Library paths that no `cy` command takes: the general product and composition,
# the quadrature, hull-by-hull polynomial integrals and divided differences that
# only the tests call, the one-lattice bound (`cy rate` reads the rows of
# convergence_experiment), and the tuple views of the monomial table (`cy` reads
# `poly.exponent_array` rows and binomial sizes).
UNREACHED = [(poly, "substitute"), (divdiff, "substitute"), (poly.MultiPoly, "__mul__"),
             (poly.MultiPoly, "affine"), (divdiff, "divided_difference"),
             (divdiff, "simplex_integral"), (divdiff, "simplex_integral_poly"),
             (divdiff, "grundmann_moller_rule"), (convergence, "bound_evaluator"),
             (poly, "multi_indices"), (poly, "homogeneous_indices")]


def _bindings(owner, attribute):
    """owner, and every cylattice module that imported owner.attribute under its name."""
    original = getattr(owner, attribute)
    return [owner] + [module for name, module in sorted(sys.modules.items())
                      if (name == "cylattice" or name.startswith("cylattice."))
                      and module is not owner and getattr(module, attribute, None) is original]


def _unreached(name: str):
    def fail(*args, **kwargs):
        raise AssertionError(f"cy reached {name}")
    return fail


@pytest.mark.parametrize("name", RUNNABLE)
def test_golden_commands_reach_no_general_product_or_quadrature(name, tmp_path, capsys,
                                                                 monkeypatch):
    for owner, attribute in UNREACHED:
        for binding in _bindings(owner, attribute):
            monkeypatch.setattr(binding, attribute, _unreached(attribute))
    test_converge_csv_matches_golden(name, tmp_path, capsys)
    test_lattice_json_matches_golden(name, tmp_path, capsys)
    test_verify_sign_flip_verdicts_match_golden(name, capsys)
    test_rate_output_matches_golden(name, capsys)


@pytest.mark.parametrize("name", RUNNABLE)
def test_rate_golden_agrees_with_the_converge_golden(name):
    # Each rate line's norm, and where the hypotheses hold its measured and bound,
    # are the converge row's lattice_norm, sup_error and bound_value at .4g.
    header, rows = _read(GOLDEN_DIR / f"{name}.csv")
    by_s = {row[0]: dict(zip(header, row)) for row in rows}
    checked = 0
    for line in (GOLDEN_DIR / f"{name}_rate.txt").read_text().splitlines()[1:]:
        cells = line.split()
        if not cells[0].isdigit() or cells[1].startswith("<"):
            continue  # the closing note, or a failed family
        row = {column: format(float(value), ".4g") for column, value in by_s[cells[0]].items()}
        assert cells[1] == row["lattice_norm"], line
        if "hypotheses not met" not in line:
            assert cells[5:7] == [row["sup_error"], row["bound_value"]], line
            assert cells[7] == "yes", line
        checked += 1
    assert checked >= 1


def test_golden_set_covers_every_bundled_config():
    bundled = {path.stem for path in CONFIG_DIR.glob("*.json")}
    assert bundled == set(RUNNABLE) | {"parallel_lines"}
    for pattern, suffix in (("*.csv", ""), ("*_lattice.json", "_lattice"),
                            ("*_verify.txt", "_verify"), ("*_rate.txt", "_rate")):
        stems = {path.stem for path in GOLDEN_DIR.glob(pattern)}
        assert stems == {name + suffix for name in RUNNABLE}


@pytest.mark.parametrize("command", ["lattice", "verify"])
def test_lattice_and_verify_parallel_lines_exit_3(command, capsys):
    assert main([command, str(CONFIG_DIR / "parallel_lines.json")]) == 3
    assert "degenerate family" in capsys.readouterr().err


def test_converge_parallel_lines_exits_3(tmp_path, capsys):
    out = tmp_path / "parallel_lines.csv"
    assert main(["converge", str(CONFIG_DIR / "parallel_lines.json"), "--out", str(out)]) == 3
    assert "degenerate family" in capsys.readouterr().err
    assert not out.exists()


def test_rate_parallel_lines_exits_3(capsys):
    assert main(["rate", str(CONFIG_DIR / "parallel_lines.json"), "--s-max", "32"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("degenerate family: ")
