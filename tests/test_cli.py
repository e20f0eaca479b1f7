import copy
import dataclasses
import functools
import json
import math
import operator
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import cylattice
from cylattice import cli
from cylattice.cli import main

CONFIG_DIR = Path(cylattice.__file__).parent / "configs"


def test_lattice_unit_triangle(capsys):
    code = main(["lattice", str(CONFIG_DIR / "unit_triangle.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert "N=2 d=3 degree=1" in out
    assert "vertices (3):" in out
    assert "line subsets (3):" in out


def test_lattice_rejects_parallel_lines(capsys):
    code = main(["lattice", str(CONFIG_DIR / "parallel_lines.json")])
    captured = capsys.readouterr()
    assert code == 3
    assert "subset (0, 1)" in captured.err


def _key_paths(node, prefix=()):
    """Every key path into a JSON value, as tuples of object keys and list indices."""
    if isinstance(node, list):
        node = dict(enumerate(node))
    for key, child in node.items() if isinstance(node, dict) else ():
        yield prefix + (key,)
        yield from _key_paths(child, prefix + (key,))


# Values of every JSON type: numbers (1e300 overflows a vertex), strings, lists, objects, bool, null.
MUTANT_VALUES = [2.5, 1e300, "t", "", [], [[1]], {"a": 1}, True, None]


def test_every_bundled_config_with_one_value_replaced_exits_cleanly(tmp_path, capsys):
    # At every key path of every bundled config, each value of MUTANT_VALUES in
    # turn: `cy lattice` exits 0, 2 or 3, with no traceback and no warning.
    path = tmp_path / "config.json"
    for config in sorted(CONFIG_DIR.glob("*.json")):
        raw = json.loads(config.read_text())
        raw.pop("output", None)
        for keys in list(_key_paths(raw)):
            for value in MUTANT_VALUES:
                mutant = copy.deepcopy(raw)
                functools.reduce(operator.getitem, keys[:-1], mutant)[keys[-1]] = value
                path.write_text(json.dumps(mutant))
                assert main(["lattice", str(path)]) in (0, 2, 3), (config.name, keys, value)
                assert "Traceback" not in capsys.readouterr().err


def test_lattice_random_n3_d4_counts(capsys):
    code = main(["lattice", str(CONFIG_DIR / "random_n3_d4.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert "vertices (4):" in out
    assert "line subsets (6):" in out


def test_lattice_json_dump(tmp_path, capsys):
    out_file = tmp_path / "lattice.json"
    code = main(["lattice", str(CONFIG_DIR / "unit_triangle.json"),
                 "--out", str(out_file)])
    capsys.readouterr()
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["degree"] == 1
    assert len(payload["vertices"]) == 3


@pytest.mark.parametrize("command", ["lattice", "converge", "rate"])
def test_only_verify_takes_tol(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, str(CONFIG_DIR / "unit_triangle.json"), "--tol", "1e-3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol 1e-3" in capsys.readouterr().err


def test_verify_tol_overrides_every_check(capsys):
    config = str(CONFIG_DIR / "random_n3_d4.json")
    for tol, code in (("1e-30", 4), ("1", 0)):
        assert main(["verify", config, "--sign-flip", "--tol", tol]) == code
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 9 and lines[-1].endswith("/8 checks passed")
        assert all(f"(tol {float(tol):.1e})" in line for line in lines[:-1])


def test_verify_passes_on_defaults(capsys):
    for name in ("unit_triangle.json", "random_n3_d4.json"):
        code = main(["verify", str(CONFIG_DIR / name), "--sign-flip"])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "FAIL" not in out


def test_verify_fault_injection_fails(capsys):
    code = main(["verify", str(CONFIG_DIR / "unit_triangle.json"), "--fault-inject"])
    out = capsys.readouterr().out
    assert code == 4
    assert "[FAIL] interpolation_match" in out


def _nan_in_one_call(fn, poison, calls):
    def wrapped(*args, **kwargs):
        calls.append(args)
        return poison(fn(*args, **kwargs))
    return wrapped


def _nan_at(index):
    """NaN at flat position `index` of an array."""
    return lambda r: np.where(np.arange(r.size).reshape(r.shape) == index, math.nan, r)


def _nan_function_value_at(index):
    return lambda dec: dataclasses.replace(dec, function_value=_nan_at(index)(dec.function_value))


@pytest.mark.parametrize("check, target, poison", [
    ("deboor_identity", "deboor_identity_residual", _nan_at(1)),
    ("deboor_remainder", "deboor_remainder", _nan_function_value_at(1)),
    ("homogeneous_representation", "homogeneous_representation", _nan_at(1)),
    ("newton_identity", "newton_identity", _nan_function_value_at(1)),
    ("techobserv", "techobserv_check",
     lambda reps: reps[:1] + [dataclasses.replace(reps[1], values=_nan_at(0)(reps[1].values))]
     + reps[2:]),
])
def test_verify_fails_on_nan_residual(monkeypatch, capsys, check, target, poison):
    # Each check makes one batched call; a NaN past its first residual is
    # what Python's max(worst, r) fold dropped.
    calls = []
    monkeypatch.setattr(cli, target, _nan_in_one_call(getattr(cli, target), poison, calls))
    code = main(["verify", str(CONFIG_DIR / "random_n3_d4.json")])
    lines = capsys.readouterr().out.splitlines()
    assert len(calls) == 1
    assert code == 4
    assert [line.split()[1] for line in lines if line.startswith("[FAIL]")] == [check]
    assert any(line.startswith(f"[FAIL] {check} ") and "residual nan" in line for line in lines)


def test_verify_seed_changes_draws_but_not_verdict(capsys):
    for seed in ("0", "1"):
        code = main(["verify", str(CONFIG_DIR / "unit_triangle.json"), "--seed", seed])
        out = capsys.readouterr().out
        assert code == 0, out


def test_verify_exits_3_on_overflowing_vertex_data(capsys):
    # N=5, d=12, seed 1: exp of the coordinate sum overflows at a vertex of
    # this lattice (norm ~1.6e3); the run must end in a conditioning message,
    # with no numpy warning (pytest turns one into an error).
    config = Path(__file__).parent / "data" / "random_n5_d12_seed1.json"
    code = main(["verify", str(config)])
    err = capsys.readouterr().err
    assert code == 3
    assert "numerical degeneracy: vertex H=" in err and "is not finite" in err
    assert "Traceback" not in err


def test_an_unknown_s_key_exits_2(tmp_path, capsys):
    config = json.loads((CONFIG_DIR / "unit_triangle.json").read_text())
    config["s"] = {"valus": [4]}
    path = tmp_path / "s.json"
    path.write_text(json.dumps(config))
    assert main(["verify", str(path)]) == 2
    assert capsys.readouterr().err.startswith("config error: unknown geometric s key 'valus'")


def test_converge_writes_deterministic_csv(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    for out in (out1, out2):
        code = main(["converge", str(CONFIG_DIR / "affine_triangle.json"),
                     "--s-max", "32", "--out", str(out)])
        assert code == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text().splitlines()[0]
    assert header == ("s,t,lattice_norm,c2_volume,c3_offset,"
                      "sup_error,coeff_error,bound_value,c2_pass,within_bound")
    # one row per s plus the header
    assert len(out1.read_text().splitlines()) == 1 + 5


def test_converge_of_a_family_that_never_moves_prints_nan_slopes(tmp_path, capsys):
    # A random family with no s rule is the same family at every s, so every
    # row has one lattice norm and no slope can be fitted.
    config = json.loads((CONFIG_DIR / "random_n3_d4.json").read_text())
    config["s"] = {"values": [1, 2, 4]}
    path = tmp_path / "still.json"
    path.write_text(json.dumps(config))
    assert main(["converge", str(path), "--out", str(tmp_path / "still.csv")]) == 0
    captured = capsys.readouterr()
    assert "fitted log-log slope (coeff vs lattice norm): nan" in captured.out.splitlines()
    assert "fitted log-log slope (sup vs lattice norm):   nan" in captured.out.splitlines()
    assert captured.err == ""


def test_converge_repeat_runs_write_identical_csv(tmp_path, capsys):
    outs = [tmp_path / "first.csv", tmp_path / "second.csv"]
    for out in outs:
        code = main(["converge", str(CONFIG_DIR / "affine_triangle.json"),
                     "--s-max", "16", "--out", str(out)])
        assert code == 0
    capsys.readouterr()
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_converge_builds_each_family_once(monkeypatch, capsys):
    # The base family plus one per row; C1-C3 come from the experiment's rows
    # and agree with a separate check_conditions sweep.
    from cylattice import HyperplaneFamily, load_config
    from helpers import check_conditions

    config = load_config(CONFIG_DIR / "affine_triangle.json")
    expected = check_conditions(config.sequence(), (2, 4, 8, 16), config.c2_threshold)
    builds = []
    init = HyperplaneFamily.__init__

    def counted(self, *args, **kwargs):
        builds.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(HyperplaneFamily, "__init__", counted)
    code = main(["converge", str(CONFIG_DIR / "affine_triangle.json"), "--s-max", "16"])
    out = capsys.readouterr().out
    assert code == 0
    assert len(builds) == 5
    verdict = {True: "PASS", False: "FAIL"}
    assert f"C1 (vertices -> 0): {verdict[expected.c1_pass]}" in out
    assert (f"C2 (volumes bounded below, min {expected.c2_min:.4g}): "
            f"{verdict[expected.c2_pass]}") in out
    assert f"C3 (offsets -> 0): {verdict[expected.c3_pass]}" in out


def test_rate_builds_each_family_the_taylor_polynomial_and_the_grid_once(monkeypatch, capsys):
    # `cy rate` reads convergence_experiment's rows: the base family plus one per
    # row, and one Taylor target and ball grid for the whole sweep.
    from cylattice import HyperplaneFamily, convergence

    calls = {"family": 0, "taylor": 0, "ball_grid": 0}
    init = HyperplaneFamily.__init__

    def counted_init(self, *args, **kwargs):
        calls["family"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(HyperplaneFamily, "__init__", counted_init)
    for name in ("taylor", "ball_grid"):
        def counted(*args, _name=name, _inner=getattr(convergence, name), **kwargs):
            calls[_name] += 1
            return _inner(*args, **kwargs)
        monkeypatch.setattr(convergence, name, counted)
    assert main(["rate", str(CONFIG_DIR / "affine_triangle.json"), "--s-max", "32"]) == 0
    capsys.readouterr()
    assert calls == {"family": 1 + 5, "taylor": 1, "ball_grid": 1}


@pytest.mark.parametrize("values", [[256, 4, 8, 16, 32, 64, 128],
                                    [4, 8, 16, 32, 64, 128, 256, 4]],
                         ids=["shuffled", "duplicated"])
def test_converge_verdicts_do_not_depend_on_the_order_of_s(tmp_path, capsys, values):
    def verdicts(s_values):
        config = json.loads((CONFIG_DIR / "affine_triangle.json").read_text())
        config["s"] = {"values": s_values}
        path = tmp_path / "ordered.json"
        path.write_text(json.dumps(config))
        assert main(["converge", str(path), "--out", str(tmp_path / "ordered.csv")]) == 0
        return [line for line in capsys.readouterr().out.splitlines()
                if line.startswith(("C1", "C2", "C3", "affine criterion", "errors decay"))]

    ascending = verdicts(sorted(set(values)))
    assert [line.rsplit(" ", 1)[-1] for line in ascending] == ["PASS"] * 4 + ["YES"] * 2
    assert verdicts(values) == ascending


def test_converge_rejects_threads_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["converge", str(CONFIG_DIR / "affine_triangle.json"), "--threads", "2"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


def test_converge_degenerate_reports_c2_failure(tmp_path, capsys):
    out_file = tmp_path / "eps1.csv"
    code = main(["converge", str(CONFIG_DIR / "degenerate_eps1.json"),
                 "--s-max", "32", "--out", str(out_file)])
    out = capsys.readouterr().out
    assert code == 0
    assert "C2" in out and "FAIL" in out
    assert out_file.exists()


def test_converge_degenerate_eps0_limit(capsys, tmp_path):
    out_file = tmp_path / "eps0.csv"
    code = main(["converge", str(CONFIG_DIR / "degenerate_eps0.json"),
                 "--out", str(out_file)])
    out = capsys.readouterr().out
    assert code == 0
    # interpolants converge to -x2, not to the Taylor polynomial 0: the
    # coefficient error against the Taylor polynomial stalls near 1
    rows = out_file.read_text().splitlines()[1:]
    last_coeff_error = float(rows[-1].split(",")[6])
    assert last_coeff_error == pytest.approx(1.0, abs=0.05)


def test_rate_command(capsys):
    code = main(["rate", str(CONFIG_DIR / "affine_triangle.json"),
                 "--s-min", "4", "--s-max", "64"])
    out = capsys.readouterr().out
    assert code == 0
    assert "yes" in out


def test_validation_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dimension": 2, "family": {"type": "wat"}}))
    code = main(["lattice", str(bad)])
    captured = capsys.readouterr()
    assert code == 2
    assert "config error" in captured.err


def test_s_window_validation(capsys):
    code = main(["converge", str(CONFIG_DIR / "affine_triangle.json"),
                 "--s-min", "1000"])
    captured = capsys.readouterr()
    assert code == 2
    assert "selects no s values" in captured.err



def _template_config(tmp_path, bundled="affine_triangle.json", **family):
    """A bundled config with some family entries replaced; returns its path."""
    config = json.loads((CONFIG_DIR / bundled).read_text())
    config["family"].update(family)
    config["s"] = {"values": [2, 4, 8, 16, 32]}
    del config["output"]
    path = tmp_path / "template.json"
    path.write_text(json.dumps(config))
    return str(path)


@pytest.mark.parametrize("command", ["converge", "lattice", "rate"])
@pytest.mark.parametrize("entry, reason", [
    ("1/(t-t)", "ZeroDivisionError"),
    ("(-t)^0.5", "not complex"),
    ("exp(1000/t)", "OverflowError"),
])
def test_template_evaluation_error_exits_2(tmp_path, capsys, command, entry, reason):
    config = _template_config(tmp_path, matrix=[[entry, "0"], ["0", "t"]])
    code = main([command, config])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"config error: expression {entry!r} has no finite real value at t = ")
    assert reason in err and "Traceback" not in err


def test_template_failing_at_a_later_s_exits_2(tmp_path, capsys):
    config = _template_config(tmp_path, matrix=[["1/(t-0.125)", "0"], ["0", "t"]])
    for command in ("converge", "rate"):
        assert main([command, config]) == 2
        assert "'1/(t-0.125)' has no finite real value at t = 0.125" in capsys.readouterr().err


@pytest.mark.parametrize("bundled, family, message", [
    ("affine_triangle.json", {"matrix": [["t-t", "0"], ["0", "t"]]}, "singular linear part"),
    ("affine_triangle.json", {"matrix": [["exp(1000*t)", "0"], ["0", "t"]]},
     "the affine image of plane 0 has a vanishing normal"),
    ("degenerate_eps1.json", {"points": [["0", "0"], ["t-t", "0"], ["2*t", "0"]]},
     "the line through points 0 and 1 has a vanishing normal"),
])
def test_degenerate_template_exits_3(tmp_path, capsys, bundled, family, message):
    config = _template_config(tmp_path, bundled, **family)
    for command in ("converge", "lattice", "verify", "rate"):
        assert main([command, config]) == 3
        assert capsys.readouterr().err == f"numerical degeneracy: {message}\n"


def test_a_family_failing_only_at_the_first_s_is_a_failed_row(tmp_path, capsys):
    # t - 0.5 makes the linear part singular at s = 2 only.
    config = _template_config(tmp_path, matrix=[["t-0.5", "0"], ["0", "t"]])
    for command, failed_row in (("converge", f"{2:>13d}  <family failed: singular linear part>"),
                                ("rate", f"{2:>6d} <family failed: singular linear part>")):
        assert main([command, config, "--s-max", "8"]) == 0
        captured = capsys.readouterr()
        assert failed_row in captured.out.splitlines()
        assert captured.err == ""


def test_rate_and_converge_name_a_degenerate_family_alike(tmp_path, capsys):
    # Collinear points fail general position at every s.
    config = _template_config(tmp_path, "degenerate_eps1.json",
                              points=[["0", "0"], ["t", "0"], ["2*t", "0"]])
    for command in ("converge", "rate"):
        assert main([command, config]) == 3
        assert capsys.readouterr().err.startswith("degenerate family: rejected: subset (0, 1)")


def test_identity_checks_make_no_single_point_evaluations(monkeypatch):
    # Each check's calls are those made before its CheckResult is recorded
    # and after the previous one's.
    from cylattice import cli, poly
    from cylattice.config import load_config

    calls = []
    evaluate = poly.MultiPoly.evaluate
    monkeypatch.setattr(poly.MultiPoly, "evaluate",
                        lambda self, x: calls.append("evaluate") or evaluate(self, x))
    marks = []
    check_result = cli.CheckResult
    monkeypatch.setattr(cli, "CheckResult",
                        lambda **kw: marks.append((kw["name"], len(calls))) or check_result(**kw))
    in_interpolate = []
    interpolate = cli.interpolate

    def counted_interpolate(*args):
        before = len(calls)
        out = interpolate(*args)
        in_interpolate.append(len(calls) - before)
        return out

    monkeypatch.setattr(cli, "interpolate", counted_interpolate)
    results = cli.run_verification(load_config(CONFIG_DIR / "random_n3_d4.json"), sign_flip=True)
    assert all(result.passed for result in results)
    counts = {name: count - before for (name, count), (_, before)
              in zip(marks, [("", 0)] + marks[:-1])}
    # f(x) and L[f](x) at each of the 10 points of de Boor's remainder, which
    # the batch-equals-single tests pin; `interpolate` evaluates f on the
    # whole vertex table at once, x1^m as well as exp.
    assert in_interpolate == [0, 0]
    assert counts.pop("deboor_remainder") == 2 * 10
    assert counts == {name: 0 for name in counts}


@pytest.mark.parametrize("grid, message", [
    ({"per_axis": 2}, "grid.per_axis 2 leaves no grid point in the ball in dimension 2"),
    ({"radius": math.inf}, "grid.radius must be positive with N*radius^2 finite, got inf"),
    ({"radius": 1e308}, "grid.radius must be positive with N*radius^2 finite, got 1e+308"),
])
def test_a_grid_with_no_point_in_a_finite_ball_exits_2(tmp_path, capsys, grid, message):
    config = json.loads((CONFIG_DIR / "affine_triangle.json").read_text())
    config["grid"].update(grid)
    del config["output"]
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(config))  # writes Infinity, which json.loads reads back
    for command in ("converge", "rate"):
        assert main([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"config error: {message}")
        assert "Traceback" not in captured.out + captured.err


def test_a_derivative_norm_that_is_not_finite_exits_3(tmp_path, capsys):
    # exp of the coordinate sum overflows on the ball of radius 1e20, so the
    # sampled derivative norm is not finite; no bound may be printed from it.
    config = json.loads((CONFIG_DIR / "affine_triangle.json").read_text())
    config["grid"]["radius"] = 1e20
    config["s"] = {"min": 2, "max": 8}
    del config["output"]
    path = tmp_path / "radius.json"
    path.write_text(json.dumps(config))
    for command in ("converge", "rate"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no raw numpy warning either
            assert main([command, str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.err == ("numerical degeneracy: the order-2 derivative norm estimate "
                                "on the ball of radius 1e+20 is not finite: nan\n")
        assert captured.out == ""


def test_verify_tol_zero_passes_exactly_the_zero_residuals(capsys):
    code = main(["verify", str(CONFIG_DIR / "unit_triangle.json"), "--tol", "0"])
    lines = capsys.readouterr().out.splitlines()[:-1]
    assert code == 4
    assert all("(tol 0.0e+00)" in line for line in lines)
    assert all(line.startswith("[PASS]") == (" residual 0.000e+00 " in line) for line in lines)


@pytest.mark.parametrize("tol", ["nan", "-1e-9", "-inf"])
def test_verify_rejects_a_nan_or_negative_tol(capsys, tol):
    assert main(["verify", str(CONFIG_DIR / "unit_triangle.json"), f"--tol={tol}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("config error: --tol must be a non-negative number, "
                            f"got {float(tol)!r}\n")


def test_verify_rejects_a_negative_seed(capsys):
    assert main(["verify", str(CONFIG_DIR / "unit_triangle.json"), "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: --seed must be a non-negative integer, got -1\n"


# Run code in a child process held to 2 GiB of address space, so that a grid
# admitted by mistake fails there and cannot exhaust the host's memory.  The
# statement sets the exit `code`; the child then writes its VmHWM to argv[1].
LIMITED_CHILD = ("import resource, sys\n"
                 "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
                 "{statement}\n"
                 "open(sys.argv[1], 'w').write(next(line.split()[1] for line "
                 "in open('/proc/self/status') if line.startswith('VmHWM:')))\n"
                 "sys.exit(code)\n")


def _limited(tmp_path, statement: str, *args,
             timeout: float = 300) -> tuple[subprocess.CompletedProcess, int]:
    """`statement` run under LIMITED_CHILD with sys.argv[2:] = args, and the child's peak
    resident size in kB.  The child is killed after `timeout` seconds of wall-clock time.

    The child reads its own VmHWM: its ru_maxrss would also count the memory of
    this test process, which Linux carries into the child's count across the exec."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": str(Path(cylattice.__file__).parent.parent)}
    peak = tmp_path / "peak_kb"
    run = subprocess.run([sys.executable, "-c", LIMITED_CHILD.format(statement=statement),
                          str(peak), *map(str, args)],
                         capture_output=True, text=True, env=env, timeout=timeout)
    return run, int(peak.read_text())


def _limited_cy(tmp_path, *args, timeout: float = 300) -> tuple[subprocess.CompletedProcess, int]:
    """`cy *args` run under LIMITED_CHILD, and the child's peak resident size in kB."""
    return _limited(tmp_path, "from cylattice.cli import main; code = main(sys.argv[2:])", *args,
                    timeout=timeout)


def _unit_triangle_with(tmp_path, **entries) -> Path:
    """unit_triangle.json with some top-level entries replaced, written to tmp_path."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**json.loads((CONFIG_DIR / "unit_triangle.json").read_text()),
                                **entries}))
    return path


@pytest.mark.parametrize("command, case", [
    ("converge", "d12"), ("rate", "d12"), ("converge", "per_axis"), ("rate", "per_axis"),
    ("converge", "d8")], ids=["converge", "rate", "converge-per_axis", "rate-per_axis", "d8"])
def test_a_grid_past_max_grid_terms_exits_2_before_its_arrays_are_built(command, case,
                                                                         tmp_path):
    # d12: N = 5, d = 12 at the default 21 points per axis: 532,509 ball points
    # times the 792 monomials of degree 7, whose arrays would take gigabytes.  d8:
    # 24,499,121 ball points at N = 8 and 15 points per axis, 1.3 GiB of points
    # alone.  Both are counted exactly without a grid.  per_axis: three lines in
    # the plane at 10^9 + 1 points per axis, whose axis alone would take 7.45 GiB;
    # a lower bound on the ball's points rejects it.
    if case == "d12":
        config = Path(__file__).resolve().parent / "data" / "random_n5_d12_seed1.json"
        message = "532509 ball-grid points times 792 monomials of degree 7"
    elif case == "d8":
        config = _unit_triangle_with(tmp_path, dimension=8, grid={"per_axis": 15},
                                     family={"type": "random", "count": 9, "seed": 1})
        message = "24499121 ball-grid points times 9 monomials of degree 1"
    else:
        config = _unit_triangle_with(tmp_path, grid={"per_axis": 1_000_000_001})
        message = "at least 7.85e+17 ball-grid points times 3 monomials of degree 1"
    run, peak = _limited_cy(tmp_path, command, config)
    assert (run.returncode, run.stdout) == (2, "")
    assert run.stderr == (f"config error: {message} pass MAX_GRID_TERMS = 10000000; "
                          "lower grid.per_axis\n")
    assert peak < 150 * 1024


@pytest.mark.parametrize("function, message, peak_mb", [
    ({"name": "monomial", "alpha": [630, 0]}, None, 40),  # C(632, 2) = 199,396 coefficients
    ({"name": "monomial", "alpha": [631, 0]},
     "function.alpha has degree 631, whose table of 200028 coefficients", 150),
    ({"name": "monomial", "alpha": [10000, 0]},
     "function.alpha has degree 10000, whose table of 50015001 coefficients", 150),
    ({"name": "polynomial", "terms": [[1, 0, 2.0], [0, 10000, 1.0]]},
     "function.terms[1] has degree 10000, whose table of 50015001 coefficients", 150),
], ids=["largest", "next", "monomial", "polynomial"])
def test_a_function_past_max_polynomial_terms_exits_2_before_its_table_is_built(
        function, message, peak_mb, tmp_path):
    # `cy lattice` never uses f, yet the config builds it when it is parsed: the
    # largest table admitted is a 1.6 MB vector there, and `cy lattice` with it
    # peaks near the 32 MB of `exp_sum`; a degree-10000 table would take 400 MB.
    run, peak = _limited_cy(tmp_path, "lattice", _unit_triangle_with(tmp_path, function=function))
    if message is None:
        assert (run.returncode, run.stderr) == (0, "")
    else:
        assert (run.returncode, run.stdout) == (2, "")
        assert run.stderr == (f"config error: {message} passes "
                              "MAX_POLYNOMIAL_TERMS = 200000\n")
    assert peak < peak_mb * 1024


@pytest.mark.parametrize("dimension, family, message", [
    (4, {"type": "random", "count": 30, "seed": 1}, "family.count gives C(30, 4) = 27405"),
    (2, {"type": "hyperplanes", "items": [{"normal": [1.0, k], "offset": k} for k in range(101)]},
     "family.items gives C(101, 2) = 5050"),
    (2, {"type": "affine", "base": {"type": "random", "count": 101, "seed": 1},
         "matrix": [["1", "0"], ["0", "1"]], "offset": ["0", "0"]},
     "family.base.count gives C(101, 2) = 5050"),
], ids=["random", "hyperplanes", "affine"])
@pytest.mark.parametrize("command", ["lattice", "converge"])
def test_a_family_past_max_vertices_exits_2_before_it_is_built(command, dimension, family,
                                                               message, tmp_path):
    # The general-position check compares every pair of the C(d, N) vertices; a
    # random family of 30 planes at N = 4 took minutes of retried draws.
    start = time.monotonic()
    run, _ = _limited_cy(tmp_path, command, _unit_triangle_with(
        tmp_path, dimension=dimension, family=family), timeout=60)
    assert time.monotonic() - start < 30
    assert (run.returncode, run.stdout) == (2, "")
    assert run.stderr == f"config error: {message} vertices, past MAX_VERTICES = 5000\n"


def test_ball_grid_past_max_grid_terms_raises_before_its_arrays_are_built(tmp_path):
    # About 4.9e8 points at N = 4 and 203 points per axis, 16 GB as an (M, 4) array.
    run, peak = _limited(tmp_path, "from cylattice import ball_grid\n"
                                   "try:\n    ball_grid(4, 0.5, 203)\n    code = 0\n"
                                   "except ValueError as exc:\n    print(exc)\n    code = 3")
    assert (run.returncode, run.stderr) == (3, "")
    assert run.stdout == ("ball_grid(dimension=4, radius=0.5, per_axis=203) has at least "
                          "4.93e+08 points, past MAX_GRID_TERMS = 10000000\n")
    assert peak < 150 * 1024


@pytest.mark.parametrize("command", ["converge", "lattice"])
def test_an_unwritable_out_path_exits_2(tmp_path, capsys, command):
    out = tmp_path / "missing" / "x.out"
    code = main([command, str(CONFIG_DIR / "unit_triangle.json"), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"config error: cannot write {out}: No such file or directory\n"
    assert not out.exists()


def test_an_unwritable_config_output_exits_2(tmp_path, capsys):
    config = json.loads((CONFIG_DIR / "unit_triangle.json").read_text())
    config["output"] = str(tmp_path)  # a directory cannot be opened for writing
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["converge", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: cannot write {tmp_path}: ")


@pytest.mark.parametrize("name", ["affine_triangle", "degenerate_eps0", "degenerate_eps1",
                                  "random_n3_d4", "unit_triangle"])
def test_converge_prints_the_c1_c3_verdict_and_the_affine_criterion(tmp_path, capsys, name):
    code = main(["converge", str(CONFIG_DIR / f"{name}.json"), "--out", str(tmp_path / "x.csv")])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    c3 = next(i for i, line in enumerate(lines) if line.startswith("C3 (offsets -> 0): "))
    assert lines[c3 + 1] == ("C1 <=> C3 (max|c| <= norm <= N^1.5 max|c| / C2 on every row): "
                             "PASS")
    affine = [line for line in lines if line.startswith("affine criterion")]
    if name == "affine_triangle":
        assert len(affine) == 1
        assert affine[0].startswith("affine criterion from the transform data (cross-check ")
        assert affine[0].endswith("): PASS, agrees with C1 and C2: YES")
    else:
        assert affine == []
