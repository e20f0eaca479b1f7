import json
import math
import operator
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import cylattice
from cylattice import (ChungYaoLattice, cardinal_table, compile_expression, load_config,
                       parse_config)
from cylattice.config import compile_matrix, compile_vector
from cylattice.convergence import ball_grid
from cylattice.errors import ConfigError
from helpers import (Hyperplane, affine_image_planes, assert_family_equals_planes,
                     cardinal_rows_per_plane, config_planes, reference_expression,
                     triangle_planes)

CONFIG_DIR = Path(cylattice.__file__).parent / "configs"


def test_expression_basics():
    assert compile_expression("1+2*3")(0.0) == pytest.approx(7.0)
    assert compile_expression("(1+2)*3")(0.0) == pytest.approx(9.0)
    assert compile_expression("t^2")(0.5) == pytest.approx(0.25)
    assert compile_expression("2*t - 1/t")(0.5) == pytest.approx(1.0 - 2.0)
    assert compile_expression("exp(t)")(1.0) == pytest.approx(math.e)
    assert compile_expression(3)(0.1) == pytest.approx(3.0)


def test_expression_unary_minus_binds_below_power():
    assert compile_expression("-t^2")(0.5) == pytest.approx(-0.25)
    assert compile_expression("(-t)^2")(0.5) == pytest.approx(0.25)


def test_expression_power_right_associative():
    assert compile_expression("2^3^2")(0.0) == pytest.approx(512.0)


def test_expression_rejects_garbage():
    for bad in ("t +", "2 **", "foo(t)", "t $ 2", "sin(t)", "(t"):
        with pytest.raises(ConfigError):
            compile_expression(bad)


def test_matrix_and_vector_compilation():
    mat = compile_matrix([["t^2", "0"], ["0", "-(t^2)*(1+t)"]])(0.5)
    assert mat == pytest.approx(np.array([[0.25, 0.0], [0.0, -0.375]]))
    vec = compile_vector(["t", "2*t"])(0.25)
    assert vec == pytest.approx(np.array([0.25, 0.5]))
    with pytest.raises(ConfigError):
        compile_matrix([["t", "t"], ["t"]])


def test_parse_config_validation_errors():
    with pytest.raises(ConfigError):
        parse_config({"family": {"type": "hyperplanes", "items": []}})  # no dimension
    with pytest.raises(ConfigError):
        parse_config({"dimension": 2, "family": {"type": "mystery"}})
    with pytest.raises(ConfigError):
        parse_config({"dimension": 2,
                      "family": {"type": "hyperplanes", "items": [
                          {"normal": [1, 0], "offset": 0}]}})  # too few planes
    with pytest.raises(ConfigError):
        parse_config({
            "dimension": 2,
            "family": {"type": "hyperplanes", "items": [
                {"normal": [1, 0], "offset": 0},
                {"normal": [0, 1], "offset": 0}]},
            "function": {"name": "not_a_function"},
        })


def test_s_range_parsing():
    base_family = {"type": "hyperplanes", "items": [
        {"normal": [1, 0], "offset": 0},
        {"normal": [0, 1], "offset": 0}]}
    cfg = parse_config({"dimension": 2, "family": base_family,
                        "s": {"min": 2, "max": 256, "spacing": "geometric"}})
    assert cfg.s_values == (2, 4, 8, 16, 32, 64, 128, 256)
    cfg = parse_config({"dimension": 2, "family": base_family,
                        "s": {"values": [3, 9, 27]}})
    assert cfg.s_values == (3, 9, 27)
    cfg = parse_config({"dimension": 2, "family": base_family,
                        "s": {"min": 1, "max": 5, "spacing": "linear", "step": 2}})
    assert cfg.s_values == (1, 3, 5)
    with pytest.raises(ConfigError):
        parse_config({"dimension": 2, "family": base_family,
                      "s": {"min": 5, "max": 2}})


def test_bundled_configs_load_and_build():
    cfg = load_config(CONFIG_DIR / "unit_triangle.json")
    lattice = ChungYaoLattice(cfg.family())
    assert len(lattice.vertices) == 3

    cfg = load_config(CONFIG_DIR / "affine_triangle.json")
    seq = cfg.sequence()
    lattice = ChungYaoLattice(seq.family(4))
    t = 0.25
    u = 1 + t
    expected = sorted(map(tuple, np.round(
        [[t, t], [t * t + t, t], [t, -t * t * u + t]], 12)))
    got = sorted(map(tuple, np.round(lattice.vertex_array(), 12)))
    assert np.allclose(got, expected)


def test_points2d_sequence_matches_direct_construction():
    # The flattening triangle (0,0), (t, t^(2+eps)), (2t, 0), t = 1/s, written out.
    for eps in (0, 1):
        seq = load_config(CONFIG_DIR / f"degenerate_eps{eps}.json").sequence()
        for s in (2, 3, 10, 64, 256):
            t = 1.0 / s
            points = [[0.0, 0.0], [t, t ** (2.0 + eps)], [2.0 * t, 0.0]]
            assert_family_equals_planes(seq.family(s), triangle_planes(points))


def test_affine_triangle_sequence_matches_direct_construction():
    # The unit triangle under diag(t^2, -t^2 (1+t)) x + (t, t), t = 1/s, written out.
    unit = [Hyperplane([1.0, 0.0], 0.0), Hyperplane([0.0, 1.0], 0.0),
            Hyperplane([1.0, 1.0], 1.0)]
    seq = load_config(CONFIG_DIR / "affine_triangle.json").sequence()
    for s in (2, 3, 10, 64, 256):
        t = 1.0 / s
        matrix = [[t ** 2, 0.0], [0.0, -(t ** 2) * (1.0 + t)]]
        assert_family_equals_planes(seq.family(s), affine_image_planes(unit, matrix, [t, t]))


@pytest.mark.parametrize("name, templates", [
    ("affine_triangle", 6), ("degenerate_eps0", 6), ("unit_triangle", 0),
])
def test_each_template_is_compiled_once_per_load(monkeypatch, name, templates):
    from cylattice import config as config_module

    parsed = []
    parse = config_module._parse
    monkeypatch.setattr(config_module, "_parse", lambda text: parsed.append(text) or parse(text))
    cfg = load_config(CONFIG_DIR / f"{name}.json")
    assert len(parsed) == templates
    # Every later sequence and family reuses the compiled templates, yet is new.
    families = [cfg.family(), cfg.family(), cfg.sequence().family(cfg.s_values[-1])]
    assert len(parsed) == templates
    assert len({id(family) for family in families}) == 3


def test_random_family_config_is_reproducible():
    cfg = load_config(CONFIG_DIR / "random_n3_d4.json")
    f1 = cfg.family()
    f2 = load_config(CONFIG_DIR / "random_n3_d4.json").family()
    assert np.allclose(f1.normal_matrix(), f2.normal_matrix())
    assert f1.count == 4 and f1.dimension == 3


def test_load_config_errors(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ConfigError):
        load_config(missing)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(bad)


MINIMAL = {"dimension": 2, "family": {"type": "hyperplanes", "items": [
    {"normal": [1, 0], "offset": 0},
    {"normal": [0, 1], "offset": 0}]}}


def test_unknown_top_level_key_is_rejected_with_the_allowed_keys():
    with pytest.raises(ConfigError) as exc:
        parse_config({**MINIMAL, "thredas": 2})
    message = str(exc.value)
    assert "'thredas'" in message
    for allowed in ("dimension", "family", "function", "s", "grid", "c2_threshold",
                    "gp_tolerance", "output"):
        assert allowed in message
    assert "quad_degree" not in message


def test_removed_threads_key_is_rejected():
    with pytest.raises(ConfigError, match="'threads' was removed: rows always run serially"):
        parse_config({**MINIMAL, "threads": 4})


def test_removed_quad_degree_key_and_flag_are_rejected(tmp_path, capsys):
    from cylattice.cli import main

    with pytest.raises(ConfigError, match="'quad_degree' was removed: cy only takes"):
        parse_config({**MINIMAL, "quad_degree": 7})
    path = tmp_path / "minimal.json"
    path.write_text(json.dumps(MINIMAL))
    with pytest.raises(SystemExit) as exc:
        main(["lattice", str(path), "--quad-degree", "7"])
    assert exc.value.code == 2
    assert "--quad-degree" in capsys.readouterr().err


def test_unknown_grid_key_is_rejected():
    with pytest.raises(ConfigError) as exc:
        parse_config({**MINIMAL, "grid": {"radius": 0.5, "per_axes": 11}})
    message = str(exc.value)
    assert "'per_axes'" in message and "radius" in message and "per_axis" in message
    with pytest.raises(ConfigError, match="'grid' must be an object"):
        parse_config({**MINIMAL, "grid": [0.5, 11]})


@pytest.mark.parametrize("s, key, allowed", [
    ({"valus": [4], "mx": 8}, "'valus'", "geometric s keys: min, max, spacing"),
    ({"min": 2, "max": 8, "step": 3}, "'step'", "geometric s keys: min, max, spacing"),
    ({"min": 2, "max": 8, "spacing": "linear", "stop": 3}, "'stop'",
     "linear s keys: min, max, spacing, step"),
    ({"values": [4], "max": 8}, "'max'", "s keys: values"),
])
def test_unknown_s_key_is_rejected(s, key, allowed):
    # The values form takes `values` alone; the range form takes `step` only
    # with linear spacing.
    with pytest.raises(ConfigError) as exc:
        parse_config({**MINIMAL, "s": s})
    assert f"unknown {allowed.split(' keys')[0]} key {key}" in str(exc.value)
    assert f"(allowed {allowed})" in str(exc.value)


@pytest.mark.parametrize("grid, message", [
    ({"radius": math.inf}, "grid.radius must be positive with N*radius^2 finite, got inf"),
    ({"radius": -math.inf}, "got -inf"),
    ({"radius": math.nan}, "got nan"),
    ({"radius": 0.0}, "got 0.0"),
    ({"radius": 1e300}, "grid.radius must be positive with N*radius^2 finite, got 1e+300 "
                        "in dimension 2"),
    ({"per_axis": 1}, "grid.per_axis must be at least 2"),
    ({"per_axis": 2}, "grid.per_axis 2 leaves no grid point in the ball in dimension 2"),
])
def test_a_grid_with_no_point_in_a_finite_ball_is_rejected(grid, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config({**MINIMAL, "grid": {"radius": 0.5, "per_axis": 21, **grid}})


AFFINE_TRIANGLE = json.loads((CONFIG_DIR / "affine_triangle.json").read_text())
RANDOM_FAMILY = {"type": "random", "count": 4, "seed": 123}


@pytest.mark.parametrize("change, message", [
    ({"grid": {"radius": "half"}}, "grid.radius must be a number, got 'half'"),
    ({"grid": {"per_axis": "21.5"}}, "grid.per_axis must be an integer, got '21.5'"),
    ({"grid": {"per_axis": math.inf}}, "grid.per_axis must be an integer, got inf"),
    ({"c2_threshold": None}, "c2_threshold must be a number, got None"),
    ({"gp_tolerance": [1e-8]}, "gp_tolerance must be a number, got [1e-08]"),
    ({"dimension": "two"}, "dimension must be an integer, got 'two'"),
    ({"s": {"min": "two"}}, "s.min must be an integer, got 'two'"),
    ({"s": {"max": "many"}}, "s.max must be an integer, got 'many'"),
    ({"s": {"min": 2, "max": 8, "spacing": "linear", "step": "1/2"}},
     "s.step must be an integer, got '1/2'"),
    ({"s": {"values": [2, "four"]}}, "s.values must be an integer, got 'four'"),
    ({"s": {"values": 4}}, "s.values must be a list"),
    ({"dimension": 3, "family": {**RANDOM_FAMILY, "seed": "abc"}},
     "family.seed must be an integer, got 'abc'"),
    ({"dimension": 3, "family": {**RANDOM_FAMILY, "count": "four"}},
     "family.count must be an integer, got 'four'"),
    ({"dimension": 3, "family": {**RANDOM_FAMILY, "min_subset_det": "big"}},
     "family.min_subset_det must be a number, got 'big'"),
    ({"dimension": 3, "family": {**RANDOM_FAMILY, "max_lattice_norm": {}}},
     "family.max_lattice_norm must be a number, got {}"),
    ({"grid": {"per_axis": 21.5}}, "grid.per_axis must be an integer, got 21.5"),
    ({"s": {"values": [2.9, 4]}}, "s.values must be an integer, got 2.9"),
    ({"s": {"values": [2, True]}}, "s.values must be an integer, got True"),
    ({"s": {"min": False}}, "s.min must be an integer, got False"),
    ({"dimension": True}, "dimension must be an integer, got True"),
    ({"grid": {"radius": True}}, "grid.radius must be a number, got True"),
    ({"s": {"min": 2, "max": 8, "spacing": "linear", "step": 0}},
     "s.step must be at least 1, got 0"),
    ({"s": {"min": 2, "max": 8, "spacing": "linear", "step": -2}},
     "s.step must be at least 1, got -2"),
    ({"s": {"min": 2, "max": 8, "spacing": "linear", "step": 1.5}},
     "s.step must be an integer, got 1.5"),
    ({"gp_tolerance": math.nan}, "gp_tolerance must be finite and positive, got nan"),
    ({"gp_tolerance": -1}, "gp_tolerance must be finite and positive, got -1.0"),
    ({"c2_threshold": math.nan}, "c2_threshold must be finite, got nan"),
    ({"family": {**AFFINE_TRIANGLE["family"], "matrix": [[True, "0"], ["0", "t"]]}},
     "expression must be a string or number, got bool"),
    ({"dimension": 3, "family": {**RANDOM_FAMILY, "seed": -1}},
     "family.seed must be a non-negative integer, got -1"),
    ({"function": {"name": "sin_affine", "coeffs": [1, 2, 3]}},
     "function.coeffs must be a list of 2 numbers, got [1, 2, 3]"),
    ({"function": {"name": "exp_affine", "coeffs": [1, "a"]}},
     "function.coeffs must be a number, got 'a'"),
    ({"function": {"name": "cos_affine", "shift": "x"}},
     "function.shift must be a number, got 'x'"),
    ({"function": {"name": "product", "factors": [
        {"name": "exp_sum"}, {"name": "sin_affine", "coeffs": [1, 2, 3]}]}},
     "function.factors[1].coeffs must be a list of 2 numbers, got [1, 2, 3]"),
    ({"function": {"name": "exp_affine", "coeffs": [True, 1]}},
     "function.coeffs must be a number, got True"),
    ({"function": {"name": "sin_affine", "shift": math.nan}},
     "function.shift must be finite, got nan"),
    ({"function": {"name": "monomial", "alpha": [1.5, 2]}},
     "function.alpha must be an integer, got 1.5"),
    ({"function": {"name": "monomial", "alpha": [-1, 2]}},
     "function.alpha must be a non-negative integer, got -1"),
    ({"function": {"name": "polynomial", "terms": [[0, 0, 1.0], [1, 1, "a"]]}},
     "function.terms[1] must be a number, got 'a'"),
    ({"function": {"name": "polynomial", "terms": [[1, False, 2.0]]}},
     "function.terms[0] must be an integer, got False"),
    ({"function": {"name": "product", "factors": [{"name": "exp_sum"}, "exp_sum"]}},
     "function.factors[1] must be an object with a 'name' field, got 'exp_sum'"),
    ({"function": {"name": "product", "factors": [
        {"name": "exp_sum"}, {"name": "exp_affine", "shift": math.inf}]}},
     "function.factors[1].shift must be finite, got inf"),
    # A number written as a string is no number.
    ({"grid": {"radius": "0.5", "per_axis": 21}}, "grid.radius must be a number, got '0.5'"),
    ({"grid": {"per_axis": "21"}}, "grid.per_axis must be an integer, got '21'"),
    ({"function": {"name": "exp_affine", "coeffs": ["2", "0"]}},
     "function.coeffs must be a number, got '2'"),
    ({"function": {"name": "exp_affine", "shift": "1e-3"}},
     "function.shift must be a number, got '1e-3'"),
    ({"dimension": 3, "family": {**RANDOM_FAMILY, "min_subset_det": "0.5"}},
     "family.min_subset_det must be a number, got '0.5'"),
    # Each function name and family type takes its own keys.
    ({"function": {"name": "exp_affine", "coef": [2, 0]}},
     "unknown function key 'coef' (allowed function keys: name, coeffs, shift)"),
    ({"function": {"name": "exp_sum", "coeffs": [2, 0]}},
     "unknown function key 'coeffs' (allowed function keys: name)"),
    ({"function": {"name": "product", "factors": [
        {"name": "exp_sum"}, {"name": "monomial", "alpha": [1, 0], "shift": 1}]}},
     "unknown function.factors[1] key 'shift' (allowed function.factors[1] keys: name, alpha)"),
    ({"function": {"name": ["exp_sum"]}}, "unknown function name ['exp_sum']"),
    ({"dimension": 3, "family": {**RANDOM_FAMILY, "min_det": 0.5}},
     "unknown family key 'min_det' (allowed family keys: type, count, seed, min_subset_det, "
     "max_lattice_norm)"),
    ({"family": {**AFFINE_TRIANGLE["family"], "scale": 3}},
     "unknown family key 'scale' (allowed family keys: type, base, matrix, offset)"),
    ({"family": {**AFFINE_TRIANGLE["family"], "base": {
        **AFFINE_TRIANGLE["family"]["base"], "items": [
            {"normal": [1, 0], "offset": 0, "ofset": 1}, {"normal": [0, 1], "offset": 0},
            {"normal": [1, 1], "offset": 1}]}}},
     "unknown family.base.items[0] key 'ofset' (allowed family.base.items[0] keys: normal, "
     "offset)"),
    ({"family": {"type": "points2d", "points": [["0", "0"], ["t", "0"], ["0", "t"]],
                 "count": 3}},
     "unknown family key 'count' (allowed family keys: type, points)"),
    ({"family": {"type": ["affine"]}}, "unknown family type ['affine']"),
    # A point of a points2d family is a list of two entries.
    ({"family": {"type": "points2d", "points": [5, [1, 0], [0, 1]]}},
     "family.points[0] must be a list of 2 entries, got 5"),
    ({"family": {"type": "points2d", "points": [[1, 0], [0, 1], ["t", "t", "0"]]}},
     "family.points[2] must be a list of 2 entries, got ['t', 't', '0']"),
])
def test_a_value_that_is_not_a_number_is_a_config_error_naming_its_key(
        tmp_path, capsys, change, message):
    from cylattice.cli import main

    raw = {**AFFINE_TRIANGLE, **change}
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config(raw)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    assert main(["converge", str(path)]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["lattice", "verify", "converge", "rate"])
def test_a_malformed_function_spec_stops_every_command(tmp_path, capsys, command):
    # The function is checked when the config loads, also by commands that never call it.
    from cylattice.cli import main

    path = tmp_path / "config.json"
    path.write_text(json.dumps(
        {**AFFINE_TRIANGLE, "function": {"name": "sin_affine", "coeffs": [1, 2, 3]}}))
    assert main([command, str(path), "--s-max", "4"]) == 2
    err = capsys.readouterr().err
    assert "function.coeffs must be a list of 2 numbers" in err and "Traceback" not in err


def _raises(error, call, *args) -> bool:
    try:
        call(*args)
    except error:
        return True
    return False


def test_the_per_axis_rule_accepts_exactly_the_nonempty_ball_grids():
    for dimension in range(1, 6):
        family = {"type": "random", "count": dimension, "seed": 1}
        for per_axis in range(2, 8):
            config = {"dimension": dimension, "family": family,
                      "grid": {"radius": 0.5, "per_axis": per_axis}}
            assert _raises(ConfigError, parse_config, config) == \
                _raises(ValueError, ball_grid, dimension, 0.5, per_axis), (dimension, per_axis)
    line = {"dimension": 1, "family": {"type": "random", "count": 1, "seed": 1}}
    assert parse_config({**line, "grid": {"radius": 0.5, "per_axis": 2}}).grid_per_axis == 2
    assert ball_grid(1, 0.5, 2).tolist() == [[-0.5], [0.5]]
    with pytest.raises(ValueError, match=re.escape(
            "ball_grid(dimension=2, radius=0.5, per_axis=2) has no point in the ball")):
        ball_grid(2, 0.5, 2)


def test_every_known_key_is_accepted():
    cfg = parse_config({**MINIMAL, "function": {"name": "exp_sum"}, "s": {"values": [1]},
                        "grid": {"radius": 0.4, "per_axis": 5}, "c2_threshold": 0.1,
                        "gp_tolerance": 1e-9, "output": "out.csv"})
    assert (cfg.radius, cfg.grid_per_axis, cfg.output) == (0.4, 5, "out.csv")


def test_the_function_is_built_once_when_the_config_is_parsed(monkeypatch):
    from cylattice import config as config_module

    builds = []
    build = config_module.function_from_spec
    monkeypatch.setattr(config_module, "function_from_spec",
                        lambda *args: builds.append(args) or build(*args))
    cfg = parse_config({**MINIMAL, "function": {"name": "exp_sum"}})
    assert cfg.function() is cfg.function()
    assert len(builds) == 1
    with pytest.raises(ConfigError, match="^config has no 'function' entry$"):
        parse_config(MINIMAL).function()


def test_bundled_configs_use_only_known_keys():
    for path in sorted(CONFIG_DIR.glob("*.json")):
        load_config(path)


def test_cli_exits_2_on_a_config_that_sets_threads(tmp_path, capsys):
    from cylattice.cli import main

    path = tmp_path / "threads.json"
    path.write_text(json.dumps({**MINIMAL, "threads": 2}))
    assert main(["lattice", str(path)]) == 2
    assert "'threads' was removed" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# The template language, pinned string by string and checked as properties
# ---------------------------------------------------------------------------

TS = (0.5, 0.25, 1.0 / 3.0, 1.0 / 256.0)

ACCEPTED = [
    ("t^2", lambda t: t ** 2.0),
    ("-(t^2)*(1+t)", lambda t: -(t ** 2.0) * (1.0 + t)),
    ("t^(2+1)", lambda t: t ** (2.0 + 1.0)),
    ("t\n+1", lambda t: t + 1.0),
    (" \t2 ^ -t ^ 2\r\n", lambda t: 2.0 ** -(t ** 2.0)),
    (" t *　2", lambda t: t * 2.0),
    ("exp (-t)/ 3.", lambda t: math.exp(-t) / 3.0),
    ("--t - -.5", lambda t: -(-t) - -0.5),
    ("1/t-2/t*t", lambda t: 1.0 / t - 2.0 / t * t),
    ("01.50*t", lambda t: 1.5 * t),
    ("٣*t", lambda t: 3.0 * t),
    ("exp(-inf) + t", lambda t: math.exp(-math.inf) + t),
    ("exp(-" + "1" * 400 + ")+t", lambda t: 0.0 + t),
]

REJECTED = [
    "**", "t**2", "2 **", "t*\n*2", "1e-3", "1E3", "0x10", "1_0", "1j", "+t", "t +", "",
    "(t", "t)", "t t", "1.2.3", ".", "t.real", "exp", "exp t", "exp(t,)", "exp()",
    "exp(t)(t)", "t(2)", "sin(t)", "True", "t<1", "t//2", "t%2", "(t, t)", "[t]",
    "t if t else 1", "not t", "t # note", "ｔ", "ｅｘｐ(t)", "t²",
    "1" * 400 + "inity", "lambda: t", "(yield t)",
]

DEEP = ["(" * 3000 + "t" + ")" * 3000, "-" * 999 + "t", "+".join(["1"] * 200000),
        "t^" * 3000 + "2"]


@pytest.mark.parametrize("text, expected", ACCEPTED)
def test_accepted_template_values(text, expected):
    compiled = compile_expression(text)
    reference = reference_expression(text)
    for t in TS:
        assert compiled(t) == expected(t) == reference(t)


@pytest.mark.parametrize("text", REJECTED)
def test_rejected_templates_raise_config_error(text):
    with pytest.raises(ConfigError):
        reference_expression(text)
    with pytest.raises(ConfigError, match="expression"):
        compile_expression(text)


@pytest.mark.parametrize("text", DEEP, ids=["parens", "minus", "sum", "power"])
def test_deep_templates_give_a_callable_or_config_error(text):
    try:
        compiled = compile_expression(text)
    except ConfigError:
        return
    try:
        value = compiled(0.5)
    except ConfigError:
        return
    assert math.isfinite(value)


@pytest.mark.parametrize("text, t, reason", [
    ("1/(t-t)", 0.5, "ZeroDivisionError"),
    ("0^-t", 0.5, "ZeroDivisionError"),
    ("(-t)^0.5", 0.25, "not complex"),
    ("exp((-t)^0.5)", 0.25, "not complex"),
    ("(-t)^0.5 - (-t)^0.5", 0.25, "not complex"),
    ("exp(1000/t)", 0.5, "OverflowError"),
    ("2^(1/t)", 1.0 / 2048.0, "OverflowError"),
    ("inf*t", 0.5, "inf"),
    ("nan+t", 0.5, "nan"),
    (math.inf, 0.5, "inf"),
])
def test_evaluation_failure_is_a_config_error(text, t, reason):
    with pytest.raises(ConfigError) as exc:
        compile_expression(text)(t)
    message = str(exc.value)
    assert message.startswith(f"expression {text!r} has no finite real value at t = {t!r}")
    assert reason in message


def test_matrix_evaluation_failure_names_the_entry():
    build = compile_matrix([["t", "0"], ["0", "1/(t-0.5)"]])
    assert build(0.25) == pytest.approx(np.array([[0.25, 0.0], [0.0, -4.0]]))
    with pytest.raises(ConfigError, match=r"'1/\(t-0.5\)' has no finite real value at t = 0.5"):
        build(0.5)


# A template as (text, precedence, direct evaluation).  Precedence levels follow
# the grammar: 1 sum, 2 product, 3 unary minus, 4 power, 5 atom.
_LEAVES = st.one_of(
    st.just(("t", 5, lambda t: t)),
    st.from_regex(r"[0-9]{1,3}(\.[0-9]{0,2})?|\.[0-9]{1,2}", fullmatch=True).map(
        lambda s: (s, 5, lambda t, v=float(s): v)),
)


def _wrap(child, level):
    text, precedence, _ = child
    return text if precedence >= level else f"({text})"


def _branches(children):
    binary = {"+": (1, 1, 2, operator.add), "-": (1, 1, 2, operator.sub),
              "*": (2, 2, 3, operator.mul), "/": (2, 2, 3, operator.truediv),
              "^": (4, 5, 3, operator.pow)}

    def combine(args):
        symbol, left, right, space = args
        level, need_left, need_right, op = binary[symbol]
        text = f"{_wrap(left, need_left)}{space}{symbol}{space}{_wrap(right, need_right)}"
        return text, level, lambda t: op(left[2](t), right[2](t))

    return st.one_of(
        st.tuples(st.sampled_from(sorted(binary)), children, children,
                  st.sampled_from(["", " ", "\n"])).map(combine),
        children.map(lambda c: ("-" + _wrap(c, 3), 3, lambda t: -c[2](t))),
        children.map(lambda c: (f"exp({c[0]})", 5, lambda t: math.exp(c[2](t)))),
        children.map(lambda c: (f"({c[0]})", 5, c[2])),
    )


@settings(max_examples=200)
@given(st.recursive(_LEAVES, _branches, max_leaves=16))
def test_random_templates_match_direct_evaluation(template):
    text, _, direct = template
    _assert_values(compile_expression(text), [_finite_or_none(direct, t) for t in TS])


_TOKENS = list("t+-*/^().0123456789 \n_,#e") + ["exp(", "inf", "nan", "**", "1e", "0x", "٣",
                                                 "²", "ｔ", "sin", "if"]


@settings(max_examples=300)
@given(st.one_of(st.lists(st.sampled_from(_TOKENS), max_size=30).map("".join),
                 st.text(max_size=30)))
@example(DEEP[0])
@example(DEEP[1])
@example(DEEP[2])
@example(DEEP[3])
def test_any_text_gives_a_callable_or_config_error(text):
    """compile_expression raises nothing but ConfigError, and it accepts exactly
    what the original grammar accepts, with the same values."""
    try:
        compiled = compile_expression(text)
    except ConfigError:
        compiled = None
    try:
        reference = reference_expression(text)
        expected = [_finite_or_none(reference, t) for t in TS]
    except ConfigError:
        reference = None
    except RecursionError:  # the original reader fails on deep nesting
        return
    assert (compiled is None) == (reference is None)
    if compiled is not None:
        _assert_values(compiled, expected)


def _finite_or_none(evaluate, t):
    try:
        value = evaluate(t)
        return value if math.isfinite(value) else None
    except (ArithmeticError, TypeError):  # TypeError: isfinite of a complex
        return None


def _assert_values(compiled, expected):
    for t, value in zip(TS, expected):
        if value is None:
            with pytest.raises(ConfigError):
                compiled(t)
        else:
            assert compiled(t) == value


def test_whole_floats_are_read_as_integers():
    cfg = parse_config({**AFFINE_TRIANGLE, "grid": {"per_axis": 21.0}, "s": {"values": [2.0, 4]}})
    assert (cfg.grid_per_axis, cfg.s_values) == (21, (2, 4))
    assert all(type(v) is int for v in (cfg.grid_per_axis, *cfg.s_values))


# Python's json reads the literals NaN and Infinity as floats.
@pytest.mark.parametrize("item, message", [
    ('{"normal": [1, 0], "offset": NaN}',
     "family.items[0]: hyperplane normal and offset must be finite when normalized, "
     "got [1.0, 0.0] and nan"),
    ('{"normal": [Infinity, 1], "offset": 0}', "family.items[0]: hyperplane normal and offset "
                                               "must be finite"),
    ('{"normal": ["a", 1], "offset": 0}', "family.items[0].normal must be a number, got 'a'"),
    ('{"normal": [1, true], "offset": 0}', "family.items[0].normal must be a number, got True"),
    ('{"normal": [1, 0], "offset": [0]}', "family.items[0].offset must be a number, got [0]"),
    ('{"normal": [0, 0], "offset": 1}', "family.items[0]: hyperplane normal must be nonzero"),
    ('{"normal": 7, "offset": 1}', "hyperplane normal has wrong dimension"),
    ('{"normal": [1, 0], "ofset": 0}',
     "unknown family.items[0] key 'ofset' (allowed family.items[0] keys: normal, offset)"),
    ('{"normal": ["1", 0], "offset": 0}', "family.items[0].normal must be a number, got '1'"),
    ('{"normal": [1, 0], "offset": "0"}', "family.items[0].offset must be a number, got '0'"),
])
def test_a_plane_that_is_not_finite_numbers_is_a_config_error_naming_its_item(
        tmp_path, capsys, item, message):
    from cylattice.cli import main

    text = ('{"dimension": 2, "family": {"type": "hyperplanes", "items": [' + item
            + ', {"normal": [0, 1], "offset": 0}, {"normal": [1, 1], "offset": 1}]}}')
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config(json.loads(text))
    path = tmp_path / "config.json"
    path.write_text(text)
    for command in ("lattice", "verify"):
        assert main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err


PER_PLANE_CONFIGS = ["unit_triangle.json", "affine_triangle.json", "degenerate_eps0.json",
                     "degenerate_eps1.json"]


@pytest.mark.parametrize("name", PER_PLANE_CONFIGS)
def test_config_families_equal_the_per_plane_build(name):
    # hyperplanes, affine and points2d families, at every s of the config.
    cfg = load_config(CONFIG_DIR / name)
    for s in cfg.s_values:
        assert_family_equals_planes(cfg.sequence().family(s), config_planes(cfg.family_spec, s))


# parallel_lines.json is rejected by the general-position check: it has no lattice.
def test_the_per_plane_checks_cover_every_bundled_config():
    names = PER_PLANE_CONFIGS + ["random_n3_d4.json", "parallel_lines.json"]
    assert sorted(names) == sorted(path.name for path in CONFIG_DIR.glob("*.json"))


@pytest.mark.parametrize("name", PER_PLANE_CONFIGS + ["random_n3_d4.json"])
def test_cardinal_tables_equal_the_per_plane_build(name):
    cfg = load_config(CONFIG_DIR / name)
    for s in cfg.s_values:
        family = cfg.sequence().family(s)
        planes = [Hyperplane(n, c) for n, c in zip(family.normal_matrix(), family.offsets())]
        lattice = ChungYaoLattice(family)
        assert np.array_equal(cardinal_table(lattice).coeffs,
                              cardinal_rows_per_plane(lattice, planes))
