"""Experiment configuration: JSON schema, and a tiny expression grammar in t.

Affine templates and point families are written entrywise as closed-form
strings in the single variable t (with t = 1/s), over the grammar
+  -  *  /  ^  exp( ), parentheses and decimal numbers.  Python's `ast` parses
a template with ^ read as **, and a walk that admits only those nodes
compiles the tree into a callable of t; the text is never executed.
"""

from __future__ import annotations

import ast
import functools
import json
import math
import operator
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError
from .functions import (CosAffine, ExpAffine, PolynomialFunction, Product, SinAffine,
                        SmoothFunction)
from .poly import MultiPoly
from .geometry import (
    DEFAULT_GP_TOLERANCE,
    HyperplaneFamily,
    PlaneError,
    random_family,
    unit_planes,
)
from .convergence import (
    DEFAULT_C2_THRESHOLD,
    DEFAULT_GRID_PER_AXIS,
    DEFAULT_RADIUS,
    DEFAULT_S_VALUES,
    LatticeSequence,
    affine_sequence,
    triangle_family_from_points,
)


# ---------------------------------------------------------------------------
# Expression grammar: + - * / ^ exp(), variable t
# ---------------------------------------------------------------------------

# A number is a run of decimal digits and dots, read by float().  The parser
# sees its repr between spaces, so it cannot merge with a neighbouring letter,
# and Python's own 1e-3, 0x10, 1_0 or 1j cannot be written.
_NUMBER = re.compile(r"[\d.]+")
_SOURCE = re.compile(r"[A-Za-z0-9 +\-*/^().]*")
_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
           ast.Div: operator.truediv, ast.Pow: operator.pow}


def _parse(text: str) -> ast.expr:
    """Syntax tree of a template, parsed by Python with ^ read as **."""
    try:
        source = _NUMBER.sub(lambda m: f" {float(m.group())!r} ", " ".join(text.split()))
    except ValueError as exc:
        raise ConfigError(f"bad number in expression {text!r}: {exc}") from None
    if not _SOURCE.fullmatch(source) or "**" in source:
        raise ConfigError(f"expression {text!r} may use only t, exp, numbers, + - * / ^ ( )")
    try:
        return ast.parse(source.strip().replace("^", "**"), mode="eval").body
    except SyntaxError as exc:
        raise ConfigError(f"cannot parse expression {text!r}: {exc.msg}") from None


def _compile(node: ast.expr, text: str) -> Callable[[float], float]:
    """Callable of t for a whitelisted node; ConfigError names anything else."""
    match node:
        case ast.BinOp(left, op, right) if type(op) in _BINARY:
            op, left, right = _BINARY[type(op)], _compile(left, text), _compile(right, text)
            return lambda t: op(left(t), right(t))
        case ast.UnaryOp(ast.USub(), operand):
            operand = _compile(operand, text)
            return lambda t: -operand(t)
        case ast.Call(ast.Name("exp"), [argument], []):
            argument = _compile(argument, text)
            return lambda t: math.exp(argument(t))
        case ast.Name("t"):
            return lambda t: t
        case ast.Constant(float() as value):
            pass
        case ast.Name(word) if word.lower() in ("inf", "infinity", "nan"):
            value = float(word)  # the words float() reads as numbers
        case _:
            raise ConfigError(f"{ast.unparse(node)!r} is not allowed in expression {text!r}")
    return lambda t: value


def compile_expression(text) -> Callable[[float], float]:
    """Compile a string in t (or a bare number) into a callable of t.

    The callable raises ConfigError, naming the expression and t, on a value
    that is not a finite real number (say 1/0, an overflow, or (-1)^0.5).
    """
    if isinstance(text, (int, float)) and not isinstance(text, bool):  # JSON true is no number
        number = float(text)
        evaluate = lambda t: number
    elif isinstance(text, str):
        try:
            evaluate = _compile(_parse(text), text)
        except (RecursionError, MemoryError):  # deep nesting, in Python's parser or in _compile
            raise ConfigError(f"expression {text!r} is nested too deeply") from None
    else:
        raise ConfigError(f"expression must be a string or number, got {type(text).__name__}")

    def checked(t: float) -> float:
        try:
            value = evaluate(t)
            if math.isfinite(value):  # TypeError for a complex value
                return value
        except (ArithmeticError, TypeError, RecursionError) as exc:
            value = exc
        raise ConfigError(f"expression {text!r} has no finite real value at t = {t!r}: {value!r}")

    return checked


def compile_matrix(rows) -> Callable[[float], np.ndarray]:
    compiled = [compile_vector(row) for row in rows]
    if any(len(row) != len(rows) for row in rows):
        raise ConfigError("affine matrix must be square")
    return lambda t: np.array([row(t) for row in compiled])


def compile_vector(entries) -> Callable[[float], np.ndarray]:
    compiled = [compile_expression(e) for e in entries]
    return lambda t: np.array([f(t) for f in compiled])


# ---------------------------------------------------------------------------
# Config schema
# ---------------------------------------------------------------------------

@dataclass
class ExperimentConfig:
    """Validated experiment description (see the JSON schema in the README)."""

    dimension: int
    family_spec: dict
    s_values: tuple[int, ...]
    radius: float
    grid_per_axis: int
    c2_threshold: float
    gp_tolerance: float
    output: str | None
    # Set by parse_config from the specs it validated: the templates it compiled, and
    # the function (None without a 'function' entry).
    build_sequence: Callable[[], LatticeSequence] = field(init=False, repr=False, compare=False)
    smooth_function: SmoothFunction | None = field(init=False, repr=False, compare=False)

    def sequence(self) -> LatticeSequence:
        """A new sequence, from the templates compiled when the config was loaded."""
        return self.build_sequence()

    def family(self, s: int | None = None) -> HyperplaneFamily:
        seq = self.sequence()
        return seq.family(self.s_values[0] if s is None else s)

    def function(self) -> SmoothFunction:
        if self.smooth_function is None:
            raise ConfigError("config has no 'function' entry")
        return self.smooth_function


def _require(cond: bool, message: str):
    if not cond:
        raise ConfigError(message)


def _number(kind, value, key: str):
    """kind(value), kind int or float, or ConfigError naming the key.  A bool or a
    string is not a number, and an integer key takes a float only when it is whole."""
    try:
        if isinstance(value, (bool, str)) or (
                kind is int and isinstance(value, float) and not value.is_integer()):
            raise TypeError
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{key} must be {'an integer' if kind is int else 'a number'}, "
                          f"got {value!r}") from None


_CONFIG_KEYS = ("dimension", "family", "function", "s", "grid",
                "c2_threshold", "gp_tolerance", "output")
_GRID_KEYS = ("radius", "per_axis")
_S_RANGE_KEYS = {"geometric": ("min", "max", "spacing"),
                 "linear": ("min", "max", "spacing", "step")}
_FAMILY_KEYS = {"hyperplanes": ("type", "items"), "affine": ("type", "base", "matrix", "offset"),
                "points2d": ("type", "points"),
                "random": ("type", "count", "seed", "min_subset_det", "max_lattice_norm")}
_ITEM_KEYS = ("normal", "offset")
_FUNCTION_KEYS = {"exp_sum": ("name",), "exp_affine": ("name", "coeffs", "shift"),
                  "sin_affine": ("name", "coeffs", "shift"),
                  "cos_affine": ("name", "coeffs", "shift"), "monomial": ("name", "alpha"),
                  "polynomial": ("name", "terms"), "product": ("name", "factors")}


def _reject_unknown_keys(entry: dict, allowed: Sequence[str], where: str):
    """Raise ConfigError naming the first key of `entry` outside `allowed`."""
    for key in entry:
        if key not in allowed:
            raise ConfigError(f"unknown {where} key {key!r} "
                              f"(allowed {where} keys: {', '.join(allowed)})")


def _finite(value, key: str) -> float:
    number = _number(float, value, key)
    _require(math.isfinite(number), f"{key} must be finite, got {number!r}")
    return number


def _exponent(value, key: str) -> int:
    exponent = _number(int, value, key)
    _require(exponent >= 0, f"{key} must be a non-negative integer, got {exponent}")
    return exponent


# Most coefficients, C(N + degree, N), of a `monomial` or `polynomial` table: the config
# builds it when it is parsed, as one dense vector of 8 bytes per coefficient.
MAX_POLYNOMIAL_TERMS = 200_000
# Most vertices C(d, N) of d planes: the general-position check compares every pair.
MAX_VERTICES = 5_000


def _exponents(alpha: list, dimension: int, key: str) -> tuple[int, ...]:
    """The exponents alpha, once the table of their degree is within MAX_POLYNOMIAL_TERMS."""
    alpha = tuple(_exponent(a, key) for a in alpha)
    size = math.comb(dimension + sum(alpha), dimension)
    _require(size <= MAX_POLYNOMIAL_TERMS, f"{key} has degree {sum(alpha)}, whose table of "
             f"{size} coefficients passes MAX_POLYNOMIAL_TERMS = {MAX_POLYNOMIAL_TERMS}")
    return alpha


def _vertex_budget(count: int, dimension: int, key: str):
    vertices = math.comb(count, dimension)
    _require(vertices <= MAX_VERTICES, f"{key} gives C({count}, {dimension}) = {vertices} "
             f"vertices, past MAX_VERTICES = {MAX_VERTICES}")


def _list(value, length: int, key: str, what: str) -> list:
    _require(isinstance(value, list) and len(value) == length,
             f"{key} must be a list of {length} {what}, got {value!r}")
    return value


_AFFINE_FUNCTIONS = {"exp_affine": ExpAffine, "sin_affine": SinAffine, "cos_affine": CosAffine}


def function_from_spec(spec, dimension: int, where: str = "function") -> SmoothFunction:
    """Build a catalog function from a config dict ({"name": ..., params}).

    Unknown names, keys the name does not take and malformed fields raise a
    ConfigError naming the key, as in `function.coeffs` or `function.factors[1].shift`.
    """
    _require(isinstance(spec, dict) and "name" in spec,
             f"{where} must be an object with a 'name' field, got {spec!r}")
    name = spec["name"]
    _require(isinstance(name, str) and name in _FUNCTION_KEYS, f"unknown function name {name!r}")
    _reject_unknown_keys(spec, _FUNCTION_KEYS[name], where)
    if name == "exp_sum":
        return ExpAffine(np.ones(dimension))
    if name in _AFFINE_FUNCTIONS:
        coeffs = _list(spec.get("coeffs", [1.0] * dimension), dimension, f"{where}.coeffs",
                       "numbers")
        return _AFFINE_FUNCTIONS[name]([_finite(c, f"{where}.coeffs") for c in coeffs],
                                       _finite(spec.get("shift", 0.0), f"{where}.shift"))
    if name == "monomial":
        alpha = _list(spec.get("alpha"), dimension, f"{where}.alpha", "exponents")
        return PolynomialFunction.monomial(dimension,
                                           _exponents(alpha, dimension, f"{where}.alpha"))
    if name == "polynomial":
        terms = spec.get("terms")
        _require(isinstance(terms, list) and len(terms) > 0,
                 f"{where}.terms must be a nonempty list of [alpha..., coeff] rows")
        coeffs = {}
        for k, row in enumerate(terms):
            key = f"{where}.terms[{k}]"
            *alpha, c = _list(row, dimension + 1, key, "entries (exponents, then a coefficient)")
            coeffs[_exponents(alpha, dimension, key)] = _finite(c, key)
        return PolynomialFunction(MultiPoly(dimension, max(sum(a) for a in coeffs), coeffs))
    factors = spec.get("factors")  # name == "product"
    _require(isinstance(factors, list) and len(factors) >= 2,
             f"{where}.factors must be a list of at least two function specs")
    return functools.reduce(Product, [
        function_from_spec(sub, dimension, f"{where}.factors[{k}]")
        for k, sub in enumerate(factors)])


def _parse_s_values(spec) -> tuple[int, ...]:
    if spec is None:
        return tuple(DEFAULT_S_VALUES)
    _require(isinstance(spec, dict), "bad 's' entry: expected an object")
    if "values" in spec:
        _reject_unknown_keys(spec, ("values",), "s")
        _require(isinstance(spec["values"], list), "s.values must be a list")
        values = [_number(int, v, "s.values") for v in spec["values"]]
        _require(len(values) > 0 and all(v >= 1 for v in values),
                 "s.values must be positive integers")
        return tuple(values)
    spacing = spec.get("spacing", "geometric")
    _require(isinstance(spacing, str) and spacing in _S_RANGE_KEYS,
             f"unknown s.spacing {spacing!r}")
    _reject_unknown_keys(spec, _S_RANGE_KEYS[spacing], f"{spacing} s")
    lo = _number(int, spec.get("min", 2), "s.min")
    hi = _number(int, spec.get("max", 256), "s.max")
    _require(1 <= lo <= hi, "need 1 <= s.min <= s.max")
    if spacing == "geometric":  # lo * 2^k <= hi exactly when 2^k <= hi // lo
        return tuple(lo * 2**k for k in range((hi // lo).bit_length()))
    step = _number(int, spec.get("step", 1), "s.step")
    _require(step >= 1, f"s.step must be at least 1, got {step}")
    return tuple(range(lo, hi + 1, step))


def load_config(path) -> ExperimentConfig:
    """Read and validate a JSON experiment config."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: line {exc.lineno}: {exc.msg}")
    return parse_config(raw)


def parse_config(raw: dict) -> ExperimentConfig:
    _require(isinstance(raw, dict), "config root must be an object")
    _require("threads" not in raw,
             "config key 'threads' was removed: rows always run serially; delete it")
    _require("quad_degree" not in raw,
             "config key 'quad_degree' was removed: cy only takes divided differences "
             "of polynomials, which are exact; delete it")
    _reject_unknown_keys(raw, _CONFIG_KEYS, "config")
    _require("dimension" in raw, "config needs 'dimension'")
    dimension = _number(int, raw["dimension"], "dimension")
    _require(1 <= dimension <= 8, "dimension must be in 1..8")
    _require("family" in raw and isinstance(raw["family"], dict),
             "config needs a 'family' object")
    family_spec = raw["family"]
    _require("type" in family_spec, "family needs a 'type'")
    _require(isinstance(family_spec["type"], str) and family_spec["type"] in _FAMILY_KEYS,
             f"unknown family type {family_spec['type']!r}")

    grid = raw.get("grid", {})
    _require(isinstance(grid, dict), "'grid' must be an object")
    _reject_unknown_keys(grid, _GRID_KEYS, "grid")
    config = ExperimentConfig(
        dimension=dimension,
        family_spec=family_spec,
        s_values=_parse_s_values(raw.get("s")),
        radius=_number(float, grid.get("radius", DEFAULT_RADIUS), "grid.radius"),
        grid_per_axis=_number(int, grid.get("per_axis", DEFAULT_GRID_PER_AXIS), "grid.per_axis"),
        c2_threshold=_number(float, raw.get("c2_threshold", DEFAULT_C2_THRESHOLD), "c2_threshold"),
        gp_tolerance=_number(float, raw.get("gp_tolerance", DEFAULT_GP_TOLERANCE), "gp_tolerance"),
        output=raw.get("output"),
    )
    # N R^2 bounds the squared norm of a grid point; it must not overflow.
    _require(config.radius > 0 and math.isfinite(dimension * config.radius * config.radius),
             f"grid.radius must be positive with N*radius^2 finite, got {config.radius!r} "
             f"in dimension {dimension}")
    _require(config.grid_per_axis >= 2, "grid.per_axis must be at least 2")
    # NaN fails every comparison, so a NaN tolerance would pass a singular N-subset.
    _require(0 < config.gp_tolerance < math.inf,
             f"gp_tolerance must be finite and positive, got {config.gp_tolerance!r}")
    _require(math.isfinite(config.c2_threshold),
             f"c2_threshold must be finite, got {config.c2_threshold!r}")
    # The grid point nearest the origin is 0 when per_axis is odd, and
    # (+-R/(per_axis-1), ...) when it is even: inside the ball iff N <= (per_axis-1)^2.
    _require(config.grid_per_axis % 2 == 1 or dimension <= (config.grid_per_axis - 1) ** 2,
             f"grid.per_axis {config.grid_per_axis} leaves no grid point in the ball "
             f"in dimension {dimension}; use an odd per_axis")
    # Validate eagerly: function name and family structure.
    config.smooth_function = None if raw.get("function") is None \
        else function_from_spec(raw["function"], dimension)
    config.build_sequence = _sequence_builder(family_spec, dimension, config.gp_tolerance)
    return config


def _sequence_builder(spec: dict, dimension: int, gp_tolerance: float,
                      where: str = "family") -> Callable[[], LatticeSequence]:
    """Validate the family spec at key `where` and compile its templates, once.

    Returns a callable that builds a new lattice sequence on every call.
    Fixed families (hyperplanes, random) ignore s and are built by that
    call; affine and points2d templates are evaluated per s with t = 1/s.
    """
    kind = spec.get("type")
    _require(isinstance(kind, str) and kind in _FAMILY_KEYS, f"unknown family type {kind!r}")
    _reject_unknown_keys(spec, _FAMILY_KEYS[kind], where)
    if kind == "hyperplanes":
        items = spec.get("items")
        _require(isinstance(items, list) and len(items) >= dimension,
                 f"{where}.items must list at least {dimension} hyperplanes")
        _vertex_budget(len(items), dimension, f"{where}.items")
        normals, offsets = [], []
        for k, item in enumerate(items):
            key = f"{where}.items[{k}]"
            _require(isinstance(item, dict), "each hyperplane needs 'normal' and 'offset'")
            _reject_unknown_keys(item, _ITEM_KEYS, key)
            _require("normal" in item and "offset" in item,
                     "each hyperplane needs 'normal' and 'offset'")
            _require(isinstance(item["normal"], list) and len(item["normal"]) == dimension,
                     "hyperplane normal has wrong dimension")
            normals.append([_number(float, v, f"{key}.normal") for v in item["normal"]])
            offsets.append(_number(float, item["offset"], f"{key}.offset"))
        try:
            normals, offsets = unit_planes(normals, offsets)
        except PlaneError as exc:  # a normal or offset that is not finite, or a zero normal
            raise ConfigError(f"{where}.items[{exc.row}]: {exc}") from None

        def fixed() -> LatticeSequence:
            family = HyperplaneFamily(normals, offsets, det_tolerance=gp_tolerance)
            return LatticeSequence(generator=lambda s: family, label="fixed")

        return fixed
    if kind == "affine":
        _require("base" in spec and isinstance(spec["base"], dict),
                 "affine family needs a 'base' family object")
        base = _sequence_builder(spec["base"], dimension, gp_tolerance, f"{where}.base")
        _require("matrix" in spec and "offset" in spec,
                 "affine family needs 'matrix' and 'offset'")
        matrix_fn = compile_matrix(spec["matrix"])
        offset_fn = compile_vector(spec["offset"])
        _require(len(spec["matrix"]) == dimension and len(spec["offset"]) == dimension,
                 "affine matrix/offset must match the dimension")
        return lambda: affine_sequence(base().family(1), matrix_fn, offset_fn, label="affine")
    if kind == "points2d":
        _require(dimension == 2, "points2d families require dimension 2")
        points = spec.get("points")
        _require(isinstance(points, list) and len(points) == 3,
                 "points2d needs exactly three points")
        exprs = [[compile_expression(e) for e in _list(p, 2, f"{where}.points[{k}]", "entries")]
                 for k, p in enumerate(points)]

        def generate(s: int) -> HyperplaneFamily:
            t = 1.0 / s
            return triangle_family_from_points([[fx(t), fy(t)] for fx, fy in exprs])

        return lambda: LatticeSequence(generator=generate, label="points2d")
    count = _number(int, spec.get("count", 0), f"{where}.count")  # kind == "random"
    _require(count >= dimension, f"random family needs count >= {dimension}")
    _vertex_budget(count, dimension, f"{where}.count")
    _require("seed" in spec, "random family needs a 'seed'")
    seed = _number(int, spec["seed"], f"{where}.seed")
    _require(seed >= 0, f"{where}.seed must be a non-negative integer, got {seed}")
    min_subset_det = _number(float, spec.get("min_subset_det", 0.0), f"{where}.min_subset_det")
    max_lattice_norm = _number(float, spec.get("max_lattice_norm", math.inf),
                               f"{where}.max_lattice_norm")

    def drawn() -> LatticeSequence:
        family = random_family(
            np.random.default_rng(seed), dimension, count, det_tolerance=gp_tolerance,
            min_subset_det=min_subset_det, max_lattice_norm=max_lattice_norm,
        )
        return LatticeSequence(generator=lambda s: family, label="random")

    return drawn
