"""Experiment configuration: JSON schema, and a tiny expression grammar in t.

Affine templates and point families are written entrywise as closed-form
strings in the single variable t (with t = 1/s), over the grammar
+  -  *  /  ^  exp( )  and parentheses.  A recursive-descent parser keeps
this self-contained; there is deliberately no general scripting here.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError
from .functions import SmoothFunction, function_from_spec
from .geometry import (
    DEFAULT_GP_TOLERANCE,
    Hyperplane,
    HyperplaneFamily,
    random_family,
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

_TOKEN_CHARS = set("+-*/^()")


def _tokenize(text: str) -> list[str]:
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _TOKEN_CHARS:
            tokens.append(ch)
            i += 1
            continue
        if ch.isdigit() or ch == ".":
            j = i
            while j < len(text) and (text[j].isdigit() or text[j] == "."):
                j += 1
            tokens.append(text[i:j])
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < len(text) and text[j].isalpha():
                j += 1
            tokens.append(text[i:j])
            i = j
            continue
        raise ConfigError(f"bad character {ch!r} in expression {text!r}")
    return tokens


class _Parser:
    """expr := term (('+'|'-') term)*
    term := factor (('*'|'/') factor)*
    factor := '-' factor | power
    power := atom ('^' factor)?          (right-associative)
    atom := number | 't' | 'exp' '(' expr ')' | '(' expr ')'
    """

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected=None):
        tok = self.peek()
        if tok is None:
            raise ConfigError(f"unexpected end of expression {self.text!r}")
        if expected is not None and tok != expected:
            raise ConfigError(f"expected {expected!r}, got {tok!r} in {self.text!r}")
        self.pos += 1
        return tok

    def parse(self):
        node = self.expr()
        if self.peek() is not None:
            raise ConfigError(f"trailing input {self.peek()!r} in {self.text!r}")
        return node

    def expr(self):
        node = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            node = (op, node, rhs)
        return node

    def term(self):
        node = self.factor()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.factor()
            node = (op, node, rhs)
        return node

    def factor(self):
        if self.peek() == "-":
            self.take()
            return ("neg", self.factor())
        return self.power()

    def power(self):
        node = self.atom()
        if self.peek() == "^":
            self.take()
            exponent = self.factor()
            node = ("^", node, exponent)
        return node

    def atom(self):
        tok = self.take()
        if tok == "(":
            node = self.expr()
            self.take(")")
            return node
        if tok == "exp":
            self.take("(")
            node = self.expr()
            self.take(")")
            return ("exp", node)
        if tok == "t":
            return ("t",)
        try:
            return ("num", float(tok))
        except ValueError:
            raise ConfigError(f"unknown token {tok!r} in expression {self.text!r}")


def _eval_node(node, t: float) -> float:
    op = node[0]
    if op == "num":
        return node[1]
    if op == "t":
        return t
    if op == "neg":
        return -_eval_node(node[1], t)
    if op == "exp":
        return math.exp(_eval_node(node[1], t))
    a = _eval_node(node[1], t)
    b = _eval_node(node[2], t)
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        return a / b
    if op == "^":
        return a ** b
    raise ConfigError(f"bad expression node {node!r}")


def compile_expression(text) -> Callable[[float], float]:
    """Compile a string in t (or a bare number) into a callable of t."""
    if isinstance(text, (int, float)):
        value = float(text)
        return lambda t: value
    if not isinstance(text, str):
        raise ConfigError(f"expression must be a string or number, got {type(text).__name__}")
    node = _Parser(text).parse()
    return lambda t: _eval_node(node, t)


def compile_matrix(rows) -> Callable[[float], np.ndarray]:
    compiled = [[compile_expression(e) for e in row] for row in rows]
    n = len(compiled)
    for row in compiled:
        if len(row) != n:
            raise ConfigError("affine matrix must be square")

    def build(t: float) -> np.ndarray:
        return np.array([[f(t) for f in row] for row in compiled])

    return build


def compile_vector(entries) -> Callable[[float], np.ndarray]:
    compiled = [compile_expression(e) for e in entries]

    def build(t: float) -> np.ndarray:
        return np.array([f(t) for f in compiled])

    return build


# ---------------------------------------------------------------------------
# Config schema
# ---------------------------------------------------------------------------

@dataclass
class ExperimentConfig:
    """Validated experiment description (see the JSON schema in the README)."""

    dimension: int
    family_spec: dict
    function_spec: dict | None
    s_values: tuple[int, ...]
    radius: float
    grid_per_axis: int
    c2_threshold: float
    gp_tolerance: float
    output: str | None
    source: str = ""

    def sequence(self) -> LatticeSequence:
        return build_sequence(self.family_spec, self.dimension, self.gp_tolerance)

    def family(self, s: int | None = None) -> HyperplaneFamily:
        seq = self.sequence()
        return seq.family(self.s_values[0] if s is None else s)

    def function(self) -> SmoothFunction:
        if self.function_spec is None:
            raise ConfigError("config has no 'function' entry")
        return function_from_spec(self.function_spec, self.dimension)


def _require(cond: bool, message: str):
    if not cond:
        raise ConfigError(message)


_CONFIG_KEYS = ("dimension", "family", "function", "s", "grid",
                "c2_threshold", "gp_tolerance", "output")
_GRID_KEYS = ("radius", "per_axis")


def _reject_unknown_keys(entry: dict, allowed: Sequence[str], where: str):
    """Raise ConfigError naming the first key of `entry` outside `allowed`."""
    for key in entry:
        if key not in allowed:
            raise ConfigError(f"unknown {where} key {key!r} "
                              f"(allowed {where} keys: {', '.join(allowed)})")


def _parse_s_values(spec) -> tuple[int, ...]:
    if spec is None:
        return tuple(DEFAULT_S_VALUES)
    if isinstance(spec, dict) and "values" in spec:
        values = [int(v) for v in spec["values"]]
        _require(len(values) > 0 and all(v >= 1 for v in values),
                 "s.values must be positive integers")
        return tuple(values)
    if isinstance(spec, dict):
        lo = int(spec.get("min", 2))
        hi = int(spec.get("max", 256))
        spacing = spec.get("spacing", "geometric")
        _require(1 <= lo <= hi, "need 1 <= s.min <= s.max")
        if spacing == "geometric":
            values = []
            v = lo
            while v <= hi:
                values.append(v)
                v *= 2
            return tuple(values)
        if spacing == "linear":
            step = int(spec.get("step", 1))
            return tuple(range(lo, hi + 1, step))
        raise ConfigError(f"unknown s.spacing {spacing!r}")
    raise ConfigError("bad 's' entry: expected an object")


def load_config(path) -> ExperimentConfig:
    """Read and validate a JSON experiment config."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: line {exc.lineno}: {exc.msg}")
    return parse_config(raw, source=str(path))


def parse_config(raw: dict, source: str = "<memory>") -> ExperimentConfig:
    _require(isinstance(raw, dict), "config root must be an object")
    _require("threads" not in raw,
             "config key 'threads' was removed: rows always run serially; delete it")
    _require("quad_degree" not in raw,
             "config key 'quad_degree' was removed: cy only takes divided differences "
             "of polynomials, which are exact; delete it")
    _reject_unknown_keys(raw, _CONFIG_KEYS, "config")
    _require("dimension" in raw, "config needs 'dimension'")
    dimension = int(raw["dimension"])
    _require(1 <= dimension <= 8, "dimension must be in 1..8")
    _require("family" in raw and isinstance(raw["family"], dict),
             "config needs a 'family' object")
    family_spec = raw["family"]
    _require("type" in family_spec, "family needs a 'type'")
    _require(family_spec["type"] in ("hyperplanes", "affine", "points2d", "random"),
             f"unknown family type {family_spec['type']!r}")

    grid = raw.get("grid", {})
    _require(isinstance(grid, dict), "'grid' must be an object")
    _reject_unknown_keys(grid, _GRID_KEYS, "grid")
    config = ExperimentConfig(
        dimension=dimension,
        family_spec=family_spec,
        function_spec=raw.get("function"),
        s_values=_parse_s_values(raw.get("s")),
        radius=float(grid.get("radius", DEFAULT_RADIUS)),
        grid_per_axis=int(grid.get("per_axis", DEFAULT_GRID_PER_AXIS)),
        c2_threshold=float(raw.get("c2_threshold", DEFAULT_C2_THRESHOLD)),
        gp_tolerance=float(raw.get("gp_tolerance", DEFAULT_GP_TOLERANCE)),
        output=raw.get("output"),
        source=source,
    )
    _require(config.radius > 0, "grid.radius must be positive")
    _require(config.grid_per_axis >= 2, "grid.per_axis must be at least 2")
    # Validate eagerly: function name and family structure.
    if config.function_spec is not None:
        function_from_spec(config.function_spec, dimension)
    _validate_family(family_spec, dimension)
    return config


def _validate_family(spec: dict, dimension: int):
    kind = spec["type"]
    if kind == "hyperplanes":
        items = spec.get("items")
        _require(isinstance(items, list) and len(items) >= dimension,
                 f"family.items must list at least {dimension} hyperplanes")
        for item in items:
            _require(isinstance(item, dict) and "normal" in item and "offset" in item,
                     "each hyperplane needs 'normal' and 'offset'")
            _require(len(item["normal"]) == dimension,
                     "hyperplane normal has wrong dimension")
    elif kind == "affine":
        _require("base" in spec and isinstance(spec["base"], dict),
                 "affine family needs a 'base' family object")
        _validate_family(spec["base"], dimension)
        _require("matrix" in spec and "offset" in spec,
                 "affine family needs 'matrix' and 'offset'")
        compile_matrix(spec["matrix"])
        compile_vector(spec["offset"])
        _require(len(spec["matrix"]) == dimension and len(spec["offset"]) == dimension,
                 "affine matrix/offset must match the dimension")
    elif kind == "points2d":
        _require(dimension == 2, "points2d families require dimension 2")
        points = spec.get("points")
        _require(isinstance(points, list) and len(points) == 3,
                 "points2d needs exactly three points")
        for p in points:
            _require(len(p) == 2, "each point needs two entries")
            compile_expression(p[0])
            compile_expression(p[1])
    elif kind == "random":
        _require(int(spec.get("count", 0)) >= dimension,
                 f"random family needs count >= {dimension}")
        _require("seed" in spec, "random family needs a 'seed'")


def build_sequence(spec: dict, dimension: int,
                   gp_tolerance: float = DEFAULT_GP_TOLERANCE) -> LatticeSequence:
    """Turn a validated family spec into a lattice sequence.

    Fixed families (hyperplanes, random) ignore s; affine and points2d
    templates are evaluated per s with t = 1/s.
    """
    kind = spec["type"]
    if kind == "hyperplanes":
        planes = [Hyperplane(item["normal"], item["offset"]) for item in spec["items"]]
        family = HyperplaneFamily(planes, det_tolerance=gp_tolerance)
        return LatticeSequence(generator=lambda s: family, label="fixed")
    if kind == "random":
        rng = np.random.default_rng(int(spec["seed"]))
        family = random_family(
            rng, dimension, int(spec["count"]),
            det_tolerance=gp_tolerance,
            min_subset_det=float(spec.get("min_subset_det", 0.0)),
            max_lattice_norm=float(spec.get("max_lattice_norm", math.inf)),
        )
        return LatticeSequence(generator=lambda s: family, label="random")
    if kind == "affine":
        base_seq = build_sequence(spec["base"], dimension, gp_tolerance)
        base = base_seq.family(1)
        matrix_fn = compile_matrix(spec["matrix"])
        offset_fn = compile_vector(spec["offset"])
        return affine_sequence(base, matrix_fn, offset_fn, label="affine")
    if kind == "points2d":
        exprs = [(compile_expression(p[0]), compile_expression(p[1]))
                 for p in spec["points"]]

        def generate(s: int) -> HyperplaneFamily:
            t = 1.0 / s
            pts = [[fx(t), fy(t)] for fx, fy in exprs]
            return triangle_family_from_points(pts)

        return LatticeSequence(generator=generate, label="points2d")
    raise ConfigError(f"unknown family type {kind!r}")
