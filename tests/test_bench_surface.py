"""The library surface the benchmark in perfbench/ calls and patches.

The benchmark wraps the functions and methods listed in perfbench/tracing.py
TARGETS, passes a few keywords, and clears the lru caches listed in
perfbench/harness.py CACHED before each set-up; a refactor that renames or
reshapes one of them would otherwise only show up in a full benchmark run.
"""

import ast
import importlib
import importlib.util
import inspect
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import cylattice as cy
from cylattice import chungyao, cli, convergence

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
HARNESS = PERFBENCH / "harness.py"


def _perfbench_module(name):
    """perfbench/<name>.py, loaded from its file (it imports only cylattice)."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def _targets():
    return _perfbench_module("tracing").TARGETS


def _cached_entries():
    """(module, attribute) of each CACHED entry, read from harness.py's source.

    harness.py imports its own siblings, so it is parsed, not imported.
    """
    tree = ast.parse(HARNESS.read_text())
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "cylattice":
            for alias in node.names:
                modules[alias.asname or alias.name] = f"cylattice.{alias.name}"
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "CACHED" for t in node.targets):
            return [(modules[e.value.id], e.attr) for e in node.value.elts]
    raise AssertionError("perfbench/harness.py assigns no CACHED tuple")


@pytest.mark.parametrize("entry", _cached_entries(), ids=lambda e: f"{e[0]}.{e[1]}")
def test_harness_cached_entry_is_an_lru_cache(entry):
    module_name, attr = entry
    fn = getattr(importlib.import_module(module_name), attr)
    assert callable(fn.cache_clear) and callable(fn.cache_info)


def test_traced_rule_builder_has_cache_info():
    # The tracer records a divdiff.gm_build span only on a cache miss.
    builders = [t for t in _targets() if t[0] == "divdiff.gm_build"]
    assert builders
    for _, module_name, _, attr in builders:
        assert callable(getattr(importlib.import_module(module_name), attr).cache_info)


@pytest.mark.parametrize("target", _targets(), ids=lambda t: f"{t[0]}:{t[2] or ''}.{t[3]}")
def test_tracing_target_resolves(target):
    _, module_name, class_name, attr = target
    module = importlib.import_module(module_name)
    if class_name is None:
        assert callable(getattr(module, attr))
    else:
        # The tracer patches the class's own entry; a property or cached
        # property there could not be wrapped as a call.
        owner = getattr(module, class_name)
        assert inspect.isfunction(owner.__dict__.get(attr))


def test_benchmark_keywords_are_accepted():
    # Every keyword perfbench/workloads.py passes into convergence.py.
    inspect.signature(convergence.affine_sequence).bind(None, None, None, label="n3-0")
    inspect.signature(convergence.convergence_experiment).bind(
        None, None, s_values=(2,), radius=0.5, grid_per_axis=21, c2_threshold=0.05,
        threads=1)
    inspect.signature(chungyao.deboor_remainder).bind(None, None, None,
                                                      interpolant=None, lines=None)
    inspect.signature(cli.run_verification).bind(None, seed=0, fault_inject=True)


def test_pk_polynomial_positional_order():
    # The tracer reads pk_polynomial's arguments by position.
    names = list(inspect.signature(chungyao.pk_polynomial).parameters)
    assert names == ["family", "k_indices", "upto", "homogeneous", "direction"]


def test_lattice_tables_serve_the_benchmark_calls():
    # The calls perfbench/workloads.py makes on a lattice's vertex and line tables.
    n_dim, count = 3, 5
    lattice = cy.ChungYaoLattice(cy.random_family(np.random.default_rng(1), n_dim, count))
    lines = lattice.line_subsets()
    assert len(lines) == math.comb(count, n_dim - 1)
    f = cy.CosAffine(np.array([0.3, -0.2, 0.5]))
    interpolant = cy.interpolate(lattice, f)
    dec = cy.deboor_remainder(lattice, f, np.array([0.1, 0.2, -0.1]),
                              interpolant=interpolant, lines=lattice.line_subsets())
    assert dec.relative_residual() <= 1e-9
    # perfbench/make_golden.py JSON-dumps these fields and `residual_ok`, so at
    # one point they are Python floats and the comparison a Python bool.
    assert type(dec.function_value) is float and type(dec.interpolant_value) is float
    assert type(dec.relative_residual()) is float
    assert type(dec.relative_residual() <= 1e-3) is bool
    assert len(lattice.vertices) == math.comb(count, n_dim)
    vertices = lattice.vertex_array().tolist()
    assert len(vertices) == math.comb(count, n_dim) and all(len(v) == n_dim for v in vertices)
    assert json.loads(json.dumps({"vertices": vertices})) == {"vertices": vertices}
    assert cy.observed_delta(lattice) > 0.0 and lattice.norm() > 0.0


def test_remainder_records_survive_json():
    workloads = _perfbench_module("workloads")
    for op in workloads.build_remainder(0, size="tiny").ops:
        record = op.record(op.run())
        assert json.loads(json.dumps(record)) == record


def test_interpolate_builds_one_cardinal_row_per_vertex(monkeypatch):
    # The benchmark's tracer self-test counts 3 `chungyao.cardinal` spans for one
    # `interpolate` on a fresh unit-triangle lattice: the cardinal table is
    # still built by one `cardinal_polynomial` call per vertex.
    calls = []
    build = chungyao.cardinal_polynomial
    monkeypatch.setattr(chungyao, "cardinal_polynomial",
                        lambda *args: calls.append(args[1]) or build(*args))
    lattice = cy.ChungYaoLattice(cy.unit_triangle_family())
    cy.interpolate(lattice, cy.ExpAffine([1.0, 1.0]))
    cy.interpolate(lattice, cy.ExpAffine([1.0, -1.0]))
    assert sorted(calls) == sorted(lattice.vertices)
