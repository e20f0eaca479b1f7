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
from cylattice import chungyao, cli, convergence, divdiff, functions, geometry

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


# The names perfbench binds to cylattice and its modules.
BENCH_ROOTS = {"cy": "cylattice", "cylattice": "cylattice", "cy_config": "cylattice.config",
               "cy_cli": "cylattice.cli"}


def _bench_attribute_chains():
    """Each distinct `root.a.b...` chain that the workloads and self-tests read from a root."""
    chains = set()
    for path in (PERFBENCH / "workloads.py", PERFBENCH / "tests" / "test_perfbench.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            attrs = []
            while isinstance(node, ast.Attribute):
                attrs.insert(0, node.attr)
                node = node.value
            if attrs and isinstance(node, ast.Name) and node.id in BENCH_ROOTS:
                chains.add((node.id,) + tuple(attrs))
    return sorted(chains)


def test_bench_attribute_scan_reads_every_root():
    chains = _bench_attribute_chains()
    assert {chain[0] for chain in chains} == set(BENCH_ROOTS)
    assert {("cy", "affine_sequence"), ("cylattice", "unit_triangle_family")} <= set(chains)


@pytest.mark.parametrize("chain", _bench_attribute_chains(), ids=".".join)
def test_bench_attribute_resolves(chain):
    obj = importlib.import_module(BENCH_ROOTS[chain[0]])
    for attr in chain[1:]:
        obj = getattr(obj, attr)


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
    # The tracer reads pk_polynomial's first four arguments by position.
    names = list(inspect.signature(chungyao.pk_polynomial).parameters)
    assert names == ["family", "k_indices", "upto", "homogeneous"]


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


@pytest.mark.parametrize("name", _perfbench_module("workloads").WORKLOADS)
def test_every_workload_passes_its_checks_at_size_tiny(name):
    # A pass as the harness runs it: each op's run, check and golden record,
    # then the whole-pass checks on the outputs of the grouped ops.
    workloads = _perfbench_module("workloads")
    workload = workloads.build(name, 1, size="tiny")
    assert workload.ops
    outputs = {}
    for op in workload.ops:
        out = op.run()
        assert op.check(out) is None, op.key
        record = op.record(out)
        assert workloads.golden_mismatch(json.loads(json.dumps(record)), record) is None, op.key
        if op.group:
            outputs[(op.group, op.key)] = out
    assert workload.post_check(outputs) == {}


def test_interpolate_builds_one_cardinal_row_per_vertex(monkeypatch):
    # The first `interpolate` expands the whole cardinal table in one
    # `affine_products` call, row H with the planes outside H as factors; the
    # second reads the table kept on the lattice.
    builds = []
    expand = chungyao.affine_products
    monkeypatch.setattr(chungyao, "affine_products",
                        lambda *args: builds.append(np.asarray(args[2]).tolist()) or expand(*args))
    lattice = cy.ChungYaoLattice(cy.unit_triangle_family())
    cy.interpolate(lattice, cy.ExpAffine([1.0, 1.0]))
    cy.interpolate(lattice, cy.ExpAffine([1.0, -1.0]))
    assert builds == [[[j for j in range(3) if j not in h]
                       for h in geometry.subset_index(3, 2).subsets]]


def test_one_lattice_op_runs_each_traced_geometry_function_once(monkeypatch):
    # A lattice op is `from_arrays`, then `ChungYaoLattice`, `line_subsets` and
    # `observed_delta`.  With the index tables shared per shape, each function
    # the tracer wraps for it still runs exactly once, and no constructor
    # bypasses `__init__`, so the geometry.* calls and self times keep their meaning.
    from cylattice import geometry

    calls = []
    targets = [(geometry.HyperplaneFamily, "__init__"), (geometry.ChungYaoLattice, "__init__"),
               (geometry.ChungYaoLattice, "line_subsets"), (geometry, "direction_vector")]
    for owner, name in targets:
        def counted(*args, _original=getattr(owner, name), _name=name, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    workloads = _perfbench_module("workloads")
    for op in workloads.build_lattice(1, size="tiny").ops:
        calls.clear()
        out = op.run()
        assert sorted(calls) == sorted(name for _, name in targets), op.key
        assert op.check(out) is None


@pytest.mark.parametrize("kind", ["exp*sin", "cos"])
def test_remainder_sends_one_exp_row_per_line_and_point(monkeypatch, kind):
    # The `remainder` workload's functions are one ridge each: sin and cos are
    # the real part of one complex exponential, and exp * sin merges the
    # ridges of Re(XY) and Re(X conj Y), which are conjugate.  So an op sends
    # exactly L * P rows to `exp_divided_difference`, and the ridge form of
    # each function object is built once, by its first `ridges()` call.
    rows, builds = [], []
    kernel = divdiff.exp_divided_difference
    monkeypatch.setattr(divdiff, "exp_divided_difference",
                        lambda z: rows.append(np.shape(z)) or kernel(z))
    for cls in (functions.ExpAffine, functions.SinAffine, functions.CosAffine, functions.Product):
        def counted(self, _original=cls._ridge_form):
            builds.append(self)
            return _original(self)
        monkeypatch.setattr(cls, "_ridge_form", counted)
    rng = np.random.default_rng(5)
    lattice = cy.ChungYaoLattice(cy.random_family(rng, 3, 7, min_subset_det=0.05))
    lines = lattice.line_subsets()
    affine = [(rng.uniform(-1.0, 1.0, 3), float(rng.uniform(-0.5, 0.5))) for _ in range(2)]
    f = (cy.Product(cy.ExpAffine(*affine[0]), cy.SinAffine(*affine[1])) if kind == "exp*sin"
         else cy.CosAffine(*affine[0]))
    interpolant = cy.interpolate(lattice, f)
    m = lattice.family.count - lattice.dimension + 1
    for points in (1, 1, 3):
        x = rng.uniform(-0.5, 0.5, (points, 3))
        dec = cy.deboor_remainder(lattice, f, x, interpolant=interpolant, lines=lines)
        assert np.all(dec.relative_residual() <= 1e-9)
        assert rows.pop() == (len(lines) * points, m + 1) and not rows
    expected = [f, f.left, f.right] if kind == "exp*sin" else [f]
    assert sorted(map(id, builds)) == sorted(map(id, expected))


def test_a_verify_op_expands_only_the_cardinal_table(monkeypatch):
    # Every P_K table is evaluated as the product of its factors, so a verify
    # op makes one `affine_products` call: the cardinal table, whose rows
    # `interpolate` reads as coefficients.  Evaluating a table of any kind
    # (truncated, homogeneous, staged, cardinal) expands nothing.
    builds = []
    expand = chungyao.affine_products
    monkeypatch.setattr(chungyao, "affine_products",
                        lambda *args: builds.append(np.asarray(args[2]).tolist()) or expand(*args))
    workloads = _perfbench_module("workloads")
    for op in workloads.build_verify(1, size="tiny").ops:
        assert op.check(op.run()) is None, op.key
        n_dim, count = op.shape
        assert builds == [geometry.subset_index(count, n_dim).outside.tolist()], op.key
        builds.clear()
    rng = np.random.default_rng(7)
    family = cy.random_family(rng, 3, 7, min_subset_det=0.05)
    tables = [chungyao.pk_table(family, upto, homogeneous)
              for upto in range(family.dimension - 1, family.count + 1)
              for homogeneous in (False, True)]
    tables += [chungyao.newton_pk_table(family),
               chungyao.cardinal_table(cy.ChungYaoLattice(family))]
    x = rng.uniform(-0.5, 0.5, (4, family.dimension))
    for table in tables:
        assert table(x).shape == (4, len(table.terms))
        assert table(x[0]).shape == (1, len(table.terms))
        assert "_expanded" not in vars(table)
    assert builds == []
