"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import cylattice  # noqa: E402
import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_smoke_run(workload):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0.2",
                     "--trace", "0", "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for metric in SPEC["end_to_end"]:
        value = result["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"] and value["value"] > 0


@pytest.mark.parametrize("workload, busy", [
    ("remainder", ("divdiff.dd_quad.calls", "functions.dderiv.points")),
    # lattice's checks call direction_vector; the paused tracer must not count them.
    ("lattice", ("geometry.family.calls", "geometry.direction.calls")),
])
def test_tiny_traced_run_prints_per_layer_metrics(workload, busy):
    proc = run_bench("--workload", workload, "--seconds", "0.2", "--trace", "1",
                     "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    shares = [v["value"] for k, v in result["metrics"].items() if k.startswith("share.")]
    assert sum(shares) == pytest.approx(1.0, abs=1e-6)
    assert all(result["metrics"][name]["value"] > 0 for name in busy)


def test_checks_are_not_traced():
    # lattice's check calls deboor_identity_residual, and through it
    # direction_vector; only the op's own calls may be recorded.
    op = workloads.build("lattice", 3, "tiny").ops[0]
    with tracing.Tracer() as bare:
        op.run()
    with tracing.Tracer() as checked:
        assert harness.run_op(op, None, checked)[3] is None
    calls = checked.totals()[0]
    assert calls["geometry.deboor"] == 0
    assert calls - Counter({"bench.op": 1}) == bare.totals()[0]


def _bindings():
    """Every (owner, attribute) -> object the tracer may patch."""
    out = {}
    for module in tracing._package_modules():
        for key, value in vars(module).items():
            out[(module.__name__, key)] = value
    for _, module_name, class_name, attr in tracing.TARGETS:
        if class_name:
            owner = getattr(sys.modules[module_name], class_name)
            out[(f"{module_name}.{class_name}", attr)] = owner.__dict__[attr]
    return out


def test_tracer_restores_every_original():
    before = _bindings()
    with tracing.Tracer() as tracer:
        assert cylattice.convergence.interpolate is not before[("cylattice.convergence", "interpolate")]
        assert cylattice.chungyao.interpolate is cylattice.convergence.interpolate
        assert cylattice.poly.MultiPoly.__dict__["__mul__"] is not \
            before[("cylattice.poly.MultiPoly", "__mul__")]
        lattice = cylattice.ChungYaoLattice(cylattice.unit_triangle_family())
        cylattice.interpolate(lattice, cylattice.ExpAffine([1.0, 1.0]))
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []
    calls, _, _ = tracer.totals()
    assert calls["chungyao.interpolate"] == 1 and calls["chungyao.cardinal"] == 3


def test_fault_injection_counts_as_failed_ops():
    report = harness.run_benchmark("verify", seed=2, seconds=0.1, trace=False, size="tiny",
                                   fault_inject=True, min_samples=1)
    assert report["failed"] == report["attempted"] > 0
    assert report["info"]["fail_frac"] == 1.0 and not report["correct"]
    assert "interpolation_match" in report["info"]["failures"][0]


@pytest.mark.parametrize("workload", ["remainder", "verify"])
def test_default_seed_matches_golden(workload):
    golden = harness.load_golden()
    harness.clear_caches()
    built, _, _ = harness.set_up(workload, harness.DEFAULT_SEED, "full", False)
    assert all(op.key in golden for op in built.ops)
    result = harness.run_passes(built, 0.0, golden, 1, passes=1)
    assert result.errors == []


def test_golden_mismatch_is_relative():
    assert workloads.golden_mismatch({"a": 1.0}, {"a": 1.0 + 1e-10}) is None
    assert workloads.golden_mismatch({"a": 1.0}, {"a": 1.0 + 1e-6}) is not None
    assert workloads.golden_mismatch({"ok": True}, {"ok": False}) is not None
    assert workloads.golden_mismatch([float("nan")], [float("nan")]) is None


def test_fails_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "verify", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
