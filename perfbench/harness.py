"""Closed-loop runner: set-up, timed passes, checks and metric reduction.

One process, one thread, one op in flight: the next op starts only after the
previous one has returned and been checked.  A run executes whole passes over
the workload's op list, so every run measures the same op mix; it stops once
another pass would likely end past the requested time and at least
MIN_SAMPLES ops were timed.  Every op is timed on two clocks, wall and the
process's CPU time, and after each pass a fixed reference loop measures how
fast the host's CPU currently runs (HostSpeed).  The metrics are taken over
every op of every timed pass.
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import cylattice as cy
from cylattice import divdiff as cy_divdiff
from cylattice import poly as cy_poly

import tracing
import workloads

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"
DEFAULT_SEED = 1
SETUP_REPEATS = 5
MIN_SAMPLES = 100          # ten samples beyond p90
MAX_RUN_SECONDS = 120.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
# The library's lru caches, which every `cy` invocation fills again.
CACHED = (cy_poly.multi_indices, cy_poly.homogeneous_indices,
          cy_divdiff.grundmann_moller_rule)

# The gated metrics are CPU times scaled to the reference speed (see
# README.md, "Which clock"); raw CPU and wall-clock figures are printed beside them.
END_TO_END_UNITS = {"ops_per_ref_s": "1/s", "op_ref_ms.p50": "ms", "op_ref_ms.p90": "ms",
                    "setup_s": "s", "peak_rss_mb": "MB"}
REFERENCE_SHARE = 0.05     # reference-loop CPU time per op CPU time, sampled after each op
NOMINAL_CHUNK_S = 2.0e-3   # CPU seconds of one reference chunk at the reference speed


def _reference_chunk() -> float:
    """Fixed interpreted float arithmetic, independent of cylattice.

    Of the loops tried (this one, integer arithmetic, and small numpy calls),
    this tracked the host's speed on both converge and remainder best.
    """
    x = 0.5
    for _ in range(30000):
        x = x * 1.0000001 + 1e-9 - x * 1e-9
    return x


class HostSpeed:
    """How fast this run's CPU is, from the CPU time of a fixed reference loop.

    The shared host's CPU speed drifts by up to 1.5x within seconds to
    minutes, and the CPU clock cannot remove that (README.md, "Which clock").
    The same fixed work is timed after every op (or set-up); an op's time is
    scaled by nominal / measured chunk time from the samples on either side
    of it, which expresses it at one reference speed.
    """

    def __init__(self):
        self.samples: list = []     # (CPU seconds, chunks), one after each op

    def sample(self, budget_s: float):
        spent, chunks = 0.0, 0
        while chunks == 0 or spent < budget_s:
            start = time.process_time()
            _reference_chunk()
            spent += time.process_time() - start
            chunks += 1
        self.samples.append((spent, chunks))

    def factor(self, first: int = 0, end: int | None = None) -> float:
        """Reference-speed seconds per measured CPU second (below 1 on a slow host)."""
        picked = self.samples[first:end]
        return NOMINAL_CHUNK_S * sum(c for _, c in picked) / sum(t for t, _ in picked)

    def op_factors(self) -> list:
        """One factor per op, from the samples before and after it."""
        return [self.factor(max(k - 1, 0), k + 1) for k in range(len(self.samples))]


def clear_caches():
    for fn in CACHED:
        fn.cache_clear()


def load_golden() -> dict:
    if not GOLDEN_PATH.exists():
        return {}
    return json.loads(GOLDEN_PATH.read_text())


@dataclass
class PassResult:
    wall: list = field(default_factory=list)        # wall seconds per attempted op
    cpu: list = field(default_factory=list)         # process CPU seconds per attempted op
    errors: list = field(default_factory=list)      # (index in wall, message)
    groups: list = field(default_factory=list)      # op group per attempted op
    first_outputs: dict = field(default_factory=dict)
    passes: int = 0
    speed: HostSpeed = field(default_factory=HostSpeed)

    def ref_seconds(self) -> list:
        """Per-op CPU seconds at the reference speed (untraced runs)."""
        return [t * factor for t, factor in zip(self.cpu, self.speed.op_factors())]

    @property
    def attempted(self) -> int:
        return len(self.wall)

    def extend(self, other: "PassResult"):
        offset = self.attempted
        self.wall.extend(other.wall)
        self.cpu.extend(other.cpu)
        self.errors.extend((i + offset, msg) for i, msg in other.errors)
        self.groups.extend(other.groups)
        self.passes += other.passes


def _untraced(tracer):
    return contextlib.nullcontext() if tracer is None else tracer.paused()


def run_op(op, golden: dict | None, tracer=None):
    """Time one op; return (wall s, CPU s, output, failure message or None).

    The checks run after the clocks stop and, in a traced run, with the
    tracer paused, so neither the timings nor the spans include them.
    """
    out, error = None, None
    span = contextlib.nullcontext() if tracer is None else tracer.span("bench.op")
    start, cpu_start = time.perf_counter(), time.process_time()
    try:
        with span:
            out = op.run()
    except Exception as exc:  # a failing op is counted, not fatal
        error = f"{type(exc).__name__}: {exc}"
    cpu = time.process_time() - cpu_start
    wall = time.perf_counter() - start
    if error is None:
        with _untraced(tracer):
            try:
                error = op.check(out)
                if error is None and golden and op.key in golden:
                    diff = workloads.golden_mismatch(golden[op.key], op.record(out))
                    error = f"golden mismatch {diff}" if diff else None
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
    return wall, cpu, out, error


def set_up(name: str, seed: int, size: str, fault_inject: bool):
    """Build the inputs and run one untimed warm-up op per (N, d) shape.

    verify and lattice warm up on their first op only: geometry keeps no
    cache, and verify's cached tables cost milliseconds to fill.
    """
    start, cpu_start = time.perf_counter(), time.process_time()
    workload = workloads.build(name, seed, size, fault_inject=fault_inject)
    seen = set()
    for op in workload.ops:
        if op.warm and op.shape not in seen:
            seen.add(op.shape)
            run_op(op, None)
    return workload, time.perf_counter() - start, time.process_time() - cpu_start


def run_passes(workload, seconds: float, golden: dict, min_samples: int,
               passes: int | None = None, tracer=None) -> PassResult:
    result = PassResult()
    start = time.perf_counter()
    while True:
        for op in workload.ops:
            wall, cpu, out, error = run_op(op, golden, tracer)
            if tracer is None:
                result.speed.sample(REFERENCE_SHARE * cpu)
            result.wall.append(wall)
            result.cpu.append(cpu)
            result.groups.append(op.group)
            if error is not None:
                result.errors.append((result.attempted - 1, f"{op.key}: {error}"))
            if result.passes == 0 and op.group:
                result.first_outputs[(op.group, op.key)] = out
        result.passes += 1
        elapsed = time.perf_counter() - start
        if passes is not None:
            if result.passes >= passes:
                break
            continue
        if elapsed >= MAX_RUN_SECONDS:
            break
        if elapsed + 0.5 * elapsed / result.passes >= seconds \
                and result.attempted >= min_samples:
            break
    # Whole-pass checks (converge's fitted rate) fail every op of the group.
    with _untraced(tracer):
        failed_groups = workload.post_check(result.first_outputs)
    if failed_groups:
        marked = {i for i, _ in result.errors}
        for i, group in enumerate(result.groups):
            if group in failed_groups and i not in marked:
                result.errors.append((i, f"{group}: {failed_groups[group]}"))
    return result


def machine_facts() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except Exception:  # show_config layout differs across numpy versions
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "cylattice": cy.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def rate_and_latency(seconds: list, passed: int):
    """(passed ops per second, p50 ms, p90 ms) of per-op times in seconds."""
    p50, p90 = (float(v) for v in np.percentile(np.array(seconds) * 1e3, [50, 90]))
    return passed / sum(seconds), p50, p90


def end_to_end(result: PassResult, setups: list, import_s: float, import_cpu_s: float):
    """Gated metrics (reference-speed CPU time) and the raw CPU and wall figures.

    `setups` holds (wall s, CPU s, reference-speed s) per set-up.
    """
    passed = result.attempted - len({i for i, _ in result.errors})
    rate, p50, p90 = rate_and_latency(result.ref_seconds(), passed)
    gated = {
        "ops_per_ref_s": rate,
        "op_ref_ms.p50": p50,
        "op_ref_ms.p90": p90,
        "setup_s": statistics.median(ref for _, _, ref in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    cpu_rate, cpu_p50, cpu_p90 = rate_and_latency(result.cpu, passed)
    rate, p50, p90 = rate_and_latency(result.wall, passed)
    printed = {
        "host_speed": (result.speed.factor(), "ratio"),
        "ops_per_cpu_s": (cpu_rate, "1/s"),
        "op_cpu_ms.p50": (cpu_p50, "ms"),
        "op_cpu_ms.p90": (cpu_p90, "ms"),
        "setup_cpu_s": (import_cpu_s + statistics.median(cpu for _, cpu, _ in setups), "s"),
        "ops_per_s": (rate, "1/s"),
        "op_ms.p50": (p50, "ms"),
        "op_ms.p90": (p90, "ms"),
        "setup_wall_s": (import_s + statistics.median(wall for wall, _, _ in setups), "s"),
    }
    return ({k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in gated.items()},
            {k: {"value": v, "unit": unit} for k, (v, unit) in printed.items()})


def set_ups(name: str, seed: int, size: str, fault_inject: bool, import_cpu_s: float):
    """SETUP_REPEATS set-ups; return the last workload and (wall, CPU, reference-speed) each.

    Each set-up's reference-speed time adds the imports, both scaled by the
    reference samples on either side of them.
    """
    speed = HostSpeed()
    speed.sample(REFERENCE_SHARE * import_cpu_s)
    timings = []
    for _ in range(SETUP_REPEATS):
        clear_caches()
        workload, wall, cpu = set_up(name, seed, size, fault_inject)
        speed.sample(REFERENCE_SHARE * cpu)
        timings.append((wall, cpu))
    factors = speed.op_factors()
    return workload, [(wall, cpu, import_cpu_s * factors[0] + cpu * factors[k + 1])
                      for k, (wall, cpu) in enumerate(timings)]


def run_benchmark(name: str, seed: int, seconds: float, trace: bool,
                  size: str = "full", fault_inject: bool = False,
                  import_s: float = 0.0, import_cpu_s: float = 0.0,
                  min_samples: int = MIN_SAMPLES) -> dict:
    """Run one workload and return the report (see run.py for the output)."""
    golden = load_golden()
    info = {"workload": name, "seed": seed, "size": size, "trace": int(trace),
            "machine": machine_facts()}
    if not trace:
        workload, setups = set_ups(name, seed, size, fault_inject, import_cpu_s)
        result = run_passes(workload, seconds, golden, min_samples)
        metrics, info["other"] = end_to_end(result, setups, import_s, import_cpu_s)
    else:
        clear_caches()
        workload, _, _ = set_up(name, seed, size, fault_inject)
        plain = run_passes(workload, seconds / 2.0, golden, 1)
        clear_caches()
        with tracing.Tracer() as tracer:
            workload, _, _ = set_up(name, seed, size, fault_inject)
            setup_spans = tracer.totals()[2]
            since = tracer.start_phase()
            result = run_passes(workload, seconds / 2.0, golden, 1,
                                passes=plain.passes, tracer=tracer)
            gm = tracer.gm_cache_info()
        calls, total, self_s = tracer.totals(since)
        metrics = tracing.layer_metrics(
            calls, self_s, tracer.counters, ops=result.attempted,
            op_seconds=total["bench.op"],
            setup_self_s=setup_spans, gm_hits=gm.hits, gm_misses=gm.misses,
            pk_distinct_ratio=tracer.pk_distinct_ratio(since),
            overhead=sum(result.wall) / sum(plain.wall) - 1.0,
        )
        result.extend(plain)
    timed = np.array(result.cpu)
    failed = len(result.errors)
    info.update({
        "passes": result.passes,
        "ops_per_pass": len(workload.ops),
        "samples": len(timed),
        "beyond_p90": int(np.sum(timed > np.percentile(timed, 90))),
        "fail_frac": failed / result.attempted,
        "failures": [msg for _, msg in result.errors[:5]],
    })
    return {"info": info, "correct": failed == 0, "attempted": result.attempted,
            "failed": failed, "metrics": metrics}
