"""cylattice benchmark: one workload, closed loop, every op checked.

Run from the repository root:

    python3 perfbench/run.py --workload converge --seed 1 --seconds 25 --trace 0

Workloads: converge, remainder, verify, lattice (see perfbench/README.md).
With --trace 0 the last line of standard output is a JSON object carrying
the end-to-end metrics; with --trace 1 it carries the per-layer metrics of a
traced run.  Earlier lines print the same metrics one per line, the run and
machine facts, and the first failures.  The exit code is 0 when the run
completed, even if ops failed (the JSON reports them), and 2 when the
library sources cannot be found next to this directory.
"""

import time

_START = time.perf_counter()
_START_CPU = time.process_time()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("converge", "remainder", "verify", "lattice")


def pin_threads():
    """One BLAS/OpenMP thread: must run before numpy is imported."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        os.environ[var] = "1"


def import_harness():
    """Import the benchmark modules against the cylattice sources of this checkout."""
    src = ROOT / "src"
    if not (src / "cylattice" / "__init__.py").is_file():
        raise SystemExit(f"error: no cylattice sources under {src}")
    sys.path[:0] = [str(src), str(HERE)]
    import cylattice

    if Path(cylattice.__file__).resolve().parent != (src / "cylattice").resolve():
        raise SystemExit(f"error: imported cylattice from {cylattice.__file__}, not {src}")
    import harness

    return harness


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=58.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a small op list for smoke tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_threads()
    try:
        harness = import_harness()
    except SystemExit as exc:
        print(exc, file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _START
    report = harness.run_benchmark(
        args.workload, args.seed, args.seconds, bool(args.trace), size=args.size,
        import_s=import_s, import_cpu_s=time.process_time() - _START_CPU,
        min_samples=harness.MIN_SAMPLES if args.size == "full" else 1,
    )
    info = report.pop("info")
    other = info.pop("other", {})
    print("# run " + json.dumps(info, sort_keys=True))
    for name, metric in report["metrics"].items():
        print(f"{name:32s} {metric['value']:.6g} {metric['unit']}")
    print(f"{'fail_frac':32s} {info['fail_frac']:.6g} ratio "
          f"({report['failed']} of {report['attempted']} ops)")
    for name, metric in other.items():
        print(f"{name:32s} {metric['value']:.6g} {metric['unit']} (not gated)")
    print(f"{'samples':32s} {info['samples']} ops timed, {info['beyond_p90']} beyond p90 "
          f"({info['passes']} passes of {info['ops_per_pass']} ops)")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
