"""Run workloads repeatedly and report the spread of every end-to-end metric.

    python3 perfbench/stability.py --seeds 1-10 --series 2
    python3 perfbench/stability.py --workloads verify --seeds 1x10

Runs `run.py` once per (workload, seed), one run at a time, and prints for
each metric the median, the quartiles (``statistics.quantiles(n=4)``), the
spread (Q3 - Q1) / median and, when BENCHMARK.json names a bound, whether the
spread stays under a third of it.  ``--seeds 1x10`` runs seed 1 ten times,
which separates machine noise from the effect of the inputs.  With
``--series 2`` every workload's seed list runs twice, back to back, and each
later series' medians are compared with the first's: a metric that moved
against its direction by more than its bound is reported as UNRESOLVED.
``--out`` also writes every run's result as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        if "x" in part:
            seed, _, times = part.partition("x")
            seeds.extend([int(seed)] * int(times))
            continue
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    # The ungated figures (host_speed, raw CPU and wall clock), for comparison.
    result["ungated"] = {}
    for line in lines[:-1]:
        if line.endswith("(not gated)"):
            name, value, unit = line.split()[:3]
            result["ungated"][name] = {"value": float(value), "unit": unit}
    return result


def summarize(workload: str, runs: list[dict], limits: dict) -> list[str]:
    lines = [f"== {workload}: {len(runs)} runs, wall {min(r['wall_s'] for r in runs):.1f}"
             f"-{max(r['wall_s'] for r in runs):.1f} s, failed ops "
             f"{sum(r['failed'] for r in runs)} of {sum(r['attempted'] for r in runs)}"]
    names = list(runs[0]["metrics"]) + list(runs[0]["ungated"])
    for name in names:
        values = [r["metrics"].get(name, r["ungated"].get(name))["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        bound = limits.get(name)
        verdict = "" if bound is None else (
            "ok" if spread < bound / 3 else ("within bound" if spread <= bound else "TOO WIDE"))
        lines.append(f"  {name:24s} median {median:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}"
                     f"  spread {spread:7.4f}  bound {bound}  {verdict}")
    return lines


def compare(first: list[dict], later: list[dict], spec: dict) -> list[str]:
    """Each metric's median change from the first series, against its bound."""
    lines = []
    for metric in spec:
        name, bound = metric["name"], metric["bound"]
        before = statistics.median(r["metrics"][name]["value"] for r in first)
        after = statistics.median(r["metrics"][name]["value"] for r in later)
        worse = (after - before) / before
        if metric["better"] == "higher":
            worse = -worse
        verdict = "ok" if worse <= bound else "UNRESOLVED"
        lines.append(f"  {name:24s} median {before:12.6g} -> {after:12.6g}"
                     f"  worse by {worse:+.4f}  bound {bound}  {verdict}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=None,
                        help="comma-separated; default: the workloads in BENCHMARK.json")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10, 3,5,7 or 1x10")
    parser.add_argument("--series", type=int, default=1,
                        help="run the seed list this many times and compare the medians")
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="write all run results as JSON")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    limits = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    everything = {}
    for workload in names:
        everything[workload] = []
        for series in range(args.series):
            runs = []
            for seed in parse_seeds(args.seeds):
                result = run_once(workload, seed, seconds, args.trace)
                result["seed"] = seed
                runs.append(result)
                print(f"{workload} seed {seed}: wall {result['wall_s']:.1f} s, " + ", ".join(
                    f"{k} {v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
            everything[workload].append(runs)
            print("\n".join(summarize(workload, runs, limits)), flush=True)
            if series and not args.trace:
                print(f"== {workload}: series {series + 1} against series 1", flush=True)
                print("\n".join(compare(everything[workload][0], runs, spec["end_to_end"])),
                      flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(everything, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
