"""Regenerate golden.json: one checked pass of every workload at the default seed.

    python3 perfbench/make_golden.py

golden.json is the "same behaviour" reference of the benchmark: each run
compares the records of the ops it shares with it (all ops at the default
seed, and the seed-independent affine_triangle rows at any seed).  Regenerate
it only for a change that is meant to alter results, and say so in the
change.  Roundoff-level residuals are stored as pass/fail verdicts only.
"""

import json
import sys

import run


def main() -> int:
    run.pin_threads()
    harness = run.import_harness()
    import workloads

    golden = {}
    for name in workloads.WORKLOADS:
        harness.clear_caches()
        workload, _, _ = harness.set_up(name, harness.DEFAULT_SEED, "full", False)
        for op in workload.ops:
            _, _, out, error = harness.run_op(op, None)
            if error is not None:
                print(f"error: {op.key}: {error}", file=sys.stderr)
                return 1
            golden[op.key] = op.record(out)
        print(f"{name}: {len(workload.ops)} ops")
    harness.GOLDEN_PATH.write_text(json.dumps(golden, sort_keys=True, indent=0) + "\n")
    print(f"wrote {harness.GOLDEN_PATH} ({len(golden)} records)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
