"""Check that the traced run's counters repeat exactly for a seed.

Runs ``run.py --trace 1`` twice per workload with the same seed, each in a
fresh process, and compares every count metric (``*_points``, ``*_calls``,
``check_fail.*``) and ``functions.integrand_per_query``.  Claims that rest
on these counts need them to be exact.  Run from the root of a checkout:

    python3 perfbench/selfcheck.py [--seed 1] [--workload NAME ...]

Exits 0 when every count repeats, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402


def traced_counts(workload, seed):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] in ("count", "ratio")}


def main(argv=None):
    parser = argparse.ArgumentParser(description="Counters of two traced runs must match.")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", nargs="*", default=sorted(WORKLOADS),
                        choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    ok = True
    for workload in args.workload:
        first, second = (traced_counts(workload, args.seed) for _ in range(2))
        diffs = {k: (first[k], second.get(k)) for k in first if first[k] != second.get(k)}
        ok &= not diffs and first.keys() == second.keys()
        print(f"{workload}: {len(first)} counts, "
              f"{'identical' if not diffs else f'DIFFER {diffs}'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
