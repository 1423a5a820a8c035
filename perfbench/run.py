"""qespair benchmark.

Run from the root of a qespair checkout:

    python3 perfbench/run.py --workload family-verify --seed 1 --seconds 30 --trace 0

Each workload runs in this one process as a closed loop with a single
client, calling the library in-process from ``src``.  ``--trace 0`` times
the ops and prints the end-to-end metrics; ``--trace 1`` runs every op twice,
untraced and traced in alternating order, and prints the per-layer metrics
with the tracing overhead.  Human-readable lines come first; the last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

Times are process CPU time, which leaves out the bursts of steal on shared
virtual machines (see workloads.py); the wall-clock figures are printed
alongside.  Set-up time is the import of qespair and its dependencies plus
one fixed warm-up op.  It is measured in this process and in two fresh child
processes, and the median is reported.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

# One client and no extra threads: keep the BLAS pools of numpy and scipy at
# one thread.  Set before anything imports numpy; child processes inherit it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracing import LAYERS, Tracer  # noqa: E402
from workloads import CHECK_NAMES, WORKLOADS  # noqa: E402

SETUP_CHILDREN = 2
# Counters cover this many leading ops of the traced run, so they repeat
# exactly for a seed however many ops fit in --seconds.
COUNTED_OPS = {"family-verify": 16, "parsed-seed": 8, "grid-refine": 4}

INCLUSIVE_MS = {
    "families.build_ms": "families.build",
    "construct.build_ms": "construct.build",
    "construct.crosscheck_ms": "construct.crosscheck",
    "expressions.parse_ms": "expressions.parse",
    "expressions.jet_ms": "expressions.jet",
    "functions.cumint_ms": "functions.cumint",
    "susy.potential_ms": "susy.potential",
    "verify.auto_grid_ms": "verify.auto_grid",
    "verify.eigensolve_ms": "verify.eigensolve",
}
COUNTS = ("susy.potential_points", "expressions.jet_calls", "expressions.jet_points",
          "functions.cumint_calls", "functions.cumint_points", "functions.integrand_points",
          "verify.auto_grid_psi_calls", "verify.eigensolve_points")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="measure set-up once and print it (used by the parent run)")
    return parser.parse_args(argv)


def quantile(values, p):
    """p-th percentile, linear between closest ranks."""
    vals = sorted(values)
    k = (len(vals) - 1) * p / 100.0
    lo = math.floor(k)
    hi = min(lo + 1, len(vals) - 1)
    return vals[lo] + (vals[hi] - vals[lo]) * (k - lo)


def set_up(workload):
    """CPU seconds to import qespair and its dependencies and run the warm-up op."""
    c0 = time.process_time()
    import qespair.cli  # noqa: F401
    workload.warm_up()
    return time.process_time() - c0


def setup_in_child(args):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=150, check=True)
    return float(done.stdout.split()[-1])


def run_op(workload, i, failures):
    """One op plus its reference check; returns the outcome or None if it raised."""
    try:
        outcome = workload.op(i)
    except Exception:  # an op that raises is a failed op; the loop goes on
        failures.append(f"op {i} raised:\n{traceback.format_exc()}")
        return None
    problems = workload.check(outcome)
    if problems:
        failures.append(f"op {i} {outcome.kind} {outcome.inputs}: {'; '.join(problems)}")
    return outcome


def timed_run(workload, seconds):
    """Ops for `seconds` of wall time; returns what the metrics are made of."""
    failures, outcomes, attempted = [], [], 0
    start, cpu_start = time.perf_counter(), time.process_time()
    while True:
        outcome = run_op(workload, attempted, failures)
        attempted += 1
        if outcome is not None:
            outcomes.append(outcome)
        if time.perf_counter() - start >= seconds:
            break
    return (attempted, failures, outcomes, time.process_time() - cpu_start,
            time.perf_counter() - start)


def verdict_summary(verdicts):
    """'k of n reports failed a check (check: count, ...)'."""
    failing = {name: sum(not v[name] for v in verdicts) for name in CHECK_NAMES}
    listed = ", ".join(f"{name}: {n}" for name, n in failing.items() if n)
    return (f"{sum(not all(v.values()) for v in verdicts)} of {len(verdicts)} reports "
            f"failed a check ({listed or 'none'})")


def traced_run(args, scratch):
    plain = WORKLOADS[args.workload](args.seed, scratch)
    traced = WORKLOADS[args.workload](args.seed, scratch)
    plain.prepare()
    traced.reference = plain.reference
    tracer = Tracer()
    failures, pairs, attempted = [], [], 0     # pairs: (traced ms, untraced ms)
    layer_ns, incl_ns, self_ns = ({} for _ in range(3))
    counts = {k: 0 for k in COUNTS}
    check_fail = {c: 0 for c in CHECK_NAMES}
    counted = COUNTED_OPS[args.workload]
    start = time.perf_counter()
    while attempted < counted or time.perf_counter() - start < args.seconds:
        i = attempted
        attempted += 1
        outcomes = {}
        for side in (("plain", "traced") if i % 2 == 0 else ("traced", "plain")):
            if side == "plain":
                outcomes[side] = run_op(plain, i, failures)
                continue
            tracer.reset()
            tracer.install()
            try:
                outcomes[side] = run_op(traced, i, failures)
            finally:
                tracer.uninstall()
        if outcomes["plain"] is None or outcomes["traced"] is None:
            continue
        pairs.append((outcomes["traced"].cpu_s * 1e3, outcomes["plain"].cpu_s * 1e3))
        for src, dst in ((tracer.layer_self_ns, layer_ns), (tracer.name_incl_ns, incl_ns),
                         (tracer.name_self_ns, self_ns)):
            for key, value in src.items():
                dst[key] = dst.get(key, 0) + value
        if i < counted:
            for key in COUNTS:
                counts[key] += tracer.counts[key]
            for verdict in outcomes["traced"].verdicts:
                for name in CHECK_NAMES:
                    check_fail[name] += not verdict[name]

    n = max(len(pairs), 1)

    def per_op_ms(ns):
        return ns / 1e6 / n

    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = (per_op_ms(layer_ns.get(layer, 0)), "ms")
    for metric, name in INCLUSIVE_MS.items():
        metrics[metric] = (per_op_ms(incl_ns.get(name, 0)), "ms")
    metrics["verify.checks_ms"] = (per_op_ms(self_ns.get("verify.verify_model", 0)), "ms")
    for key in COUNTS:
        metrics[key] = (counts[key], "count")
    queried = counts["functions.cumint_points"]
    metrics["functions.integrand_per_query"] = (
        counts["functions.integrand_points"] / queried if queried else 0.0, "ratio")
    for name in CHECK_NAMES:
        metrics[f"verify.check_fail.{name}"] = (check_fail[name], "count")
    traced_ms = [t for t, _ in pairs] or [0.0]
    plain_ms = [p for _, p in pairs] or [0.0]
    # paired by input, so the op mix cancels out of the overhead
    ratios = [t / p for t, p in pairs] or [1.0]
    metrics["trace.op_ms.p50"] = (statistics.median(traced_ms), "ms")
    metrics["trace.untraced_op_ms.p50"] = (statistics.median(plain_ms), "ms")
    metrics["trace.overhead_pct"] = (100.0 * (statistics.median(ratios) - 1.0), "%")
    info = (f"{len(pairs)} ops ran both untraced and traced; "
            f"counters and check_fail cover the first {counted} ops")
    return 2 * attempted, failures, metrics, info


def main(argv=None):
    args = parse_args(argv)
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "qespair", "__init__.py")):
        print("error: src/qespair not found; run from the root of a qespair checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    scratch = os.path.join(os.getcwd(), ".perfbench_tmp", str(os.getpid()))
    os.makedirs(scratch, exist_ok=True)
    try:
        return _run(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(scratch))
        except OSError:
            pass


def _run(args, scratch):
    workload = WORKLOADS[args.workload](args.seed, scratch)
    setup_s = set_up(workload)
    if args.setup_probe:
        print(repr(setup_s))
        return 0

    if args.trace:
        attempted, failures, metrics, info = traced_run(args, scratch)
    else:
        setups = [setup_s] + [setup_in_child(args) for _ in range(SETUP_CHILDREN)]
        workload.prepare()
        attempted, failures, outcomes, cpu, wall = timed_run(workload, args.seconds)
        latencies = [o.cpu_s * 1e3 for o in outcomes] or [0.0]
        walls = [o.wall_s * 1e3 for o in outcomes] or [0.0]
        pct = workload.tail_percentile
        tail = quantile(latencies, pct)
        beyond = sum(1 for v in latencies if v > tail)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "op_ms.p50": (statistics.median(latencies), "ms"),
            "op_ms.tail": (tail, "ms"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
        # Printed but not in the result: no bound the format allows holds
        # these steady (README.md, "Why CPU time").
        info = (f"op_ms.tail is p{pct} with {beyond} of {len(outcomes)} ops beyond it; "
                f"ops_per_s = {len(outcomes) / cpu:.4g} 1/s; "
                f"fail_frac = {len(failures)}/{attempted} = {len(failures) / attempted:.4g}; "
                f"{verdict_summary([v for o in outcomes for v in o.verdicts])}; "
                f"set-up samples (CPU s): {', '.join(f'{s:.3f}' for s in setups)}\n"
                f"wall clock: op p50 {statistics.median(walls):.1f} ms, "
                f"p{pct} {quantile(walls, pct):.1f} ms, {len(outcomes) / wall:.4g} ops/s; "
                f"CPU time / wall time of the timed phase {cpu / wall:.3f}")

    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={attempted} failed={len(failures)}")
    print(info)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
