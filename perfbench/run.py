"""The rigidity benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src``.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  A wrong output makes
the command exit with code 1; a missing ``src/rigidity`` with code 2.
See perfbench/README.md for the workloads and the metrics.
"""

import argparse
import compileall
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 3
IMPORT_SAMPLES = 3
FAILURES = ("error", "overrun", "wrong")

END_TO_END = {
    "ops_per_s": "1/s",
    "verified_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_p50_s": "s",
    "op_tail_s": "s",
}


def per_layer_units():
    """Every per-layer metric the traced run prints, with its unit."""
    import tracing

    units = {}
    for name, _, _ in tracing.TARGETS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.calls_per_op"] = "count/op"
        units[f"{name}.self_s"] = "s/op"
        if name.startswith(("symdom.", "cli.")):
            units[f"{name}.errors"] = "count"
    units[f"{tracing.OP}.self_s"] = "s/op"
    for name, stat in tracing.COUNTED.items():
        units[f"{name}.{stat}"] = "count/op"
    for exc in ("PuiseuxError", "BranchPointOnCircle", "BoundaryHit",
                "DegenerateAtZero", "OnOrOutsideBoundary"):
        units[f"symdom.errors.{exc}"] = "count"
    units["symdom.fit_residual_max"] = "1"
    units["import.process_start_s"] = "s"
    units["import.rigidity_s"] = "s"
    units["trace.overhead_ratio"] = "ratio"
    return units


def pin_to_one_cpu():
    """Keep this process and its children on one CPU, so that the speed
    samples time the CPU the ops run on (see workloads.REFERENCE_S)."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def setup(name, seed, tiny=False, tracer=None):
    """Import the package, make the inputs and warm up: all of set-up."""
    import workloads

    workload = workloads.make_workload(name, tiny, tracer)
    pool = workloads.make_pool(workload, seed)
    workload.warm_up()
    return workload, pool


def setup_seconds(args):
    """Median over fresh processes of the time from spawn to set-up done,
    each scaled by a speed sample taken just before it."""
    import workloads

    samples = []
    for _ in range(SETUP_SAMPLES):
        scale = workloads.speed_scale(workloads.speed_sample() / workloads.REFERENCE_S)
        start = time.perf_counter()
        out = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT, env=workloads.child_env(), capture_output=True, text=True, timeout=150,
            check=True)
        samples.append((float(out.stdout.split()[-1]) - start) / scale)
    return statistics.median(samples)


def import_seconds(code):
    import workloads

    samples = []
    for _ in range(IMPORT_SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=workloads.child_env(),
                       check=True, timeout=60)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def percentile(values, pct):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(pct / 100 * len(ordered)) - 1, 0)]


def untraced_metrics(args, records, workload):
    import workloads

    latencies = workloads.scaled_latencies(records)
    beyond = len(latencies) - math.ceil(workload.tail_percentile / 100 * len(latencies))
    if isinstance(workload, workloads.CliSession):
        rss_kb = workload.peak_child_rss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(f"op_tail_s is p{workload.tail_percentile} of {len(latencies)} ops, {beyond} beyond "
          f"it; median machine speed factor {statistics.median(r[5] for r in records):.3f}",
          file=sys.stderr)
    return {
        "ops_per_s": workloads.ops_per_second(records),
        "verified_ratio": sum(r[1] == "verified" for r in records) / len(records),
        "setup_s": args.setup_s,
        "peak_rss_mb": rss_kb / 1024.0,
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": percentile(latencies, workload.tail_percentile),
    }


def traced_metrics(args, untraced, traced, tracer):
    import tracing
    import workloads

    layer, gap = tracing.summarize(tracer.spans)
    residuals = [r[3]["fit_residual"] for r in traced if "fit_residual" in r[3]]
    layer.update({
        "symdom.fit_residual_max": max(residuals, default=0.0),
        "import.process_start_s": args.process_start_s,
        "import.rigidity_s": args.import_s - args.process_start_s,
        "trace.overhead_ratio": (workloads.ops_per_second(traced)
                                 / workloads.ops_per_second(untraced)),
    })
    print(f"largest gap between summed self times and op wall time: {gap:.3g} s",
          file=sys.stderr)
    return {name: layer.get(name, 0) for name in per_layer_units()}, gap


def report(args, records, metrics, correct, units):
    import workloads

    outcomes = Counter(r[1] for r in records)
    print(f"{args.workload} seed {args.seed}: {dict(outcomes)}", file=sys.stderr)
    for label, outcome, _, info, _, _ in records:
        if outcome in FAILURES:
            print(f"  {outcome}: {label}: {info}", file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": len(records),
        "failed": sum(outcomes[k] for k in FAILURES),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    detail = workloads.RUN_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail.write_text(json.dumps({"result": result, "ops": records}, default=str),
                      encoding="utf-8")
    print(json.dumps(result))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["flat_census", "branch_paths", "puiseux_charpolys",
                                 "cli_session"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the time set-up ended, and exit")
    return parser.parse_args(argv)


def run(argv=None):
    args = parse_args(argv)
    if not (SRC / "rigidity" / "__init__.py").is_file():
        print(f"no package source at {SRC / 'rigidity'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        setup(args.workload, args.seed)
        print(time.perf_counter())
        return 0
    pin_to_one_cpu()
    compileall.compile_dir(str(SRC / "rigidity"), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1, maxlevels=0)

    import tracing
    import workloads

    workloads.RUN_DIR.mkdir(exist_ok=True)

    if args.trace:
        args.process_start_s = import_seconds("pass")
        args.import_s = import_seconds("import rigidity")
        tracer = tracing.Tracer()
        workload, pool = setup(args.workload, args.seed, tracer=tracer)
        untraced = workloads.run_loop(workload, pool, args.seconds / 2)
        tracer.install()
        try:
            traced = workloads.run_loop(workload, pool, 0, tracer=tracer,
                                        max_rounds=workloads.rounds_of(untraced))
        finally:
            tracer.uninstall()
        tracer.dump(workloads.RUN_DIR / f"spans-{args.workload}-seed{args.seed}.json")
        metrics, gap = traced_metrics(args, untraced, traced, tracer)
        records = untraced + traced
        correct = gap <= 1e-6
        units = per_layer_units()
    else:
        args.setup_s = setup_seconds(args)
        workload, pool = setup(args.workload, args.seed)
        records = workloads.run_loop(workload, pool, args.seconds)
        metrics = untraced_metrics(args, records, workload)
        correct = True
        units = END_TO_END
    correct = correct and not any(r[1] == "wrong" for r in records)
    report(args, records, metrics, correct, units)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(run())
