"""The repository benchmark: one command, three C-Explorer workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload browse-20k --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` runs the traced variant and reports the per-layer
metrics.  Every metric is printed with its unit and sample count; the
last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The exit status is
non-zero when an answer differs from the references or the
benchmark's own self-check fails.  See ``perfbench/README.md``.
"""

import argparse
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import inputs
import ledger
import workloads

# Every gated end-to-end metric; each workload reports all of them.
END_TO_END = ("setup_s", "search_p50_ms", "throughput_rps", "peak_rss_mb")
MIN_BEYOND = 10


def unit_of(name):
    """The unit of a per-layer metric, from its name."""
    if name.endswith(("_ms", "_ms_p50", "_ms_p99")):
        return "ms"
    if name.endswith(("_us", "_us_p50")):
        return "us"
    if name.endswith(("_share", "hit_rate")):
        return "share"
    return "count"


def calibrate():
    """Median of three timings of a fixed pure-Python loop, in ms."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(1000000):
            acc = (acc + i * i) % 1000003
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def commit(root):
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


class Context:
    def __init__(self, root, workload, seed, seconds):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds


def self_check(ctx, outcome, traced):
    """The benchmark checking itself: ``(problems, warnings)``.

    A gated percentile with fewer than ``MIN_BEYOND`` samples beyond it
    is a problem; a reported-only one is a warning.  The traced run
    half-length run measures no percentiles.
    """
    problems, warnings = [], []
    graph = outcome.graph
    if workloads.request_digest(ctx.workload, graph, ctx.seed) != \
            workloads.request_digest(ctx.workload, graph, ctx.seed):
        problems.append("request stream is not seed-stable")
    if traced:
        total_self, budget = outcome.self_time
        if total_self > budget:
            problems.append("layer self time {:.3f}s exceeds wall x "
                            "clients {:.3f}s".format(total_self, budget))
        return problems, warnings
    for name, values, p, gated in outcome.percentiles:
        n = ledger.beyond(values, p)
        if n < MIN_BEYOND:
            (problems if gated else warnings).append(
                "{}: only {} of {} samples beyond p{:g}".format(
                    name, n, len(values), p * 100))
    return problems, warnings


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: no program source at src/repro; run from the "
              "repository root", file=sys.stderr)
        return 2
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, os.path.join(root, "src"))

    ctx = Context(root, args.workload, args.seed, args.seconds)
    traced = bool(args.trace)
    calib_ms = calibrate()
    outcome = workloads.WORKLOADS[args.workload](ctx, traced)
    problems, warnings = self_check(ctx, outcome, traced)

    if traced:
        metrics = {name: (value, unit_of(name), None)
                   for name, value in outcome.per_layer.items()}
    else:
        metrics = {name: outcome.metrics[name] for name in END_TO_END}
    # Everything printed: the result line's metrics, the reported-only
    # ones, and the failure share.
    shown = {} if traced else dict(outcome.metrics, **outcome.report)
    shown["failed_share"] = (outcome.failed / max(outcome.attempted, 1),
                             "share", outcome.attempted)
    shown.update({name: m for name, m in metrics.items()
                  if name not in shown})
    context = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.util.find_spec("numpy") is not None,
        "commit": commit(root), "calib_ms": round(calib_ms, 3),
        "answers_checked": outcome.checked,
        "samples": {name: m[2] for name, m in shown.items()
                    if m[2] is not None},
    }
    print("{} seed={} trace={}".format(args.workload, args.seed, args.trace))
    for name in sorted(shown):
        value, unit, samples = shown[name]
        print("  {:40s} {:>14.4f} {:6s} {}".format(
            name, value, unit, "" if samples is None
            else "n={}".format(samples)))
    for why in outcome.failures[:20]:
        print("  FAILED: " + why)
    for problem in problems:
        print("  SELF-CHECK: " + problem)
    for warning in warnings:
        print("  SELF-CHECK (reported only): " + warning)
    print("context " + json.dumps(context, sort_keys=True))
    record = inputs.cache_path(root, "results", "{}-{}-trace{}.json".format(
        args.workload, args.seed, args.trace))
    with open(record, "w", encoding="utf-8") as handle:
        json.dump({"context": context, "metrics": shown}, handle, indent=1)

    correct = outcome.failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in sorted(metrics.items())},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
