"""Run one workload in a fresh interpreter and print its result as JSON.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1

Started by run.py, which adds set-up time and writes the result file.
The cycle is repeated until `--seconds` of measured time have passed
(at least once); outputs are checked after each cycle, outside the timing.

--trace 0: end-to-end numbers (latencies, throughput, peak RSS), with
           times scaled to a reference host speed (see speed.py).
--trace 1: untraced and traced cycles in turn, every layer wrapped in the
           traced ones (see tracer.py); prints per-layer metrics per cycle
           and writes the spans to the given file.

For `generate-mix` the worker first starts itself again with
`--references`, which prints the reference token sets as JSON, so that
building them stays out of the workload process's peak RSS.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

MAX_REPORTED_FAILURES = 10
REFERENCES_TIMEOUT_S = 60

# Per-layer metrics, all per cycle; README.md says what each should move.
# Every traced function also reports its self time, `<fn>.self_s`.
COUNT_METRICS = (
    "engine.instantiate", "engine.adjoin", "engine.substitute",
    "engine.finalize", "featstruct.unify", "generate.apply_fusion",
    "generate.generate", "engine.enumerate_derivations",
    "recognize.recognize", "specialize.project_language",
)
FAILURE_METRICS = ("engine.instantiate", "engine.adjoin", "engine.finalize",
                   "featstruct.unify")


def run_cycle(ops, tracer=None, clock=perf_counter):
    """Call every op once; returns ([(start, end)] per op, outcomes, wall
    seconds), all read from `clock`."""
    ctx = {}
    spans = []
    outcomes = []
    start = clock()
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op = index
        t0 = clock()
        try:
            value, exc = op.call(ctx), None
        except Exception as error:  # an outcome to check, not a crash
            value, exc = None, error
        spans.append((t0, clock()))
        outcomes.append((value, exc))
    return spans, outcomes, clock() - start


class Checker:
    """Checks outcomes and that every cycle repeats the first one."""

    def __init__(self, ops):
        self.ops = ops
        self.first = None
        self.attempted = 0
        self.failures = []

    def check(self, outcomes):
        digests = []
        for op, (value, exc) in zip(self.ops, outcomes):
            self.attempted += 1
            error = op.check(value, exc)
            digest = op.digest(value, exc)
            digests.append(digest)
            if error is None and self.first is not None \
                    and digest != self.first[len(digests) - 1]:
                error = "output differs from the first cycle's"
            if error is not None:
                self.failures.append("%s: %s" % (op.label, error))
        if self.first is None:
            self.first = digests

    def result(self):
        return {"attempted": self.attempted, "failed": len(self.failures),
                "failures": self.failures[:MAX_REPORTED_FAILURES]}


def p50_p90(values):
    """Median and 90th percentile; a single value is both."""
    if len(values) == 1:
        return values[0], values[0]
    return (statistics.median(values),
            statistics.quantiles(values, n=10, method="inclusive")[8])


def measure(workload, seconds):
    """Repeat the cycle for `seconds`; each op's time is scaled to the
    reference speed of speed.py by the host's speed around it."""
    checker = Checker(workload.ops)
    spans = []
    walls = []
    with speed.Sampler() as sampler:
        while not walls or sum(walls) < seconds:
            cycle, outcomes, wall = run_cycle(workload.ops, clock=sampler.clock)
            spans.extend(cycle)
            walls.append(wall)
            checker.check(outcomes)
    plain = [(end - start) * 1000.0 for start, end in spans]
    ms = [t * sampler.scale(start, end) for t, (start, end) in zip(plain, spans)]
    p50, p90 = p50_p90(ms)
    ops_per_s = 1000.0 * len(ms) / sum(ms)
    metrics = {
        "ops_per_s": (ops_per_s, "ops/s"),
        "latency_p50_ms": (p50, "ms"),
        "latency_p90_ms": (p90, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    info = {"cycles": len(walls), "ops_per_cycle": len(workload.ops),
            "latency_samples": len(ms),
            "samples_beyond_p90": sum(1 for x in ms if x > p90),
            "measured_s": sum(walls),
            "unscaled": dict(zip(
                ("ops_per_s", "latency_p50_ms", "latency_p90_ms"),
                (1000.0 * len(plain) / sum(plain),) + p50_p90(plain))),
            "kernel_samples": len(sampler.kernel_s),
            "kernel_s_median": statistics.median(sampler.kernel_s)}
    if workload.cells_per_cycle:
        info["cells_per_s"] = ops_per_s * workload.cells_per_cycle
    by_kind = {}
    for op, latency in zip(workload.ops * len(walls), ms):
        by_kind.setdefault(op.kind, []).append(latency)
    info["latency_p50_ms_by_kind"] = {
        kind: statistics.median(values) for kind, values in sorted(by_kind.items())}
    return metrics, checker.result(), info


def measure_traced(workload, seconds, spans_path):
    """Alternate untraced and traced cycles until `seconds` have passed, so
    that the overhead ratio compares cycles run at nearly the same time."""
    checker = Checker(workload.ops)
    tracer = tracing.Tracer()
    untraced = []
    walls = []
    while not walls or sum(walls) + sum(untraced) < seconds:
        _, outcomes, wall = run_cycle(workload.ops)
        untraced.append(wall)
        checker.check(outcomes)
        tracer.install()
        try:
            _, outcomes, wall = run_cycle(workload.ops, tracer)
        finally:
            tracer.uninstall()
        walls.append(wall)
        checker.check(outcomes)
    cycles = len(walls)
    stats = tracer.stats
    counts = tracer.counts()
    metrics = {}
    for name in COUNT_METRICS:
        metrics[name + ".calls"] = (counts[name + ".calls"] / cycles, "count")
    for name in FAILURE_METRICS:
        metrics[name + ".failed"] = (counts[name + ".failed"] / cycles, "count")
        metrics[name + ".fail_ratio"] = (
            tracing.ratio(stats[name].failed, stats[name].calls), "ratio")
    for module, function in tracing.SPAN_FUNCTIONS + tracing.COUNTED_FUNCTIONS:
        name = "%s.%s" % (module, function)
        metrics[name + ".self_s"] = (stats[name].self_s / cycles, "s")
    recognize_calls = stats["recognize.recognize"].calls
    metrics["generate.useful_ratio"] = (tracing.ratio(
        tracer.realizations, tracer.finalize_under_generate), "ratio")
    metrics["recognize.decompositions"] = (tracing.ratio(
        stats["engine.enumerate_derivations"].calls, recognize_calls), "ratio")
    metrics["recognize.relaxed_ratio"] = (tracing.ratio(
        stats["specialize.project_language"].calls, recognize_calls), "ratio")
    metrics["trace.overhead_ratio"] = (
        statistics.median(walls) / statistics.median(untraced), "ratio")
    info = {"cycles": cycles, "ops_per_cycle": len(workload.ops),
            "untraced_cycles_s": untraced, "traced_cycles_s": walls,
            "spans": len(tracer.spans),
            "counts_per_cycle": {k: v / cycles for k, v in counts.items()}}
    if spans_path:
        tracer.write_spans(spans_path)
        info["spans_file"] = spans_path
    return metrics, checker.result(), info


def references(args):
    """`generate-mix`'s references, computed in a child process."""
    if args.workload != "generate-mix":
        return None
    out = subprocess.run([sys.executable, __file__, "--workload", args.workload,
                          "--seed", str(args.seed), "--references"],
                         stdout=subprocess.PIPE, text=True, check=True,
                         timeout=REFERENCES_TIMEOUT_S)
    return json.loads(out.stdout)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None,
                        help="where the traced run writes its spans")
    parser.add_argument("--references", action="store_true",
                        help="print generate-mix's references and exit")
    args = parser.parse_args(argv)
    if args.references:
        print(json.dumps(workloads.generate_mix_references(args.seed)))
        return 0
    if args.seconds is None:
        parser.error("--seconds is required")

    started = perf_counter()
    workload = workloads.build(args.workload, args.seed, ROOT, references(args))
    build_s = perf_counter() - started
    if args.trace:
        metrics, checks, info = measure_traced(workload, args.seconds, args.spans)
    else:
        metrics, checks, info = measure(workload, args.seconds)
    info["workload_build_s"] = build_s
    if args.workload == "generate-mix":
        info["known_defects"] = workloads.defect_probe()
    print(json.dumps({"metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()},
                      "checks": checks, "info": info}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
