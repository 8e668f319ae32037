"""creoletag benchmark: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  Workloads: tables-tma, generate-mix, recognize (see
workloads.py and README.md).  Each is a closed loop with one client.

--trace 0 prints the end-to-end metrics: set-up time (median over fresh
interpreters before and after the workload), throughput, median and
90th-percentile latency, and the workload process's peak RSS.  Times are
scaled to a reference host speed (see speed.py).  --trace 1 prints the
per-layer metrics of a traced run instead.  Either way the last stdout line is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

A summary goes to stderr and the full result, with run metadata, to
``.perfbench-results/``.  The exit code is 0 only when every output check
passed; without the program's sources it is 2 and nothing is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
RESULTS = ROOT / ".perfbench-results"
WORKLOADS = ("tables-tma", "generate-mix", "recognize")

# Fresh interpreters timed before and again after the workload process,
# so that the median spans the run rather than one moment of it.
SETUP_RUNS_EACH_SIDE = 6
WORKER_TIMEOUT_S = 150
# Every CLI invocation imports the CLI and loads the validated shipped
# grammar.  The time is scaled to the reference speed of speed.py by the
# kernel's median time right after it, in the same interpreter.
SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import creoletag.cli
from creoletag.creole import shipped_grammar
shipped_grammar()
setup = time.perf_counter() - start
sys.path.insert(0, sys.argv[2])
import speed
print(setup * speed.scale_of([speed.time_kernel() for _ in range(20)]))
"""


def setup_samples(runs, warm=False):
    """Set-up times of `runs` fresh interpreters, after one more that warms
    the bytecode cache if `warm`."""
    samples = []
    for i in range(runs + warm):
        out = subprocess.run([sys.executable, "-c", SETUP_CODE, str(ROOT / "src"),
                              str(HERE)],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=60, check=True)
        if i or not warm:
            samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


def run_worker(args, spans_path):
    command = [sys.executable, str(HERE / "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if spans_path:
        command += ["--spans", str(spans_path)]
    out = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                         timeout=WORKER_TIMEOUT_S)
    if out.returncode != 0:
        raise RuntimeError("workload process exited with %d" % out.returncode)
    return json.loads(out.stdout.strip().splitlines()[-1])


def metadata(args):
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(),
            "loadavg_1m": os.getloadavg()[0]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "creoletag" / "__init__.py").is_file():
        print("perfbench: no creoletag sources under %s" % (ROOT / "src"),
              file=sys.stderr)
        return 2

    RESULTS.mkdir(exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    meta = metadata(args)
    spans_path = RESULTS / (stem + ".spans.tsv.gz") if args.trace else None
    try:
        if not args.trace:
            setup = setup_samples(SETUP_RUNS_EACH_SIDE, warm=True)
        worker = run_worker(args, spans_path)
        if not args.trace:
            setup += setup_samples(SETUP_RUNS_EACH_SIDE)
    except (subprocess.SubprocessError, RuntimeError, ValueError) as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1

    metrics = worker["metrics"]
    info = worker["info"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
        info["setup_samples_s"] = setup
    checks = worker["checks"]
    correct = checks["failed"] == 0
    line = {"correct": correct, "attempted": checks["attempted"],
            "failed": checks["failed"], "metrics": metrics}
    info["failed_ratio"] = checks["failed"] / checks["attempted"]
    (RESULTS / (stem + ".json")).write_text(json.dumps(
        {"meta": meta, "result": line, "failures": checks["failures"],
         "info": info}, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")

    print("perfbench %s seed=%d trace=%d python=%s nproc=%s load1=%.2f" % (
        args.workload, args.seed, args.trace, meta["python"], meta["nproc"],
        meta["loadavg_1m"]), file=sys.stderr)
    for name, metric in sorted(metrics.items()):
        print("  %-44s %14.6g %s" % (name, metric["value"], metric["unit"]),
              file=sys.stderr)
    print("  attempted=%d failed=%d failed_ratio=%g cycles=%d" % (
        checks["attempted"], checks["failed"], info["failed_ratio"],
        info["cycles"]), file=sys.stderr)
    for failure in checks["failures"]:
        print("  FAILED %s" % failure, file=sys.stderr)
    for case, outcome in info.get("known_defects", {}).items():
        print("  known defect, not timed: %s -> %s" % (case, outcome),
              file=sys.stderr)
    print(json.dumps(line))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
