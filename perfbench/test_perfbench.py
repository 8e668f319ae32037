"""The benchmark's own tests.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from creoletag import generate  # noqa: E402
from creoletag.creole import shipped_grammar  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_table_tma_work_counts():
    """One table_tma call at this commit: the counts the issue pinned."""
    grammar = shipped_grammar()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        generate.table_tma(grammar)
    finally:
        tracer.uninstall()
    counts = tracer.counts()
    got = {name: (counts[name + ".calls"], counts[name + ".failed"])
           for name in ("engine.instantiate", "featstruct.unify",
                        "engine.adjoin", "engine.finalize")}
    assert got == {"engine.instantiate": (31104, 3072),
                   "featstruct.unify": (94635, 23065),
                   "engine.adjoin": (27984, 18432),
                   "engine.finalize": (1536, 336)}
    assert generate.engine.instantiate.__name__ == "instantiate"  # restored


@pytest.mark.parametrize("name", ["tables-tma", "generate-mix", "recognize"])
def test_traced_counts_repeat_and_match_benchmark_json(name):
    runs = []
    for _ in range(2):
        metrics, checks, info = worker.measure_traced(
            workloads.build(name, 7, ROOT), 0, None)
        assert checks["failed"] == 0, checks["failures"]
        assert info["cycles"] == 1
        runs.append((metrics, info["counts_per_cycle"]))
    assert runs[0][1] == runs[1][1]
    counted = [m for m, (_, unit) in runs[0][0].items() if unit == "count"]
    assert all(runs[0][0][m] == runs[1][0][m] for m in counted)
    assert set(runs[0][0]) == {m["name"] for m in BENCHMARK["per_layer"]}


def test_inputs_depend_only_on_the_seed():
    def labels(name, seed):
        return [op.label for op in workloads.build(name, seed, ROOT).ops]

    for name in ("generate-mix", "recognize"):
        assert labels(name, 3) == labels(name, 3)
        assert labels(name, 3) != labels(name, 4)


def test_draw_avoids_known_defects_and_stacks_are_ungrammatical():
    for seed in range(20):
        for spec in workloads.generate_requests(seed):
            assert not workloads.is_defective_bundle(spec.tma)
            assert not workloads.is_defective_sentence(spec)
    stacks = workloads.particle_stacks()
    assert "ta vap danse" not in stacks
    lengths = {len(s.split()) for s in stacks}
    assert lengths == {3, 4, 5, 6, 7}


def test_end_to_end_metrics_match_benchmark_json():
    metrics, checks, info = worker.measure(
        workloads.build("recognize", 1, ROOT), 0)
    assert checks["failed"] == 0
    names = set(metrics) | {"setup_s"}
    assert names == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert run.WORKLOADS == workloads.WORKLOADS == tuple(
        w["name"] for w in BENCHMARK["workloads"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "recognize",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert out.stdout == ""


def test_speed_sampler_keeps_its_own_time_out_of_the_clock():
    import signal
    import time

    import speed

    with speed.Sampler() as sampler:
        wall0, clock0, spent0 = time.perf_counter(), sampler.clock(), sampler.spent
        while time.perf_counter() - wall0 < 0.3:
            pass
        wall1, clock1, spent1 = time.perf_counter(), sampler.clock(), sampler.spent
    assert len(sampler.kernel_s) >= 5
    assert spent1 > spent0
    assert abs((wall1 - wall0) - (clock1 - clock0) - (spent1 - spent0)) < 1e-3
    assert sampler.at == sorted(sampler.at)
    assert sampler.scale(clock0, clock1) > 0
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
