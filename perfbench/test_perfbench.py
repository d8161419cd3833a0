"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py

The exact counts must repeat between two traced runs with one seed; a
traced name missing from apgf must be reported, never raised; the host
probes must be left out of the measured time; and without the apgf
sources the benchmark must fail without a result.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import host  # noqa: E402
import tracer  # noqa: E402

# workload -> counts that must be exact and nonzero on it
EXACT_COUNTS = {
    "train-paper": (
        "numcore.tape_records_per_decision",
        "rollout.decisions_per_rollout",
        "model.save_checkpoint.bytes",
    ),
    "compare-dense": (
        "oracle.explored_paths",
        "rollout.decisions_per_rollout",
        "model.save_checkpoint.bytes",
        "model.load_checkpoint.bytes",
    ),
    "infer-large": ("rollout.decisions_per_rollout",),
}


def _traced_run(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return result["metrics"]


@pytest.mark.parametrize("workload", sorted(EXACT_COUNTS))
def test_counts_repeat_for_a_seed(workload):
    first = _traced_run(workload, seed=7)
    second = _traced_run(workload, seed=7)
    for name in EXACT_COUNTS[workload]:
        assert first[name]["value"] > 0, name
        assert first[name] == second[name], name
    # Every set-up, also those after a pass, is traced as request 0. Only
    # set-up makes graphs, except in train-paper, where apgf train does.
    with open(ROOT / ".perfbench_out" / f"spans-{workload}.csv", encoding="utf-8") as fh:
        spans = list(csv.DictReader(fh))
    made = {s["request"] for s in spans if s["name"] == "graphgen.generate_random_graph"}
    assert "0" in made
    if workload != "train-paper":
        assert made == {"0"}


def test_missing_name_is_reported_absent(monkeypatch):
    import apgf.model

    gone = ("model.no_such_function", "model", "no_such_function")
    monkeypatch.setattr(tracer, "TRACED", tracer.TRACED + (gone,))
    original = apgf.model.encode
    t = tracer.Tracer()
    t.install()
    try:
        assert apgf.model.encode is not original
    finally:
        t.uninstall()
    assert apgf.model.encode is original
    assert t.absent == ["model.no_such_function"]
    metrics = t.layer_metrics(wall_s=1.0)
    assert metrics["model.encode.calls"] == (0, "count")


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "train-paper", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_clock_leaves_out_the_probes():
    speed = host.HostSpeed()
    with speed.sampling():
        clock_started, started = speed.clock(), time.perf_counter()
        while time.perf_counter() - started < 0.6:
            pass
        measured, wall = speed.clock() - clock_started, time.perf_counter() - started
    assert len(speed.probes) >= 3
    assert measured == pytest.approx(wall - speed.spent_s, abs=1e-3)


def test_a_thread_left_running_fails_the_check():
    # In a process of its own: this one may hold BLAS threads of its own.
    script = """
import threading, host
host.HostSpeed.check_alone()
stop = threading.Event()
worker = threading.Thread(target=stop.wait)
worker.start()
try:
    host.HostSpeed.check_alone()
except RuntimeError as exc:
    print(exc)
finally:
    stop.set()
    worker.join()
"""
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=HERE, stdout=subprocess.PIPE, text=True,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"}, timeout=60, check=True,
    )
    assert "2 threads outlived a call" in proc.stdout
