"""apgf benchmark: train-paper, compare-dense and infer-large.

Run from the repository root:

    python3 perfbench/run.py --workload train-paper --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35

One workload per process. ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` wraps apgf's public functions and prints the per-layer
metrics instead. ``--workload all`` runs every workload untraced and
traced, each in its own process, and prints the tracing overhead. The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. Every time in it is
corrected for the host's speed over the run (host.py).

apgf is imported from ``src/`` next to this directory; without it the
benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"  # scratch inputs and span files; never committed
WORKLOAD_NAMES = ("train-paper", "compare-dense", "infer-large")
# Set-up repeats until a round of repeats has taken this long, so a
# short set-up is sampled often enough for a steady median.
SETUP_ROUND_S = 1.0


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and
    that percentile. With ten samples or fewer it is the minimum."""
    xs = sorted(values)
    i = max(0, len(xs) - 11)
    return xs[i], 100.0 * i / max(1, len(xs) - 1)


# -- one workload ---------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import host as hostmod
    from tracer import Tracer
    from workloads import LABELS, WORKLOADS, Outcome

    setup, run_pass = WORKLOADS[name]
    host = hostmod.host_info()
    host["loadavg_before"] = hostmod.loadavg()
    host["probe_s_before"] = hostmod.probe_reading()

    outcome = Outcome()
    clock = outcome.host.clock
    tracer = Tracer(clock)
    if trace:
        tracer.install()
    work_root = OUT / f"work-{name}-{os.getpid()}"
    setup_times = []

    def timed_setup():
        work = work_root / f"setup{len(setup_times)}"
        work.mkdir(parents=True)
        tracer.request = 0
        t0 = clock()
        inputs = setup(work, seed)
        setup_times.append(clock() - t0)
        return inputs, work

    def setup_round():
        round_started = clock()
        while clock() - round_started < SETUP_ROUND_S:
            shutil.rmtree(timed_setup()[1])

    try:
        with outcome.host.sampling():
            started, deadline = clock(), time.perf_counter() + seconds
            # The first set-up's inputs are measured. Set-up runs again
            # before the first pass and after every pass, so the median
            # set-up time samples the host all through the run, as the
            # operations do.
            inputs, work = timed_setup()
            setup_round()
            while True:
                pass_started = time.perf_counter() - tracer.paused_s
                run_pass(inputs, work, tracer, outcome, first=not outcome.passes)
                outcome.passes += 1
                setup_round()
                # Whole passes only: stop when another would end more
                # than half a pass past the deadline. The first pass's
                # untimed checks are left out of the estimate.
                now = time.perf_counter()
                if now + (now - tracer.paused_s - pass_started) / 2 >= deadline:
                    break
            # The benchmark's own checks and probes are not the workload's time.
            wall = clock() - started - tracer.paused_s
    finally:
        tracer.uninstall()
        shutil.rmtree(work_root, ignore_errors=True)

    host["probe_s_after"] = hostmod.probe_reading()
    host["probe_s_during"] = statistics.median(outcome.host.probes)
    host["probes"] = len(outcome.host.probes)
    host["loadavg_after"] = hostmod.loadavg()
    labels = LABELS[name]
    # Every time is reported at the reference host speed (host.py); the
    # printout also gives it as measured.
    scale = outcome.host.scale()
    host["scale"] = scale
    raw_main, raw_second = ([median(v) for v in d.values()] for d in (outcome.main, outcome.second))
    raw_setup = setup_times
    main_s, second_s, setup_s = ([x * scale for x in xs] for xs in (raw_main, raw_second, raw_setup))
    ok = outcome.failed == 0 and bool(main_s)
    main_tail, tail_pct = tail(main_s) if main_s else (0.0, 0.0)
    # name -> (value, unit, samples, workload-specific name, value as measured)
    rows: dict[str, tuple[float, str, int, str, float | None]] = {}
    if trace:
        for metric, (value, unit) in tracer.layer_metrics(wall).items():
            rows[metric] = (value, unit, 1, metric, None)
        rows["trace.main_op_s"] = (median(main_s), "s", len(main_s),
                                   labels["main_op_s"] + " (traced)", median(raw_main))
        OUT.mkdir(exist_ok=True)
        tracer.write_spans(OUT / f"spans-{name}.csv")
    else:
        rows = {
            "setup_s": (median(setup_s), "s", len(setup_s), "setup_s", median(raw_setup)),
            "main_op_s": (median(main_s), "s", len(main_s), labels["main_op_s"],
                          median(raw_main)),
            "main_op_s_tail": (main_tail, "s", len(main_s),
                               f"{labels['main_op_s']}_tail (p{tail_pct:.1f})",
                               tail(raw_main)[0] if raw_main else 0.0),
            "second_op_s": (median(second_s), "s", len(second_s), labels["second_op_s"],
                            median(raw_second)),
            "quality": (statistics.fmean(outcome.quality) if outcome.quality else 0.0, "score",
                        len(outcome.quality), labels["quality"], None),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1,
                            "peak_rss_mb", None),
        }

    print(f"workload {name} seed {seed} seconds {seconds} trace {int(trace)} passes {outcome.passes}")
    print(f"  {'metric':44s} {'value':>14s} {'unit':6s} {'samples':7s} {'as measured':>14s}")
    for metric, (value, unit, samples, label, measured) in rows.items():
        as_measured = f"{measured:14.6g}" if measured is not None else " " * 14
        print(f"  {metric:44s} {value:14.6g} {unit:6s} n={samples:<5d} {as_measured} {label}")
    error_rate = outcome.failed / max(1, outcome.attempted)
    print(f"  error_rate {error_rate:.6g} ({outcome.failed} failed of {outcome.attempted} attempted)")
    if trace:
        print(f"  traced wall time {wall:.6g} s, the base of every self_share")
    if tracer.absent:
        print(f"  absent (not in this apgf): {', '.join(tracer.absent)}")
    print("host " + json.dumps(host, sort_keys=True))
    return {
        "correct": ok,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u, *_) in rows.items()},
    }


# -- every workload -------------------------------------------------------


def run_all(seed: int, seconds: float) -> dict:
    """Each workload untraced then traced, each in its own process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        results = {}
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0 or not lines:
                raise SystemExit(f"{name} (trace {trace}) exited {proc.returncode}")
            results[trace] = json.loads(lines[-1])
            combined["correct"] &= results[trace]["correct"]
            combined["attempted"] += results[trace]["attempted"]
            combined["failed"] += results[trace]["failed"]
            for metric, entry in results[trace]["metrics"].items():
                combined["metrics"][f"{name}.{metric}"] = entry
        plain = results[0]["metrics"]["main_op_s"]["value"]
        traced = results[1]["metrics"]["trace.main_op_s"]["value"]
        overhead = traced - plain
        print(f"tracing overhead {name}: {overhead:+.6f} s per main op "
              f"({100.0 * overhead / plain:+.1f}% of {plain:.6f} s)\n")
        combined["metrics"][f"{name}.trace_overhead_s"] = {"value": overhead, "unit": "s"}
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "apgf" / "__init__.py").is_file():
        print(f"error: no apgf sources under {SRC}", file=sys.stderr)
        return 2
    # The oracle keeps its default single worker. OpenBLAS gets one
    # thread, so the run is one thread in all: on a small shared host a
    # second BLAS thread waits on the other tenants' load, and that made
    # infer_graph_s vary by a third between identical runs.
    os.environ.pop("APGF_THREADS", None)
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path[:0] = [str(SRC), str(Path(__file__).resolve().parent)]

    if args.workload == "all":
        result = run_all(args.seed, args.seconds)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
