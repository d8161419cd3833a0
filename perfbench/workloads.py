"""The three benchmark workloads: set-up, one pass over the inputs, checks.

One client drives apgf through its public entry points only
(``apgf.cli.main``, ``apgf.trainer.evaluate`` and the generators), and
each call waits for the previous one. Inputs are made from the seed at
set-up. A pass runs every input once, in a fixed order, so every pass is
the same mix of inputs. Every operation is checked; a failed check or an
exception counts as a failed operation. The quality metrics come from
the first pass only, so they repeat exactly for a seed.
"""

from __future__ import annotations

import contextlib
import csv
import heapq
import io
import json
import math
import shutil
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from apgf import cli, graphgen, model, rollout, trainer
from host import HostSpeed

# The paper configuration; a call trains one baseline-sync period.
PAPER_CONFIG = {
    "num_nodes": 20,
    "num_edges": 25,
    "graphs_per_epoch": 16,
    "embed_dim": 64,
    "dataset_mode": "fixed",
    "baseline_sync_period": 10,
}
TRAIN_EPOCHS = 10
# Inputs per pass. Quality averages over one pass, because one graph or
# one training run varies too much from seed to seed to stay in a bound.
TRAIN_CONFIGS = 4

DENSE_NODES, DENSE_EDGES = 16, 32
DENSE_GRAPHS = 48

# Graph sizes for infer-large: two graphs each of 500..800 nodes, edges
# about 1.1 * n, in a seeded order.
LARGE_SIZES = tuple(range(500, 801, 20)) * 2


class CheckFailed(Exception):
    pass


@dataclass
class Outcome:
    """What one measured run produced. Times are taken with
    ``host.clock``, which leaves out the host probes, and kept per input,
    one per pass; run.py takes each input's median over the passes and
    corrects it for the host's speed over the run (host.py)."""

    host: HostSpeed = field(default_factory=HostSpeed)
    main: dict = field(default_factory=lambda: defaultdict(list))  # input -> seconds
    second: dict = field(default_factory=lambda: defaultdict(list))
    quality: list[float] = field(default_factory=list)
    passes: int = 0
    attempted: int = 0
    failed: int = 0

    def timed(self, main: dict, second: dict) -> None:
        """Times of one operation, each under the input it belongs to."""
        self.host.check_alone()
        for store, times in ((self.main, main), (self.second, second)):
            for key, seconds in times.items():
                store[key].append(seconds)

    def record_failure(self, what: str) -> None:
        self.failed += 1
        print(f"FAILED {what}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)


def _cli(argv: list[str]) -> int:
    """apgf.cli.main with its progress prints kept off our stdout."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in argv])


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _write_json(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def _seeds(seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.default_rng(seed).integers(2**31, size=count)]


def _write_checkpoint(work: Path) -> Path:
    """A fixed, untrained checkpoint: `apgf train` for 0 epochs, seed 0."""
    config = _write_json(work / "model.json", {**PAPER_CONFIG, "epochs": 0, "seed": 0})
    _check(_cli(["train", "--config", config, "--out-dir", work / "model"]) == 0, "model train")
    return work / "model" / "checkpoint_final.json"


# -- train-paper ----------------------------------------------------------


def setup_train(work: Path, seed: int) -> list[Path]:
    configs = [
        _write_json(work / f"train_{k}.json", {**PAPER_CONFIG, "epochs": TRAIN_EPOCHS, "seed": s})
        for k, s in enumerate(_seeds(seed, TRAIN_CONFIGS))
    ]
    # One short call pays lazy initialisation before timing starts.
    warmup = _write_json(work / "warmup.json", {**PAPER_CONFIG, "epochs": 1, "seed": seed})
    _check(_cli(["train", "--config", warmup, "--out-dir", work / "warmup"]) == 0, "warm-up train")
    return configs


def _epoch_seconds(out_dir: Path, call_s: float, gross_s: float) -> list[float]:
    """Seconds per epoch of one call, scaled so that they add up to the
    call's time as the benchmark measured it, ``call_s``. Only the split
    between epochs comes from the run's own timings.csv; where apgf
    places its timer does not move the level. apgf's timer also counts
    the host probes that ran inside the call, so its epochs must add up
    to no more than ``gross_s``, the call's time with the probes."""
    rows = [r for r in _read_csv(out_dir / "timings.csv") if r["epoch"].isdigit()]
    _check(len(rows) == TRAIN_EPOCHS, f"timings.csv has {len(rows)} epoch rows, want {TRAIN_EPOCHS}")
    reported = [float(r["wall_clock_seconds"]) for r in rows]
    total = math.fsum(reported)
    _check(0.0 < total <= gross_s, f"timings.csv epochs add up to {total} s, the call took {gross_s} s")
    return [x * call_s / total for x in reported]


def _final_reward(out_dir: Path) -> float:
    rows = _read_csv(out_dir / "metrics.csv")
    _check(len(rows) == TRAIN_EPOCHS, f"metrics.csv has {len(rows)} rows, want {TRAIN_EPOCHS}")
    for r in rows:
        for key in ("mean_loss", "mean_reward", "baseline_mean_reward"):
            _check(math.isfinite(float(r[key])), f"epoch {r['epoch']} {key} = {r[key]}")
    last_period = rows[-PAPER_CONFIG["baseline_sync_period"] :]
    return sum(float(r["mean_reward"]) for r in last_period) / len(last_period)


def pass_train(configs: list[Path], work: Path, tracer, out: Outcome, first: bool) -> None:
    """One `apgf train` call per config. main: seconds per epoch; second:
    seconds per call; quality: mean sampled reward over the last sync
    period."""
    out_dir = work / "run"
    for config in configs:
        shutil.rmtree(out_dir, ignore_errors=True)
        out.attempted += 1
        tracer.request = out.attempted
        try:
            started, gross_started = out.host.clock(), time.perf_counter()
            rc = _cli(["train", "--config", config, "--out-dir", out_dir])
            elapsed = out.host.clock() - started
            gross = time.perf_counter() - gross_started
            _check(rc == 0, f"apgf train exited {rc}")
            reward = _final_reward(out_dir)
            epochs = _epoch_seconds(out_dir, elapsed, gross)
            out.timed({(config.name, e): x for e, x in enumerate(epochs)}, {config.name: elapsed})
        except Exception:
            out.record_failure(f"train call {out.attempted} ({config.name})")
            continue
        if first:
            out.quality.append(reward)


# -- compare-dense --------------------------------------------------------


def setup_compare(work: Path, seed: int) -> tuple[Path, list[Path]]:
    checkpoint = _write_checkpoint(work)
    graphs = []
    for k, s in enumerate(_seeds(seed, DENSE_GRAPHS)):
        path = work / f"dense_{k}.json"
        graphgen.save_graph(graphgen.generate_random_graph(DENSE_NODES, DENSE_EDGES, seed=s), path)
        graphs.append(path)
    return checkpoint, graphs


def _comparison(out_dir: Path) -> tuple[bytes, float]:
    """The comparison.csv bytes and its mean ratio, after checking that
    the model never beats the oracle."""
    raw = (out_dir / "comparison.csv").read_bytes()
    rows = list(csv.DictReader(io.StringIO(raw.decode("utf-8"))))
    _check(bool(rows), "comparison.csv is empty")
    for r in rows:
        _check(
            float(r["model_score"]) <= float(r["oracle_score"]),
            f"node {r['node']}: model {r['model_score']} beats oracle {r['oracle_score']}",
        )
    return raw, sum(float(r["ratio"]) for r in rows) / len(rows)


def pass_compare(inputs, work: Path, tracer, out: Outcome, first: bool) -> None:
    """A cold `apgf compare` (empty oracle cache) then a warm one (same
    cache) per graph. main: cold seconds; second: warm seconds; quality:
    mean model/oracle ratio."""
    checkpoint, graphs = inputs
    cache = work / "oracle-cache.json"
    for graph in graphs:
        cache.unlink(missing_ok=True)
        times = []
        try:
            for phase in ("cold", "warm"):
                out_dir = work / phase
                (out_dir / "comparison.csv").unlink(missing_ok=True)
                out.attempted += 1
                tracer.request = out.attempted
                started = out.host.clock()
                rc = _cli(["compare", "--graph", graph, "--checkpoint", checkpoint,
                           "--out-dir", out_dir, "--oracle-cache", cache])
                times.append(out.host.clock() - started)
                _check(rc == 0, f"apgf compare ({phase}) exited {rc}")
            cold_csv, ratio = _comparison(work / "cold")
            warm_csv, _ = _comparison(work / "warm")
            _check(warm_csv == cold_csv, "warm comparison.csv differs from the cold one")
            out.timed({graph.name: times[0]}, {graph.name: times[1]})
        except Exception:
            out.record_failure(f"compare {out.attempted} ({graph.name})")
            continue
        if first:
            out.quality.append(ratio)


# -- infer-large ----------------------------------------------------------


def setup_infer(work: Path, seed: int):
    rng = np.random.default_rng(seed)
    graphs = []
    for k, n in enumerate(rng.permutation(LARGE_SIZES)):
        n = int(n)
        path = work / f"large_{k}.json"
        g = graphgen.generate_random_graph(n, n + n // 10, seed=int(rng.integers(2**31)))
        graphgen.save_graph(g, path)
        graphs.append(graphgen.load_graph(path))
    # The first pass fills in each graph's checked greedy reward.
    return model.init_params(seed=0), graphs, [None] * len(graphs)


def _best_products(graph) -> list[float]:
    """Exact best path score per node for the product aggregator.

    Weights lie in [0, 1], so extending a path never raises its product
    and max-product Dijkstra finds the best simple path.
    """
    w = graph.node_weights
    start = graph.start_index
    best = [0.0] * graph.num_nodes
    best[start] = float(w[start])
    heap = [(-best[start], start)]
    done = set()
    while heap:
        _, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        for v in graph.neighbors[u]:
            score = best[u] * float(w[v])
            if v not in done and score > best[v]:
                best[v] = score
                heapq.heappush(heap, (-score, v))
    return best


def _check_rollout(graph, params, reward: float) -> float:
    """Check the greedy rollout and return its reward as a share of the
    sum of the best path scores, which no rollout can exceed. The rollout
    visits every node once, its reward is the sum of its per-node scores,
    and no node beats its best path."""
    rolled = rollout.decode_all(graph, params, graph.start_index, mode="greedy")
    _check(sorted(rolled.visit_order) == list(range(graph.num_nodes)), "rollout is not a permutation")
    total = math.fsum(rolled.per_node_score.values())
    _check(math.isclose(rolled.reward, total, rel_tol=1e-12), f"reward {rolled.reward} != sum {total}")
    _check(rolled.reward == reward, f"evaluate reward {reward} != rollout reward {rolled.reward}")
    best = _best_products(graph)
    for node, score in rolled.per_node_score.items():
        _check(score <= best[node], f"node {node}: score {score} beats the best path {best[node]}")
    return rolled.reward / math.fsum(best)


def pass_infer(inputs, work: Path, tracer, out: Outcome, first: bool) -> None:
    """Greedy `evaluate` without the oracle, one graph per call. main:
    seconds per graph; second: the same per node; quality: the greedy
    reward as a share of the sum of the best path scores. The first pass
    checks each rollout, untimed; later passes must repeat its reward."""
    params, graphs, rewards = inputs
    for i, graph in enumerate(graphs):
        out.attempted += 1
        tracer.request = out.attempted
        try:
            started = out.host.clock()
            results = trainer.evaluate(params, [graph], with_oracle=False)
            elapsed = out.host.clock() - started
            _check(len(results) == 1, f"evaluate returned {len(results)} results")
            reward = results[0].greedy_reward
            if first:
                with tracer.paused():
                    out.quality.append(_check_rollout(graph, params, reward))
                rewards[i] = reward
            else:
                _check(reward == rewards[i], f"reward {reward} changed from {rewards[i]}")
            out.timed({i: elapsed}, {i: elapsed / graph.num_nodes})
        except Exception:
            out.record_failure(f"infer {out.attempted} ({graph.num_nodes} nodes)")


WORKLOADS = {
    "train-paper": (setup_train, pass_train),
    "compare-dense": (setup_compare, pass_compare),
    "infer-large": (setup_infer, pass_infer),
}

# Workload-specific names of the generic end-to-end metrics.
LABELS = {
    "train-paper": {
        "main_op_s": "train_epoch_s",
        "second_op_s": "train_total_s",
        "quality": "train_final_reward",
    },
    "compare-dense": {
        "main_op_s": "compare_cold_s",
        "second_op_s": "compare_warm_s",
        "quality": "compare_mean_ratio",
    },
    "infer-large": {
        "main_op_s": "infer_graph_s",
        "second_op_s": "infer_node_s",
        "quality": "infer_reward_ratio",
    },
}
