"""Acceptance suite: one criterion per test, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
The training-dependent criteria share a single seeded 100-epoch run.
"""

import time

import numpy as np
import pytest

from apgf.charts import grouped_bar_chart
from apgf.graphgen import generate_random_graph
from apgf.model import copy_params, edge_scores, encode, init_params
from apgf.numcore import Tape
from apgf.oracle import brute_force_scores
from apgf.rollout import ScoreConfig, decode_all
from apgf.trainer import TrainConfig, evaluate, reinforce_loss, train

from helpers import central_difference, fig10_graph, identity_model, permutation_best_score


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed{suffix}"


# -- 1: gradient integrity ----------------------------------------------------


def test_criterion_1_gradient_integrity():
    started = time.perf_counter()
    graph = generate_random_graph(10, 12, seed=501)
    params = init_params(502, embed_dim=8, num_heads=2, ff_dim=16)
    baseline = copy_params(params)

    # pin one sampled trajectory whose reward differs from the baseline's
    # greedy reward, so the loss actually has gradients to check
    sampled = decode_all(graph, params, graph.start_index, rng=np.random.default_rng(0))
    baseline_reward = decode_all(graph, baseline, graph.start_index, mode="greedy").reward
    assert sampled.reward != baseline_reward

    def loss(t: Tape):
        scores = edge_scores(encode([graph], params, t), [graph], params, t)
        return reinforce_loss(scores, [graph], [sampled], [baseline_reward], t)

    def loss_value() -> float:
        return loss(Tape()).item()

    tape = Tape()
    grads = tape.backward(loss(tape), params.tensors)

    worst = 0.0
    for name, p in params.tensors.items():
        analytic = grads[name]
        assert np.any(analytic), f"no gradient reached {name}"
        fd = central_difference(loss_value, p, h=1e-5)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1e-6)
        worst = max(worst, float(np.max(np.abs(analytic - fd) / denom)))
    elapsed = time.perf_counter() - started
    report(
        1,
        "gradient integrity",
        worst <= 1e-4 and elapsed < 60.0,
        f"worst rel err {worst:.2e}, {elapsed:.1f}s",
    )


# -- 2: worked six-node trace ---------------------------------------------------

EXPECTED_TRACE = [
    # (selected, neighbors, next, visited, stack)
    (0, (1, 2), 1, (0, 1), (0,)),
    (0, (2,), 2, (0, 1, 2), ()),
    (2, (3, 4), 3, (0, 1, 2, 3), (2,)),
    (3, (5,), 5, (0, 1, 2, 3, 5), (2,)),
    (2, (4,), 4, (0, 1, 2, 3, 5, 4), ()),
]


def test_criterion_2_worked_trace():
    graph = fig10_graph()  # weights rig the scores to prefer b over c, d over e
    result = decode_all(graph, identity_model(), start=0, mode="greedy")
    rows = [
        (row.selected, row.neighbors, row.next, row.visited, row.stack)
        for row in result.branch_trace
    ]
    ok = rows == EXPECTED_TRACE and result.visit_order == [0, 1, 2, 3, 5, 4]
    report(2, "worked six-node trace", ok)


# -- 3: oracle exactness ----------------------------------------------------------


def test_criterion_3_oracle_exactness():
    started = time.perf_counter()
    rng = np.random.default_rng(30303)
    checked = 0
    exact = True
    for _ in range(200):
        n = int(rng.integers(2, 9))
        max_edges = n * (n - 1) // 2
        num_edges = min(n - 1 + int(rng.integers(0, 3)), max_edges)
        graph = generate_random_graph(n, num_edges, seed=int(rng.integers(2**63)))
        for aggregator in ("product", "sum"):
            result = brute_force_scores(graph, ScoreConfig(aggregator=aggregator))
            for end in range(n):
                expected = permutation_best_score(graph, end, aggregator)
                if result.per_node[end].score != expected:
                    exact = False
                checked += 1
    elapsed = time.perf_counter() - started
    report(
        3,
        "oracle exactness",
        exact and elapsed < 120.0,
        f"{checked} end-node checks, {elapsed:.1f}s",
    )


# -- 4: dominance suite -------------------------------------------------------------


def test_criterion_4_dominance():
    rng = np.random.default_rng(40404)
    checkpoints = [
        init_params(int(rng.integers(2**63)), embed_dim=8, num_heads=2, ff_dim=8)
        for _ in range(10)
    ]
    violations = 0
    for i in range(500):
        n = int(rng.integers(2, 16))
        max_edges = n * (n - 1) // 2
        num_edges = min(n - 1 + int(rng.integers(0, 4)), max_edges)
        graph = generate_random_graph(n, num_edges, seed=int(rng.integers(2**63)))
        config = ScoreConfig(aggregator="product" if i % 2 == 0 else "sum")
        params = checkpoints[i % len(checkpoints)]
        rolled = decode_all(
            graph, params, graph.start_index, mode="sample", rng=rng, score_config=config
        )
        oracle_result = brute_force_scores(graph, config)
        for node, score in rolled.per_node_score.items():
            if score > oracle_result.per_node[node].score + 1e-12:
                violations += 1
    report(4, "dominance suite", violations == 0, f"{violations} violations over 500 graphs")


# -- 5 and 6 share one seeded training run ---------------------------------------------


@pytest.fixture(scope="module")
def trained_run():
    config = TrainConfig(epochs=100, graphs_per_epoch=16, num_nodes=20, num_edges=25, seed=0)
    started = time.perf_counter()
    policy, metrics = train(config)
    elapsed = time.perf_counter() - started
    untrained, _ = train(
        TrainConfig(
            epochs=0,
            graphs_per_epoch=config.graphs_per_epoch,
            num_nodes=config.num_nodes,
            num_edges=config.num_edges,
            seed=config.seed,
        )
    )
    return config, policy, untrained, metrics, elapsed


def test_criterion_5_convergence_shape(trained_run):
    _, policy, untrained, metrics, elapsed = trained_run
    early = float(np.mean([abs(m.mean_loss) for m in metrics[:10]]))
    late = float(np.mean([abs(m.mean_loss) for m in metrics[89:]]))

    rng = np.random.default_rng(55555)
    held_out = [generate_random_graph(20, 25, seed=int(rng.integers(2**63))) for _ in range(20)]

    def mean_greedy(params):
        return float(
            np.mean([decode_all(g, params, g.start_index, mode="greedy").reward for g in held_out])
        )

    before, after = mean_greedy(untrained), mean_greedy(policy)
    ok = late < early and after > before and elapsed < 900.0
    report(
        5,
        "convergence shape",
        ok,
        f"|loss| {early:.3f}->{late:.3f}, held-out reward {before:.3f}->{after:.3f}, "
        f"{elapsed:.0f}s",
    )


def test_criterion_6_comparison_quality(trained_run, tmp_path):
    _, policy, untrained, _, _ = trained_run
    rng = np.random.default_rng(66666)
    held_out = [generate_random_graph(10, 12, seed=int(rng.integers(2**63))) for _ in range(20)]

    trained_evals = evaluate(policy, held_out)
    untrained_evals = evaluate(untrained, held_out)
    trained_mean = float(np.mean([e.report.mean_ratio for e in trained_evals]))
    untrained_mean = float(np.mean([e.report.mean_ratio for e in untrained_evals]))

    lines = ["graph,node,oracle_score,model_score,ratio"]
    for e in trained_evals:
        for row in e.report.rows:
            lines.append(f"{e.graph_index},{row.node},{row.oracle_score!r},{row.model_score!r},{row.ratio!r}")
    csv_path = tmp_path / "comparison_quality.csv"
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    svg_path = tmp_path / "comparison_quality.svg"
    svg_path.write_text(
        grouped_bar_chart(
            [e.graph_index for e in trained_evals],
            {
                "untrained": [e.report.mean_ratio for e in untrained_evals],
                "trained": [e.report.mean_ratio for e in trained_evals],
            },
            "Mean per-node score ratio vs oracle (held-out graphs)",
            x_label="graph",
            y_label="mean ratio",
        ),
        encoding="utf-8",
    )
    ok = trained_mean >= untrained_mean and csv_path.stat().st_size > 0 and svg_path.stat().st_size > 0
    report(
        6,
        "comparison quality",
        ok,
        f"mean ratio untrained {untrained_mean:.4f} -> trained {trained_mean:.4f}, "
        f"report at {csv_path}",
    )


# -- 7: determinism ---------------------------------------------------------------------


def test_criterion_7_determinism(tmp_path):
    config = TrainConfig(
        epochs=10, graphs_per_epoch=8, num_nodes=20, num_edges=25, seed=42, baseline_sync_period=5
    )
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    train(config, out_dir=dir_a)
    train(config, out_dir=dir_b)

    names_a = sorted(p.name for p in dir_a.glob("*.json")) + ["metrics.csv"]
    names_b = sorted(p.name for p in dir_b.glob("*.json")) + ["metrics.csv"]
    identical = names_a == names_b and all(
        (dir_a / name).read_bytes() == (dir_b / name).read_bytes() for name in names_a
    )
    report(7, "determinism", identical, f"{len(names_a)} files compared byte-for-byte")


# -- 8: generator validity -----------------------------------------------------------------


def test_criterion_8_generator_validity():
    started = time.perf_counter()
    rng = np.random.default_rng(80808)
    ok = True
    for _ in range(1000):
        n = int(rng.integers(2, 101))
        max_edges = n * (n - 1) // 2
        num_edges = min(n - 1 + int(rng.integers(0, 11)), max_edges)
        graph = generate_random_graph(n, num_edges, seed=int(rng.integers(2**63)))
        if graph.num_edges != num_edges:
            ok = False
        if np.any(graph.node_weights < 0) or np.any(graph.node_weights > 1):
            ok = False
        seen = {0}
        frontier = [0]
        while frontier:
            frontier = [
                v for u in frontier for v in graph.neighbors[u] if v not in seen and not seen.add(v)
            ]
        if len(seen) != n:
            ok = False
    elapsed = time.perf_counter() - started
    report(8, "generator validity", ok and elapsed < 10.0, f"1000 graphs, {elapsed:.1f}s")
