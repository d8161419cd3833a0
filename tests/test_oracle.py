import itertools

import numpy as np
import pytest

from apgf.errors import CapExceededError, ValidationError
from apgf.graphgen import generate_random_graph
from apgf.model import init_params
from apgf.oracle import brute_force_scores, compare
from apgf.rollout import ScoreConfig, decode_all, path_score
from apgf.trainer import evaluate

from helpers import (
    build_graph,
    fig10_graph,
    permutation_best_score,
    simple_paths,
    star_graph,
)


@pytest.mark.parametrize("cap", [0, -3])
def test_cap_below_one_rejected(cap):
    with pytest.raises(ValidationError, match=f"node_cap .* must be at least 1, got {cap}"):
        brute_force_scores(fig10_graph(), node_cap=cap)


FIVE_CYCLE = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]


def test_all_ones_product_scores():
    g = build_graph(5, FIVE_CYCLE, [1.0] * 5, start=2)
    result = brute_force_scores(g)
    for node in range(5):
        assert result.per_node[node].score == 1.0
    # every node but the start is reached both ways round the cycle at
    # score 1; ties settle lowest index first and a label moves only on a
    # strictly greater score, so node 0's side wins node 4
    paths = [result.per_node[v].path for v in range(5)]
    assert paths == [[2, 1, 0], [2, 1], [2], [2, 3], [2, 1, 0, 4]]
    # node 4 is offered a path by both of its settled neighbours
    assert [result.per_node[v].explored_paths for v in range(5)] == [1, 1, 1, 1, 2]
    assert result.explored_path_count == 6


def test_all_zero_sum_keeps_the_first_path_found():
    g = build_graph(5, FIVE_CYCLE, [0.0] * 5, start=2)
    result = brute_force_scores(g, ScoreConfig(aggregator="sum"))
    for node in range(5):
        assert result.per_node[node].score == 0.0
    # every path scores 0; the first path found (neighbors in index order)
    # keeps the tie
    assert result.per_node[4].path == [2, 1, 0, 4]
    assert result.per_node[3].path == [2, 1, 0, 4, 3]
    assert [result.per_node[v].explored_paths for v in range(5)] == [2, 2, 1, 2, 2]
    assert result.explored_path_count == 9


def test_star_graph_unique_paths():
    weights = [0.9, 0.4, 0.5, 0.6]
    g = star_graph(weights, center=0)
    result = brute_force_scores(g)
    for leaf in (1, 2, 3):
        best = result.per_node[leaf]
        assert best.path == [0, leaf]
        assert best.score == pytest.approx(weights[0] * weights[leaf], rel=1e-15)
        assert best.explored_paths == 1
    assert result.per_node[0].path == [0]
    assert result.per_node[0].score == pytest.approx(weights[0], rel=1e-15)


@pytest.mark.parametrize("aggregator", ["product", "sum"])
def test_matches_permutation_enumeration_on_7_node_graph(aggregator):
    g = generate_random_graph(7, 8, seed=123)
    result = brute_force_scores(g, ScoreConfig(aggregator=aggregator))
    for end in range(7):
        expected = permutation_best_score(g, end, aggregator)
        assert result.per_node[end].score == pytest.approx(expected, rel=1e-12), end


@pytest.mark.parametrize("aggregator", ["product", "sum"])
@pytest.mark.parametrize("seed", range(4))
def test_explored_paths_count_every_simple_path(aggregator, seed):
    g = generate_random_graph(7, 7 + seed, seed=seed)
    result = brute_force_scores(g, ScoreConfig(aggregator=aggregator))
    if aggregator == "sum":
        expected = [sum(1 for _ in simple_paths(g, end)) for end in range(7)]
    else:
        # Dijkstra settles nodes best score first (random weights do not
        # tie), and each settled node offers a path to each neighbour not
        # yet settled; the start is offered its own one-node path
        best = [permutation_best_score(g, end, aggregator) for end in range(7)]
        order = sorted(range(7), key=lambda v: (-best[v], v))
        expected = [
            (v == g.start_index) + sum(order.index(u) < order.index(v) for u in g.neighbors[v])
            for v in range(7)
        ]
        assert sum(expected) == 1 + g.num_edges
    assert [result.per_node[v].explored_paths for v in range(7)] == expected
    assert result.explored_path_count == sum(expected)


def test_simple_paths_matches_unpruned_permutation_filter():
    for seed in range(3):
        g = generate_random_graph(7, 9, seed=seed)
        others = [v for v in range(7) if v != g.start_index]
        for end in others:
            middles = [v for v in others if v != end]
            unpruned = {
                (g.start_index, *middle, end)
                for k in range(len(middles) + 1)
                for middle in itertools.permutations(middles, k)
            }
            valid = {p for p in unpruned if all(b in g.neighbors[a] for a, b in zip(p, p[1:]))}
            assert set(simple_paths(g, end)) == valid


def test_best_paths_are_simple_and_anchored():
    g = generate_random_graph(8, 10, seed=6)
    result = brute_force_scores(g)
    for end, best in result.per_node.items():
        assert best.path[0] == g.start_index
        assert best.path[-1] == end
        assert len(set(best.path)) == len(best.path)
        for u, v in zip(best.path, best.path[1:]):
            assert v in g.neighbors[u]


def test_monotone_in_node_weights_for_product():
    g = generate_random_graph(7, 9, seed=31)
    base = brute_force_scores(g)
    bumped_weights = g.node_weights.copy()
    bumped_weights[3] = min(1.0, bumped_weights[3] + 0.2)
    bumped = brute_force_scores(build_graph(7, g.edges, bumped_weights, start=g.start_index))
    for end in range(7):
        assert bumped.per_node[end].score >= base.per_node[end].score - 1e-15


def test_cap_refused_with_guidance():
    g = generate_random_graph(25, 27, seed=1)
    sum_config = ScoreConfig(aggregator="sum")
    with pytest.raises(CapExceededError, match="cap"):
        brute_force_scores(g, sum_config)
    # explicit override runs
    result = brute_force_scores(g, sum_config, node_cap=25)
    assert len(result.per_node) == 25


# -- bit-exactness of the product search ----------------------------------------


def assert_exact_product(g):
    """Scores equal the permutation enumeration's, and each path is a
    simple start->node path along edges that scores its score bit for bit."""
    result = brute_force_scores(g)
    for end, best in result.per_node.items():
        assert best.score == permutation_best_score(g, end, "product"), end
        assert best.path[0] == g.start_index and best.path[-1] == end
        assert len(set(best.path)) == len(best.path)
        assert all(v in g.neighbors[u] for u, v in zip(best.path, best.path[1:]))
        assert path_score([g.node_weights[v] for v in best.path]) == best.score


@pytest.mark.parametrize("n", range(2, 15))
def test_product_matches_permutation_enumeration_bit_for_bit(n):
    rng = np.random.default_rng(1400 + n)
    for _ in range(4):
        num_edges = min(n - 1 + int(rng.integers(0, 4)), n * (n - 1) // 2)
        assert_exact_product(generate_random_graph(n, num_edges, seed=int(rng.integers(2**63))))


@pytest.mark.parametrize(
    "weights, start",
    [
        ([1.0] * 6, 0),  # every path ties at 1
        ([0.0] * 6, 3),  # every path ties at 0
        ([0.5, 0.0, 1.0, 0.75, 1.0, 0.0], 0),  # nodes 2, 3 and 4 lie behind zero weights only
        ([0.0, 0.9, 0.8, 1.0, 0.7, 0.6], 0),  # a zero start zeroes every score
        ([1.0, 1.0, 0.0, 1.0, 0.25, 1.0], 5),  # ties at 1 and at 0.25 around a zero
    ],
)
def test_product_exact_with_zero_and_one_weights(weights, start):
    # a 6-cycle with one chord: two routes to most nodes
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 4)]
    assert_exact_product(build_graph(6, edges, weights, start=start))


@pytest.mark.parametrize("n", [25, 800])
def test_product_oracle_runs_above_the_cap(n):
    g = generate_random_graph(n, n + n // 10, seed=n)
    result = brute_force_scores(g)
    assert len(result.per_node) == n
    assert result.explored_path_count == 1 + g.num_edges
    params = init_params(n, embed_dim=8, num_heads=2, ff_dim=8)
    (evaluated,) = evaluate(params, [g])
    assert evaluated.report is not None
    for row in evaluated.report.rows:
        assert row.oracle_score == result.per_node[row.node].score
        assert row.model_score <= row.oracle_score


# -- compare -----------------------------------------------------------------


def test_compare_perfect_rollout_gives_unit_ratios():
    # on a path graph the DFS-tree paths are the only simple paths
    g = build_graph(4, [(0, 1), (1, 2), (2, 3)], [0.9, 0.8, 0.7, 0.6], start=0)
    from helpers import identity_model

    rolled = decode_all(g, identity_model(), 0, mode="greedy")
    report = compare(brute_force_scores(g), rolled)
    assert all(r.ratio == pytest.approx(1.0, abs=1e-15) for r in report.rows)
    assert report.mean_ratio == pytest.approx(1.0, abs=1e-15)
    assert report.max_abs_gap == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("aggregator", ["product", "sum"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_rollout_never_beats_oracle(aggregator, seed):
    g = generate_random_graph(10, 13, seed=seed)
    params = init_params(seed, embed_dim=8, num_heads=2, ff_dim=8)
    config = ScoreConfig(aggregator=aggregator)
    rolled = decode_all(
        g, params, g.start_index, mode="sample", rng=np.random.default_rng(seed), score_config=config
    )
    oracle_result = brute_force_scores(g, config)
    report = compare(oracle_result, rolled)
    for row in report.rows:
        assert row.model_score <= row.oracle_score + 1e-12
        assert row.ratio <= 1.0 + 1e-12


def test_compare_rejects_mismatched_node_sets():
    g = generate_random_graph(5, 6, seed=4)
    h = generate_random_graph(6, 7, seed=4)
    params = init_params(3, embed_dim=4, num_heads=2, ff_dim=4)
    rolled = decode_all(h, params, h.start_index, mode="greedy")
    with pytest.raises(ValidationError, match="node sets differ"):
        compare(brute_force_scores(g), rolled)


def test_comparison_csv_round_trips_floats():
    g = fig10_graph()
    from helpers import identity_model

    rolled = decode_all(g, identity_model(), 0, mode="greedy")
    report = compare(brute_force_scores(g), rolled)
    lines = report.to_csv().strip().split("\n")
    assert lines[0] == "node,oracle_score,model_score,ratio"
    assert len(lines) == 7
    for row, line in zip(report.rows, lines[1:]):
        node, oracle_s, model_s, ratio = line.split(",")
        assert int(node) == row.node
        assert float(oracle_s) == row.oracle_score
        assert float(model_s) == row.model_score
        assert float(ratio) == row.ratio
