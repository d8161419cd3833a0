import numpy as np
import pytest

from apgf.errors import CapExceededError, ValidationError
from apgf.graphgen import generate_random_graph
from apgf.model import init_params
from apgf.oracle import brute_force_scores, compare
from apgf.rollout import ScoreConfig, decode_all

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


def test_all_ones_product_scores():
    g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)], [1.0] * 5, start=2)
    result = brute_force_scores(g)
    for node in range(5):
        assert result.per_node[node].score == 1.0
    # every node but the start is reached both ways round the cycle; the
    # first path found (neighbors in index order) keeps the tie
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
    expected = [sum(1 for _ in simple_paths(g, end)) for end in range(7)]
    assert [result.per_node[v].explored_paths for v in range(7)] == expected
    assert result.explored_path_count == sum(expected)


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
    with pytest.raises(CapExceededError, match="cap"):
        brute_force_scores(g)
    # explicit override runs
    result = brute_force_scores(g, node_cap=25)
    assert len(result.per_node) == 25


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
