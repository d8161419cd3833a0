from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apgf.errors import ValidationError
from apgf.graphgen import generate_random_graph
from apgf.model import encode, init_params, score_matrix
from apgf.numcore import Tape
from apgf.rollout import (
    RolloutResult,
    ScoreConfig,
    decode_all,
    move_log_probs,
    path_score,
    walk,
)

from helpers import (
    build_graph,
    fig10_graph,
    identity_model,
    path_graph,
    recorded_log_probs,
    reference_step_log_probs,
)


# -- path_score ----------------------------------------------------------


def test_path_score_examples():
    assert path_score([1.0, 1.0, 1.0], "product") == 1.0
    assert path_score([0.5, 0.5], "product") == 0.25
    assert path_score([0.5, 0.5], "sum") == 1.0


def test_path_score_sums_left_to_right():
    # the walk and the oracle add one weight at a time; Python >= 3.12's
    # compensated sum() would give 1.0 here
    assert path_score([0.1] * 10, "sum") == 0.9999999999999999


def test_path_score_matches_exact_rational_product():
    weights = [0.3125, 0.75, 0.20001220703125, 0.5]  # dyadic, exactly representable
    exact = Fraction(1)
    for w in weights:
        exact *= Fraction(w)
    assert path_score(weights, "product") == float(exact)


def test_path_score_rejects_empty_and_bad_aggregator():
    with pytest.raises(ValidationError, match="nonempty"):
        path_score([], "product")
    with pytest.raises(ValidationError, match="aggregator"):
        path_score([0.5], "geometric")


def test_score_config_validation():
    with pytest.raises(ValidationError, match="aggregator"):
        ScoreConfig(aggregator="max")


# -- the worked six-node trace -------------------------------------------

EXPECTED_TRACE = [
    # (selected, neighbors, next, visited, stack)
    (0, (1, 2), 1, (0, 1), (0,)),
    (0, (2,), 2, (0, 1, 2), ()),
    (2, (3, 4), 3, (0, 1, 2, 3), (2,)),
    (3, (5,), 5, (0, 1, 2, 3, 5), (2,)),
    (2, (4,), 4, (0, 1, 2, 3, 5, 4), ()),
]


def assert_matches_expected_trace(result: RolloutResult):
    assert result.visit_order == [0, 1, 2, 3, 5, 4]
    assert len(result.branch_trace) == len(EXPECTED_TRACE)
    for row, (selected, neighbors, nxt, visited, stack) in zip(
        result.branch_trace, EXPECTED_TRACE
    ):
        assert row.selected == selected
        assert row.neighbors == neighbors
        assert row.next == nxt
        assert row.visited == visited
        assert row.stack == stack


def test_trace_with_rigged_scores():
    # weights decrease with index, so the 1-d identity model strictly
    # prefers b over c and d over e
    graph = fig10_graph()
    result = decode_all(graph, identity_model(), start=0, mode="greedy")
    assert_matches_expected_trace(result)


def test_trace_with_tied_scores_falls_to_index_order():
    # zero decoder projections score every candidate 0; the low-index
    # tie-break reproduces the same trace
    graph = fig10_graph(weights=[0.5] * 6)
    params = identity_model()
    params.tensors["decoder.query_proj"].values = np.array([[0.0]])
    result = decode_all(graph, params, start=0, mode="greedy")
    assert_matches_expected_trace(result)


# -- degenerate graphs ----------------------------------------------------


def test_single_node_graph():
    graph = build_graph(1, [], [0.6])
    result = decode_all(
        graph, identity_model(), start=0, mode="sample", rng=np.random.default_rng(0)
    )
    assert result.visit_order == [0]
    assert recorded_log_probs(graph, identity_model(), result) is None
    assert result.reward == path_score([0.6], "product")


def test_path_graph_has_no_choices():
    graph = path_graph([0.9, 0.5, 0.7])
    params = init_params(3, embed_dim=4, num_heads=2, ff_dim=4)
    result = decode_all(graph, params, start=0, mode="sample", rng=np.random.default_rng(1))
    assert result.visit_order == [0, 1, 2]
    assert recorded_log_probs(graph, params, result).tolist() == [0.0, 0.0]
    assert result.branch_trace[0].stack == ()


# -- invariants ------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_rollout_invariants(seed):
    graph = generate_random_graph(12, 15, seed=seed)
    params = init_params(seed + 100, embed_dim=8, num_heads=2, ff_dim=8)
    rng = np.random.default_rng(seed)
    result = decode_all(graph, params, start=graph.start_index, mode="sample", rng=rng)

    # permutation of all nodes
    assert sorted(result.visit_order) == list(range(12))
    assert result.visit_order[0] == graph.start_index

    # DFS-tree edges (each move's selected -> next) form a spanning tree rooted at start
    dfs_parent = {row.next: row.selected for row in result.branch_trace}
    assert set(dfs_parent) == set(range(12)) - {graph.start_index}
    position = {v: i for i, v in enumerate(result.visit_order)}
    for child, parent in dfs_parent.items():
        assert graph.adjacency[child, parent]
        assert position[parent] < position[child]

    # one sampled decision per non-start node, all log probs <= 0
    log_probs = recorded_log_probs(graph, params, result)
    assert len(log_probs) == 11
    assert all(lp <= 0.0 for lp in log_probs)

    # per-node scores recompute from the parent chains
    for v in range(12):
        chain = [v]
        while chain[-1] != graph.start_index:
            chain.append(dfs_parent[chain[-1]])
        weights = [graph.node_weights[u] for u in reversed(chain)]
        assert result.per_node_score[v] == pytest.approx(path_score(weights, "product"), rel=1e-12)

    assert result.reward == pytest.approx(sum(result.per_node_score.values()), rel=1e-12)

    # candidates recorded at each step are exactly the unvisited neighbors
    visited = {graph.start_index}
    for row in result.branch_trace:
        expected = tuple(j for j in graph.neighbors[row.selected] if j not in visited)
        assert row.neighbors == expected
        assert row.next in expected
        visited.add(row.next)


def test_sum_aggregator_reward():
    graph = path_graph([0.5, 0.25, 0.125])
    config = ScoreConfig(aggregator="sum")
    result = decode_all(graph, identity_model(), 0, mode="greedy", score_config=config)
    # per-node sums: 0.5, 0.75, 0.875
    assert result.reward == pytest.approx(0.5 + 0.75 + 0.875, rel=1e-15)


def test_greedy_reward_matches_independent_trace_replay():
    # fixed six-node graph + committed checkpoint: recompute the reward
    # by following the recorded trace with none of the rollout machinery
    from pathlib import Path

    from apgf.model import load_checkpoint

    graph = fig10_graph()
    params = load_checkpoint(Path(__file__).parent / "fixtures" / "fixture_checkpoint.json")
    result = decode_all(graph, params, 0, mode="greedy")

    parent = {}
    for row in result.branch_trace:
        parent[row.next] = row.selected
    replayed = 0.0
    for v in [0] + [row.next for row in result.branch_trace]:  # visit order per the trace
        chain = [v]
        while chain[-1] != 0:
            chain.append(parent[chain[-1]])
        score = 1.0
        for node in reversed(chain):
            score *= float(graph.node_weights[node])
        replayed += score
    assert result.reward == replayed


# -- the batched log-probability expression ---------------------------------


@pytest.mark.parametrize("seed", range(20))
def test_step_log_probs_match_per_step_reference(seed):
    graph = generate_random_graph(20, 25, seed=1000 + seed)
    params = init_params(seed, embed_dim=8, num_heads=2, ff_dim=8)
    temperature = 0.5 + seed / 10
    sampled = decode_all(
        graph, params, graph.start_index, temperature=temperature, rng=np.random.default_rng(seed)
    )
    expected = reference_step_log_probs(
        encode([graph], params).values[0],
        params.tensors["decoder.query_proj"].values,
        params.tensors["decoder.key_proj"].values,
        params.score_clip,
        sampled.branch_trace,
        temperature,
    )
    log_probs = recorded_log_probs(graph, params, sampled, temperature)
    assert len(log_probs) == len(expected) == 19
    np.testing.assert_allclose(log_probs, expected, rtol=0, atol=1e-12)


def test_move_log_probs_temperature_must_be_positive():
    graph = fig10_graph()
    result = decode_all(graph, identity_model(), 0, mode="greedy")
    for temperature in (0.0, -1.0, float("nan")):
        with pytest.raises(ValidationError, match="temperature"):
            recorded_log_probs(graph, identity_model(), result, temperature)


def test_sampled_rollout_tape_records_do_not_grow_with_graph_size():
    params = init_params(4, embed_dim=8, num_heads=2, ff_dim=8)
    beyond_encode = []
    for n, e in ((20, 25), (60, 75)):
        graph = generate_random_graph(n, e, seed=n)
        encoder_tape, tape = Tape(), Tape()
        encode([graph], params, encoder_tape)
        scores = score_matrix(encode([graph], params, tape), params, tape)
        result = walk(graph, scores.values[0], graph.start_index, rng=np.random.default_rng(n))
        move_log_probs(scores, [result], 1.0, tape)
        beyond_encode.append(len(tape) - len(encoder_tape))
    assert beyond_encode[0] == beyond_encode[1]


def test_batched_walks_match_single_graph_rollouts():
    # one score tensor and one log-prob expression for a batch give every
    # graph exactly what its own decode_all and log probabilities give
    graphs = [generate_random_graph(10, 13, seed=400 + s) for s in range(5)]
    params = init_params(8, embed_dim=8, num_heads=2, ff_dim=8)
    tape = Tape()
    scores = score_matrix(encode(graphs, params, tape), params, tape)
    rng = np.random.default_rng(9)
    walks = [
        walk(g, rows, g.start_index, temperature=0.7, rng=rng)
        for g, rows in zip(graphs, scores.values)
    ]
    log_probs = move_log_probs(scores, walks, 0.7, tape).values
    rng = np.random.default_rng(9)
    offset = 0
    for g, w in zip(graphs, walks):
        single = decode_all(g, params, g.start_index, temperature=0.7, rng=rng)
        assert single.visit_order == w.visit_order and single.reward == w.reward
        np.testing.assert_array_equal(
            log_probs[offset : offset + 9], recorded_log_probs(g, params, single, 0.7)
        )
        offset += 9
    assert offset == log_probs.size
    for g, rows in zip(graphs, scores.values):
        greedy = walk(g, rows, g.start_index, mode="greedy")
        assert greedy.visit_order == decode_all(g, params, g.start_index, mode="greedy").visit_order


# -- greedy mode ------------------------------------------------------------


def test_greedy_reward_deterministic():
    graph = generate_random_graph(11, 13, seed=21)
    params = init_params(22, embed_dim=8, num_heads=2, ff_dim=8)
    a = decode_all(graph, params, graph.start_index, mode="greedy").reward
    b = decode_all(graph, params, graph.start_index, mode="greedy").reward
    assert a == b


def test_greedy_equals_policy_after_param_copy():
    from apgf.model import copy_params

    graph = generate_random_graph(9, 12, seed=2)
    policy = init_params(1, embed_dim=8, num_heads=2, ff_dim=8)
    baseline = copy_params(policy)
    assert (
        decode_all(graph, policy, 3, mode="greedy").reward
        == decode_all(graph, baseline, 3, mode="greedy").reward
    )


@settings(max_examples=50, deadline=None)
@given(
    # scores on a coarse grid: float rounding in the transform must not
    # collapse distinct values into ties the raw scores do not have
    scores=st.dictionaries(
        st.integers(min_value=0, max_value=20),
        st.integers(min_value=-5000, max_value=5000).map(lambda v: v / 1000.0),
        min_size=1,
        max_size=8,
    ),
    scale=st.floats(min_value=0.1, max_value=4.0),
    shift=st.floats(min_value=-10, max_value=10),
)
def test_greedy_choice_invariant_under_monotone_transform(scores, scale, shift):
    transformed = {k: np.tanh(v) * scale + shift for k, v in scores.items()}
    assert choose(scores) == choose(transformed)


def choose(scores: dict) -> int:
    """The first greedy move from a start whose neighbors are exactly the
    keys of ``scores``, on a score row whose non-candidate entries beat
    every candidate."""
    start = max(scores) + 1
    keys = sorted(scores)
    edges = [(start, k) for k in keys]
    edges += [(keys[0], v) for v in range(start) if v not in scores]  # hang the rest off a key
    graph = build_graph(start + 1, edges, [0.5] * (start + 1), start=start)
    rows = np.full((start + 1, start + 1), np.inf)
    rows[start, keys] = [scores[k] for k in keys]
    return walk(graph, rows, start, mode="greedy").branch_trace[0].next


def test_greedy_choice_tie_breaks_to_lowest_index():
    assert choose({7: 1.0, 3: 1.0, 5: 1.0}) == 3
    assert choose({3: 2.0, 2: 1.0, 1: 2.0}) == 1


# -- argument checks ----------------------------------------------------------


def test_bad_arguments():
    graph = fig10_graph()
    params = identity_model()
    with pytest.raises(ValidationError, match="start"):
        decode_all(graph, params, 9, mode="greedy")
    with pytest.raises(ValidationError, match="mode"):
        decode_all(graph, params, 0, mode="best")
    with pytest.raises(ValidationError, match="rng"):
        decode_all(graph, params, 0, mode="sample")
