import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apgf.errors import GraphFormatError, ValidationError
from apgf.graphgen import (
    generate_random_graph,
    graph_from_json,
    graph_to_json,
    load_graph,
    save_graph,
)

from helpers import build_graph


def is_connected(graph):
    seen = {0}
    frontier = [0]
    while frontier:
        frontier = [
            v for u in frontier for v in graph.neighbors[u] if v not in seen and not seen.add(v)
        ]
    return len(seen) == graph.num_nodes


def has_cycle(graph):
    # for an undirected graph: cycle iff edges >= nodes (per component);
    # connected case reduces to edge count
    return graph.num_edges > graph.num_nodes - 1


def test_smallest_legal_graph():
    g = generate_random_graph(1, 0, seed=11)
    assert g.num_nodes == 1
    assert g.edges == ()
    assert 0.0 <= g.node_weights[0] <= 1.0
    assert g.start_index == 0


def test_edge_count_n_minus_one_forces_spanning_tree():
    g = generate_random_graph(5, 4, seed=3)
    assert g.num_edges == 4
    assert is_connected(g)
    assert not has_cycle(g)


def test_paper_scale_graph():
    g = generate_random_graph(100, 110, seed=9)
    assert g.num_nodes == 100
    assert g.num_edges == 110
    assert is_connected(g)


def test_seed_determinism():
    a = generate_random_graph(30, 35, seed=77)
    b = generate_random_graph(30, 35, seed=77)
    assert a == b
    c = generate_random_graph(30, 35, seed=78)
    assert a != c


def test_weight_stream_independent_of_edge_count():
    a = generate_random_graph(12, 11, seed=5)
    b = generate_random_graph(12, 20, seed=5)
    np.testing.assert_array_equal(a.node_weights, b.node_weights)


def test_star_mode():
    g = generate_random_graph(7, 6, seed=2, tree_mode="star")
    degrees = [len(nb) for nb in g.neighbors]
    assert sorted(degrees) == [1] * 6 + [6]


def test_generation_errors():
    with pytest.raises(ValidationError, match="cannot connect"):
        generate_random_graph(5, 3, seed=0)
    with pytest.raises(ValidationError, match="maximum"):
        generate_random_graph(4, 7, seed=0)
    with pytest.raises(ValidationError, match="positive"):
        generate_random_graph(0, 0, seed=0)
    with pytest.raises(ValidationError, match="tree_mode"):
        generate_random_graph(4, 3, seed=0, tree_mode="ring")


@settings(max_examples=50, deadline=None)
@given(
    num_nodes=st.integers(min_value=2, max_value=40),
    extra=st.integers(min_value=0, max_value=10),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_generator_invariants(num_nodes, extra, seed):
    num_edges = min(num_nodes - 1 + extra, num_nodes * (num_nodes - 1) // 2)
    g = generate_random_graph(num_nodes, num_edges, seed=seed)
    assert g.num_edges == num_edges
    assert is_connected(g)
    assert np.all(g.node_weights >= 0) and np.all(g.node_weights <= 1)
    assert np.array_equal(g.adjacency, g.adjacency.T)
    assert not g.adjacency.diagonal().any()
    assert g == generate_random_graph(num_nodes, num_edges, seed=seed)


def test_round_trip_tiny(tmp_path):
    g = generate_random_graph(1, 0, seed=13)
    path = tmp_path / "g.json"
    save_graph(g, path)
    assert load_graph(path) == g


def test_round_trip_paper_scale(tmp_path):
    g = generate_random_graph(100, 110, seed=21)
    path = tmp_path / "g.json"
    save_graph(g, path)
    loaded = load_graph(path)
    assert loaded == g
    assert loaded.start_index == g.start_index
    np.testing.assert_array_equal(loaded.node_weights, g.node_weights)
    # a second save is byte-identical
    text = path.read_text()
    save_graph(loaded, path)
    assert path.read_text() == text


def test_weight_out_of_range_in_file():
    g = build_graph(2, [(0, 1)], [0.5, 0.5])
    bad = graph_to_json(g).replace("0.5", "1.5", 1)
    with pytest.raises(GraphFormatError, match="weight out of range"):
        graph_from_json(bad)


def test_malformed_file_errors_name_the_field():
    with pytest.raises(GraphFormatError, match="JSON"):
        graph_from_json("{nope")
    with pytest.raises(GraphFormatError, match="version"):
        graph_from_json('{"version": 99}')
    with pytest.raises(GraphFormatError, match="num_nodes"):
        graph_from_json('{"version": 1, "num_nodes": -3}')
    with pytest.raises(GraphFormatError, match="start_index"):
        graph_from_json('{"version": 1, "num_nodes": 2, "start_index": 5}')
    # JSON booleans load as Python bools, which are ints
    one_node = '"weights": [0.5], "edges": []}'
    with pytest.raises(GraphFormatError, match="num_nodes"):
        graph_from_json('{"version": 1, "num_nodes": true, "start_index": 0, ' + one_node)
    with pytest.raises(GraphFormatError, match="start_index"):
        graph_from_json(
            '{"version": 1, "num_nodes": 2, "start_index": true, '
            '"weights": [0.1, 0.2], "edges": [[0, 1]]}'
        )
    with pytest.raises(GraphFormatError, match="version"):
        graph_from_json('{"version": true, "num_nodes": 1, "start_index": 0, ' + one_node)
    with pytest.raises(GraphFormatError, match="weights"):
        graph_from_json('{"version": 1, "num_nodes": 2, "start_index": 0, "weights": [0.1]}')
    with pytest.raises(GraphFormatError, match="edges"):
        graph_from_json(
            '{"version": 1, "num_nodes": 2, "start_index": 0, "weights": [0.1, 0.2], "edges": 7}'
        )
    with pytest.raises(GraphFormatError, match="connected"):
        graph_from_json(
            '{"version": 1, "num_nodes": 3, "start_index": 0, '
            '"weights": [0.1, 0.2, 0.3], "edges": [[0, 1]]}'
        )


def test_graph_constructor_rejects_bad_structure():
    with pytest.raises(ValidationError, match="self-loop"):
        build_graph(2, [(0, 0), (0, 1)], [0.1, 0.2])
    with pytest.raises(ValidationError, match="duplicate"):
        build_graph(2, [(0, 1), (1, 0)], [0.1, 0.2])
    with pytest.raises(ValidationError, match="out of range"):
        build_graph(2, [(0, 5)], [0.1, 0.2])
    with pytest.raises(ValidationError, match="connected"):
        build_graph(4, [(0, 1), (2, 3)], [0.1, 0.2, 0.3, 0.4])
