import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apgf.errors import ApgfError, GraphFormatError, ValidationError
from apgf.graphgen import (
    generate_random_graph,
    graph_from_json,
    graph_to_json,
    load_graph,
    save_graph,
)

from helpers import build_graph, fuzzed_docs, reference_random_graph


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


def test_negative_seed_rejected():
    with pytest.raises(ValidationError, match="seed must be >= 0, got -1"):
        generate_random_graph(5, 4, seed=-1)


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


@pytest.mark.parametrize(
    "args, name",
    [((20.0, 25, 1), "num_nodes"), ((20, 25.0, 1), "num_edges"), ((20, 25, 1.5), "seed")],
)
def test_generator_arguments_must_be_integers(args, name):
    with pytest.raises(ValidationError, match=f"{name} must be an integer, got"):
        generate_random_graph(*args)


def _edge_counts(n):
    """Every edge count at n <= 8, six counts from a tree to the complete graph above."""
    lo, hi = n - 1, n * (n - 1) // 2
    if n <= 8:
        return range(lo, hi + 1)
    return [lo, lo + 1, lo + n // 4 + 2, (lo + hi) // 2, hi - 1, hi]


@pytest.mark.parametrize("tree_mode", ["random_attach", "star"])
def test_generator_equals_the_missing_pairs_reference(tree_mode):
    for n in range(1, 61):
        for e in _edge_counts(n):
            for seed in (0, 5):
                expected = reference_random_graph(n, e, seed, tree_mode)
                assert generate_random_graph(n, e, seed, tree_mode) == expected, (n, e, seed)


@pytest.mark.parametrize(
    "args, digest",
    [
        ((20, 25, 1), "db8985654f30504b75b45712c62585bdc37f60c72154d4abf820207c5943f7d9"),
        ((16, 32, 1), "c300d63c59075c875de4b86e575b8079c5cbb712e0559eef4f205ced4f816dec"),
        ((800, 880, 1), "00a098b2faad4f5d85c15c58d9a03063f2362b994341d1bbaa750ae03aea4116"),
        ((30, 40, 1, "star"), "1033b0d46389ae0b4e16e2891973bda35b90347043ff842855b55fe65425bc16"),
    ],
)
def test_generated_graph_bytes_are_pinned(args, digest):
    text = graph_to_json(generate_random_graph(*args))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_generator_memory_is_linear_in_the_graph():
    # listing the missing pairs of 1,200 nodes peaked at 68.7 MB
    tracemalloc.start()
    try:
        generate_random_graph(1200, 1320, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


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
    assert all(u in g.neighbors[v] for u in range(num_nodes) for v in g.neighbors[u])
    assert not any(u in g.neighbors[u] for u in range(num_nodes))
    assert g == generate_random_graph(num_nodes, num_edges, seed=seed)


@settings(max_examples=50, deadline=None)
@given(
    num_nodes=st.integers(min_value=1, max_value=30),
    extra=st.integers(min_value=0, max_value=20),
    seed=st.integers(min_value=0, max_value=2**32),
    star=st.booleans(),
    data=st.data(),
)
def test_neighbors_equal_a_scan_of_the_edges(num_nodes, extra, seed, star, data):
    num_edges = min(num_nodes - 1 + extra, num_nodes * (num_nodes - 1) // 2)
    tree_mode = "star" if star else "random_attach"
    g = generate_random_graph(num_nodes, num_edges, seed=seed, tree_mode=tree_mode)
    expected = tuple(
        tuple(sorted([v for u, v in g.edges if u == node] + [u for u, v in g.edges if v == node]))
        for node in range(num_nodes)
    )
    assert g.neighbors == expected
    assert all(type(v) is int for row in g.neighbors for v in row)
    # the same graph given its edges in any order and orientation
    shuffled = data.draw(st.permutations(g.edges))
    flips = data.draw(st.lists(st.booleans(), min_size=num_edges, max_size=num_edges))
    edges = [(v, u) if flip else (u, v) for (u, v), flip in zip(shuffled, flips)]
    rebuilt = build_graph(num_nodes, edges, g.node_weights, start=g.start_index)
    assert rebuilt.neighbors == expected


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


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_weight_rejected(bad):
    with pytest.raises(ValidationError, match=r"weight out of range \[0, 1\]"):
        build_graph(3, [(0, 1), (1, 2)], [bad, 0.5, 0.2])


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
    with pytest.raises(GraphFormatError, match="version"):
        graph_from_json('{"version": 1.0, "num_nodes": 1, "start_index": 0, ' + one_node)
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
    # node ids are integers: a float is refused, not truncated
    with pytest.raises(ValidationError, match="edge endpoint must be an integer, got 1.7"):
        build_graph(2, [(0, 1.7)], [0.1, 0.2])
    with pytest.raises(ValidationError, match="edge endpoint must be an integer"):
        build_graph(2, [(np.float64(0.0), 1)], [0.1, 0.2])
    with pytest.raises(ValidationError, match="start_index must be an integer, got 0.5"):
        build_graph(2, [(0, 1)], [0.1, 0.2], start=0.5)
    with pytest.raises(ValidationError, match="num_nodes must be an integer, got 2.0"):
        build_graph(2.0, [(0, 1)], [0.1, 0.2])


def test_graph_constructor_takes_numpy_integer_node_ids_as_ints():
    i32, i64 = np.int32, np.int64
    g = build_graph(i64(3), [(i32(2), i64(1)), (i64(0), np.uint8(1))], [0.1, 0.2, 0.3], i64(2))
    assert g == build_graph(3, [(1, 2), (0, 1)], [0.1, 0.2, 0.3], start=2)
    ids = [g.num_nodes, g.start_index, *(u for e in g.edges for u in e)]
    assert all(type(x) is int for x in ids)


_GRAPH_DOC = json.loads(graph_to_json(build_graph(3, [(0, 1), (1, 2)], [0.1, 0.5, 0.9])))


@settings(max_examples=200, deadline=None)
@given(doc=fuzzed_docs(_GRAPH_DOC))
def test_load_graph_fuzz_raises_only_apgf_errors_naming_the_file(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("fuzz") / "graph.json"
    path.write_text(json.dumps(doc))
    try:
        load_graph(path)
    except ApgfError as exc:
        assert f"graph {path}: " in str(exc)
