import base64
import hashlib
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apgf.errors import ApgfError, ValidationError
from apgf.graphgen import generate_random_graph
from apgf.model import (
    GraphBatch,
    ModelParams,
    copy_params,
    edge_scores,
    encode,
    init_params,
    load_checkpoint,
    param_spec,
    save_checkpoint,
)
from apgf.numcore import ForwardTape, Tape
from apgf.rollout import decode_all, move_log_probs, walk

from helpers import (
    at_edges,
    build_graph,
    central_difference,
    dense_encode,
    dense_score_matrix,
    fuzzed_docs,
    identity_model,
    max_relative_error,
    node_rows,
    path_graph,
    recorded_log_probs,
    star_graph,
    two_leaf_star_walk,
)


def small_params(seed=0, embed_dim=8, num_heads=2, ff_dim=12, score_clip=10.0):
    return init_params(
        seed, embed_dim=embed_dim, num_heads=num_heads, ff_dim=ff_dim, score_clip=score_clip
    )


def decoder_params(query_proj, key_proj, score_clip=10.0):
    """A model whose decoder projections are the given square matrices."""
    params = init_params(0, embed_dim=len(query_proj), num_heads=1, ff_dim=1, score_clip=score_clip)
    params.tensors["decoder.query_proj"][...] = query_proj
    params.tensors["decoder.key_proj"][...] = key_proj
    return params


def test_single_node_graph():
    g = build_graph(1, [], [0.7])
    params = small_params()
    p = params.tensors
    emb = encode([g], params)
    assert emb.shape == (1, params.embed_dim)
    # self-attention over one node has coefficient 1, so the first layer
    # output is exactly lift + concat(projected lift)
    h0 = g.node_weights.reshape(1, 1) @ p["encoder.input_lift"]
    heads = np.concatenate([h0 @ p[f"encoder.layer0.head{i}.weight"] for i in range(2)], axis=1)
    h1 = h0 + heads
    heads2 = np.concatenate([h1 @ p[f"encoder.layer1.head{i}.weight"] for i in range(2)], axis=1)
    h2 = h1 + heads2
    inner = h2 @ p["encoder.ff_in_weight"] + p["encoder.ff_in_bias"]
    inner = np.where(inner > 0, inner, 0.2 * inner)
    expected = h2 + inner @ p["encoder.ff_out_weight"] + p["encoder.ff_out_bias"]
    np.testing.assert_allclose(emb, expected, rtol=1e-12)


def test_zero_weight_matrices_leave_only_lifted_inputs():
    g = generate_random_graph(5, 6, seed=8)
    params = small_params()
    for name, t in params.tensors.items():
        if name != "encoder.input_lift":
            t[...] = 0.0
    emb = encode([g], params)
    lifted = g.node_weights.reshape(-1, 1) @ params.tensors["encoder.input_lift"]
    np.testing.assert_array_equal(emb, lifted)


def test_permutation_equivariance():
    rng = np.random.default_rng(4)
    g = generate_random_graph(6, 8, seed=31)
    perm = rng.permutation(6)
    weights = np.empty(6)
    weights[perm] = g.node_weights
    relabeled = build_graph(
        6,
        [(int(perm[u]), int(perm[v])) for u, v in g.edges],
        weights,
        start=int(perm[g.start_index]),
    )
    params = small_params(seed=9)
    v = encode([g], params)
    v_perm = encode([relabeled], params)
    np.testing.assert_allclose(v_perm[perm], v, atol=1e-10, rtol=0)


def test_batched_scores_equal_single_graph_scores_bit_for_bit():
    params = init_params(17)
    equal = [generate_random_graph(20, 25, seed=300 + s) for s in range(16)]
    # graphs of any sizes batch together; a one-node graph alone is a
    # one-row product, which BLAS rounds apart from a row of a larger one,
    # so the reference tests cover it
    sizes = [(2, 1), (60, 70), (7, 9), (400, 450), (33, 40)]
    mixed = [generate_random_graph(n, e, seed=320 + n) for n, e in sizes]
    for graphs in (equal, mixed):
        emb = encode(graphs, params)
        batched = edge_scores(emb, graphs, params)
        assert emb.shape == (sum(g.num_nodes for g in graphs), params.embed_dim)
        assert batched.shape == (sum(2 * g.num_edges for g in graphs),)
        for g, rows, own in zip(graphs, node_rows(graphs), GraphBatch(graphs).split(batched)):
            single_emb = encode([g], params)
            np.testing.assert_array_equal(emb[rows], single_emb)
            np.testing.assert_array_equal(own, edge_scores(single_emb, [g], params))


def test_a_graph_batch_splits_its_scores_into_each_graphs_own_views():
    graphs = [generate_random_graph(n, e, seed=n) for n, e in [(2, 1), (7, 9), (1, 0), (5, 4)]]
    batch = GraphBatch(graphs)
    scores = np.arange(sum(2 * g.num_edges for g in graphs), dtype=np.float64)
    parts = batch.split(scores)
    assert [p.tolist() for p in parts] == [
        list(range(0, 2)), list(range(2, 20)), [], list(range(20, 28))
    ]
    assert all(np.shares_memory(p, scores) for p in parts if p.size)
    for wrong in (scores[:-1], np.zeros(29)):
        with pytest.raises(ValidationError, match=f"{wrong.size} scores for a batch of 28 "):
            batch.split(wrong)


def test_a_graph_batch_gives_a_plain_lists_results_bit_for_bit():
    graphs = _reference_cases()["mixed"]  # 1, 7, 20 and 33 nodes
    params = init_params(35)
    batch = GraphBatch(graphs)
    results = []
    # the batch twice: the second pass reuses the index the first built
    for given in (list(graphs), batch, batch):
        tape = Tape()
        scores = edge_scores(encode(given, params, tape), given, params, tape)
        per_graph = batch.split(scores)
        walks = [walk(g, own, g.start_index, "greedy") for g, own in zip(graphs, per_graph)]
        log_probs = move_log_probs(tape.mul_scalar(scores, 1 / 0.7), given, walks, tape)
        grads = tape.backward(tape.sum(log_probs), params.tensors)
        results.append([scores, log_probs, *grads.values()])
    for other in results[1:]:
        for a, b in zip(results[0], other):
            np.testing.assert_array_equal(a, b)


def _reference_cases():
    rng = np.random.default_rng(21)
    return {
        "star": [star_graph(rng.uniform(size=30))],  # max degree n - 1
        "path": [path_graph(rng.uniform(size=25))],
        "one-node": [build_graph(1, [], [0.4])],
        "star-tree": [generate_random_graph(40, 52, seed=22, tree_mode="star")],
        "batch": [generate_random_graph(20, 25, seed=40 + s) for s in range(6)],
        "mixed": [generate_random_graph(n, n - 1 + n // 4, seed=50 + n) for n in (1, 7, 20, 33)],
    }


MODEL_SIZES = {"small": dict(embed_dim=8, num_heads=2, ff_dim=12), "paper": {}}


@pytest.mark.parametrize("size", sorted(MODEL_SIZES))
@pytest.mark.parametrize("case", sorted(_reference_cases()))
def test_encode_agrees_with_dense_reference(case, size):
    graphs = _reference_cases()[case]
    params = init_params(23, **MODEL_SIZES[size])
    edge_list = encode(graphs, params)
    dense = dense_encode(graphs, params)
    assert edge_list.shape == dense.shape
    assert max_relative_error(edge_list, dense) <= 1e-12


@pytest.mark.parametrize("size", sorted(MODEL_SIZES))
def test_encode_gradients_agree_with_dense_reference(size):
    graphs = _reference_cases()["batch"]
    params = init_params(27, **MODEL_SIZES[size])
    weighting = np.random.default_rng(28).normal(size=len(graphs) * 50)

    def gradients(encoder):
        t = Tape()
        scores = edge_scores(encoder(graphs, params, t), graphs, params, t)
        return t.backward(t.sum(t.mul(scores, weighting)), params.tensors)

    ours, dense = gradients(encode), gradients(dense_encode)
    for name, g in dense.items():
        assert np.max(np.abs(ours[name] - g)) <= 1e-12 * np.max(np.abs(g)), name


@pytest.mark.parametrize("size", sorted(MODEL_SIZES))
def test_walks_choose_as_with_dense_reference(size):
    params = init_params(24, **MODEL_SIZES[size])
    for s in range(8):
        n = 12 + 4 * s
        g = generate_random_graph(n, n + s, seed=60 + s)
        ours = edge_scores(encode([g], params), [g], params)
        reference = edge_scores(dense_encode([g], params), [g], params)
        for start in (g.start_index, (g.start_index + 1) % n):
            a = walk(g, ours, start, "greedy")
            b = walk(g, reference, start, "greedy")
            assert a.visit_order == b.visit_order
            a = walk(g, ours, start, "sample", rng=np.random.default_rng(s))
            b = walk(g, reference, start, "sample", rng=np.random.default_rng(s))
            assert a.visit_order == b.visit_order


def test_forward_encode_memory_grows_with_edges_not_nodes_squared():
    # one dense [3000, 3000] float64 array alone would take 72 MB
    g = generate_random_graph(3000, 3300, seed=25)
    params = init_params(26)
    tracemalloc.start()
    try:
        encode([g], params, ForwardTape())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_an_empty_batch_is_rejected():
    params = small_params()
    with pytest.raises(ValidationError, match="at least one graph"):
        GraphBatch([])
    with pytest.raises(ValidationError, match="at least one graph"):
        encode([], params)
    with pytest.raises(ValidationError, match="at least one graph"):
        edge_scores(np.zeros((0, params.embed_dim)), [], params)
    with pytest.raises(ValidationError, match="at least one graph"):
        move_log_probs(np.zeros(0), [], [], Tape())


def complete_graph(n):
    return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)], [0.5] * n)


def test_decoder_zero_projections_give_zero_scores():
    emb = np.random.default_rng(0).normal(size=(4, 3))
    dec = decoder_params(np.zeros((3, 3)), np.zeros((3, 3)))
    scores = edge_scores(emb, [complete_graph(4)], dec)
    assert scores.shape == (12,)
    assert not np.any(scores)


def test_decoder_one_dimensional_case():
    emb = np.array([[1.0], [1.0]])
    dec = decoder_params([[1.0]], [[1.0]])
    scores = edge_scores(emb, [complete_graph(2)], dec)  # 0 -> 1, then 1 -> 0
    assert scores[0] == pytest.approx(10.0 * math.tanh(1.0), rel=1e-12)
    assert scores[0] == pytest.approx(7.615941559, rel=1e-9)
    np.testing.assert_array_equal(scores, np.full(2, scores[0]))


def test_decoder_scores_bounded_by_clip():
    rng = np.random.default_rng(2)
    emb = rng.normal(size=(6, 4)) * 50
    dec = decoder_params(rng.normal(size=(4, 4)) * 50, rng.normal(size=(4, 4)) * 50)
    scores = edge_scores(emb, [complete_graph(6)], dec)
    assert scores.shape == (30,)
    assert np.all(np.abs(scores) <= 10.0)
    assert np.max(np.abs(scores)) > 9.0  # saturated, so the bound is exercised


def test_decoder_rejects_embeddings_of_other_graphs():
    dec = decoder_params(np.zeros((3, 3)), np.zeros((3, 3)))
    for shape, graphs in [
        ((8, 3), [complete_graph(4)]),
        ((8, 3), [complete_graph(4), complete_graph(5)]),
        ((2, 4, 3), [complete_graph(4), complete_graph(4)]),  # one row per node, not per graph
    ]:
        with pytest.raises(ValidationError, match="do not match graphs"):
            edge_scores(np.zeros(shape), graphs, dec)


@pytest.mark.parametrize("size", sorted(MODEL_SIZES))
@pytest.mark.parametrize("case", sorted(_reference_cases()))
def test_edge_scores_equal_the_dense_reference_at_every_edge(case, size):
    graphs = _reference_cases()[case]
    params = init_params(29, **MODEL_SIZES[size])
    emb = encode(graphs, params)
    scores = edge_scores(emb, graphs, params)
    reference = np.concatenate(
        [
            at_edges(g, dense_score_matrix(emb[rows], params))
            for g, rows in zip(graphs, node_rows(graphs))
        ]
    )
    assert scores.shape == reference.shape == (sum(2 * g.num_edges for g in graphs),)
    assert np.max(np.abs(scores - reference), initial=0.0) <= 1e-15


@pytest.mark.parametrize("size", sorted(MODEL_SIZES))
def test_edge_decoder_gradients_agree_with_dense_reference(size):
    graphs = _reference_cases()["batch"]
    params = init_params(30, **MODEL_SIZES[size])
    weighting = np.random.default_rng(31).normal(size=len(graphs) * 50)
    # the same weighting on the dense matrices, graph after graph: the
    # edges' weights, 0 elsewhere
    rows, cols = (index.rows for index in GraphBatch(graphs).edges)
    dense_weighting = np.zeros((len(graphs) * 20, 20))
    dense_weighting[rows, cols % 20] = weighting

    def dense_decoder(t, emb):
        matrices = [
            dense_score_matrix(t.gather_rows(emb, rows), params, t) for rows in node_rows(graphs)
        ]
        return t.concat(matrices, axis=0)

    def gradients(decoder, weights):
        t = Tape()
        scores = decoder(t, encode(graphs, params, t))
        return t.backward(t.sum(t.mul(scores, weights)), params.tensors)

    ours = gradients(lambda t, emb: edge_scores(emb, graphs, params, t), weighting)
    dense = gradients(dense_decoder, dense_weighting)
    for name, g in dense.items():
        assert np.max(np.abs(ours[name] - g)) <= 1e-12 * np.max(np.abs(g)), name


def test_greedy_decode_memory_grows_with_edges_not_nodes_squared():
    # one dense [3000, 3000] float64 array alone would take 72 MB
    g = generate_random_graph(3000, 3300, seed=32)
    params = init_params(33)
    tracemalloc.start()
    try:
        decode_all(g, params, g.start_index, mode="greedy")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def two_leaf_star_rollout(leaf_weights, actions, temperature=1.0):
    """Step probabilities of the rollout taking ``actions`` on a center-0
    star with two leaves under the identity model, whose score for a move
    from the center (weight 1) to a leaf is clip * tanh(leaf weight)."""
    weights = [1.0, *leaf_weights]
    rollout = two_leaf_star_walk(weights, actions[0])
    assert [row.next for row in rollout.branch_trace] == actions
    log_probs = recorded_log_probs(star_graph(weights), identity_model(), rollout, temperature)
    return [math.exp(lp) for lp in log_probs]


def test_candidate_probs_examples():
    # the second move has one candidate left: probability exactly 1
    assert two_leaf_star_rollout([0.3, 0.6], [1, 2])[1] == 1.0

    pair = two_leaf_star_rollout([0.4, 0.4], [1, 2])
    assert pair[0] == pytest.approx(0.5, abs=1e-15)
    assert two_leaf_star_rollout([0.4, 0.4], [2, 1])[0] == pytest.approx(0.5, abs=1e-15)

    # scores 10 tanh(1) and 0 at temperature 5 tanh(1) are logits 2 and 0
    temperature = 5.0 * math.tanh(1.0)
    skewed = two_leaf_star_rollout([1.0, 0.0], [1, 2], temperature)
    e2 = math.exp(2.0)
    assert skewed[0] == pytest.approx(e2 / (e2 + 1.0), rel=1e-12)
    assert skewed[0] == pytest.approx(0.8808, abs=5e-5)
    assert two_leaf_star_rollout([1.0, 0.0], [2, 1], temperature)[0] == pytest.approx(
        0.1192, abs=5e-5
    )


@settings(max_examples=40, deadline=None)
@given(
    # coarse grid keeps float rounding of score + shift from collapsing
    # distinct scores into ties
    scores=st.lists(
        st.integers(min_value=-9000, max_value=9000).map(lambda v: v / 1000.0),
        min_size=2,
        max_size=6,
    ),
    shift=st.floats(min_value=-50, max_value=50),
)
def test_argmax_invariant_under_constant_shift(scores, shift):
    # the greedy move from the centre of a star, whose leaves 1..k score
    # `scores`, is the first maximum, shifted or not
    star = star_graph([0.5] * (len(scores) + 1))
    edges = np.concatenate([scores, np.zeros(len(scores))])  # then each leaf's move back
    for s in (edges, edges + shift):
        assert walk(star, s, 0, "greedy").visit_order[1] == 1 + int(np.argmax(scores))


def test_checkpoint_round_trip(tmp_path):
    params = small_params(seed=42)
    path = tmp_path / "ckpt.json"
    save_checkpoint(params, path)
    loaded = load_checkpoint(path)
    assert loaded.hyper() == params.hyper()
    for (name_a, a), (name_b, b) in zip(params.tensors.items(), loaded.tensors.items()):
        assert name_a == name_b
        np.testing.assert_array_equal(a, b)


def test_checkpoint_dim_mismatch_names_both_values(tmp_path):
    params = small_params(seed=1, embed_dim=8)
    path = tmp_path / "ckpt.json"
    save_checkpoint(params, path)
    doc = json.loads(path.read_text())
    doc["hyper"]["embed_dim"] = 16
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match=r"\[1, 8\].*\[1, 16\]"):
        load_checkpoint(path)


def test_greedy_rollout_identical_after_round_trip(tmp_path):
    g = generate_random_graph(9, 11, seed=5)
    params = small_params(seed=6)
    path = tmp_path / "ckpt.json"
    save_checkpoint(params, path)
    loaded = load_checkpoint(path)
    a = decode_all(g, params, g.start_index, mode="greedy")
    b = decode_all(g, loaded, g.start_index, mode="greedy")
    assert a.visit_order == b.visit_order
    assert a.reward == b.reward


def test_copy_params_is_decoupled():
    params = small_params(seed=3)
    frozen = copy_params(params)
    params.tensors["encoder.input_lift"][:] = 99.0
    assert not np.array_equal(
        frozen.tensors["encoder.input_lift"], params.tensors["encoder.input_lift"]
    )
    assert frozen.hyper() == params.hyper()


def test_parameters_are_views_of_one_buffer_in_spec_order(tmp_path):
    params = small_params(seed=9)
    save_checkpoint(params, tmp_path / "ckpt.json")
    copied, loaded = copy_params(params), load_checkpoint(tmp_path / "ckpt.json")
    spec = [(name, shape) for name, (shape, _) in param_spec(8, 2, 12).items()]
    for p in (params, copied, loaded):
        assert p.buffer.dtype == np.float64 and p.buffer.flags.c_contiguous
        assert [(name, t.shape) for name, t in p.tensors.items()] == spec
        p.buffer[:] = np.arange(p.buffer.size)  # every view sees it, in spec order
        flat = np.concatenate([t.reshape(-1) for t in p.tensors.values()])
        np.testing.assert_array_equal(flat, np.arange(p.buffer.size))
        with pytest.raises(TypeError):  # a value changes through its view, never by rebinding
            p.tensors["encoder.input_lift"] = np.zeros((1, 8))
    assert not np.shares_memory(copied.buffer, params.buffer)
    with pytest.raises(ValidationError, match=r"buffer of 13 values, got float64 \(3,\)"):
        ModelParams(1, 1, 1, 10.0, buffer=np.zeros(3))
    # Adam updates the buffer in place, so a read-only one is refused up front
    with pytest.raises(ValidationError, match=r"writable .* got float64 \(13,\), read-only"):
        ModelParams(1, 1, 1, 10.0, buffer=np.frombuffer(bytes(8 * 13), "<f8"))


def test_decoder_gradients_match_finite_differences():
    g = generate_random_graph(6, 7, seed=14)
    params = small_params(seed=15, embed_dim=4, num_heads=2, ff_dim=6)
    # a fixed random weighting keeps every entry's gradient distinct
    weighting = np.random.default_rng(16).normal(size=2 * g.num_edges)

    def weighted_sum(t):
        return t.sum(t.mul(edge_scores(encode([g], params, t), [g], params, t), weighting))

    def loss_value():
        return weighted_sum(Tape()).item()

    t = Tape()
    grads = t.backward(weighted_sum(t), params.tensors)

    for name, p in params.tensors.items():
        fd = central_difference(loss_value, p, h=1e-5)
        analytic = grads[name]
        assert max_relative_error(analytic, fd) <= 1e-4, name


@pytest.mark.parametrize(
    "kwargs, size, digest",
    [
        ({}, 356_527, "661f9e7709fe72c0cc82417c5a4892e57212f7a61b543bae838dedd47321fdcf"),
        (
            dict(embed_dim=8, num_heads=2, ff_dim=6, score_clip=3.0),
            5_325,
            "423b29874e6ddbeda2c9783310ae3e49b90be33cb53389578497730cdf4d1259",
        ),
    ],
)
def test_checkpoint_bytes_are_pinned(tmp_path, kwargs, size, digest):
    path = tmp_path / "ckpt.json"
    save_checkpoint(init_params(seed=0, **kwargs), path)
    data = path.read_bytes()
    assert len(data) == size
    assert hashlib.sha256(data).hexdigest() == digest


_EDGE_FLOATS = (-0.0, 5e-324, 1e300)  # signed zero, the smallest subnormal, a huge value
_stored_floats = st.sampled_from(_EDGE_FLOATS) | st.floats(allow_nan=False, allow_infinity=False)


def _b64(values) -> str:
    """Version 2's ``data``: the base64 of the values' little-endian float64 bytes."""
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def _document(params, version=2) -> dict:
    """The checkpoint document of ``params``, as version 1 or 2 spells it."""
    def entry(t):
        if version == 1:
            return {"shape": list(t.shape), "values": t.reshape(-1).tolist()}
        return {"shape": list(t.shape), "data": _b64(t)}

    return {
        "version": version,
        "hyper": params.hyper(),
        "params": {name: entry(t) for name, t in params.tensors.items()},
    }


def _assert_same_bits(a, b):
    assert a.hyper() == b.hyper()
    assert list(a.tensors) == list(b.tensors)
    for name, t in a.tensors.items():
        assert t.dtype == b.tensors[name].dtype == np.float64
        np.testing.assert_array_equal(t.view(np.uint64), b.tensors[name].view(np.uint64), name)


@settings(max_examples=40, deadline=None)
@given(
    num_heads=st.integers(1, 3),
    head_dim=st.integers(1, 2),
    ff_dim=st.integers(1, 3),
    score_clip=st.sampled_from([5e-324, 1e300]) | st.floats(0.0, 1e300, exclude_min=True),
    data=st.data(),
)
def test_checkpoint_is_json_dumps_of_the_document(
    tmp_path_factory, num_heads, head_dim, ff_dim, score_clip, data
):
    # the writer's bytes are json.dumps of the document the loader reads,
    # and the loader must give back every value bit for bit
    params = init_params(0, num_heads * head_dim, num_heads, ff_dim, score_clip)
    for name, t in params.tensors.items():
        values = data.draw(st.lists(_stored_floats, min_size=t.size, max_size=t.size), label=name)
        t[...] = np.array(values, dtype=np.float64).reshape(t.shape)
    params.tensors["decoder.key_proj"].flat[: len(_EDGE_FLOATS)] = _EDGE_FLOATS
    path = tmp_path_factory.mktemp("frame") / "ckpt.json"
    save_checkpoint(params, path)
    assert path.read_text(encoding="utf-8") == json.dumps(_document(params)) + "\n"
    _assert_same_bits(load_checkpoint(path), params)


@pytest.mark.parametrize("source", ["small", "fixture"])
def test_version_1_and_version_2_load_to_the_same_bits(tmp_path, source):
    if source == "fixture":
        params = load_checkpoint(Path(__file__).parent / "fixtures" / "fixture_checkpoint.json")
    else:
        params = small_params(seed=7)
        params.tensors["decoder.key_proj"].flat[: len(_EDGE_FLOATS)] = _EDGE_FLOATS
    v1, v2 = tmp_path / "v1.json", tmp_path / "v2.json"
    v1.write_text(json.dumps(_document(params, version=1)) + "\n")
    save_checkpoint(params, v2)
    assert json.loads(v2.read_text())["version"] == 2
    _assert_same_bits(load_checkpoint(v1), load_checkpoint(v2))
    _assert_same_bits(load_checkpoint(v2), params)


def test_failed_save_leaves_existing_checkpoint_intact(tmp_path):
    path = tmp_path / "ckpt.json"
    save_checkpoint(small_params(seed=1), path)
    before = path.read_bytes()
    broken = small_params(seed=2)
    broken.score_clip = object()  # json cannot encode it
    with pytest.raises(TypeError):
        save_checkpoint(broken, path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt.json"]


_DELETE = object()
_BIAS = "params/encoder.ff_in_bias"  # small_params' [1, 12] bias


@pytest.mark.parametrize(
    "version, key, value, message",
    [
        (2, "version", 3, "version 3"),
        (2, "hyper/num_heads", 3, "divisible"),
        (2, "hyper/score_clip", "10", "hyper.score_clip"),
        (2, "params/decoder.key_proj", _DELETE, "missing parameter 'decoder.key_proj'"),
        (2, "params/decoder.bias", {"shape": [1], "data": _b64([0.0])}, "unexpected parameters"),
        (2, _BIAS + "/shape", [12, 1], "encoder.ff_in_bias.*shape"),
        (1, _BIAS + "/values", [0.0], "params.encoder.ff_in_bias.values"),
        (1, _BIAS + "/values", None, "params.encoder.ff_in_bias.values"),
        (1, _BIAS + "/values", [0.0] * 11 + [math.nan], "ff_in_bias.values' holds non-finite"),
        # a boolean is no JSON number, even among numbers
        (1, _BIAS + "/values", [True] + [0.0] * 11, "params.encoder.ff_in_bias.values"),
        (2, "version", "2", "version '2'"),
        (1, "version", True, "version True"),
        (1, "version", 1.0, "version 1.0"),
        (2, "version", 2.0, "version 2.0"),
        (2, _BIAS + "/data", [0.0] * 12, "ff_in_bias.data' must be a base64 string"),
        (2, _BIAS + "/data", "*" + _b64([0.0] * 12), "ff_in_bias.data' is not valid base64"),
        (2, _BIAS + "/data", _b64([0.0] * 12)[:-1], "ff_in_bias.data' is not valid base64"),
        (2, _BIAS + "/data", _b64([0.0] * 11), "ff_in_bias.data' holds 88 bytes"),
        (2, _BIAS + "/data", _b64([0.0] * 11 + [math.nan]), "ff_in_bias.data' holds non-finite"),
        (2, _BIAS + "/data", _b64([0.0] * 11 + [math.inf]), "ff_in_bias.data' holds non-finite"),
        # a header size is a JSON integer, as in graph files and train configs
        (2, "hyper/embed_dim", 8.0, "hyper.embed_dim' must be an integer, got 8.0"),
        (1, "hyper/ff_dim", True, "hyper.ff_dim' must be an integer, got True"),
        (2, "hyper/score_clip", 10**400, "hyper.score_clip"),
        # so is every entry of a stored shape: true and 12.0 compare equal to 1 and 12
        (2, _BIAS + "/shape", [True, 12], "ff_in_bias.shape' must be an integer, got True"),
        (1, _BIAS + "/shape", [1, 12.0], "ff_in_bias.shape' must be an integer, got 12.0"),
    ],
    ids=[
        "version", "divisible", "header-type", "missing", "extra", "shape", "count", "values",
        "values-nan", "values-boolean", "version-string", "version-true", "version-float",
        "version-float-2", "data-not-string", "data-not-base64", "data-bad-padding",
        "data-byte-count", "data-nan", "data-inf", "header-integral-float", "header-boolean",
        "header-overflow", "shape-boolean", "shape-integral-float",
    ],
)
def test_checkpoint_rejects_each_malformed_field(tmp_path, version, key, value, message):
    path = tmp_path / "ckpt.json"
    doc = _document(small_params(seed=1), version)
    *parents, last = key.split("/")
    target = doc
    for part in parents:
        target = target[part]
    if value is _DELETE:
        del target[last]
    else:
        target[last] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match=message) as info:
        load_checkpoint(path)
    assert str(path) in str(info.value)


def test_checkpoint_score_clip_may_be_a_json_integer(tmp_path):
    path = tmp_path / "ckpt.json"
    doc = _document(small_params(seed=1))
    doc["hyper"]["score_clip"] = 10
    path.write_text(json.dumps(doc))
    loaded = load_checkpoint(path)
    assert type(loaded.score_clip) is float and loaded.score_clip == 10.0


@st.composite
def _checkpoint_docs(draw):
    """Arbitrary JSON, or a valid tiny version 1 or 2 checkpoint with one
    field replaced by it."""
    params = init_params(0, embed_dim=2, num_heads=1, ff_dim=1)
    return draw(fuzzed_docs(_document(params, version=draw(st.sampled_from([1, 2])))))


@settings(max_examples=300, deadline=None)
@given(doc=_checkpoint_docs())
def test_load_checkpoint_fuzz_raises_only_apgf_errors(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("fuzz") / "ckpt.json"
    path.write_text(json.dumps(doc))
    try:
        load_checkpoint(path)
    except ApgfError:
        pass
