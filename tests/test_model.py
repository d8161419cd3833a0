import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apgf.errors import ApgfError, ValidationError
from apgf.graphgen import generate_random_graph
from apgf.model import (
    copy_params,
    encode,
    init_params,
    load_checkpoint,
    save_checkpoint,
    score_matrix,
)
from apgf.numcore import Tape, softmax, tensor
from apgf.rollout import decode_all

from helpers import (
    build_graph,
    central_difference,
    identity_model,
    max_relative_error,
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
    params.tensors["decoder.query_proj"] = tensor(query_proj)
    params.tensors["decoder.key_proj"] = tensor(key_proj)
    return params


def test_single_node_graph():
    g = build_graph(1, [], [0.7])
    params = small_params()
    p = {name: t.values for name, t in params.tensors.items()}
    emb = encode([g], params)
    assert emb.shape == (1, 1, params.embed_dim)
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
    np.testing.assert_allclose(emb.values[0], expected, rtol=1e-12)


def test_zero_weight_matrices_leave_only_lifted_inputs():
    g = generate_random_graph(5, 6, seed=8)
    params = small_params()
    for name, t in params.tensors.items():
        if name != "encoder.input_lift":
            t.values = np.zeros_like(t.values)
    emb = encode([g], params)
    lifted = g.node_weights.reshape(-1, 1) @ params.tensors["encoder.input_lift"].values
    np.testing.assert_array_equal(emb.values[0], lifted)


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
    v = encode([g], params).values[0]
    v_perm = encode([relabeled], params).values[0]
    np.testing.assert_allclose(v_perm[perm], v, atol=1e-10, rtol=0)


def test_batched_scores_equal_single_graph_scores_bit_for_bit():
    graphs = [generate_random_graph(20, 25, seed=300 + s) for s in range(16)]
    params = init_params(17)
    batched = score_matrix(encode(graphs, params), params).values
    assert batched.shape == (16, 20, 20)
    for b, g in enumerate(graphs):
        single = score_matrix(encode([g], params), params).values
        assert single.shape == (1, 20, 20)
        np.testing.assert_array_equal(batched[b], single[0])


def test_encode_rejects_mixed_sizes():
    graphs = [generate_random_graph(6, 7, seed=1), generate_random_graph(9, 10, seed=2)]
    with pytest.raises(ValidationError, match="6 and 9"):
        encode(graphs, small_params())
    with pytest.raises(ValidationError, match="at least one graph"):
        encode([], small_params())


def test_decoder_zero_projections_give_zero_scores():
    emb = tensor(np.random.default_rng(0).normal(size=(1, 4, 3)))
    dec = decoder_params(np.zeros((3, 3)), np.zeros((3, 3)))
    scores = score_matrix(emb, dec)
    assert scores.shape == (1, 4, 4)
    assert not np.any(scores.values)


def test_decoder_one_dimensional_case():
    emb = tensor([[[1.0], [1.0]]])
    dec = decoder_params([[1.0]], [[1.0]])
    scores = score_matrix(emb, dec).values[0]
    assert scores[0, 1] == pytest.approx(10.0 * math.tanh(1.0), rel=1e-12)
    assert scores[0, 1] == pytest.approx(7.615941559, rel=1e-9)
    np.testing.assert_array_equal(scores, np.full((2, 2), scores[0, 1]))


def test_decoder_scores_bounded_by_clip():
    rng = np.random.default_rng(2)
    emb = tensor(rng.normal(size=(1, 6, 4)) * 50)
    dec = decoder_params(rng.normal(size=(4, 4)) * 50, rng.normal(size=(4, 4)) * 50)
    scores = score_matrix(emb, dec).values
    assert np.all(np.abs(scores) <= 10.0)
    assert np.max(np.abs(scores)) > 9.0  # saturated, so the bound is exercised


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


def test_candidate_probs_temperature_must_be_positive():
    graph = star_graph([1.0, 0.3, 0.6], center=0)
    for temperature in (0.0, -1.0):
        with pytest.raises(ValidationError, match="temperature"):
            decode_all(
                graph, identity_model(), 0, temperature=temperature, rng=np.random.default_rng(0)
            )
        with pytest.raises(ValidationError, match="temperature"):
            decode_all(graph, identity_model(), 0, mode="greedy", temperature=temperature)


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
    # the softmax that turns a row of decoder scores into move probabilities
    mask = np.ones(len(scores), dtype=bool)
    p0 = softmax(np.array(scores), mask)
    p1 = softmax(np.array(scores) + shift, mask)
    assert np.argmax(p0) == np.argmax(p1)


def test_checkpoint_round_trip(tmp_path):
    params = small_params(seed=42)
    path = tmp_path / "ckpt.json"
    save_checkpoint(params, path)
    loaded = load_checkpoint(path)
    assert loaded.hyper() == params.hyper()
    for (name_a, a), (name_b, b) in zip(params.tensors.items(), loaded.tensors.items()):
        assert name_a == name_b
        np.testing.assert_array_equal(a.values, b.values)


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
    params.tensors["encoder.input_lift"].values[:] = 99.0
    assert not np.array_equal(
        frozen.tensors["encoder.input_lift"].values, params.tensors["encoder.input_lift"].values
    )
    assert frozen.hyper() == params.hyper()


def test_decoder_gradients_match_finite_differences():
    g = generate_random_graph(6, 7, seed=14)
    params = small_params(seed=15, embed_dim=4, num_heads=2, ff_dim=6)
    # a fixed random weighting keeps every entry's gradient distinct
    weighting = tensor(np.random.default_rng(16).normal(size=(1, 6, 6)))

    def weighted_sum(t):
        return t.sum(t.mul(score_matrix(encode([g], params, t), params, t), weighting))

    def loss_value():
        return weighted_sum(Tape()).item()

    t = Tape()
    grads = t.backward(weighted_sum(t), params.tensors)

    for name, p in params.tensors.items():
        fd = central_difference(loss_value, p.values, h=1e-5)
        analytic = grads[name]
        assert max_relative_error(analytic, fd) <= 1e-4, name


@pytest.mark.parametrize(
    "kwargs, size, digest",
    [
        ({}, 724_676, "1cb3146eedbbf944901c82b8854176091928d1f6907104ed621d708dc8bf1d89"),
        (
            dict(embed_dim=8, num_heads=2, ff_dim=6, score_clip=3.0),
            9_572,
            "d49926adff678c4c8b2085d0f6f41d8ecaf701905bd3979cfc1e2bf0ed33928f",
        ),
    ],
)
def test_checkpoint_bytes_are_pinned(tmp_path, kwargs, size, digest):
    path = tmp_path / "ckpt.json"
    save_checkpoint(init_params(seed=0, **kwargs), path)
    data = path.read_bytes()
    assert len(data) == size
    assert hashlib.sha256(data).hexdigest() == digest


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


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("version", 2, "version"),
        ("hyper/num_heads", 3, "divisible"),
        ("hyper/score_clip", "10", "hyper.score_clip"),
        ("params/decoder.key_proj", _DELETE, "missing parameter 'decoder.key_proj'"),
        ("params/decoder.bias", {"shape": [1], "values": [0.0]}, "unexpected parameters"),
        ("params/encoder.ff_in_bias/shape", [12, 1], "encoder.ff_in_bias.*shape"),
        ("params/encoder.ff_in_bias/values", [0.0], "params.encoder.ff_in_bias.values"),
        ("params/encoder.ff_in_bias/values", None, "params.encoder.ff_in_bias.values"),
    ],
    ids=["version", "divisible", "header-type", "missing", "extra", "shape", "count", "values"],
)
def test_checkpoint_rejects_each_malformed_field(tmp_path, key, value, message):
    path = tmp_path / "ckpt.json"
    save_checkpoint(small_params(seed=1), path)
    doc = json.loads(path.read_text())
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


_json_scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


@st.composite
def _checkpoint_docs(draw):
    """Arbitrary JSON, or a valid tiny checkpoint with one field replaced by it."""
    if draw(st.booleans()):
        return draw(_json_values)
    params = init_params(0, embed_dim=2, num_heads=1, ff_dim=1)
    doc = {
        "version": 1,
        "hyper": params.hyper(),
        "params": {
            name: {"shape": list(t.shape), "values": t.values.reshape(-1).tolist()}
            for name, t in params.tensors.items()
        },
    }
    holders = [doc, doc["hyper"], doc["params"]] + list(doc["params"].values())
    holder = draw(st.sampled_from(holders))
    holder[draw(st.sampled_from(sorted(holder)))] = draw(_json_values)
    return doc


@settings(max_examples=300, deadline=None)
@given(doc=_checkpoint_docs())
def test_load_checkpoint_fuzz_raises_only_apgf_errors(tmp_path_factory, doc):
    path = tmp_path_factory.mktemp("fuzz") / "ckpt.json"
    path.write_text(json.dumps(doc))
    try:
        load_checkpoint(path)
    except ApgfError:
        pass
