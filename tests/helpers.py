"""Independent oracles and fixture builders shared by the tests.

The checkers here deliberately avoid the library's own computation
paths: finite differences instead of the tape, permutation enumeration
instead of the DFS search, inline weight aggregation instead of
path_score. They are the ground truth the implementation is judged
against, so keep them dumb. ``json_values`` and ``fuzzed_docs`` are the
Hypothesis strategies the input-file fuzz tests draw from.
"""

from __future__ import annotations

import copy
import functools
import math
import operator
from typing import Sequence

import numpy as np
from hypothesis import strategies as st

from apgf.errors import NumericError, ValidationError
from apgf.graphgen import WeightedGraph
from apgf.model import LEAKY_SLOPE, NUM_LAYERS, ModelParams, edge_scores, encode
from apgf.numcore import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, ForwardTape, Tape
from apgf.rollout import RolloutResult, move_log_probs


class CheckedTape(Tape):
    """A tape that asserts, op by op, what the tape itself does not check:
    every output is a float64 array, since nothing coerces dtypes, and a
    new object, since ``backward`` keys adjoints by identity."""

    def _record(self, out, inputs, rule) -> None:
        assert isinstance(out, np.ndarray) and out.dtype == np.float64, type(out)
        assert not any(out is x for x in inputs), "an op returned one of its inputs"
        super()._record(out, inputs, rule)


def central_difference(f, arr: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite-difference gradient of scalar f() w.r.t. arr, in place."""
    grad = np.zeros_like(arr)
    flat = arr.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        f_plus = f()
        flat[i] = orig - h
        f_minus = f()
        flat[i] = orig
        gflat[i] = (f_plus - f_minus) / (2.0 * h)
    return grad


def max_relative_error(a: np.ndarray, b: np.ndarray, floor: float = 1.0) -> float:
    denom = np.maximum(floor, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / denom))


class ReferenceAdam:
    """Bias-corrected Adam one named array at a time, each parameter with
    its own pair of moment arrays: the per-name loop the flat
    ``adam_step`` must match bit for bit."""

    def __init__(self, learning_rate: float = 1e-3):
        self.learning_rate = learning_rate
        self.step = 0
        self.first_moment: dict[str, np.ndarray] = {}
        self.second_moment: dict[str, np.ndarray] = {}

    def update(self, params: dict[str, np.ndarray], grads) -> None:
        """Replace every ``params[name]`` by its updated array."""
        self.step += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        for name, p in params.items():
            g = np.asarray(grads[name], dtype=np.float64)
            m = self.first_moment.get(name, np.zeros_like(p))
            v = self.second_moment.get(name, np.zeros_like(p))
            m = b1 * m + (1.0 - b1) * g
            v = b2 * v + (1.0 - b2) * g * g
            self.first_moment[name], self.second_moment[name] = m, v
            m_hat = m / (1.0 - b1**self.step)
            v_hat = v / (1.0 - b2**self.step)
            params[name] = p - self.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def simple_paths(graph: WeightedGraph, end: int):
    """Every simple start->end path, by permutation enumeration.

    Orderings of intermediate nodes grow one node at a time, and one is
    dropped as soon as its last step is not an edge, since no longer
    ordering with that prefix is a path either. What is left is exactly
    what filtering every ordering of every subset would keep (checked
    against that filter in test_oracle.py). The cost grows with the
    number of simple paths; fine for the sparse graphs up to n = 14 that
    the tests use.
    """
    start = graph.start_index
    if end == start:
        yield (start,)
        return
    neighbors = graph.neighbors
    others = [v for v in range(graph.num_nodes) if v != start and v != end]

    def grow(prefix):
        if end in neighbors[prefix[-1]]:
            yield (*prefix, end)
        for v in others:
            if v not in prefix and v in neighbors[prefix[-1]]:
                yield from grow((*prefix, v))

    yield from grow((start,))


def permutation_best_score(graph: WeightedGraph, end: int, aggregator: str) -> float:
    """Max attack-path score start->end over ``simple_paths``.

    Scores fold left to right, one weight at a time, as a path is walked
    (Python >= 3.12's compensated ``sum()`` would round differently).
    """
    weights = graph.node_weights
    step = operator.mul if aggregator == "product" else operator.add

    def aggregate(path):
        return functools.reduce(step, (float(weights[v]) for v in path))

    return max(aggregate(path) for path in simple_paths(graph, end))


def reference_step_log_probs(emb, query_proj, key_proj, score_clip, branch_trace, temperature=1.0):
    """Log probability of every move of a trajectory, one decision at a time.

    Per trace row: q = e_cur Q^T, k = e_cand K^T for the candidates only,
    scores clip * tanh(q . k / sqrt(d)), a softmax over the candidates at
    the temperature, and the log of the chosen entry. Plain numpy on the
    embedding values; none of the tape's ops.
    """
    d = emb.shape[1]
    out = []
    for row in branch_trace:
        cands = list(row.neighbors)
        q = emb[row.selected] @ query_proj.T
        k = emb[cands] @ key_proj.T
        logits = score_clip * np.tanh(k @ q / math.sqrt(d)) / temperature
        z = np.exp(logits - logits.max())
        out.append(math.log(z[cands.index(row.next)] / z.sum()))
    return out


def identity_model(score_clip: float = 10.0):
    """One-dimensional model whose embeddings equal the raw node weights.

    All encoder parameters are zero except a unit input lift, and both
    decoder projections are the 1x1 identity, so the decoder score for
    moving from i to j is clip * tanh(w_i * w_j): a heavier candidate
    always scores higher. Handy for rigging deterministic choices.
    """
    params = ModelParams(embed_dim=1, num_heads=1, ff_dim=1, score_clip=score_clip)  # all zeros
    for name in ("encoder.input_lift", "decoder.query_proj", "decoder.key_proj"):
        params.tensors[name][...] = 1.0
    return params


def build_graph(num_nodes, edges, weights, start=0) -> WeightedGraph:
    return WeightedGraph(
        num_nodes=num_nodes,
        edges=tuple(tuple(e) for e in edges),
        node_weights=np.asarray(weights, dtype=np.float64),
        start_index=start,
    )


def reference_random_graph(num_nodes, num_edges, seed, tree_mode="random_attach") -> WeightedGraph:
    """``generate_random_graph``'s draw the O(n²) way: list every missing
    pair in lexicographic order, then pick the extra edges from the list.
    The same RNG calls in the same order, so the same graph."""
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.0, 1.0, size=num_nodes)
    edge_set = set()
    if tree_mode == "star" and num_nodes > 1:
        hub = int(rng.integers(num_nodes))
        edge_set.update((min(hub, i), max(hub, i)) for i in range(num_nodes) if i != hub)
    else:
        edge_set.update((int(rng.integers(i)), i) for i in range(1, num_nodes))
    extra = num_edges - len(edge_set)
    if extra > 0:
        non_edges = [
            (u, v)
            for u in range(num_nodes)
            for v in range(u + 1, num_nodes)
            if (u, v) not in edge_set
        ]
        for k in rng.choice(len(non_edges), size=extra, replace=False):
            edge_set.add(non_edges[int(k)])
    start = int(rng.integers(num_nodes))
    return build_graph(num_nodes, sorted(edge_set), weights, start=start)


def fig10_graph(weights=None, start=0) -> WeightedGraph:
    """The six-node example tree: a-b, a-c, c-d, c-e, d-f as 0..5."""
    if weights is None:
        weights = [0.9, 0.8, 0.7, 0.6, 0.5, 0.4]
    return build_graph(6, [(0, 1), (0, 2), (2, 3), (2, 4), (3, 5)], weights, start=start)


def path_graph(weights, start=0) -> WeightedGraph:
    n = len(weights)
    return build_graph(n, [(i, i + 1) for i in range(n - 1)], weights, start=start)


def star_graph(weights, center=0) -> WeightedGraph:
    n = len(weights)
    edges = [(center, i) for i in range(n) if i != center]
    return build_graph(n, edges, weights, start=center)


def two_leaf_star_walk(weights, first: int) -> RolloutResult:
    """The rollout from the center 0 of a star with leaves 1 and 2 and
    node ``weights`` that visits leaf ``first`` first, written out move
    by move with product path scores."""
    other = 3 - first
    center = float(weights[0])
    per_node = {0: center, first: center * weights[first], other: center * weights[other]}
    return RolloutResult(
        visit_order=[0, first, other],
        per_node_score=per_node,
        reward=sum(per_node.values()),
        selected=[0, 0],
        candidates=[(1, 2), (other,)],
    )


def reference_dfs(graph: WeightedGraph, start: int, choices, aggregator: str):
    """Replay a DFS from ``start`` that moves to ``choices`` in turn,
    keeping the visited set and branch stack eagerly after every move.

    Returns the rows ``(selected, neighbors, next, visited, stack)`` and
    the per-node path scores, folded inline one weight at a time. Each
    choice must be a candidate of the move it is made at.
    """
    step = operator.mul if aggregator == "product" else operator.add
    weights = graph.node_weights
    visited = [start]
    stack = []
    current = start
    scores = {start: float(weights[start])}
    rows = []
    for nxt in choices:
        while not [j for j in graph.neighbors[current] if j not in visited]:
            current = stack.pop()
        neighbors = tuple(j for j in graph.neighbors[current] if j not in visited)
        assert nxt in neighbors
        if len(neighbors) >= 2:
            stack.append(current)
        visited.append(nxt)
        scores[nxt] = step(scores[current], float(weights[nxt]))
        rows.append((current, neighbors, nxt, tuple(visited), tuple(stack)))
        current = nxt
    return rows, scores


def recorded_log_probs(graph: WeightedGraph, params, walk: RolloutResult, temperature=1.0):
    """The library's ``move_log_probs`` of a recorded walk of ``graph``
    under ``params`` at ``temperature``, untaped: an array, or None when it
    made no move. The edge scores are scaled by 1 / temperature first, as
    training scales them."""
    tape = ForwardTape()
    scores = edge_scores(encode([graph], params, tape), [graph], params, tape)
    return move_log_probs(tape.mul_scalar(scores, 1.0 / temperature), [graph], [walk], tape)


def masked_softmax(tape: Tape, a: np.ndarray, mask) -> np.ndarray:
    """Softmax along the last axis with hard-masked entries, recorded on
    ``tape`` as one op (``dense_encode``'s normalization; the library's
    one taped softmax is ``Tape.segment_softmax``).

    Masked entries get exactly zero probability; every row must keep at
    least one unmasked entry. Numerically stabilized by subtracting the
    row max before exponentiation.
    """
    m = np.asarray(mask, dtype=bool)
    if m.shape != a.shape:
        raise ValidationError(f"mask shape {m.shape} does not match values shape {a.shape}")
    if not m.any(axis=-1).all():
        raise ValidationError("masked_softmax: at least one fully-masked row")
    x = np.where(m, a, -np.inf)
    e = np.exp(x - x.max(axis=-1, keepdims=True))  # exp(-inf) == 0 exactly
    p = e / e.sum(axis=-1, keepdims=True)
    if not np.all(np.isfinite(p)):
        raise NumericError("masked_softmax produced non-finite values")

    def rule(g):
        inner = (g * p).sum(axis=-1, keepdims=True)
        return (p * (g - inner),)

    tape._record(p, (a,), rule)
    return p


def dense_encode(
    graphs: Sequence[WeightedGraph], params: ModelParams, tape: Tape | None = None
) -> np.ndarray:
    """The encoder as it was before the edge-list form, kept as a
    reference: dense ``[n, n]`` attention, one graph and one head at a
    time, on 2-d ops only.

    Embed every node of the graphs: one ``[N, embed_dim]`` array, the
    graphs' node rows in batch order; a single graph is a batch of one.

    Per attention layer and head: score each neighborhood edge (self-loop
    included) with a LeakyReLU of the learned attention form, normalize
    with a masked softmax over the neighborhood, aggregate the projected
    features, concatenate heads, and add the residual. One feedforward
    layer with its own residual follows the second attention layer.
    """
    if not graphs:
        raise ValidationError("encode needs at least one graph")
    tape = tape if tape is not None else ForwardTape()
    return tape.concat([_dense_encode_one(g, params, tape) for g in graphs], axis=0)


def _dense_encode_one(graph: WeightedGraph, params: ModelParams, tape: Tape) -> np.ndarray:
    p = params.tensors
    n = graph.num_nodes
    mask = np.eye(n, dtype=bool)
    for u, v in graph.edges:
        mask[u, v] = mask[v, u] = True

    h = tape.matmul(graph.node_weights.reshape(n, 1), p["encoder.input_lift"])  # [n, embed_dim]

    for li in range(NUM_LAYERS):
        head_outputs = []
        for hi in range(params.num_heads):
            weight = p[f"encoder.layer{li}.head{hi}.weight"]
            attn = p[f"encoder.layer{li}.head{hi}.attn"]
            head_dim = weight.shape[1]
            projected = tape.matmul(h, weight)  # [n, head_dim]
            attn_src = tape.gather_rows(attn, range(head_dim))
            attn_dst = tape.gather_rows(attn, range(head_dim, 2 * head_dim))
            score_src = tape.matmul(projected, attn_src)  # [n, 1]
            score_dst = tape.matmul(projected, attn_dst)  # [n, 1]
            # pairwise scores: row i, column j = src score of i + dst score of j
            pair = tape.add(score_src, tape.transpose(score_dst))
            pair = tape.leaky_relu(pair, LEAKY_SLOPE)
            coeff = masked_softmax(tape, pair, mask)
            head_outputs.append(tape.matmul(coeff, projected))
        h = tape.add(h, tape.concat(head_outputs, axis=1))

    inner = tape.leaky_relu(
        tape.add(tape.matmul(h, p["encoder.ff_in_weight"]), p["encoder.ff_in_bias"]), LEAKY_SLOPE
    )
    ff = tape.add(tape.matmul(inner, p["encoder.ff_out_weight"]), p["encoder.ff_out_bias"])
    return tape.add(h, ff)


def dense_score_matrix(emb: np.ndarray, params: ModelParams, tape: Tape | None = None) -> np.ndarray:
    """The decoder as it was before the edge-list form, kept as a
    reference: the scores of every pair of one graph's nodes, edge or not.

    ``emb`` is one graph's ``[num_nodes, embed_dim]`` embeddings; the
    result is ``[num_nodes, num_nodes]``, row i, column j scoring the
    move from node i to node j, every entry in [-clip, +clip].
    """
    tape = tape if tape is not None else ForwardTape()
    p = params.tensors
    query = tape.matmul(emb, tape.transpose(p["decoder.query_proj"]))  # [n, embed_dim]
    keys = tape.matmul(emb, tape.transpose(p["decoder.key_proj"]))  # [n, embed_dim]
    raw = tape.matmul(query, tape.transpose(keys))  # [n, n]
    scaled = tape.mul_scalar(raw, 1.0 / math.sqrt(params.embed_dim))
    return tape.mul_scalar(tape.tanh(scaled), params.score_clip)


def node_rows(graphs: Sequence[WeightedGraph]) -> list[range]:
    """Each graph's rows of its batch's ``[N, ...]`` node arrays."""
    ends = np.cumsum([g.num_nodes for g in graphs]).tolist()
    return [range(end - g.num_nodes, end) for g, end in zip(graphs, ends)]


def at_edges(graph: WeightedGraph, matrix: np.ndarray) -> np.ndarray:
    """The entries of an ``[n, n]`` matrix at the graph's directed edges, in
    the order of ``edge_scores``: a dense score matrix in edge form. Read
    by plain indexing along the graph's neighbour tuples."""
    return np.array(
        [matrix[i, j] for i in range(graph.num_nodes) for j in graph.neighbors[i]],
        dtype=np.float64,
    )


# Any JSON value: scalars (NaN and the infinities included, which Python's
# json reads and writes), and lists and objects of them.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


def _containers(value):
    """Every list and object in a JSON value, ``value`` first if it is one."""
    if isinstance(value, (list, dict)):
        yield value
        for child in value.values() if isinstance(value, dict) else value:
            yield from _containers(child)


@st.composite
def fuzzed_docs(draw, doc):
    """Any JSON value, or a copy of the JSON value ``doc`` with one entry
    of one of its lists or objects, at any depth, replaced by any JSON
    value."""
    if draw(st.booleans()):
        return draw(json_values)
    doc = copy.deepcopy(doc)
    holder = draw(st.sampled_from([c for c in _containers(doc) if c]))
    keys = sorted(holder) if isinstance(holder, dict) else range(len(holder))
    holder[draw(st.sampled_from(keys))] = draw(json_values)
    return doc
