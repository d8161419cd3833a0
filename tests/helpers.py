"""Independent oracles and fixture builders shared by the tests.

The checkers here deliberately avoid the library's own computation
paths: finite differences instead of the tape, permutation enumeration
instead of the DFS search, inline weight aggregation instead of
path_score. They are the ground truth the implementation is judged
against, so keep them dumb.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator

import numpy as np

from apgf.graphgen import WeightedGraph
from apgf.model import encode, score_matrix
from apgf.numcore import ForwardTape
from apgf.rollout import RolloutResult, TraceRow, move_log_probs


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


def simple_paths(graph: WeightedGraph, end: int):
    """Every simple start->end path, by brute permutation enumeration.

    Every ordering of every subset of intermediate nodes is generated and
    filtered for path validity. Exponential, fine for n <= 8.
    """
    start = graph.start_index
    if end == start:
        yield (start,)
        return
    adjacency = graph.adjacency
    others = [v for v in range(graph.num_nodes) if v != start and v != end]
    for k in range(len(others) + 1):
        for middle in itertools.permutations(others, k):
            path = (start, *middle, end)
            if all(adjacency[path[i], path[i + 1]] for i in range(len(path) - 1)):
                yield path


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
    from apgf.model import init_params

    params = init_params(0, embed_dim=1, num_heads=1, ff_dim=1, score_clip=score_clip)
    for name, t in params.tensors.items():
        t.values = np.zeros_like(t.values)
    for name in ("encoder.input_lift", "decoder.query_proj", "decoder.key_proj"):
        params.tensors[name].values = np.array([[1.0]])
    return params


def build_graph(num_nodes, edges, weights, start=0) -> WeightedGraph:
    return WeightedGraph(
        num_nodes=num_nodes,
        edges=tuple(tuple(e) for e in edges),
        node_weights=np.asarray(weights, dtype=np.float64),
        start_index=start,
    )


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
        branch_trace=[
            TraceRow(selected=0, neighbors=(1, 2), next=first, visited=(0, first), stack=(0,)),
            TraceRow(
                selected=0, neighbors=(other,), next=other, visited=(0, first, other), stack=()
            ),
        ],
    )


def recorded_log_probs(graph: WeightedGraph, params, walk: RolloutResult, temperature=1.0):
    """The library's ``move_log_probs`` of a recorded walk of ``graph``
    under ``params``, untaped: an array, or None when it made no move."""
    tape = ForwardTape()
    scores = score_matrix(encode([graph], params, tape), params, tape)
    log_probs = move_log_probs(scores, [walk], temperature, tape)
    return None if log_probs is None else log_probs.values
