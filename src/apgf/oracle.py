"""Exact best attack-path scores: the ground truth the model is judged against.

Each end node's score is the best fold of node weights along a simple
path from the start. Two searches find it, one per aggregator:

- ``product``: max-product Dijkstra. Weights lie in [0, 1], so extending
  a path never raises its score, even in floating point: fl(a*w) <= a,
  and a <= b implies fl(a*w) <= fl(b*w). A walk that repeats a node
  therefore never beats the simple path that cuts the loop out, and the
  first time a node leaves the heap its label is the best score over all
  simple paths, bit for bit the one an exhaustive search finds. Labels
  start at -inf and are replaced only by a strictly greater score; ties
  leave the heap lowest index first. A node's path is read back from
  the predecessor tree, so its ``path_score`` is its score exactly.
  The search is O(edges log nodes) and takes any graph size. See Mohri,
  "Semiring frameworks and algorithms for shortest-distance problems"
  (2002), for Dijkstra over such semirings.
- ``sum``: the best path is a longest simple path, which is NP-hard, and
  Dijkstra is wrong for it. One DFS from the start, on an explicit
  stack, enumerates every simple path once; each is a candidate for the node it ends at,
  which keeps the best-scoring one (the first found on ties). The search
  is factorial in the node count, so a node cap refuses large graphs.
  Memoization is deliberately absent: the best simple path does not
  decompose over subpaths once the visited set matters.

``explored_paths`` counts the paths a search offered a node. For the
DFS that is every simple path ending there. For Dijkstra it is 1 for the
start, plus one per neighbour that settled while the node had not, so a
connected graph's total is 1 + its edge count.
"""

from __future__ import annotations

import heapq
import io
import math
import time
from dataclasses import dataclass

from .errors import CapExceededError, ValidationError
from .graphgen import WeightedGraph
from .rollout import RolloutResult, ScoreConfig

DEFAULT_NODE_CAP = 20


@dataclass
class EndNodeBest:
    score: float
    path: list[int]  # start ... end, simple
    explored_paths: int


@dataclass
class OracleResult:
    per_node: dict[int, EndNodeBest]
    explored_path_count: int
    wall_clock: float


@dataclass
class ComparisonRow:
    node: int
    oracle_score: float
    model_score: float
    ratio: float


@dataclass
class ComparisonReport:
    rows: list[ComparisonRow]
    mean_ratio: float
    max_abs_gap: float

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write("node,oracle_score,model_score,ratio\n")
        for r in self.rows:
            out.write(f"{r.node},{r.oracle_score!r},{r.model_score!r},{r.ratio!r}\n")
        return out.getvalue()


def check_node_cap(node_cap: int) -> None:
    """Reject a cap below 1, which admits no graph at all."""
    if node_cap < 1:
        raise ValidationError(f"node_cap (CLI: --cap) must be at least 1, got {node_cap}")


def exceeds_cap(graph: WeightedGraph, score_config: ScoreConfig, node_cap: int) -> bool:
    """Whether the factorial search refuses ``graph``; ``product`` has no cap."""
    return score_config.aggregator != "product" and graph.num_nodes > node_cap


def brute_force_scores(
    graph: WeightedGraph,
    score_config: ScoreConfig = ScoreConfig(),
    node_cap: int = DEFAULT_NODE_CAP,
) -> OracleResult:
    """Best attack-path score (and one achieving path) per end node.

    For ``sum``, refuses graphs above ``node_cap``; pass a higher cap
    explicitly to accept the factorial runtime. ``check_node_cap``
    rejects a cap below 1 for either aggregator.
    """
    check_node_cap(node_cap)
    if exceeds_cap(graph, score_config, node_cap):
        raise CapExceededError(
            f"{graph.num_nodes} nodes exceeds the brute-force cap of {node_cap}; "
            f"the {score_config.aggregator} search is factorial in the node count. "
            "Pass an explicit higher node_cap (CLI: --cap) to run anyway."
        )
    started = time.perf_counter()
    if score_config.aggregator == "product":
        best_score, best_path, explored = _max_product(graph)
    else:
        best_score, best_path, explored = _every_simple_path(graph, score_config.fold)
    wall = time.perf_counter() - started
    per_node = {
        e: EndNodeBest(score=best_score[e], path=best_path[e], explored_paths=explored[e])
        for e in range(graph.num_nodes)
    }
    return OracleResult(per_node=per_node, explored_path_count=sum(explored), wall_clock=wall)


def _max_product(graph: WeightedGraph) -> tuple[list[float], list[list[int]], list[int]]:
    n = graph.num_nodes
    weights = graph.node_weights.tolist()
    start = graph.start_index
    neighbors = graph.neighbors
    best_score = [-math.inf] * n
    parent = [-1] * n
    explored = [0] * n
    settled = [False] * n
    best_score[start] = weights[start]
    explored[start] = 1
    heap = [(-best_score[start], start)]
    # Nodes leave the heap in non-increasing score order and extending is
    # monotone, so a node's first offer is its best: no label improves once
    # set, and each node enters the heap once.
    while heap:
        _, node = heapq.heappop(heap)
        settled[node] = True
        score = best_score[node]
        for nb in neighbors[node]:
            if settled[nb]:
                continue
            explored[nb] += 1
            offered = score * weights[nb]
            if offered > best_score[nb]:
                best_score[nb] = offered
                parent[nb] = node
                heapq.heappush(heap, (-offered, nb))
    best_path = []
    for end in range(n):
        path = [end]
        while parent[path[-1]] >= 0:
            path.append(parent[path[-1]])
        best_path.append(path[::-1])
    return best_score, best_path, explored


def _every_simple_path(
    graph: WeightedGraph, fold
) -> tuple[list[float], list[list[int]], list[int]]:
    n = graph.num_nodes
    weights = graph.node_weights.tolist()
    start = graph.start_index
    neighbors = graph.neighbors
    best_score = [-math.inf] * n
    best_path: list[list[int]] = [[] for _ in range(n)]
    explored = [0] * n
    explored[start] = 1
    best_score[start], best_path[start] = weights[start], [start]
    path = [start]
    on_path = [False] * n
    on_path[start] = True
    # the recursive search's order on an explicit stack, so a path may be
    # longer than Python's recursion limit: ``score`` and ``untried`` belong
    # to the path's last node, ``stack`` holds them for the nodes before it
    score, untried, stack = weights[start], iter(neighbors[start]), []
    while True:
        for nb in untried:
            if not on_path[nb]:
                break
        else:  # every neighbour tried: back up one node
            on_path[path.pop()] = False
            if not stack:
                return best_score, best_path, explored
            score, untried = stack.pop()
            continue
        stack.append((score, untried))
        score, untried = fold(score, weights[nb]), iter(neighbors[nb])
        path.append(nb)
        on_path[nb] = True
        explored[nb] += 1
        if score > best_score[nb]:
            best_score[nb] = score
            best_path[nb] = list(path)


def compare(oracle: OracleResult, rollout: RolloutResult) -> ComparisonReport:
    """Per-node model/oracle score pairs with ratios (0/0 counts as 1)."""
    oracle_nodes = set(oracle.per_node)
    model_nodes = set(rollout.per_node_score)
    if oracle_nodes != model_nodes:
        raise ValidationError(
            f"node sets differ: oracle-only {sorted(oracle_nodes - model_nodes)}, "
            f"model-only {sorted(model_nodes - oracle_nodes)}"
        )
    rows = []
    for node in sorted(oracle_nodes):
        o = float(oracle.per_node[node].score)
        m = float(rollout.per_node_score[node])
        if o == 0.0:
            if m == 0.0:
                ratio = 1.0
            else:
                raise ValidationError(
                    f"node {node}: oracle score 0 but model score {m!r} (dominance violated)"
                )
        else:
            ratio = m / o
        rows.append(ComparisonRow(node=node, oracle_score=o, model_score=m, ratio=ratio))
    mean_ratio = sum(r.ratio for r in rows) / len(rows)
    max_abs_gap = max(abs(r.oracle_score - r.model_score) for r in rows)
    return ComparisonReport(rows=rows, mean_ratio=mean_ratio, max_abs_gap=max_abs_gap)
