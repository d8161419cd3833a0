"""Exhaustive simple-path search: the ground truth the model is judged against.

One recursive DFS from the start enumerates every simple path once; each
path is a candidate for the node it ends at, which keeps the best-scoring
one (the first found on ties) and counts it. Complexity is factorial in
the node count, which is exactly why the learned model exists; a hard cap
keeps accidental large runs from burning hours.
Memoization is deliberately absent: the best simple path does not
decompose over subpaths once the visited set matters.
"""

from __future__ import annotations

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


def brute_force_scores(
    graph: WeightedGraph,
    score_config: ScoreConfig = ScoreConfig(),
    node_cap: int = DEFAULT_NODE_CAP,
) -> OracleResult:
    """Best attack-path score (and one achieving path) per end node.

    Refuses graphs above ``node_cap``; pass a higher cap explicitly to
    accept the factorial runtime; ``check_node_cap`` rejects a cap below 1.
    """
    check_node_cap(node_cap)
    if graph.num_nodes > node_cap:
        raise CapExceededError(
            f"{graph.num_nodes} nodes exceeds the brute-force cap of {node_cap}; "
            "the search is factorial in the node count. Pass an explicit higher "
            "node_cap (CLI: --cap) to run anyway."
        )
    started = time.perf_counter()
    n = graph.num_nodes
    weights = graph.node_weights.tolist()
    start = graph.start_index
    neighbors = graph.neighbors
    fold = score_config.fold  # looked up once, not once per explored path
    best_score = [-math.inf] * n
    best_path: list[list[int]] = [[] for _ in range(n)]
    explored = [0] * n
    path = [start]
    on_path = [False] * n
    on_path[start] = True

    def extend(node: int, score: float) -> None:
        explored[node] += 1
        if score > best_score[node]:
            best_score[node] = score
            best_path[node] = list(path)
        for nb in neighbors[node]:
            if on_path[nb]:
                continue
            path.append(nb)
            on_path[nb] = True
            extend(nb, fold(score, weights[nb]))
            path.pop()
            on_path[nb] = False

    extend(start, weights[start])
    wall = time.perf_counter() - started
    per_node = {
        e: EndNodeBest(score=best_score[e], path=best_path[e], explored_paths=explored[e])
        for e in range(n)
    }
    return OracleResult(per_node=per_node, explored_path_count=sum(explored), wall_clock=wall)


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
