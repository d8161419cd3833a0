"""Stack-based DFS traversal driven by the decoder.

A rollout starts at the start node and visits every node exactly once.
At each step the unvisited neighbors of the current node are the
candidates; a node with two or more of them is remembered as a branch
point on a stack before moving on. When the current node has no
candidates left, the most recent branch point that still has unvisited
neighbors is popped and the walk resumes from it (branch points with
nothing left are discarded). Backtracking makes no policy decision, so
it contributes neither reward nor log-probability terms.

Each move is one ``TraceRow`` of the rollout's ``branch_trace``; its
``selected`` node is the DFS-tree parent of its ``next``. Each visited
node v is scored by folding the node weights along its DFS-tree path
from the start with the aggregator's step, left to right; the rollout
reward sums those per-node scores. The oracle and ``path_score`` fold
with the same step, so all three agree bit for bit.

A rollout is plain, untaped data. ``walk`` runs the traversal on plain
rows of a graph's decoder scores, reading only the current node's
candidate entries at each move; ``decode_all`` encodes one graph, scores
it and walks it without recording anything. ``move_log_probs`` is the
one differentiable route from recorded walks back to the scores: it
turns the moves of any number of walks into one expression on a tape.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Sequence

import numpy as np

from .errors import ValidationError
from .graphgen import WeightedGraph
from .model import ModelParams, encode, score_matrix
from .numcore import Tape, Tensor, softmax

_FOLDS = {"product": operator.mul, "sum": operator.add}
AGGREGATORS = tuple(_FOLDS)


@dataclass(frozen=True)
class ScoreConfig:
    aggregator: str = "product"

    def __post_init__(self):
        if self.aggregator not in AGGREGATORS:
            raise ValidationError(f"aggregator must be one of {AGGREGATORS}, got {self.aggregator!r}")

    @property
    def fold(self) -> Callable[[float, float], float]:
        """The step that extends a path's score by the next node's weight."""
        return _FOLDS[self.aggregator]


@dataclass(frozen=True)
class TraceRow:
    """One selection step: the state right after the move."""

    selected: int  # node the choice was made from
    neighbors: tuple[int, ...]  # unvisited neighbors it chose among
    next: int
    visited: tuple[int, ...]  # in visit order, including `next`
    stack: tuple[int, ...]  # branch points, oldest first


@dataclass
class RolloutResult:
    visit_order: list[int]
    per_node_score: dict[int, float]
    reward: float
    branch_trace: list[TraceRow]


def path_score(weights_along_path: Sequence[float], aggregator: str = "product") -> float:
    """Aggregate the node weights of one path into its score, left to right."""
    if len(weights_along_path) == 0:
        raise ValidationError("path_score needs a nonempty path")
    return reduce(ScoreConfig(aggregator).fold, map(float, weights_along_path))


def decode_all(
    graph: WeightedGraph,
    params: ModelParams,
    start: int,
    mode: str = "sample",
    temperature: float = 1.0,
    rng: np.random.Generator | None = None,
    score_config: ScoreConfig = ScoreConfig(),
) -> RolloutResult:
    """Run one full traversal of ``graph`` under ``params`` and score it.

    Encodes the graph, computes its decoder score matrix once and
    ``walk``s its rows, all untaped, so nothing is recorded in either
    mode. To differentiate the result, pass it to ``move_log_probs``
    with taped scores.
    """
    scores = score_matrix(encode([graph], params), params)
    return walk(graph, scores.values[0], start, mode, temperature, rng, score_config)


def walk(
    graph: WeightedGraph,
    scores: np.ndarray,
    start: int,
    mode: str = "sample",
    temperature: float = 1.0,
    rng: np.random.Generator | None = None,
    score_config: ScoreConfig = ScoreConfig(),
) -> RolloutResult:
    """The DFS traversal over the graph's ``[n, n]`` decoder scores.

    Every move is one row of the result's ``branch_trace``, which is all
    ``move_log_probs`` needs to differentiate it. A move reads only its
    candidates' scores: ``mode="greedy"`` takes the highest (the lowest
    index on ties); ``mode="sample"`` draws one uniform from ``rng`` and
    takes the first candidate whose running softmax probability at
    ``temperature`` exceeds it.
    """
    n = graph.num_nodes
    if not (0 <= start < n):
        raise ValidationError(f"start {start} out of range for {n} nodes")
    if mode not in ("sample", "greedy"):
        raise ValidationError(f"mode must be 'sample' or 'greedy', got {mode!r}")
    if mode == "sample" and rng is None:
        raise ValidationError("sample mode needs an rng")
    _check_temperature(temperature)

    weights = graph.node_weights.tolist()
    fold = score_config.fold
    inv_temperature = 1.0 / temperature
    current = start
    visit_order = [start]
    visited = {start}
    stack: list[int] = []
    node_scores = {start: weights[start]}
    trace: list[TraceRow] = []

    while len(visit_order) < n:
        # neighbors are sorted, so the candidates are in ascending order
        candidates = [j for j in graph.neighbors[current] if j not in visited]
        if not candidates:
            while stack:
                node = stack.pop()
                if any(j not in visited for j in graph.neighbors[node]):
                    current = node
                    break
            else:
                raise ValidationError(
                    f"rollout stuck at node {current} with {n - len(visit_order)} nodes "
                    "unvisited; graph violates the connectivity invariant"
                )
            continue

        if len(candidates) >= 2:
            stack.append(current)

        if mode == "greedy":
            # argmax keeps the first maximum, so the lowest index wins ties
            nxt = candidates[int(scores[current][candidates].argmax())]
        else:
            probs = softmax(scores[current][candidates] * inv_temperature).tolist()
            draw = float(rng.random())
            nxt = candidates[-1]  # guard against accumulated rounding
            acc = 0.0
            for node, p in zip(candidates, probs):
                acc += p
                if draw < acc:
                    nxt = node
                    break

        visited.add(nxt)
        visit_order.append(nxt)
        node_scores[nxt] = fold(node_scores[current], weights[nxt])
        trace.append(
            TraceRow(
                selected=current,
                neighbors=tuple(candidates),
                next=nxt,
                visited=tuple(visit_order),
                stack=tuple(stack),
            )
        )
        current = nxt

    return RolloutResult(
        visit_order=visit_order,
        per_node_score=node_scores,
        reward=float(sum(node_scores.values())),
        branch_trace=trace,
    )


def _check_temperature(temperature: float) -> None:
    if not temperature > 0:
        raise ValidationError(f"temperature must be positive, got {temperature}")


def move_log_probs(
    scores: Tensor, walks: Sequence[RolloutResult], temperature: float, tape: Tape
) -> Tensor | None:
    """log p(next | selected) of every move of every walk, as one tensor.

    ``walks[b]`` walked ``scores[b]`` of the ``[B, n, n]`` scores; the
    result holds its moves in trace order, after those of the walks
    before it (None when no walk made a move). All moves share one
    expression: the masked softmax of the gathered score rows, read at
    the chosen columns of the flattened ``[moves, n]`` probabilities.
    """
    _check_temperature(temperature)
    batch, n, _ = scores.shape
    if len(walks) != batch:
        raise ValidationError(f"{len(walks)} walks but {batch} score matrices")
    moves = [(b * n, row) for b, w in enumerate(walks) for row in w.branch_trace]
    if not moves:
        return None
    mask = np.zeros((len(moves), n), dtype=bool)
    for i, (_, row) in enumerate(moves):
        mask[i, list(row.neighbors)] = True
    flat_scores = tape.reshape(scores, (batch * n, n))
    rows = tape.gather_rows(flat_scores, [offset + row.selected for offset, row in moves])
    probs = tape.masked_softmax(tape.mul_scalar(rows, 1.0 / temperature), mask)
    flat = tape.reshape(probs, (len(moves) * n, 1))
    picked = tape.gather_rows(flat, [i * n + row.next for i, (_, row) in enumerate(moves)])
    return tape.log(tape.reshape(picked, (len(moves),)))
