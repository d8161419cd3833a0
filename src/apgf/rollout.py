"""Stack-based DFS traversal driven by the decoder.

A rollout starts at the start node and visits every node exactly once.
At each step the unvisited neighbors of the current node are the
candidates; a node with two or more of them is remembered as a branch
point on a stack before moving on. When the current node has no
candidates left, the most recent branch point that still has unvisited
neighbors is popped and the walk resumes from it (branch points with
nothing left are discarded). Backtracking makes no policy decision, so
it contributes neither reward nor log-probability terms.

A rollout keeps per move only its ``selected`` node (the DFS-tree parent
of the node visited) and its ``candidates``; ``branch_trace`` derives the
full ``TraceRow``s on demand. Each visited node v is scored by folding
the node weights along its DFS-tree path from the start with the
aggregator's step, left to right; the rollout reward sums those per-node
scores. The oracle and ``path_score`` fold with the same step, so all
three agree bit for bit.

A rollout is plain, untaped data. ``walk`` runs the traversal on a
graph's plain edge scores, reading at each move only the candidates'
entries of the current node's slice; ``decode_all`` encodes one
graph, scores its edges and walks it without recording anything.
``move_log_probs`` is the one differentiable route from recorded walks
back to the scores: it turns the moves of any number of walks into one
expression on a tape. It too reads only candidate entries, and
normalizes each move's with ``segment_softmax``, the op the encoder's
attention uses. Neither rescales its scores: a caller that wants a
sharper or flatter softmax scales them once and hands both one array.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate
from typing import Callable, Sequence

import numpy as np

from .errors import ValidationError
from .graphgen import WeightedGraph
from .model import GraphBatch, ModelParams, edge_scores, encode
from .numcore import Segments, Tape

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
    selected: list[int]  # per move, the node it is made from
    candidates: list[tuple[int, ...]]  # per move, the unvisited neighbors it chose among

    @property
    def branch_trace(self) -> list[TraceRow]:
        """Every move as a ``TraceRow``. A move with two or more candidates
        pushes its node; one not made from the previous ``next`` backtracked,
        popping the stack down to and including its node."""
        order, stack, rows = self.visit_order, [], []
        for k, (node, candidates) in enumerate(zip(self.selected, self.candidates)):
            if node != order[k]:
                del stack[stack.index(node) :]
            if len(candidates) >= 2:
                stack.append(node)
            visited = tuple(order[: k + 2])
            rows.append(TraceRow(node, candidates, order[k + 1], visited, tuple(stack)))
        return rows


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
    rng: np.random.Generator | None = None,
    score_config: ScoreConfig = ScoreConfig(),
) -> RolloutResult:
    """Run one full traversal of ``graph`` under ``params`` and score it.

    Encodes the graph, scores its edges once and ``walk``s them, all
    untaped, so nothing is recorded in either mode. To differentiate the
    result, pass it to ``move_log_probs`` with taped scores.
    """
    batch = GraphBatch([graph])
    scores = edge_scores(encode(batch, params), batch, params)
    return walk(graph, scores, start, mode, rng, score_config)


def walk(
    graph: WeightedGraph,
    scores: np.ndarray,
    start: int,
    mode: str = "sample",
    rng: np.random.Generator | None = None,
    score_config: ScoreConfig = ScoreConfig(),
) -> RolloutResult:
    """The DFS traversal over the graph's decoder scores, one per directed
    edge in ``neighbors`` order (``edge_scores`` of the graph alone).

    A move records its ``selected`` node and ``candidates``, all that
    ``move_log_probs`` needs, and reads only its candidates' scores, from
    the current node's slice: ``mode="greedy"`` takes the highest
    (the lowest index on ties);
    ``mode="sample"`` takes the first candidate whose running softmax
    probability, on Python floats, exceeds the move's uniform, one of
    n - 1 drawn from ``rng`` at once. A lone candidate is taken without
    a softmax: its probability is exactly 1.
    """
    n = graph.num_nodes
    if not (0 <= start < n):
        raise ValidationError(f"start {start} out of range for {n} nodes")
    if mode not in ("sample", "greedy"):
        raise ValidationError(f"mode must be 'sample' or 'greedy', got {mode!r}")
    if mode == "sample" and rng is None:
        raise ValidationError("sample mode needs an rng")
    if scores.shape != (2 * graph.num_edges,):
        raise ValidationError(
            f"walk needs one score per directed edge, {2 * graph.num_edges}, got {scores.shape}"
        )

    weights = graph.node_weights.tolist()
    values, neighbors = scores.tolist(), graph.neighbors
    firsts = list(accumulate(map(len, neighbors), initial=0))  # each node's slice of values
    fold = score_config.fold
    draws = rng.random(n - 1).tolist() if mode == "sample" else None
    visited = [v == start for v in range(n)]
    current = start
    visit_order = [start]
    stack: list[int] = []
    node_scores = {start: weights[start]}
    selected, candidates = [], []

    for move in range(n - 1):
        # neighbors are sorted, so the candidates are in ascending order
        options = [j for j in neighbors[current] if not visited[j]]
        # backtrack to the latest branch point with options left; a connected
        # graph always has one: a node left with an unvisited neighbour had
        # two or more options then, so it was pushed
        while not options:
            current = stack.pop()
            options = [j for j in neighbors[current] if not visited[j]]

        if len(options) == 1:
            nxt = options[0]
        else:
            stack.append(current)
            # the current node's slice lines up with its neighbors
            own = values[firsts[current] : firsts[current + 1]]
            option_scores = [s for j, s in zip(neighbors[current], own) if not visited[j]]
            if mode == "greedy":
                # index finds the first maximum, so the lowest index wins ties
                nxt = options[option_scores.index(max(option_scores))]
            else:
                nxt = _sample(options, option_scores, draws[move])

        visited[nxt] = True
        visit_order.append(nxt)
        node_scores[nxt] = fold(node_scores[current], weights[nxt])
        selected.append(current)
        candidates.append(tuple(options))
        current = nxt

    return RolloutResult(
        visit_order=visit_order,
        per_node_score=node_scores,
        reward=float(sum(node_scores.values())),
        selected=selected,
        candidates=candidates,
    )


def _sample(options: list[int], scores: list[float], u: float) -> int:
    """The first of ``options`` whose running softmax probability exceeds
    the uniform ``u``, the softmax taken over ``scores``, stabilized by
    subtracting their max, on Python floats."""
    peak = max(scores)
    weights = [math.exp(x - peak) for x in scores]
    total = sum(weights)
    acc = 0.0
    for j, w in zip(options, weights):
        acc += w / total
        if u < acc:
            return j
    return options[-1]  # guard against accumulated rounding


def move_log_probs(
    scores: np.ndarray,
    graphs: Sequence[WeightedGraph],
    walks: Sequence[RolloutResult],
    tape: Tape,
) -> np.ndarray | None:
    """log p(next | selected) of every move of every walk, as one array.

    ``walks[b]`` walked ``graphs[b]``, whose edges ``scores`` scores as
    ``edge_scores(emb, graphs, ...)`` does; the result holds its moves in
    trace order, after those of the walks before it (None when no walk
    made a move). All moves share one expression that reads, like the
    walk, only each move's candidate entries: gathered from the edge
    scores, they get a softmax with one segment per move, and the log of
    the chosen entry is each move's term.
    """
    if len(walks) != len(graphs):
        raise ValidationError(f"{len(walks)} walks but {len(graphs)} graphs")
    batch = GraphBatch.of(graphs)
    keys, total = batch.edge_keys, batch.num_nodes
    if scores.shape != keys.shape:
        raise ValidationError(f"{keys.size} directed edges but scores of shape {scores.shape}")
    steps = [len(w.selected) for w in walks]
    moves = sum(steps)
    if not moves:
        return None
    counts = [len(c) for w in walks for c in w.candidates]
    firsts = np.repeat(batch.firsts, steps)  # each move's graph's first node
    sources = np.repeat(firsts + [v for w in walks for v in w.selected], counts)
    targets = np.repeat(firsts, counts) + [j for w in walks for c in w.candidates for j in c]
    nexts = np.repeat(firsts + [v for w in walks for v in w.visit_order[1:]], counts)
    chosen = np.flatnonzero(targets == nexts)  # one entry per move in a well-formed walk
    if chosen.size != moves:
        raise ValidationError("a recorded move's next node is not among its candidates")
    # directed edges are sorted by source, then target, so a search finds each candidate's
    wanted = sources * total + targets
    at = np.searchsorted(keys, wanted)
    if at.max() >= keys.size or not np.array_equal(keys[at], wanted):
        raise ValidationError("a recorded move's candidate is not a neighbor of its node")
    entries = tape.gather_rows(scores, at)
    probs = tape.segment_softmax(entries, Segments(counts))
    return tape.log(tape.gather_rows(probs, chosen))
