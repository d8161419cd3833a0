"""Random weighted connected graphs and their JSON file form.

Graphs are undirected, connected, tree-like (a spanning tree plus a few
extra edges), carry one uniform-[0,1] weight per node, and designate a
random start node. Generation is a pure function of the seed: the same
seed yields a bit-identical graph. Weights are drawn before any edges so
the weight stream does not shift when the edge count changes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import GraphFormatError, ValidationError
from .files import atomic_write_text

GRAPH_FILE_VERSION = 1

TREE_MODES = ("random_attach", "star")


@dataclass(eq=False)
class WeightedGraph:
    """Undirected connected graph with per-node weights in [0, 1]."""

    num_nodes: int
    edges: tuple[tuple[int, int], ...]
    node_weights: np.ndarray
    start_index: int
    adjacency: np.ndarray = field(init=False, repr=False)
    neighbors: tuple[tuple[int, ...], ...] = field(init=False, repr=False)

    def __post_init__(self):
        n = self.num_nodes
        if n <= 0:
            raise ValidationError("num_nodes must be positive")
        normalized = []
        seen = set()
        for e in self.edges:
            u, v = int(e[0]), int(e[1])
            if u == v:
                raise ValidationError(f"self-loop at node {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValidationError(f"edge ({u}, {v}) out of range for {n} nodes")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise ValidationError(f"duplicate edge ({key[0]}, {key[1]})")
            seen.add(key)
            normalized.append(key)
        self.edges = tuple(sorted(normalized))

        self.node_weights = np.asarray(self.node_weights, dtype=np.float64)
        if self.node_weights.shape != (n,):
            raise ValidationError(
                f"node_weights length {self.node_weights.shape} does not match {n} nodes"
            )
        if np.any(self.node_weights < 0.0) or np.any(self.node_weights > 1.0):
            raise ValidationError("weight out of range [0, 1]")
        if not (0 <= self.start_index < n):
            raise ValidationError(f"start_index {self.start_index} out of range for {n} nodes")

        adj = np.zeros((n, n), dtype=bool)
        for u, v in self.edges:
            adj[u, v] = True
            adj[v, u] = True
        self.adjacency = adj
        self.neighbors = tuple(tuple(np.flatnonzero(adj[i]).tolist()) for i in range(n))

        # connectivity: BFS from node 0
        seen_nodes = {0}
        frontier = [0]
        while frontier:
            nxt = []
            for u in frontier:
                for v in self.neighbors[u]:
                    if v not in seen_nodes:
                        seen_nodes.add(v)
                        nxt.append(v)
            frontier = nxt
        if len(seen_nodes) != n:
            raise ValidationError(
                f"graph is not connected: {n - len(seen_nodes)} of {n} nodes unreachable"
            )

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightedGraph):
            return NotImplemented
        return (
            self.num_nodes == other.num_nodes
            and self.edges == other.edges
            and self.start_index == other.start_index
            and np.array_equal(self.node_weights, other.node_weights)
        )


def generate_random_graph(
    num_nodes: int,
    num_edges: int,
    seed: int,
    tree_mode: str = "random_attach",
) -> WeightedGraph:
    """Generate a connected graph: spanning tree, then random extra edges.

    In ``random_attach`` mode each node i > 0 attaches to a uniformly
    random earlier node; ``star`` mode instead wires every node to one
    random hub. Extra edges are drawn uniformly among the missing pairs
    until the requested count is reached.
    """
    if num_nodes <= 0:
        raise ValidationError("num_nodes must be positive")
    if tree_mode not in TREE_MODES:
        raise ValidationError(f"tree_mode must be one of {TREE_MODES}, got {tree_mode!r}")
    max_edges = num_nodes * (num_nodes - 1) // 2
    if num_edges < num_nodes - 1:
        raise ValidationError(
            f"cannot connect {num_nodes} nodes with {num_edges} edges "
            f"(need at least {num_nodes - 1})"
        )
    if num_edges > max_edges:
        raise ValidationError(
            f"{num_edges} edges exceeds the simple-graph maximum {max_edges} "
            f"for {num_nodes} nodes"
        )

    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.0, 1.0, size=num_nodes)

    edge_set: set[tuple[int, int]] = set()
    if tree_mode == "star" and num_nodes > 1:
        hub = int(rng.integers(num_nodes))
        for i in range(num_nodes):
            if i != hub:
                edge_set.add((min(hub, i), max(hub, i)))
    else:
        for i in range(1, num_nodes):
            j = int(rng.integers(i))
            edge_set.add((j, i))

    extra = num_edges - len(edge_set)
    if extra > 0:
        non_edges = [
            (u, v)
            for u in range(num_nodes)
            for v in range(u + 1, num_nodes)
            if (u, v) not in edge_set
        ]
        picks = rng.choice(len(non_edges), size=extra, replace=False)
        for k in picks:
            edge_set.add(non_edges[int(k)])

    start = int(rng.integers(num_nodes))
    return WeightedGraph(
        num_nodes=num_nodes,
        edges=tuple(sorted(edge_set)),
        node_weights=weights,
        start_index=start,
    )


def _format_weight(w: float) -> str:
    # 17 significant digits round-trip any float64 exactly.
    return format(float(w), ".17g")


def graph_to_json(graph: WeightedGraph) -> str:
    weights = ", ".join(_format_weight(w) for w in graph.node_weights)
    edges = ", ".join(f"[{u}, {v}]" for u, v in graph.edges)
    return (
        "{\n"
        f'  "version": {GRAPH_FILE_VERSION},\n'
        f'  "num_nodes": {graph.num_nodes},\n'
        f'  "start_index": {graph.start_index},\n'
        f'  "weights": [{weights}],\n'
        f'  "edges": [{edges}]\n'
        "}\n"
    )


def save_graph(graph: WeightedGraph, path) -> None:
    atomic_write_text(path, graph_to_json(graph))


def _is_int(value) -> bool:
    """A JSON integer; JSON booleans load as Python bools, which are ints."""
    return isinstance(value, int) and not isinstance(value, bool)


def graph_from_json(text: str) -> WeightedGraph:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise GraphFormatError("top level must be an object")

    version = doc.get("version")
    if version != GRAPH_FILE_VERSION or isinstance(version, bool):
        raise GraphFormatError(f"unsupported version {version!r} (expected {GRAPH_FILE_VERSION})")

    num_nodes = doc.get("num_nodes")
    if not _is_int(num_nodes) or num_nodes <= 0:
        raise GraphFormatError(f"num_nodes must be a positive integer, got {num_nodes!r}")

    start = doc.get("start_index")
    if not _is_int(start) or not (0 <= start < num_nodes):
        raise GraphFormatError(f"start_index must be in [0, {num_nodes}), got {start!r}")

    weights = doc.get("weights")
    if not isinstance(weights, list) or len(weights) != num_nodes:
        raise GraphFormatError(f"weights must be a list of {num_nodes} numbers")
    for i, w in enumerate(weights):
        if not isinstance(w, (int, float)) or isinstance(w, bool):
            raise GraphFormatError(f"weights[{i}] is not a number: {w!r}")
        if not (0.0 <= w <= 1.0):
            raise GraphFormatError(f"weights[{i}] = {w!r}: weight out of range [0, 1]")

    edges = doc.get("edges")
    if not isinstance(edges, list):
        raise GraphFormatError("edges must be a list of [u, v] pairs")
    pairs = []
    for i, e in enumerate(edges):
        if (
            not isinstance(e, list)
            or len(e) != 2
            or not all(_is_int(x) for x in e)
        ):
            raise GraphFormatError(f"edges[{i}] is not an integer pair: {e!r}")
        pairs.append((e[0], e[1]))

    try:
        return WeightedGraph(
            num_nodes=num_nodes,
            edges=tuple(pairs),
            node_weights=np.asarray(weights, dtype=np.float64),
            start_index=start,
        )
    except ValidationError as exc:
        raise GraphFormatError(str(exc)) from exc


def load_graph(path) -> WeightedGraph:
    """Read a graph file; format errors are prefixed ``graph <path>:``."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return graph_from_json(text)
    except GraphFormatError as exc:
        raise GraphFormatError(f"graph {path}: {exc}") from exc
