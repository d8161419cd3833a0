"""Random weighted connected graphs and their JSON file form.

Graphs are undirected, connected, tree-like (a spanning tree plus a few
extra edges), carry one uniform-[0,1] weight per node, and designate a
random start node. Generation is a pure function of the seed: the same
seed yields a bit-identical graph. Weights are drawn before any edges so
the weight stream does not shift when the edge count changes. A graph
file is JSON, read by ``files``' one JSON reader; ``load_graph`` and
``graph_from_json`` raise GraphFormatError for any error, naming the
field.
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from pathlib import Path

import numpy as np

from .errors import GraphFormatError, ValidationError
from .files import atomic_write_text, json_value, parse_json, reading

GRAPH_FILE_VERSION = 1

TREE_MODES = ("random_attach", "star")


@dataclass(eq=False)
class WeightedGraph:
    """Undirected connected graph with per-node weights in [0, 1].

    Its adjacency is ``neighbors``: node i's neighbours, ascending, as
    the tuple ``neighbors[i]``. Read node by node, it lists the directed
    edges, both directions of each edge, by source, then target. Node
    ids, ``num_nodes`` and ``start_index`` are any integers, numpy's
    too, and are stored as Python ints; ``edges``, given in any order and
    orientation, as the sorted ``(u, v)``, ``u < v``. The constructor is
    the one statement of a graph's rules; each error names the field as
    a graph file does.
    """

    num_nodes: int
    edges: tuple[tuple[int, int], ...]
    node_weights: np.ndarray
    start_index: int
    neighbors: tuple[tuple[int, ...], ...] = field(init=False, repr=False)

    def __post_init__(self):
        n = self.num_nodes = _node_id(self.num_nodes, "num_nodes")
        if n <= 0:
            raise ValidationError(f"num_nodes must be positive, got {n}")
        start = self.start_index = _node_id(self.start_index, "start_index")
        if not 0 <= start < n:
            raise ValidationError(f"start_index must be in [0, {n}), got {start}")
        # checked before anything of size n is built: a file may claim 10**12 nodes
        w = self.node_weights = np.asarray(self.node_weights, dtype=np.float64)
        if w.shape != (n,):
            raise ValidationError(f"weights must be a list of {n} numbers, got shape {w.shape}")
        outside = np.flatnonzero(~((w >= 0.0) & (w <= 1.0)))  # NaN too
        if outside.size:
            i = outside[0]
            raise ValidationError(f"weights[{i}] = {w[i]}: weight out of range [0, 1]")

        adjacent: list[set[int]] = [set() for _ in range(n)]
        index = operator.index
        for i, edge in enumerate(self.edges):
            try:
                u, v = edge
            except (TypeError, ValueError):
                raise ValidationError(f"edges[{i}] must be a pair of nodes, got {edge!r}") from None
            try:
                u, v = index(u), index(v)
            except TypeError:
                name = f"edges[{i}]: edge endpoint"
                u, v = _node_id(u, name), _node_id(v, name)  # one of them raises
            if u == v:
                raise ValidationError(f"edges[{i}]: self-loop at node {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValidationError(f"edges[{i}] = ({u}, {v}) out of range for {n} nodes")
            if v in adjacent[u]:
                raise ValidationError(f"edges[{i}]: duplicate edge ({min(u, v)}, {max(u, v)})")
            adjacent[u].add(v)
            adjacent[v].add(u)
        self.neighbors = tuple(tuple(sorted(row)) for row in adjacent)
        self.edges = tuple((u, v) for u, row in enumerate(self.neighbors) for v in row if u < v)

        reached = [False] * n
        reached[0] = True
        stack = [0]
        while stack:
            for v in self.neighbors[stack.pop()]:
                if not reached[v]:
                    reached[v] = True
                    stack.append(v)
        if missing := reached.count(False):
            raise ValidationError(f"edges: not connected, {missing} of {n} nodes unreachable")

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


def _node_id(value, name: str) -> int:
    """``value`` as a Python int: any integer, numpy's too, but no float."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValidationError(f"{name} must be an integer, got {value!r}") from None


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
    until the requested count is reached, in O(n + e) time and memory.
    """
    num_nodes = _node_id(num_nodes, "num_nodes")
    num_edges = _node_id(num_edges, "num_edges")
    seed = _node_id(seed, "seed")
    if num_nodes <= 0:
        raise ValidationError("num_nodes must be positive")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
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
        picks = rng.choice(max_edges - len(edge_set), size=extra, replace=False)
        edge_set.update(_missing_pairs(num_nodes, edge_set, picks.tolist()))

    start = int(rng.integers(num_nodes))
    return WeightedGraph(num_nodes, edge_set, weights, start)


def _missing_pairs(
    num_nodes: int, edges: set[tuple[int, int]], ranks: list[int]
) -> list[tuple[int, int]]:
    """The pairs ``(u, v)``, ``u < v``, not in ``edges`` whose ranks among
    all such missing pairs, in lexicographic order, are ``ranks``, found
    without listing the missing pairs (Batagelj & Brandes, 2005)."""
    # row u's pairs (u, u + 1), ..., (u, n - 1) start at rank first[u]
    first = list(accumulate(range(num_nodes - 1, 0, -1), initial=0))
    taken = sorted(first[u] + v - u - 1 for u, v in edges)
    # below[i]: how many missing pairs rank before the i-th taken pair
    below = [t - i for i, t in enumerate(taken)]
    pairs = []
    for k in ranks:
        # the k-th missing pair's rank is k plus the taken pairs below it,
        # those with below[i] <= k
        r = k + bisect_right(below, k)
        u = bisect_right(first, r) - 1
        pairs.append((u, r - first[u] + u + 1))
    return pairs


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


def graph_from_json(text: str | bytes) -> WeightedGraph:
    """Parse a graph file's JSON text, or its UTF-8 bytes; every error,
    the parser's and ``WeightedGraph``'s too, is a GraphFormatError."""
    try:
        return _graph_from_doc(parse_json(text))
    except ValidationError as exc:
        raise GraphFormatError(str(exc)) from exc


def _graph_from_doc(doc) -> WeightedGraph:
    doc = json_value(doc, dict, "top level")
    version = doc.get("version")
    if type(version) is not int or version != GRAPH_FILE_VERSION:  # not true or 1.0
        raise ValidationError(f"unsupported version {version!r} (expected {GRAPH_FILE_VERSION})")

    num_nodes = json_value(doc.get("num_nodes"), int, "num_nodes")
    start = json_value(doc.get("start_index"), int, "start_index")
    weights = json_value(doc.get("weights"), list, "weights")
    weights = [json_value(w, float, f"weights[{i}]") for i, w in enumerate(weights)]
    edges = json_value(doc.get("edges"), list, "edges")
    for i, e in enumerate(edges):
        if not isinstance(e, list) or len(e) != 2 or not all(type(x) is int for x in e):
            raise ValidationError(f"edges[{i}] is not an integer pair: {e!r}")
    # WeightedGraph checks the values: counts, ranges, duplicates, connectivity
    return WeightedGraph(num_nodes, edges, weights, start)


def load_graph(path) -> WeightedGraph:
    """Read a graph file; every format error is a GraphFormatError prefixed ``graph <path>:``."""
    with reading("graph", path):
        return graph_from_json(Path(path).read_bytes())
