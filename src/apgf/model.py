"""Graph-attention encoder and next-node decoder.

The encoder lifts each node's scalar weight into an embedding, runs two
multi-head attention layers over graph neighborhoods (self-loop
included, residual connection per layer), then one feedforward layer
with a second residual. It works on an edge list, as sparse GAT does:
the batch is one disjoint union of its graphs, attention is scored and
normalized per edge, and a layer's heads run fused, so its cost grows
with the number of edges. The decoder scores a move from node i to
node j as

    score(i, j) = clip * tanh( (Q v_i) . (K v_j) / sqrt(embed_dim) )

so every score lands in [-clip, +clip], and scores only the moves a
walk can make, one per directed edge of the batch's disjoint union, so
its cost too grows with the number of edges.
A softmax over the scores of the unvisited neighbors gives the move
probabilities. Both take a batch of graphs of any sizes, a single
graph being a batch of one: the encoder returns the union's
``[N, embed_dim]`` float64 embeddings, one row per node, the decoder one
``[E]`` array of edge scores. The parameters are one flat float64
buffer in ``param_spec`` order; a checkpoint stores its slices, and is
read by ``files``' one JSON reader, which types its header's fields.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import chain
from types import MappingProxyType
from typing import Iterable, Sequence

import numpy as np

from .errors import ValidationError
from .files import atomic_write_text, json_value, read_json, reading
from .graphgen import WeightedGraph
from .numcore import ForwardTape, RowIndex, Segments, Tape

CHECKPOINT_VERSION = 2  # the version written; version 1 is still read

LEAKY_SLOPE = 0.2  # standard GAT negative slope
NUM_LAYERS = 2
HYPER_FIELDS = ("embed_dim", "num_heads", "ff_dim", "score_clip")  # checkpoint header


def param_spec(embed_dim: int, num_heads: int, ff_dim: int) -> dict[str, tuple]:
    """Every parameter as ``name -> (shape, fan_in)``.

    The order is the initialization and checkpoint order. An attention
    head's ``attn`` is ``[2*head_dim, 1]``: the first half scores the
    source node, the second half the target.
    """
    head_dim = embed_dim // num_heads
    spec = {"encoder.input_lift": ((1, embed_dim), 1)}
    for li in range(NUM_LAYERS):
        for hi in range(num_heads):
            spec[f"encoder.layer{li}.head{hi}.weight"] = ((embed_dim, head_dim), embed_dim)
            spec[f"encoder.layer{li}.head{hi}.attn"] = ((2 * head_dim, 1), 2 * head_dim)
    spec["encoder.ff_in_weight"] = ((embed_dim, ff_dim), embed_dim)
    spec["encoder.ff_in_bias"] = ((1, ff_dim), embed_dim)
    spec["encoder.ff_out_weight"] = ((ff_dim, embed_dim), ff_dim)
    spec["encoder.ff_out_bias"] = ((1, embed_dim), ff_dim)
    spec["decoder.query_proj"] = ((embed_dim, embed_dim), embed_dim)
    spec["decoder.key_proj"] = ((embed_dim, embed_dim), embed_dim)
    return spec


@dataclass
class ModelParams:
    """Hyperparameters plus every ``param_spec`` entry: one flat, writable,
    C-contiguous float64 ``buffer`` in spec order, zeros unless given, and
    ``tensors``, a read-only mapping of each name to a reshaped view of
    its slice. A value changes by writing into its view or the buffer."""

    embed_dim: int
    num_heads: int
    ff_dim: int
    score_clip: float
    buffer: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        _check_hyper(self.hyper())
        spec = param_spec(self.embed_dim, self.num_heads, self.ff_dim)
        sizes = [math.prod(shape) for shape, _ in spec.values()]
        b = self.buffer = np.zeros(sum(sizes)) if self.buffer is None else self.buffer
        # carray: C-contiguous, aligned and writable, as an in-place Adam step needs
        if b.shape != (sum(sizes),) or b.dtype != np.float64 or not b.flags.carray:
            raise ValidationError(
                f"parameters need a writable C-contiguous float64 buffer of {sum(sizes)} values, "
                f"got {b.dtype} {b.shape}{'' if b.flags.writeable else ', read-only'}"
            )
        parts = zip(spec.items(), np.split(b, np.cumsum(sizes)[:-1]))
        self.tensors = MappingProxyType({name: t.reshape(shape) for (name, (shape, _)), t in parts})

    def hyper(self) -> dict:
        return {key: getattr(self, key) for key in HYPER_FIELDS}


def _check_hyper(hyper: dict) -> None:
    embed_dim, num_heads, ff_dim, score_clip = (hyper[key] for key in HYPER_FIELDS)
    if min(embed_dim, num_heads, ff_dim) <= 0:
        raise ValidationError(f"model sizes must be positive, got {hyper}")
    if embed_dim % num_heads != 0:
        raise ValidationError(f"embed_dim {embed_dim} not divisible by num_heads {num_heads}")
    if not (0 < score_clip < math.inf):
        raise ValidationError(f"score_clip must be finite and positive, got {score_clip}")


def init_params(
    seed: int,
    embed_dim: int = 64,
    num_heads: int = 4,
    ff_dim: int = 128,
    score_clip: float = 10.0,
) -> ModelParams:
    """Seeded uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) initialization."""
    params = ModelParams(embed_dim, num_heads, ff_dim, score_clip)
    rng = np.random.default_rng(seed)
    for name, (shape, fan_in) in param_spec(embed_dim, num_heads, ff_dim).items():
        bound = 1.0 / math.sqrt(fan_in)
        params.tensors[name][...] = rng.uniform(-bound, bound, size=shape)
    return params


def copy_params(params: ModelParams) -> ModelParams:
    """Deep copy, one buffer copy, e.g. to freeze a baseline network."""
    return replace(params, buffer=params.buffer.copy())


class GraphBatch(tuple):
    """A batch of graphs, held as a tuple, and the index of their disjoint
    union, whose nodes are the graphs' nodes in batch order.

    Each part of the index is built the first time it is used and kept,
    and with it the flat scatter indices its ``RowIndex``es build, so a
    batch that is encoded, scored and differentiated many times, as a
    training run's graphs are every epoch, builds its index once.
    ``encode``, ``edge_scores`` and ``move_log_probs`` take a batch, or a
    plain sequence of graphs, which they wrap in one.
    """

    def __new__(cls, graphs: Iterable[WeightedGraph]):
        batch = super().__new__(cls, graphs)
        if not batch:
            raise ValidationError("a graph batch needs at least one graph")
        return batch

    @classmethod
    def of(cls, graphs: Sequence[WeightedGraph]) -> GraphBatch:
        """``graphs`` itself when it is a batch, else a new batch of them."""
        return graphs if isinstance(graphs, cls) else cls(graphs)

    @cached_property
    def sizes(self) -> list[int]:
        return [g.num_nodes for g in self]

    @cached_property
    def num_nodes(self) -> int:
        """N, the nodes of the union."""
        return sum(self.sizes)

    @cached_property
    def firsts(self) -> np.ndarray:
        """Each graph's first node in the union."""
        return np.cumsum(self.sizes) - self.sizes

    @cached_property
    def edges(self) -> tuple[RowIndex, RowIndex]:
        """Source and target of every directed edge of the union: each
        graph's ``neighbors``, node by node, shifted by the graph's first
        node, so sorted by source, then target."""
        counts = [2 * g.num_edges for g in self]
        targets = chain.from_iterable(chain.from_iterable(g.neighbors) for g in self)
        cols = np.fromiter(targets, np.intp, sum(counts)) + np.repeat(self.firsts, counts)
        # every edge is listed in both directions, so the sources in this
        # order are the targets, sorted
        return RowIndex(np.sort(cols), self.num_nodes), RowIndex(cols, self.num_nodes)

    @cached_property
    def edge_keys(self) -> np.ndarray:
        """``source * N + target`` of every directed edge, ascending."""
        sources, targets = self.edges
        return sources.rows * self.num_nodes + targets.rows

    @cached_property
    def attention(self) -> tuple[Segments, RowIndex]:
        """The encoder's edge list, the directed edges plus a self-loop per
        node, sorted by source, then target: its split into each source
        node's edges, and its targets."""
        total = self.num_nodes
        loops = np.arange(total)
        keys = np.concatenate([self.edge_keys, loops * total + loops])
        rows, cols = np.divmod(np.sort(keys), total)
        return Segments(np.bincount(rows, minlength=total)), RowIndex(cols, total)

    @cached_property
    def node_weights(self) -> np.ndarray:
        """The union's ``[N, 1]`` node weights."""
        return np.concatenate([g.node_weights for g in self]).reshape(self.num_nodes, 1)

    def split(self, scores: np.ndarray) -> list[np.ndarray]:
        """Each graph's part of ``scores``, one entry per directed edge of the
        union in ``edges`` order, as ``edge_scores`` gives: views, in batch order."""
        ends = np.cumsum([2 * g.num_edges for g in self]).tolist()
        if len(scores) != ends[-1]:
            raise ValidationError(f"{len(scores)} scores for a batch of {ends[-1]} directed edges")
        return [scores[end - 2 * g.num_edges : end] for g, end in zip(self, ends)]


def encode(
    graphs: Sequence[WeightedGraph], params: ModelParams, tape: Tape | None = None
) -> np.ndarray:
    """Embed every node of the graphs: one ``[N, embed_dim]`` array for
    their disjoint union, whose nodes are the graphs' nodes in batch
    order, N in all; a single graph is a batch of one.

    The batch runs as one disjoint union on an edge list:
    every directed edge plus a self-loop per node, grouped by source node.
    Per attention layer, all heads at once: project the nodes with the
    heads' weights side by side, score each edge i -> j per head with a
    LeakyReLU of the learned attention form, normalize with a softmax over
    each node's edges, sum the neighbours' projected features weighted by
    their head's coefficient, and add the residual. One feedforward layer
    with its own residual follows the second attention layer. Work and
    memory grow with the number of edges, not with num_nodes squared.
    """
    batch = GraphBatch.of(graphs)
    tape = tape if tape is not None else ForwardTape()
    p = params.tensors
    dim, heads = params.embed_dim, params.num_heads
    head_dim = dim // heads
    segments, neighbours = batch.attention  # the edges of each source node, and their targets
    # row r of a [embed_dim, .] weight belongs to head r // head_dim, as position r % head_dim
    within = np.arange(dim) % head_dim
    own_head = np.repeat(np.eye(heads), head_dim, axis=0)  # [embed_dim, heads]

    h = tape.matmul(batch.node_weights, p["encoder.input_lift"])  # [total, embed_dim]

    for li in range(NUM_LAYERS):
        names = [f"encoder.layer{li}.head{hi}" for hi in range(heads)]
        # head k owns columns k*head_dim .. (k+1)*head_dim - 1 of the projection
        projected = tape.matmul(h, tape.concat([p[f"{name}.weight"] for name in names], axis=1))
        attn = tape.concat([p[f"{name}.attn"] for name in names], axis=1)  # [2*head_dim, heads]
        # block-diagonal [embed_dim, heads] forms, so one product scores every head
        src = tape.mul(tape.gather_rows(attn, within), own_head)
        dst = tape.mul(tape.gather_rows(attn, within + head_dim), own_head)
        score_src, score_dst = tape.matmul(projected, src), tape.matmul(projected, dst)
        # edge i -> j per head: the source score of i plus the target score of j
        logits = tape.add(
            tape.gather_rows(score_src, segments), tape.gather_rows(score_dst, neighbours)
        )
        coeff = tape.segment_softmax(tape.leaky_relu(logits, LEAKY_SLOPE), segments)
        h = tape.add(h, tape.segment_sum(projected, neighbours, coeff, segments))

    inner = tape.leaky_relu(
        tape.add(tape.matmul(h, p["encoder.ff_in_weight"]), p["encoder.ff_in_bias"]), LEAKY_SLOPE
    )
    ff = tape.add(tape.matmul(inner, p["encoder.ff_out_weight"]), p["encoder.ff_out_bias"])
    return tape.add(h, ff)


def edge_scores(
    emb: np.ndarray,
    graphs: Sequence[WeightedGraph],
    params: ModelParams,
    tape: Tape | None = None,
) -> np.ndarray:
    """Decoder scores of every move as one ``[E]`` array: entry e scores
    the move along directed edge e of ``GraphBatch(graphs).edges``, from
    its source to its target, and lies in [-clip, +clip].

    ``emb`` embeds the graphs' union, as ``encode(graphs, ...)`` does.
    Only the edges are scored, each as the dot product of its source's
    query and its target's key, so work and memory grow with the number
    of edges. The inputs are fixed for a whole rollout, so a rollout
    scores its graph once and reads each decision from the current
    node's slice.
    """
    batch = GraphBatch.of(graphs)
    if emb.ndim != 2 or emb.shape[0] != batch.num_nodes:
        raise ValidationError(f"embeddings {emb.shape} do not match graphs of {batch.sizes} nodes")
    tape = tape if tape is not None else ForwardTape()
    p = params.tensors
    query = tape.matmul(emb, tape.transpose(p["decoder.query_proj"]))  # [N, embed_dim]
    keys = tape.matmul(emb, tape.transpose(p["decoder.key_proj"]))  # [N, embed_dim]
    raw = tape.edge_dot(query, keys, *batch.edges)
    scaled = tape.mul_scalar(raw, 1.0 / math.sqrt(params.embed_dim))
    return tape.mul_scalar(tape.tanh(scaled), params.score_clip)


def save_checkpoint(params: ModelParams, path) -> None:
    """Write ``params`` as a checkpoint: the bytes of ``json.dumps(doc) + "\n"``
    for the version 2 document ``{"version", "hyper", "params"}``, with
    ``params`` in ``param_spec`` order, each entry ``{"shape", "data"}``:
    its shape, and the base64 of its little-endian float64 bytes in
    row-major order, so every value round-trips bit for bit."""
    doc = {"version": CHECKPOINT_VERSION, "hyper": params.hyper(), "params": {}}
    for name, t in params.tensors.items():
        data = base64.b64encode(t.astype("<f8", copy=False)).decode("ascii")
        doc["params"][name] = {"shape": list(t.shape), "data": data}
    atomic_write_text(path, json.dumps(doc) + "\n")


def load_checkpoint(path) -> ModelParams:
    """Rebuild ModelParams from a checkpoint file of version 2, or of
    version 1, whose entries hold a JSON list of numbers, ``"values"``,
    in place of ``"data"``.

    Both versions share every check but the decoding of one parameter:
    the header's sizes must be JSON integers (``64``, not ``64.0``) and
    its ``score_clip`` any JSON number, the header must agree with every
    stored parameter shape, no parameter may be missing or extra, and
    every value must be finite. Malformed content raises ValidationError naming the file and
    the field.
    """
    with reading("checkpoint", path):
        return _params_from_doc(read_json(path))


def _params_from_doc(doc) -> ModelParams:
    version = json_value(doc, dict, "top level").get("version")
    # a JSON integer only: true and 1.0 compare equal to 1
    if type(version) is not int or version not in _PAYLOADS:
        raise ValidationError(f"unsupported version {version!r} (expected 1 or 2)")
    payload, decode = _PAYLOADS[version]
    header = json_value(doc.get("hyper"), dict, "field 'hyper'")
    blobs = json_value(doc.get("params"), dict, "field 'params'")
    hyper = {
        key: json_value(header.get(key), kind, f"field 'hyper.{key}'")
        for key, kind in zip(HYPER_FIELDS, (int, int, int, float))
    }
    _check_hyper(hyper)  # before any buffer is sized by the header
    # Every head has its own parameters, so this bounds the spec by the file.
    if hyper["num_heads"] > len(blobs):
        raise ValidationError(
            f"header has {hyper['num_heads']} heads but 'params' holds only {len(blobs)} entries"
        )

    spec = param_spec(hyper["embed_dim"], hyper["num_heads"], hyper["ff_dim"])
    flats = []
    for name, (shape, _) in spec.items():
        if name not in blobs:
            raise ValidationError(f"missing parameter {name!r}")
        blob = json_value(blobs[name], dict, f"field 'params.{name}'")
        field = f"field 'params.{name}.shape'"
        stored = [json_value(d, int, field) for d in json_value(blob.get("shape"), list, field)]
        if stored != list(shape):
            raise ValidationError(f"{field} is {stored}, header implies {list(shape)}")
        field = f"field 'params.{name}.{payload}'"
        flat = decode(blob.get(payload), math.prod(shape), field)
        if not np.isfinite(flat).all():
            raise ValidationError(f"{field} holds non-finite numbers")
        flats.append(flat)
    extra = sorted(set(blobs) - set(spec))
    if extra:
        raise ValidationError(f"unexpected parameters: {extra}")
    return ModelParams(**hyper, buffer=np.concatenate(flats, dtype=np.float64))


def _values_array(values, size: int, field: str) -> np.ndarray:
    """Version 1: a JSON list of ``size`` numbers, as a float64 array. A
    boolean is not a JSON number, though ``np.array`` casts one among numbers."""
    numbers = isinstance(values, list) and not any(type(v) is bool for v in values)
    try:
        arr = np.array(values) if numbers else None
    except (ValueError, TypeError, OverflowError):
        arr = None
    if arr is None or arr.dtype.kind not in "fi" or arr.shape != (size,):
        raise ValidationError(f"{field} must be a list of {size} numbers")
    return arr.astype(np.float64, copy=False)


def _data_array(data, size: int, field: str) -> np.ndarray:
    """Version 2: the base64 of ``size`` little-endian float64s, as a
    read-only array over the decoded bytes."""
    if not isinstance(data, str):
        raise ValidationError(f"{field} must be a base64 string")
    try:
        raw = base64.b64decode(data, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII character
        raise ValidationError(f"{field} is not valid base64: {exc}") from exc
    if len(raw) != 8 * size:
        raise ValidationError(f"{field} holds {len(raw)} bytes, its shape needs {8 * size}")
    return np.frombuffer(raw, "<f8")


_PAYLOADS = {1: ("values", _values_array), 2: ("data", _data_array)}  # version -> entry decoder
