"""Graph-attention encoder and next-node decoder.

The encoder lifts each node's scalar weight into an embedding, runs two
multi-head attention layers over graph neighborhoods (self-loop
included, residual connection per layer), then one feedforward layer
with a second residual. The decoder scores a move from node i to node j
as

    score(i, j) = clip * tanh( (Q v_i) . (K v_j) / sqrt(embed_dim) )

so every score lands in [-clip, +clip]; a temperature softmax turns the
scores of the unvisited neighbors into move probabilities. Both run on
a batch of equal-size graphs at once, with the batch as the leading
axis; a single graph is a batch of one.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .files import atomic_write_text
from .graphgen import WeightedGraph
from .numcore import ForwardTape, Tape, Tensor, tensor

CHECKPOINT_VERSION = 1

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
    """Hyperparameters plus one tensor per ``param_spec`` entry."""

    embed_dim: int
    num_heads: int
    ff_dim: int
    score_clip: float
    tensors: dict[str, Tensor]

    def __post_init__(self):
        if min(self.embed_dim, self.num_heads, self.ff_dim) <= 0:
            raise ValidationError(f"model sizes must be positive, got {self.hyper()}")
        if self.embed_dim % self.num_heads != 0:
            raise ValidationError(
                f"embed_dim {self.embed_dim} not divisible by num_heads {self.num_heads}"
            )
        if not (0 < self.score_clip < math.inf):
            raise ValidationError(f"score_clip must be finite and positive, got {self.score_clip}")

    def hyper(self) -> dict:
        return {key: getattr(self, key) for key in HYPER_FIELDS}


def init_params(
    seed: int,
    embed_dim: int = 64,
    num_heads: int = 4,
    ff_dim: int = 128,
    score_clip: float = 10.0,
) -> ModelParams:
    """Seeded uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) initialization."""
    params = ModelParams(embed_dim, num_heads, ff_dim, score_clip, tensors={})
    rng = np.random.default_rng(seed)
    for name, (shape, fan_in) in param_spec(embed_dim, num_heads, ff_dim).items():
        bound = 1.0 / math.sqrt(fan_in)
        params.tensors[name] = tensor(rng.uniform(-bound, bound, size=shape))
    return params


def copy_params(params: ModelParams) -> ModelParams:
    """Deep copy, e.g. to freeze a baseline network."""
    tensors = {name: Tensor(t.values.copy()) for name, t in params.tensors.items()}
    return replace(params, tensors=tensors)


def encode(
    graphs: Sequence[WeightedGraph], params: ModelParams, tape: Tape | None = None
) -> Tensor:
    """Embed every node of equal-size graphs: one ``[B, num_nodes, embed_dim]``
    tensor, entry b for ``graphs[b]``; a single graph is a batch of one.

    Per attention layer and head: score each neighborhood edge (self-loop
    included) with a LeakyReLU of the learned attention form, normalize
    with a masked softmax over the neighborhood, aggregate the projected
    features, concatenate heads, and add the residual. One feedforward
    layer with its own residual follows the second attention layer.
    """
    if not graphs:
        raise ValidationError("encode needs at least one graph")
    n = graphs[0].num_nodes
    for g in graphs:
        if g.num_nodes != n:
            raise ValidationError(
                f"encode needs graphs of one size, got {n} and {g.num_nodes} nodes"
            )
    tape = tape if tape is not None else ForwardTape()
    p = params.tensors
    mask = np.stack([g.adjacency for g in graphs]) | np.eye(n, dtype=bool)

    weights_col = tensor(np.stack([g.node_weights.reshape(n, 1) for g in graphs]))
    h = tape.matmul(weights_col, p["encoder.input_lift"])  # [B, n, embed_dim]

    for li in range(NUM_LAYERS):
        head_outputs = []
        for hi in range(params.num_heads):
            weight = p[f"encoder.layer{li}.head{hi}.weight"]
            attn = p[f"encoder.layer{li}.head{hi}.attn"]
            head_dim = weight.shape[1]
            projected = tape.matmul(h, weight)  # [B, n, head_dim]
            attn_src = tape.gather_rows(attn, range(head_dim))
            attn_dst = tape.gather_rows(attn, range(head_dim, 2 * head_dim))
            score_src = tape.matmul(projected, attn_src)  # [B, n, 1]
            score_dst = tape.matmul(projected, attn_dst)  # [B, n, 1]
            # pairwise scores: row i, column j = src score of i + dst score of j
            pair = tape.add(score_src, tape.transpose(score_dst))
            pair = tape.leaky_relu(pair, LEAKY_SLOPE)
            coeff = tape.masked_softmax(pair, mask)
            head_outputs.append(tape.matmul(coeff, projected))
        h = tape.add(h, tape.concat(head_outputs, axis=-1))

    inner = tape.leaky_relu(
        tape.add(tape.matmul(h, p["encoder.ff_in_weight"]), p["encoder.ff_in_bias"]), LEAKY_SLOPE
    )
    ff = tape.add(tape.matmul(inner, p["encoder.ff_out_weight"]), p["encoder.ff_out_bias"])
    return tape.add(h, ff)


def score_matrix(emb: Tensor, params: ModelParams, tape: Tape | None = None) -> Tensor:
    """Decoder scores of every move as one ``[B, num_nodes, num_nodes]`` tensor.

    Entry b, row i, column j scores moving from node i to node j in graph
    b; every entry lies in [-clip, +clip]. The inputs are fixed for a
    whole rollout, so a rollout computes the matrix once and reads each
    decision from it.
    """
    tape = tape if tape is not None else ForwardTape()
    p = params.tensors
    query = tape.matmul(emb, tape.transpose(p["decoder.query_proj"]))  # [B, n, embed_dim]
    keys = tape.matmul(emb, tape.transpose(p["decoder.key_proj"]))  # [B, n, embed_dim]
    raw = tape.matmul(query, tape.transpose(keys))  # [B, n, n]
    scaled = tape.mul_scalar(raw, 1.0 / math.sqrt(params.embed_dim))
    return tape.mul_scalar(tape.tanh(scaled), params.score_clip)


def save_checkpoint(params: ModelParams, path) -> None:
    blobs = {}
    for name in param_spec(params.embed_dim, params.num_heads, params.ff_dim):
        t = params.tensors[name]
        blobs[name] = {"shape": list(t.shape), "values": t.values.reshape(-1).tolist()}
    doc = {"version": CHECKPOINT_VERSION, "hyper": params.hyper(), "params": blobs}
    # Streamed chunk by chunk: the whole text at once would double peak memory.
    atomic_write_text(path, itertools.chain(json.JSONEncoder().iterencode(doc), ["\n"]))


def load_checkpoint(path) -> ModelParams:
    """Rebuild ModelParams from a checkpoint file.

    The hyperparameter header must agree with every stored parameter
    shape. Malformed content raises ValidationError naming the file and
    the field.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise ValidationError(f"checkpoint {path} is not valid JSON: {exc}") from exc
    try:
        return _params_from_doc(doc)
    except ValidationError as exc:
        raise ValidationError(f"checkpoint {path}: {exc}") from exc


def _params_from_doc(doc) -> ModelParams:
    if not isinstance(doc, dict):
        raise ValidationError(f"expected a JSON object, got {type(doc).__name__}")
    version = doc.get("version")
    if version != CHECKPOINT_VERSION:
        raise ValidationError(f"unsupported version {version!r} (expected {CHECKPOINT_VERSION})")
    hyper = doc.get("hyper")
    if not isinstance(hyper, dict):
        raise ValidationError("field 'hyper' is missing or not an object")
    blobs = doc.get("params")
    if not isinstance(blobs, dict):
        raise ValidationError("field 'params' is missing or not an object")
    params = ModelParams(**{key: _header_number(hyper, key) for key in HYPER_FIELDS}, tensors={})
    # Every head has its own parameters, so this bounds the spec by the file.
    if params.num_heads > len(blobs):
        raise ValidationError(
            f"header has {params.num_heads} heads but 'params' holds only {len(blobs)} entries"
        )

    spec = param_spec(params.embed_dim, params.num_heads, params.ff_dim)
    for name, (shape, _) in spec.items():
        if name not in blobs:
            raise ValidationError(f"missing parameter {name!r}")
        blob = blobs[name]
        if not isinstance(blob, dict):
            raise ValidationError(f"field 'params.{name}' must be an object")
        if blob.get("shape") != list(shape):
            raise ValidationError(
                f"parameter {name!r} has shape {blob.get('shape')!r}, header implies {list(shape)}"
            )
        params.tensors[name] = _values_tensor(name, blob.get("values"), shape)
    extra = sorted(set(blobs) - set(spec))
    if extra:
        raise ValidationError(f"unexpected parameters: {extra}")
    return params


def _header_number(hyper: dict, key: str):
    kind = float if key == "score_clip" else int
    value = hyper.get(key)
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            if kind(value) == value:
                return kind(value)
        except (OverflowError, ValueError):
            pass
    what = "an integer" if kind is int else "a number"
    raise ValidationError(f"field 'hyper.{key}' must be {what}, got {value!r}")


def _values_tensor(name: str, values, shape: tuple[int, ...]) -> Tensor:
    size = math.prod(shape)
    try:
        arr = np.array(values) if isinstance(values, list) else None
    except (ValueError, TypeError, OverflowError):
        arr = None
    if arr is None or arr.dtype.kind not in "fi" or arr.shape != (size,):
        raise ValidationError(f"field 'params.{name}.values' must be a list of {size} numbers")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"field 'params.{name}.values' holds non-finite numbers")
    return tensor(arr.astype(np.float64, copy=False).reshape(shape))
