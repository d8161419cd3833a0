"""Dense float64 tensor arithmetic with taped reverse-mode differentiation.

Every learnable computation in the package is built from the primitives
here. A forward op validates shapes, rejects non-finite results, and
appends its local gradient rule to a ``Tape``; ``Tape.backward`` replays
the records in reverse and returns the exact chain-rule gradients of the
tensors it is asked for, which ``adam_step`` consumes. A ``Tensor`` is
values only: gradients are returned, never stored on it.

Sparse structure is plain index data: a ``RowIndex`` names the rows a
``gather_rows`` reads (its backward scatters through the same index),
and ``Segments`` split the leading axis of a tensor into consecutive
runs, such as a node's edges in the encoder or a move's candidates in
the loss, for ``segment_softmax`` and ``segment_sum``. ``segment_softmax``
is the one taped softmax; the plain ``softmax`` serves untaped code.

All arithmetic is float64 and fully deterministic: the same inputs and
op sequence produce bit-identical outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import NumericError, ValidationError

__all__ = [
    "Tensor",
    "Tape",
    "RowIndex",
    "Segments",
    "AdamState",
    "adam_step",
    "tensor",
]


class Tensor:
    """A dense float64 array."""

    __slots__ = ("values",)

    def __init__(self, values):
        self.values = np.asarray(values, dtype=np.float64)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    def item(self) -> float:
        if self.values.size != 1:
            raise ValidationError(f"item() needs a single-element tensor, got shape {self.shape}")
        return float(self.values.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"


def tensor(values) -> Tensor:
    """Wrap ``values`` as a Tensor, rejecting non-finite entries."""
    t = Tensor(values)
    if not np.all(np.isfinite(t.values)):
        raise NumericError("tensor values must be finite")
    return t


def _check_finite(arr: np.ndarray, op: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"{op} produced non-finite values")


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def _swap_last(arr: np.ndarray) -> np.ndarray:
    return np.swapaxes(arr, -1, -2)


def softmax(values: np.ndarray) -> np.ndarray:
    """Softmax along the last axis of a plain array, stabilized by
    subtracting the max before exponentiation."""
    e = np.exp(values - values.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


# A record is (output, inputs, rule); rule maps the output adjoint to the inputs' adjoints.
_Rule = Callable[[np.ndarray], tuple]


class RowIndex:
    """Row numbers into an array of ``num_rows`` rows: the rows a gather
    reads, or the rows a scatter adds into. The flat index of the entries
    they cover is built once per row width and kept, so every gather and
    scatter through one index shares it."""

    __slots__ = ("rows", "num_rows", "_flat")

    def __init__(self, rows: Sequence[int] | np.ndarray, num_rows: int):
        idx = np.asarray(rows, dtype=np.intp)
        if idx.ndim != 1 or (idx.size and (idx.min() < 0 or idx.max() >= num_rows)):
            raise ValidationError(
                f"gather_rows needs 1-d row indices in [0, {num_rows}), got {idx}"
            )
        self.rows = idx
        self.num_rows = num_rows
        self._flat: dict[int, np.ndarray] = {}

    def scatter(self, values: np.ndarray) -> np.ndarray:
        """Add row k of ``values`` into row ``rows[k]`` of a zero array of
        ``num_rows`` rows, in index order: ``np.add.at``, bit for bit."""
        width = math.prod(values.shape[1:])
        flat = self._flat.get(width)
        if flat is None:
            flat = (self.rows[:, None] * width + np.arange(width)).reshape(-1)
            self._flat[width] = flat
        total = np.bincount(flat, weights=values.reshape(-1), minlength=self.num_rows * width)
        return total.reshape((self.num_rows,) + values.shape[1:])


class Segments(RowIndex):
    """A split of the leading axis of an ``[E, ...]`` array into consecutive,
    non-empty segments, segment s holding the next ``counts[s]`` entries.
    As a ``RowIndex``, entry e's row is its segment."""

    __slots__ = ("counts", "starts")

    def __init__(self, counts: Sequence[int] | np.ndarray):
        c = np.asarray(counts)
        if c.ndim != 1 or c.size == 0 or c.dtype.kind not in "iu" or c.min() < 1:
            raise ValidationError(
                f"segment counts must be a non-empty 1-d array of positive integers, got {c}"
            )
        self.counts = c.astype(np.intp)
        self.starts = np.cumsum(self.counts) - self.counts
        super().__init__(np.repeat(np.arange(c.size), self.counts), c.size)

    def check(self, a: Tensor, op: str) -> None:
        if a.values.ndim == 0 or a.shape[0] != self.rows.size:
            raise ValidationError(
                f"{op}: segments cover {self.rows.size} entries, got shape {a.shape}"
            )


class Tape:
    """Ordered record of primitive ops for one forward pass.

    Records are appended in topological order by construction; ``backward``
    may run once per tape. A tape is single-threaded; run independent
    tapes for concurrent work.
    """

    def __init__(self):
        self._records: list[tuple[Tensor, tuple[Tensor, ...], _Rule]] = []
        self._consumed = False

    def __len__(self) -> int:
        return len(self._records)

    def _record(self, out: Tensor, inputs: tuple[Tensor, ...], rule: _Rule) -> None:
        self._records.append((out, inputs, rule))

    # -- primitive forward ops -------------------------------------------

    def matmul(self, a: Tensor, b: Tensor) -> Tensor:
        """``[n, k] @ [k, m]``, or per batch entry ``[B, n, k] @ [k, m]``
        (one shared right operand) and ``[B, n, k] @ [B, k, m]``."""
        av, bv = a.values, b.values
        if (
            av.ndim not in (2, 3)
            or bv.ndim not in (2, av.ndim)
            or av.shape[-1] != bv.shape[-2]
            or (bv.ndim == 3 and av.shape[0] != bv.shape[0])
        ):
            raise ValidationError(f"matmul shape mismatch: {av.shape} @ {bv.shape}")
        out = Tensor(av @ bv)
        _check_finite(out.values, "matmul")

        def rule(g):
            if bv.ndim == av.ndim:
                return g @ _swap_last(bv), _swap_last(av) @ g
            # a shared right operand's gradient sums over the batch
            return g @ bv.T, av.reshape(-1, av.shape[-1]).T @ g.reshape(-1, g.shape[-1])

        self._record(out, (a, b), rule)
        return out

    def add(self, a: Tensor, b: Tensor) -> Tensor:
        try:
            out = Tensor(a.values + b.values)
        except ValueError as exc:
            raise ValidationError(f"add shape mismatch: {a.shape} + {b.shape}") from exc
        _check_finite(out.values, "add")
        a_shape, b_shape = a.shape, b.shape
        self._record(out, (a, b), lambda g: (_unbroadcast(g, a_shape), _unbroadcast(g, b_shape)))
        return out

    def mul(self, a: Tensor, b: Tensor) -> Tensor:
        try:
            out = Tensor(a.values * b.values)
        except ValueError as exc:
            raise ValidationError(f"mul shape mismatch: {a.shape} * {b.shape}") from exc
        _check_finite(out.values, "mul")
        av, bv = a.values, b.values
        a_shape, b_shape = a.shape, b.shape
        self._record(
            out,
            (a, b),
            lambda g: (_unbroadcast(g * bv, a_shape), _unbroadcast(g * av, b_shape)),
        )
        return out

    def mul_scalar(self, a: Tensor, scalar: float) -> Tensor:
        c = float(scalar)
        out = Tensor(a.values * c)
        _check_finite(out.values, "mul_scalar")
        self._record(out, (a,), lambda g: (g * c,))
        return out

    def concat(self, parts: Sequence[Tensor], axis: int = 0) -> Tensor:
        if not parts:
            raise ValidationError("concat needs at least one tensor")
        try:
            out = Tensor(np.concatenate([p.values for p in parts], axis=axis))
        except ValueError as exc:
            raise ValidationError(f"concat shape mismatch along axis {axis}") from exc
        _check_finite(out.values, "concat")
        offsets = np.cumsum([p.values.shape[axis] for p in parts])[:-1]
        self._record(out, tuple(parts), lambda g: tuple(np.split(g, offsets, axis=axis)))
        return out

    def leaky_relu(self, a: Tensor, slope: float = 0.2) -> Tensor:
        av = a.values
        out = Tensor(np.where(av > 0, av, slope * av))
        _check_finite(out.values, "leaky_relu")
        factor = np.where(av > 0, 1.0, slope)
        self._record(out, (a,), lambda g: (g * factor,))
        return out

    def tanh(self, a: Tensor) -> Tensor:
        yv = np.tanh(a.values)
        out = Tensor(yv)
        self._record(out, (a,), lambda g: (g * (1.0 - yv * yv),))
        return out

    def log(self, a: Tensor) -> Tensor:
        av = a.values
        if np.any(av <= 0):
            raise NumericError("log of a non-positive value")
        out = Tensor(np.log(av))
        _check_finite(out.values, "log")
        self._record(out, (a,), lambda g: (g / av,))
        return out

    def sum(self, a: Tensor) -> Tensor:
        out = Tensor(a.values.sum())
        _check_finite(out.values, "sum")
        shape = a.shape
        self._record(out, (a,), lambda g: (np.broadcast_to(g, shape).copy(),))
        return out

    def transpose(self, a: Tensor) -> Tensor:
        """Swap the last two axes of a 2-d or 3-d tensor."""
        if a.values.ndim not in (2, 3):
            raise ValidationError(f"transpose needs a 2-d or 3-d tensor, got shape {a.shape}")
        out = Tensor(_swap_last(a.values).copy())
        self._record(out, (a,), lambda g: (_swap_last(g),))
        return out

    def reshape(self, a: Tensor, shape: tuple[int, ...]) -> Tensor:
        old = a.shape
        try:
            out = Tensor(a.values.reshape(shape))
        except ValueError as exc:
            raise ValidationError(f"cannot reshape {old} to {shape}") from exc
        self._record(out, (a,), lambda g: (g.reshape(old),))
        return out

    def gather_rows(self, a: Tensor, indices: Sequence[int] | np.ndarray | RowIndex) -> Tensor:
        """Rows ``indices`` of a 2-d tensor, repeats allowed. The backward
        scatter-adds each gathered row's adjoint in index order. One
        ``RowIndex`` serves every gather from arrays of its row count."""
        if a.values.ndim != 2:
            raise ValidationError(f"gather_rows needs a 2-d tensor, got shape {a.shape}")
        index = indices if isinstance(indices, RowIndex) else RowIndex(indices, a.shape[0])
        if index.num_rows != a.shape[0]:
            raise ValidationError(
                f"gather_rows index is for {index.num_rows} rows, got shape {a.shape}"
            )
        out = Tensor(a.values[index.rows])
        self._record(out, (a,), lambda g: (index.scatter(g),))
        return out

    def segment_softmax(self, a: Tensor, segments: Segments) -> Tensor:
        """Softmax over each segment of the leading axis, per column.

        Numerically stabilized by subtracting the segment max before
        exponentiation; a one-entry segment gets exactly 1.
        """
        segments.check(a, "segment_softmax")
        peak = np.maximum.reduceat(a.values, segments.starts, axis=0)
        e = np.exp(a.values - peak[segments.rows])
        p = e / segments.scatter(e)[segments.rows]
        out = Tensor(p)
        _check_finite(out.values, "segment_softmax")
        self._record(out, (a,), lambda g: (p * (g - segments.scatter(g * p)[segments.rows]),))
        return out

    def segment_sum(
        self, a: Tensor, index: RowIndex, weights: Tensor, segments: Segments
    ) -> Tensor:
        """Per segment, the weighted sum of the rows of ``a`` ``[n, k]`` that
        ``index`` names, one per entry: entry e reads row ``index.rows[e]``
        and scales it block-wise by ``weights[e]`` ``[E, h]``, columns
        j*k/h .. (j+1)*k/h - 1 by weight j. The result is
        ``[len(segments.counts), k]``. The gathered ``[E, k]`` rows are
        not kept: the backward gathers them again."""
        segments.check(weights, "segment_sum")
        av, wv = a.values, weights.values
        blocks = wv.shape[1] if wv.ndim == 2 else 0
        if (
            not blocks
            or av.ndim != 2
            or av.shape[1] % blocks
            or (index.num_rows, index.rows.size) != (av.shape[0], wv.shape[0])
        ):
            raise ValidationError(
                f"segment_sum: values {av.shape} do not fit weights {wv.shape} "
                f"and an index of {index.rows.size} rows into {index.num_rows}"
            )
        blocked = (wv.shape[0], blocks, av.shape[1] // blocks)
        scaled = av[index.rows].reshape(blocked)
        scaled *= wv[:, :, None]
        out = Tensor(segments.scatter(scaled).reshape(-1, av.shape[1]))
        _check_finite(out.values, "segment_sum")

        def rule(g):
            # each entry's segment adjoint, scaled in place into the gathered
            # rows' adjoint: an [E, k] array is costly to allocate
            spread = g[segments.rows].reshape(blocked)
            grad_w = np.einsum("ehk,ehk->eh", spread, av[index.rows].reshape(blocked))
            spread *= wv[:, :, None]
            return index.scatter(spread.reshape(-1, av.shape[1])), grad_w

        self._record(out, (a, weights), rule)
        return out

    # -- reverse pass -----------------------------------------------------

    def backward(self, loss: Tensor, wrt: Mapping[str, Tensor]) -> dict[str, np.ndarray]:
        """d(loss)/d(t) for every tensor ``t`` of ``wrt``, under its name; zeros
        where the loss does not reach. The loss must be a single-element
        tensor produced on this tape; a tape backpropagates only once."""
        if self._consumed:
            raise ValidationError("tape already consumed by a previous backward pass")
        if loss.values.size != 1:
            raise ValidationError(f"loss must be scalar, got shape {loss.shape}")
        if not any(out is loss for out, _, _ in reversed(self._records)):
            raise ValidationError("loss is not the output of an op recorded on this tape")
        self._consumed = True

        adjoints: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.values)}
        for out, inputs, rule in reversed(self._records):
            g = adjoints.pop(id(out), None)
            if g is None:
                continue
            for inp, gin in zip(inputs, rule(g)):
                key = id(inp)
                adjoints[key] = adjoints[key] + gin if key in adjoints else gin
        return {
            name: adjoints[id(t)] if id(t) in adjoints else np.zeros_like(t.values)
            for name, t in wrt.items()
        }


class ForwardTape(Tape):
    """Runs the ops and records none of them: a forward pass that will
    never be differentiated keeps no intermediates alive."""

    def _record(self, out: Tensor, inputs: tuple[Tensor, ...], rule: _Rule) -> None:
        pass


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """Per-parameter moment estimates plus the shared step counter."""

    learning_rate: float = 1e-3
    step: int = 0
    first_moment: dict[str, np.ndarray] = field(default_factory=dict)
    second_moment: dict[str, np.ndarray] = field(default_factory=dict)


def adam_step(
    params: Mapping[str, Tensor],
    grads: Mapping[str, np.ndarray],
    state: AdamState,
) -> None:
    """One bias-corrected Adam update of ``params`` and ``state``, in place.

    Each parameter gets its own effective step size from its moment
    estimates.
    """
    if not 0 < state.learning_rate < math.inf:  # also false for NaN
        raise ValidationError(f"learning_rate must be positive and finite, got {state.learning_rate}")
    state.step += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    bias1 = 1.0 - b1**state.step
    bias2 = 1.0 - b2**state.step
    for name, p in params.items():
        if name not in grads:
            raise ValidationError(f"missing gradient for parameter {name!r}")
        g = np.asarray(grads[name], dtype=np.float64)
        if g.shape != p.shape:
            raise ValidationError(
                f"gradient shape {g.shape} does not match parameter {name!r} shape {p.shape}"
            )
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for parameter {name!r}")
        m = state.first_moment.get(name)
        v = state.second_moment.get(name)
        if m is None:
            m = np.zeros_like(p.values)
            v = np.zeros_like(p.values)
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g * g
        state.first_moment[name] = m
        state.second_moment[name] = v
        m_hat = m / bias1
        v_hat = v / bias2
        p.values = p.values - state.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
