"""Taped reverse-mode differentiation of float64 numpy arrays.

Every learnable computation in the package is built from the primitives
here. A forward op takes and returns float64 ``np.ndarray``s, validates
shapes, rejects non-finite results, and appends its local gradient rule
to a ``Tape``; ``Tape.backward`` replays the records in reverse and
returns the exact chain-rule gradients of the arrays it is asked for.
Adjoints are keyed by array identity, so an op always returns a new
array object, never one of its inputs. ``adam_step`` updates parameters
held in one flat float64 buffer, read through a view per name, as
``model.ModelParams`` holds them: in place, the whole buffer at once,
from the gradients ``backward`` returns.

Sparse structure is plain index data: a ``RowIndex`` names the rows a
``gather_rows`` reads (its backward scatters through the same index),
and ``Segments`` split the leading axis of an array into consecutive
runs, such as a node's edges in the encoder or a move's candidates in
the loss, for ``segment_softmax`` and ``segment_sum``. ``edge_dot``
computes chosen entries of a product ``a @ b.T``, such as one per edge
of a graph, without the dense whole. ``segment_softmax`` is the one
softmax.

All arithmetic is float64 and fully deterministic: the same inputs and
op sequence produce bit-identical outputs.
"""

from __future__ import annotations

import ctypes
import math
import os
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import NumericError, ValidationError

# By default glibc serves an array above 128 KB with a fresh mmap, or trims
# the heap top once it is freed, so each op's [E, d] and [n, d] temporaries
# fault their pages in afresh: about 1,000 minor faults per evaluate of a
# 600-node graph loaded from a file, and 300-520 per paper-config epoch.
# M_TOP_PAD makes glibc grow the heap by 64 MiB more than it needs and keep
# that much when it trims, so the temporaries come from pages already
# touched: 2-4 faults per evaluate, 0-5 per epoch. Other libcs are left alone.
_M_TOP_PAD = -2
try:
    _glibc = os.confstr("CS_GNU_LIBC_VERSION")
except (AttributeError, ValueError, OSError):  # no confstr, no such name, another libc
    _glibc = None
if _glibc:
    _mallopt = ctypes.CDLL(None).mallopt
    _mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    _mallopt.restype = ctypes.c_int
    _mallopt(_M_TOP_PAD, 64 << 20)

__all__ = [
    "Tape",
    "RowIndex",
    "Segments",
    "AdamState",
    "adam_step",
]


def _check_finite(arr: np.ndarray, op: str) -> None:
    if not np.isfinite(arr).all():
        raise NumericError(f"{op} produced non-finite values")


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


# A record is (output, inputs, rule); rule maps the output adjoint to the inputs' adjoints.
_Rule = Callable[[np.ndarray], tuple]


class RowIndex:
    """Row numbers into an array of ``num_rows`` rows: the rows a gather
    reads, or the rows a scatter adds into. The flat index of the entries
    they cover is built once per row width and kept, so every gather and
    scatter through one index shares it."""

    __slots__ = ("rows", "num_rows", "_flat")

    def __init__(self, rows: Sequence[int] | np.ndarray, num_rows: int):
        idx = np.asarray(rows)
        if (
            idx.ndim != 1
            or (idx.size and (idx.dtype.kind not in "iu" or idx.min() < 0 or idx.max() >= num_rows))
        ):
            raise ValidationError(
                f"row indices, as gather_rows and edge_dot take, must be 1-d integers "
                f"in [0, {num_rows}), got {idx}"
            )
        self.rows = idx.astype(np.intp, copy=False)
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

    def check(self, a: np.ndarray, op: str) -> None:
        if a.ndim == 0 or a.shape[0] != self.rows.size:
            raise ValidationError(
                f"{op}: segments cover {self.rows.size} entries, got shape {a.shape}"
            )


class Tape:
    """Ordered record of primitive ops for one forward pass.

    Records are appended in topological order by construction; ``backward``
    may run once per tape, and releases each record as it replays it. A
    tape is single-threaded; run independent tapes for concurrent work.
    """

    def __init__(self):
        self._records: list[tuple[np.ndarray, tuple[np.ndarray, ...], _Rule]] = []
        self._replayed = 0
        self._consumed = False

    def __len__(self) -> int:
        """The number of records the forward pass made, also after ``backward``."""
        return self._replayed + len(self._records)

    def _record(self, out: np.ndarray, inputs: tuple[np.ndarray, ...], rule: _Rule) -> None:
        self._records.append((out, inputs, rule))

    # -- primitive forward ops -------------------------------------------

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """``[n, k] @ [k, m]``."""
        if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
            raise ValidationError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
        out = a @ b
        _check_finite(out, "matmul")
        self._record(out, (a, b), lambda g: (g @ b.T, a.T @ g))
        return out

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        try:
            out = a + b
        except ValueError as exc:
            raise ValidationError(f"add shape mismatch: {a.shape} + {b.shape}") from exc
        _check_finite(out, "add")
        self._record(out, (a, b), lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))
        return out

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        try:
            out = a * b
        except ValueError as exc:
            raise ValidationError(f"mul shape mismatch: {a.shape} * {b.shape}") from exc
        _check_finite(out, "mul")
        self._record(
            out, (a, b), lambda g: (_unbroadcast(g * b, a.shape), _unbroadcast(g * a, b.shape))
        )
        return out

    def mul_scalar(self, a: np.ndarray, scalar: float) -> np.ndarray:
        c = float(scalar)
        out = a * c
        _check_finite(out, "mul_scalar")
        self._record(out, (a,), lambda g: (g * c,))
        return out

    def concat(self, parts: Sequence[np.ndarray], axis: int = 0) -> np.ndarray:
        if not parts:
            raise ValidationError("concat needs at least one array")
        try:
            out = np.concatenate(parts, axis=axis)
        except ValueError as exc:
            raise ValidationError(f"concat shape mismatch along axis {axis}") from exc
        _check_finite(out, "concat")
        offsets = np.cumsum([p.shape[axis] for p in parts])[:-1]
        self._record(out, tuple(parts), lambda g: tuple(np.split(g, offsets, axis=axis)))
        return out

    def leaky_relu(self, a: np.ndarray, slope: float = 0.2) -> np.ndarray:
        """``a`` where positive, else ``slope * a``: for a slope in [0, 1]
        that is ``max(a, slope * a)``, bit for bit, without a branch per
        entry. The backward builds its factor only when it runs."""
        if not 0.0 <= slope <= 1.0:  # also false for NaN
            raise ValidationError(f"leaky_relu slope must be in [0, 1], got {slope}")
        out = np.maximum(a, slope * a)
        _check_finite(out, "leaky_relu")
        self._record(out, (a,), lambda g: (g * (slope + (1.0 - slope) * (a > 0)),))
        return out

    def tanh(self, a: np.ndarray) -> np.ndarray:
        out = np.tanh(a)
        self._record(out, (a,), lambda g: (g * (1.0 - out * out),))
        return out

    def log(self, a: np.ndarray) -> np.ndarray:
        if np.any(a <= 0):
            raise NumericError("log of a non-positive value")
        out = np.log(a)
        _check_finite(out, "log")
        self._record(out, (a,), lambda g: (g / a,))
        return out

    def sum(self, a: np.ndarray) -> np.ndarray:
        out = np.asarray(a.sum())  # a 0-d array, not a numpy scalar
        _check_finite(out, "sum")
        self._record(out, (a,), lambda g: (np.broadcast_to(g, a.shape).copy(),))
        return out

    def transpose(self, a: np.ndarray) -> np.ndarray:
        """``[n, m]`` to ``[m, n]``."""
        if a.ndim != 2:
            raise ValidationError(f"transpose needs a 2-d array, got shape {a.shape}")
        out = a.T.copy()
        self._record(out, (a,), lambda g: (g.T,))
        return out

    def gather_rows(
        self, a: np.ndarray, indices: Sequence[int] | np.ndarray | RowIndex
    ) -> np.ndarray:
        """Rows ``indices`` of an array along its first axis, repeats allowed;
        each entry of a 1-d array is one row. The backward scatter-adds each
        gathered row's adjoint in index order. One ``RowIndex`` serves every
        gather from arrays of its row count."""
        if a.ndim == 0:
            raise ValidationError("gather_rows needs an array with rows, got a 0-d array")
        index = indices if isinstance(indices, RowIndex) else RowIndex(indices, a.shape[0])
        if index.num_rows != a.shape[0]:
            raise ValidationError(
                f"gather_rows index is for {index.num_rows} rows, got shape {a.shape}"
            )
        out = a[index.rows]
        self._record(out, (a,), lambda g: (index.scatter(g),))
        return out

    def edge_dot(self, a: np.ndarray, b: np.ndarray, rows: RowIndex, cols: RowIndex) -> np.ndarray:
        """Entries ``(rows[e], cols[e])`` of ``a @ b.T`` for two ``[N, k]``
        arrays, without forming its ``[N, N]`` whole: entry e is row
        ``rows[e]`` of ``a`` dotted with row ``cols[e]`` of ``b``, e.g. the
        source and target of an edge. The backward scales the gathered
        rows by the ``[E]`` adjoint and scatters them through the two
        indices."""
        if (
            a.ndim != 2
            or b.shape != a.shape
            or (rows.num_rows, cols.num_rows) != (a.shape[0],) * 2
            or rows.rows.size != cols.rows.size
        ):
            raise ValidationError(
                f"edge_dot needs two equal [N, k] arrays and two equal-length indices into their "
                f"N rows, got {a.shape}, {b.shape}, {rows.rows.size} rows into {rows.num_rows} "
                f"and {cols.rows.size} into {cols.num_rows}"
            )
        out = np.einsum("ek,ek->e", a[rows.rows], b[cols.rows])
        _check_finite(out, "edge_dot")

        def rule(g):
            # scaled in place: an [E, k] array is costly to allocate
            grad_a, grad_b = b[cols.rows], a[rows.rows]
            grad_a *= g[:, None]
            grad_b *= g[:, None]
            return rows.scatter(grad_a), cols.scatter(grad_b)

        self._record(out, (a, b), rule)
        return out

    def segment_softmax(self, a: np.ndarray, segments: Segments) -> np.ndarray:
        """Softmax over each segment of the leading axis, per column.

        Numerically stabilized by subtracting the segment max before
        exponentiation; a one-entry segment gets exactly 1.
        """
        segments.check(a, "segment_softmax")
        peak = np.maximum.reduceat(a, segments.starts, axis=0)
        e = np.exp(a - peak[segments.rows])
        p = e / segments.scatter(e)[segments.rows]
        _check_finite(p, "segment_softmax")
        self._record(p, (a,), lambda g: (p * (g - segments.scatter(g * p)[segments.rows]),))
        return p

    def segment_sum(
        self, a: np.ndarray, index: RowIndex, weights: np.ndarray, segments: Segments
    ) -> np.ndarray:
        """Per segment, the weighted sum of the rows of ``a`` ``[n, k]`` that
        ``index`` names, one per entry: entry e reads row ``index.rows[e]``
        and scales it block-wise by ``weights[e]`` ``[E, h]``, columns
        j*k/h .. (j+1)*k/h - 1 by weight j. The result is
        ``[len(segments.counts), k]``. The gathered ``[E, k]`` rows are
        not kept: the backward gathers them again."""
        segments.check(weights, "segment_sum")
        blocks = weights.shape[1] if weights.ndim == 2 else 0
        if (
            not blocks
            or a.ndim != 2
            or a.shape[1] % blocks
            or (index.num_rows, index.rows.size) != (a.shape[0], weights.shape[0])
        ):
            raise ValidationError(
                f"segment_sum: values {a.shape} do not fit weights {weights.shape} "
                f"and an index of {index.rows.size} rows into {index.num_rows}"
            )
        blocked = (weights.shape[0], blocks, a.shape[1] // blocks)
        scaled = a[index.rows].reshape(blocked)
        scaled *= weights[:, :, None]
        out = segments.scatter(scaled).reshape(-1, a.shape[1])
        _check_finite(out, "segment_sum")

        def rule(g):
            # each entry's segment adjoint, scaled in place into the gathered
            # rows' adjoint: an [E, k] array is costly to allocate
            spread = g[segments.rows].reshape(blocked)
            grad_w = np.einsum("ehk,ehk->eh", spread, a[index.rows].reshape(blocked))
            spread *= weights[:, :, None]
            return index.scatter(spread.reshape(-1, a.shape[1])), grad_w

        self._record(out, (a, weights), rule)
        return out

    # -- reverse pass -----------------------------------------------------

    def backward(
        self, loss: np.ndarray, wrt: Mapping[str, np.ndarray]
    ) -> dict[str, np.ndarray]:
        """d(loss)/d(x) for every array ``x`` of ``wrt``, under its name; zeros
        where the loss does not reach. The loss must be a single-element
        array produced on this tape; a tape backpropagates only once.

        Each record is removed from the tape as its rule runs, so an
        intermediate array, its rule and its adjoint are freed once the
        records that read them are replayed, and later adjoints can reuse
        their memory; ``len`` still counts them."""
        if self._consumed:
            raise ValidationError("tape already consumed by a previous backward pass")
        if loss.size != 1:
            raise ValidationError(f"loss must be scalar, got shape {loss.shape}")
        if not any(out is loss for out, _, _ in reversed(self._records)):
            raise ValidationError("loss is not the output of an op recorded on this tape")
        self._consumed = True

        adjoints: dict[int, np.ndarray] = {id(loss): np.ones_like(loss)}
        records = self._records
        while records:
            out, inputs, rule = records.pop()
            self._replayed += 1
            g = adjoints.pop(id(out), None)
            if g is None:
                continue
            for inp, gin in zip(inputs, rule(g)):
                key = id(inp)
                adjoints[key] = adjoints[key] + gin if key in adjoints else gin
        return {
            name: adjoints[id(x)] if id(x) in adjoints else np.zeros_like(x)
            for name, x in wrt.items()
        }


class ForwardTape(Tape):
    """Runs the ops and records none of them: a forward pass that will
    never be differentiated keeps no intermediates alive."""

    def _record(self, out: np.ndarray, inputs: tuple[np.ndarray, ...], rule: _Rule) -> None:
        pass


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """The shared step counter and the moment estimates, each one flat
    float64 array laid out as the parameters' buffer. The moments and the
    step's scratch rows are made at the first step and reused."""

    learning_rate: float = 1e-3
    step: int = 0
    first_moment: np.ndarray | None = None
    second_moment: np.ndarray | None = None
    _scratch: np.ndarray | None = field(default=None, repr=False)  # [gathered grads, work]


def adam_step(params, grads: Mapping[str, np.ndarray], state: AdamState) -> None:
    """One bias-corrected Adam update of ``params`` and ``state``, in place.

    ``params`` holds its values in one flat float64 ``buffer`` and reads
    them through ``tensors``, a view of the buffer's consecutive slices
    per name, in order, as ``model.ModelParams`` does. Each entry gets its
    own effective step size from its moment estimates. The gradients are
    gathered into one row and checked before anything changes; then the
    moments and the buffer are updated in place, so every view sees the
    new values. Every op is elementwise, so the whole buffer rounds
    exactly as one array per parameter would.
    """
    if not 0 < state.learning_rate < math.inf:  # also false for NaN
        raise ValidationError(f"learning_rate must be positive and finite, got {state.learning_rate}")
    if state._scratch is None:
        state.first_moment = np.zeros_like(params.buffer)
        state.second_moment = np.zeros_like(params.buffer)
        state._scratch = np.empty((2, params.buffer.size))
    checked = {}
    for name, p in params.tensors.items():
        if name not in grads:
            raise ValidationError(f"missing gradient for parameter {name!r}")
        grad = checked[name] = np.asarray(grads[name], dtype=np.float64)
        if grad.shape != p.shape:
            raise ValidationError(
                f"gradient shape {grad.shape} does not match parameter {name!r} shape {p.shape}"
            )
    g, work = state._scratch
    np.concatenate([grad.reshape(-1) for grad in checked.values()], out=g)
    if not np.isfinite(g).all():
        name = next(name for name, grad in checked.items() if not np.isfinite(grad).all())
        raise NumericError(f"non-finite gradient for parameter {name!r}")
    state.step += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    m, v = state.first_moment, state.second_moment
    m *= b1
    m += np.multiply(g, 1.0 - b1, out=work)
    v *= b2
    v += np.multiply(np.multiply(g, 1.0 - b2, out=work), g, out=work)
    # lr * (m / bias1) / (sqrt(v / bias2) + eps), in the order the ops round
    np.sqrt(np.divide(v, 1.0 - b2**state.step, out=work), out=work)
    work += ADAM_EPS
    np.divide(m, 1.0 - b1**state.step, out=g)
    g *= state.learning_rate
    g /= work
    params.buffer -= g
