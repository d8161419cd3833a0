"""Dense float64 tensor arithmetic with taped reverse-mode differentiation.

Every learnable computation in the package is built from the primitives
here. A forward op validates shapes, rejects non-finite results, and
appends its local gradient rule to a ``Tape``; ``Tape.backward`` replays
the records in reverse and returns the exact chain-rule gradients of the
tensors it is asked for, which ``adam_step`` consumes. A ``Tensor`` is
values only: gradients are returned, never stored on it.

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


def softmax(values: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
    """Softmax along the last axis of a plain array; masked entries get 0.

    The forward pass of ``Tape.masked_softmax``. Every row must keep at
    least one unmasked entry; without a mask every entry counts.
    """
    x = values if mask is None else np.where(mask, values, -np.inf)
    x = x - x.max(axis=-1, keepdims=True)
    e = np.exp(x)  # exp(-inf) == 0 exactly, so masked entries vanish
    return e / e.sum(axis=-1, keepdims=True)


# A record is (output, inputs, rule); rule maps the output adjoint to the inputs' adjoints.
_Rule = Callable[[np.ndarray], tuple]


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

    def masked_softmax(self, a: Tensor, mask) -> Tensor:
        """Softmax along the last axis with hard-masked entries.

        Masked entries get exactly zero probability; every row must keep
        at least one unmasked entry. Numerically stabilized by
        subtracting the row max before exponentiation.
        """
        m = np.asarray(mask, dtype=bool)
        if m.shape != a.shape:
            raise ValidationError(f"mask shape {m.shape} does not match values shape {a.shape}")
        if not m.any(axis=-1).all():
            raise ValidationError("masked_softmax: at least one fully-masked row")
        p = softmax(a.values, m)
        out = Tensor(p)
        _check_finite(out.values, "masked_softmax")

        def rule(g):
            inner = (g * p).sum(axis=-1, keepdims=True)
            return (p * (g - inner),)

        self._record(out, (a,), rule)
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

    def gather_rows(self, a: Tensor, indices: Sequence[int]) -> Tensor:
        if a.values.ndim != 2:
            raise ValidationError(f"gather_rows needs a 2-d tensor, got shape {a.shape}")
        idx = list(int(i) for i in indices)
        n = a.shape[0]
        if any(i < 0 or i >= n for i in idx):
            raise ValidationError(f"gather_rows index out of range for {n} rows: {idx}")
        out = Tensor(a.values[idx, :])
        a_shape = a.shape

        def rule(g):
            z = np.zeros(a_shape)
            np.add.at(z, idx, g)
            return (z,)

        self._record(out, (a,), rule)
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
