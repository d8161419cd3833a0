import os
import platform
import subprocess
import sys
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apgf.errors import NumericError, ValidationError
from apgf.graphgen import generate_random_graph, save_graph
from apgf.model import init_params
from apgf.numcore import AdamState, RowIndex, Segments, Tape, adam_step

from helpers import (
    CheckedTape,
    ReferenceAdam,
    central_difference,
    masked_softmax,
    max_relative_error,
)


def rand_signed(rng, shape):
    # values bounded away from 0 so the leaky_relu kink cannot poison
    # finite differences
    return rng.uniform(0.3, 1.3, shape) * rng.choice([-1.0, 1.0], shape)


# -- analytic examples --------------------------------------------------


def test_masked_softmax_single_candidate():
    # the dense reference encoder's masked softmax lives in tests/helpers.py
    t = Tape()
    out = masked_softmax(t, np.array([2.7]), np.array([True]))
    assert out == pytest.approx([1.0], abs=0)


def test_masked_softmax_symmetry():
    t = Tape()
    out = masked_softmax(t, np.array([1.0, 1.0, 1.0]), np.ones(3, dtype=bool))
    np.testing.assert_allclose(out, [1 / 3, 1 / 3, 1 / 3], rtol=1e-15)


def test_masked_entries_are_exactly_zero():
    t = Tape()
    out = masked_softmax(t, np.array([5.0, 1.0, 3.0]), np.array([True, False, True]))
    assert out[1] == 0.0
    assert abs(out.sum() - 1.0) < 1e-12


def test_tanh_and_leaky_relu_points():
    t = Tape()
    assert t.tanh(np.array([0.0]))[0] == 0.0
    assert t.leaky_relu(np.array([-1.0]), 0.2)[0] == pytest.approx(-0.2, abs=0)
    assert t.leaky_relu(np.array([3.0]), 0.2)[0] == 3.0


@pytest.mark.parametrize("slope", [0.0, 0.1, 0.2, 0.3, 0.5, 1.0])
def test_leaky_relu_is_the_branching_definition_bit_for_bit(slope):
    # magnitudes from subnormal to 1e300, both signs, and both zeros
    rng = np.random.default_rng(0)
    a = 10.0 ** rng.uniform(-310, 300, 100_000) * rng.choice([-1.0, 1.0], 100_000)
    a[:6] = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-320]
    t = Tape()
    out = t.leaky_relu(a, slope)
    grad = t.backward(t.sum(out), {"a": a})["a"]  # the rule's factor, times ones
    expected = np.where(a > 0, a, slope * a)
    np.testing.assert_array_equal(out.view(np.int64), expected.view(np.int64))
    factor = np.where(a > 0, 1.0, slope)
    np.testing.assert_array_equal(grad.view(np.int64), factor.view(np.int64))


def test_leaky_relu_slope_must_be_in_unit_interval():
    for slope in (-0.1, 1.5, float("nan")):
        with pytest.raises(ValidationError, match="slope"):
            Tape().leaky_relu(np.array([1.0, -1.0]), slope)


def test_backward_sum_gives_ones():
    t = Tape()
    w = np.array([1.0, 2.0, 3.0])
    grads = t.backward(t.sum(w), {"w": w})
    np.testing.assert_array_equal(grads["w"], [1.0, 1.0, 1.0])


def test_backward_sum_of_squares():
    t = Tape()
    w = np.array([2.0])
    grads = t.backward(t.sum(t.mul(w, w)), {"w": w})
    np.testing.assert_allclose(grads["w"], [4.0], rtol=0)


def test_determinism_bit_identical():
    rng = np.random.default_rng(5)
    a0 = rng.normal(size=(4, 4))
    b0 = rng.normal(size=(4, 4))

    def run():
        t = Tape()
        return t.segment_softmax(t.tanh(t.matmul(a0, b0)), Segments([1, 3]))

    assert np.array_equal(run(), run())


# -- gradient checks per primitive --------------------------------------


def loss_through(op_builder, *arrays):
    """Build sum(op(...) * R) with fixed random R; return (tape, tensors, loss)."""
    tensors = list(arrays)
    t = Tape()
    out = op_builder(t, *tensors)
    rng = np.random.default_rng(out.size)
    weights = rng.normal(size=out.shape)
    loss = t.sum(t.mul(out, weights))
    return t, tensors, loss


OP_CASES = {
    "matmul": (lambda t, a, b: t.matmul(a, b), [(3, 4), (4, 2)]),
    "add": (lambda t, a, b: t.add(a, b), [(3, 4), (3, 4)]),
    "add_broadcast": (lambda t, a, b: t.add(a, b), [(3, 1), (1, 4)]),
    "mul": (lambda t, a, b: t.mul(a, b), [(2, 5), (2, 5)]),
    "mul_scalar": (lambda t, a: t.mul_scalar(a, -1.7), [(3, 3)]),
    "concat": (lambda t, a, b: t.concat([a, b], axis=0), [(2, 3), (4, 3)]),
    "concat_axis1": (lambda t, a, b: t.concat([a, b], axis=1), [(3, 2), (3, 4)]),
    "leaky_relu": (lambda t, a: t.leaky_relu(a, 0.2), [(4, 4)]),
    "tanh": (lambda t, a: t.tanh(a), [(4, 3)]),
    "log": (lambda t, a: t.log(t.mul(a, a)), [(3, 3)]),
    "sum": (lambda t, a: t.sum(a), [(4, 2)]),
    "transpose": (lambda t, a: t.transpose(a), [(3, 5)]),
    "gather_rows": (lambda t, a: t.gather_rows(a, [2, 0, 2]), [(4, 3)]),
    "gather_rows_index": (lambda t, a: t.gather_rows(a, RowIndex([1, 1, 3, 0, 1], 4)), [(4, 2)]),
    # each entry of a 1-d array is one row, as the loss gathers the edge scores
    "gather_rows_1d": (lambda t, a: t.gather_rows(a, [3, 0, 3, 1]), [(5,)]),
    # segments of 1, 3 and 2 entries: a one-entry segment, and several columns (heads)
    "segment_softmax": (lambda t, a: t.segment_softmax(a, Segments([1, 3, 2])), [(6, 4)]),
    "segment_softmax_1d": (lambda t, a: t.segment_softmax(a, Segments([2, 1, 3])), [(6,)]),
    "segment_sum": (
        lambda t, a, w: t.segment_sum(a, RowIndex([2, 0, 3, 3, 1, 0], 4), w, Segments([1, 3, 2])),
        [(4, 6), (6, 3)],
    ),
    "segment_sum_one_block": (
        lambda t, a, w: t.segment_sum(a, RowIndex([0, 1, 2, 3], 4), w, Segments([3, 1])),
        [(4, 5), (4, 1)],
    ),
    # the dense reference encoder's masked softmax (tests/helpers.py)
    "masked_softmax": (
        lambda t, a: masked_softmax(
            t, a, np.array([[True, True, False, True], [True, False, True, True]])
        ),
        [(2, 4)],
    ),
    # entries (0,0), (1,2), (2,1), (1,0), (3,3) and (1,2) again of a @ b.T: rows and
    # columns repeat
    "edge_dot": (
        lambda t, a, b: t.edge_dot(
            a, b, RowIndex([0, 1, 2, 1, 3, 1], 4), RowIndex([0, 2, 1, 0, 3, 2], 4)
        ),
        [(4, 3), (4, 3)],
    ),
    # forms the dense reference encoder uses on ops that broadcast (tests/helpers.py)
    "masked_softmax_batch": (
        lambda t, a: masked_softmax(
            t,
            a,
            np.array(
                [
                    [[True, False, True], [False, True, False]],
                    [[True, True, True], [False, True, True]],
                ]
            ),
        ),
        [(2, 2, 3)],
    ),
    "concat_axis2": (lambda t, a, b: t.concat([a, b], axis=2), [(2, 3, 2), (2, 3, 4)]),
    "add_batch_broadcast": (lambda t, a, b: t.add(a, b), [(2, 3, 4), (1, 4)]),
}


@pytest.mark.parametrize("name", sorted(OP_CASES))
def test_gradients_match_finite_differences(name):
    op_builder, shapes = OP_CASES[name]
    rng = np.random.default_rng(hash(name) % 2**32)
    arrays = [rand_signed(rng, s) for s in shapes]

    t, tensors, loss = loss_through(op_builder, *arrays)
    grads = t.backward(loss, {str(i): x for i, x in enumerate(tensors)})
    analytic = [grads[str(i)] for i in range(len(tensors))]

    for arr, an in zip(arrays, analytic):
        fd = central_difference(lambda: loss_through(op_builder, *arrays)[2].item(), arr)
        assert max_relative_error(an, fd) <= 1e-6


@pytest.mark.parametrize("name", sorted(OP_CASES))
def test_every_op_records_a_new_float64_array(name):
    op_builder, shapes = OP_CASES[name]
    rng = np.random.default_rng(0)
    t = CheckedTape()
    t.sum(op_builder(t, *[rand_signed(rng, s) for s in shapes]))
    assert len(t) >= 2


def test_grad_accumulates_when_tensor_used_twice():
    t = Tape()
    w = np.array([3.0])
    grads = t.backward(t.sum(t.add(w, w)), {"w": w})
    np.testing.assert_array_equal(grads["w"], [2.0])


def test_frozen_tensors_never_receive_gradients():
    # a frozen network can share a tape with a live one: backward hands
    # back only the gradients asked for, with zeros where the loss does
    # not reach
    t = Tape()
    live = np.array([[1.0, 2.0]])
    frozen = np.array([[3.0], [4.0]])
    unused = np.array([[5.0, 6.0]])
    grads = t.backward(t.sum(t.matmul(live, frozen)), {"live": live, "unused": unused})
    assert list(grads) == ["live", "unused"]
    np.testing.assert_array_equal(grads["live"], [[3.0, 4.0]])
    np.testing.assert_array_equal(grads["unused"], np.zeros((1, 2)))


# -- properties ----------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(min_value=-30, max_value=30), min_size=1, max_size=8),
    st.data(),
)
def test_masked_softmax_is_probability_vector(values, data):
    mask = data.draw(
        st.lists(st.booleans(), min_size=len(values), max_size=len(values)).filter(any)
    )
    t = Tape()
    out = masked_softmax(t, np.array(values), np.array(mask))
    assert np.all(out >= 0)
    assert all(out[i] == 0.0 for i, m in enumerate(mask) if not m)
    assert abs(out.sum() - 1.0) < 1e-12


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(min_value=-30, max_value=30), min_size=1, max_size=8),
    st.data(),
)
def test_segment_softmax_is_probability_vector(values, data):
    # a cut after entry i ends a segment there
    cuts = data.draw(st.lists(st.booleans(), min_size=len(values) - 1, max_size=len(values) - 1))
    bounds = [0] + [i + 1 for i, cut in enumerate(cuts) if cut] + [len(values)]
    out = Tape().segment_softmax(np.array(values), Segments(np.diff(bounds)))
    assert np.all(out >= 0)
    for lo, hi in zip(bounds, bounds[1:]):
        assert abs(out[lo:hi].sum() - 1.0) < 1e-12
        if hi - lo == 1:
            assert out[lo] == 1.0


# -- error paths ---------------------------------------------------------


def test_shape_mismatch_rejected():
    t = Tape()
    with pytest.raises(ValidationError):
        t.matmul(np.ones((2, 3)), np.ones((2, 3)))
    with pytest.raises(ValidationError):
        t.add(np.ones((2, 3)), np.ones((4, 5)))


def test_batched_matmul_shape_mismatch_rejected():
    # products are 2-d only: a batch is the rows of one [N, k] array
    t = Tape()
    for a, b in [((2, 3, 4), (4, 2)), ((2, 3, 4), (2, 4, 2)), ((3, 4), (2, 4, 2)), ((4,), (4, 2))]:
        with pytest.raises(ValidationError, match="matmul shape mismatch"):
            t.matmul(np.ones(a), np.ones(b))
    for shape in [(2, 3, 5), (3,)]:
        with pytest.raises(ValidationError, match="transpose needs a 2-d array"):
            t.transpose(np.ones(shape))


def test_fully_masked_row_rejected():
    t = Tape()
    with pytest.raises(ValidationError, match="masked"):
        masked_softmax(
            t, np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[True, True], [False, False]])
        )


@pytest.mark.filterwarnings("ignore:overflow")
def test_non_finite_result_rejected():
    t = Tape()
    with pytest.raises(NumericError):
        t.log(np.array([0.0]))
    with pytest.raises(NumericError):
        t.mul_scalar(np.array([1e308]), 1e308)


def test_non_scalar_loss_rejected():
    t = Tape()
    w = np.array([1.0, 2.0])
    out = t.mul_scalar(w, 2.0)
    with pytest.raises(ValidationError, match="scalar"):
        t.backward(out, {"w": w})


def test_loss_must_be_recorded_on_the_tape():
    w = np.array([1.0, 2.0])
    other = Tape()
    loss = other.sum(w)
    t = Tape()
    t.sum(w)
    for stray in (loss, np.array([3.0])):
        with pytest.raises(ValidationError, match="not the output of an op recorded on this tape"):
            t.backward(stray, {"w": w})
    assert other.backward(loss, {"w": w})["w"].tolist() == [1.0, 1.0]


@pytest.mark.parametrize("index", [-1, 4])
def test_gather_rows_rejects_out_of_range_index(index):
    with pytest.raises(ValidationError, match="gather_rows"):
        Tape().gather_rows(np.zeros((4, 3)), [0, index])


def test_segment_ops_match_a_loop_over_segments():
    rng = np.random.default_rng(8)
    counts = [1, 4, 2, 3]
    values, weights = rng.normal(size=(10, 6)), rng.normal(size=(10, 2))
    t = Tape()
    probs = t.segment_softmax(values, Segments(counts))
    sums = t.segment_sum(values, RowIndex(np.arange(10), 10), weights, Segments(counts))
    assert probs[0].tolist() == [1.0] * 6
    for s, (lo, hi) in enumerate(zip(np.cumsum(counts) - counts, np.cumsum(counts))):
        e = np.exp(values[lo:hi] - values[lo:hi].max(axis=0))
        np.testing.assert_allclose(probs[lo:hi], e / e.sum(axis=0), rtol=1e-15)
        scaled = values[lo:hi] * np.repeat(weights[lo:hi], 3, axis=1)
        np.testing.assert_allclose(sums[s], scaled.sum(axis=0), rtol=1e-14)


def test_gather_rows_backward_is_add_at_bit_for_bit():
    rng = np.random.default_rng(11)
    for case in range(40):
        n, width = int(rng.integers(1, 6)), int(rng.integers(1, 5))
        idx = rng.integers(0, n, size=int(rng.integers(0, 12)))  # repeats likely
        scale = 10.0 ** rng.integers(-8, 9, size=(idx.size, 1))  # so that the order of sums shows
        upstream = rng.normal(size=(idx.size, width)) * scale
        upstream[rng.random(upstream.shape) < 0.2] = -0.0
        upstream[rng.random(upstream.shape) < 0.1] = 0.0
        t = Tape()
        a = rng.normal(size=(n, width))
        gathered = t.gather_rows(a, idx)
        grad = t.backward(t.sum(t.mul(gathered, upstream)), {"a": a})["a"]
        expected = np.zeros((n, width))
        np.add.at(expected, idx, upstream)
        assert grad.tobytes() == expected.tobytes(), case


@pytest.mark.parametrize("counts", [[], [2, 0, 1], [[1, 2]], [1.0, 2.0], [-1]])
def test_malformed_segments_rejected(counts):
    with pytest.raises(ValidationError, match="segment counts"):
        Segments(counts)


def test_segment_ops_reject_inputs_of_another_size():
    t = Tape()
    segments = Segments([2, 1])
    with pytest.raises(ValidationError, match="segment_softmax: segments cover 3 entries"):
        t.segment_softmax(np.zeros((4, 2)), segments)
    values, reads = np.zeros((5, 4)), RowIndex([4, 0, 4], 5)
    for weights in [(2, 2), ()]:
        with pytest.raises(ValidationError, match="segment_sum: segments cover 3 entries"):
            t.segment_sum(values, reads, np.ones(weights), segments)
    for weights in [(3, 3), (3,), (3, 0)]:
        with pytest.raises(ValidationError, match="do not fit weights"):
            t.segment_sum(values, reads, np.ones(weights), segments)
    for reads in [RowIndex([0, 1, 2], 4), RowIndex([0, 1], 5)]:
        with pytest.raises(ValidationError, match="do not fit weights .* and an index of"):
            t.segment_sum(values, reads, np.ones((3, 2)), segments)
    with pytest.raises(ValidationError, match="index is for 5 rows"):
        t.gather_rows(np.zeros((4, 2)), RowIndex([0, 1], 5))


def test_edge_dot_reads_entries_of_the_batched_product():
    # a batch is one [N, k] union, so its entries are those of one a @ b.T
    rng = np.random.default_rng(12)
    a, b = rng.normal(size=(15, 4)), rng.normal(size=(15, 4))
    rows, cols = rng.integers(15, size=40), rng.integers(15, size=40)
    out = Tape().edge_dot(a, b, RowIndex(rows, 15), RowIndex(cols, 15))
    np.testing.assert_allclose(out, (a @ b.T)[rows, cols], rtol=1e-14)


@pytest.mark.parametrize(
    "a, b, rows, cols, num_rows",
    [
        ((6, 4), (6, 4), [6], [0], 6),
        ((6, 4), (6, 4), [-1], [0], 6),
        ((6, 4), (6, 5), [0], [0], 6),
        ((2, 3, 4), (2, 3, 4), [0], [0], 2),
        ((6, 4), (6, 4), [[0, 1]], [[0, 1]], 6),
        ((6, 4), (6, 4), [0, 1], [0], 6),
        ((6, 4), (6, 4), [0], [0], 7),
    ],
    ids=[
        "past-the-end", "negative", "other-width", "3-d", "2-d-index", "other-lengths",
        "other-row-count",
    ],
)
def test_edge_dot_rejects_bad_shapes_and_entries(a, b, rows, cols, num_rows):
    with pytest.raises(ValidationError, match="edge_dot"):
        Tape().edge_dot(
            np.zeros(a), np.zeros(b), RowIndex(rows, num_rows), RowIndex(cols, num_rows)
        )


def test_row_index_rejects_non_integer_indices():
    a = np.arange(12.0).reshape(4, 3)
    for indices in ([0.7, 2.9], np.array([True, False]), np.array([1.0])):
        with pytest.raises(ValidationError, match="integer"):
            Tape().gather_rows(a, indices)
        with pytest.raises(ValidationError, match="integer"):
            RowIndex(indices, 4)
    assert Tape().gather_rows(a, []).shape == (0, 3)
    assert RowIndex(np.array([], dtype=np.uint8), 4).rows.dtype == np.intp


def test_gather_rows_takes_rows_of_any_width_but_not_a_0d_array():
    a = np.arange(5.0)
    np.testing.assert_array_equal(Tape().gather_rows(a, [4, 0, 4]), [4.0, 0.0, 4.0])
    assert Tape().gather_rows(np.zeros((3, 2, 2)), [1]).shape == (1, 2, 2)
    with pytest.raises(ValidationError, match="0-d"):
        Tape().gather_rows(np.array(1.0), [0])


def test_tape_consumed_once():
    t = Tape()
    w = np.array([1.0])
    loss = t.sum(w)
    t.backward(loss, {"w": w})
    with pytest.raises(ValidationError, match="consumed"):
        t.backward(loss, {"w": w})


def test_backward_frees_intermediates_as_it_replays():
    t = Tape()
    w = np.array([0.5, -1.5])
    hidden = t.tanh(t.mul_scalar(w, 2.0))
    ref = weakref.ref(hidden)
    loss = t.sum(hidden)
    del hidden  # only the tape holds it now
    assert ref() is not None and len(t) == 3
    grads = t.backward(loss, {"w": w})
    assert ref() is None and len(t) == 3
    np.testing.assert_allclose(grads["w"], 2.0 * (1.0 - np.tanh(2.0 * w) ** 2), rtol=1e-15)
    with pytest.raises(ValidationError, match="consumed"):
        t.backward(loss, {"w": w})


# -- Adam ------------------------------------------------------------------


def make_params(*arrays):
    """A stand-in for ``ModelParams``: ``arrays`` as p0, p1, ..., views of
    consecutive slices of one flat float64 ``buffer``."""
    buffer = np.concatenate([np.ravel(a) for a in arrays]).astype(np.float64)
    parts = np.split(buffer, np.cumsum([np.size(a) for a in arrays])[:-1])
    tensors = {f"p{i}": part.reshape(np.shape(a)) for i, (a, part) in enumerate(zip(arrays, parts))}
    return SimpleNamespace(buffer=buffer, tensors=tensors)


def test_adam_zero_grads_leave_params_unchanged():
    params = make_params(np.array([1.0, -2.0]), np.array([[0.5]]))
    before = params.buffer.copy()
    state = AdamState()
    for _ in range(3):
        adam_step(params, {k: np.zeros_like(p) for k, p in params.tensors.items()}, state)
    np.testing.assert_array_equal(params.buffer, before)
    assert state.step == 3


def test_adam_updates_the_buffer_in_place():
    params = make_params(np.array([1.0, -2.0]), np.array([[0.5]]))
    buffer, views = params.buffer, dict(params.tensors)
    adam_step(params, {"p0": np.array([0.5, 0.5]), "p1": np.array([[-1.0]])}, AdamState())
    assert params.buffer is buffer
    for name, t in params.tensors.items():
        assert t is views[name] and np.shares_memory(t, params.buffer)
    assert not np.array_equal(params.buffer, [1.0, -2.0, 0.5])


def test_adam_moments_decay_after_grads_vanish():
    params = make_params(np.array([1.0]))
    state = AdamState()
    adam_step(params, {"p0": np.array([2.0])}, state)
    m1 = state.first_moment.copy()
    adam_step(params, {"p0": np.array([0.0])}, state)
    assert abs(state.first_moment[0]) < abs(m1[0])


def test_adam_first_step_magnitude_is_learning_rate():
    # bias-corrected first step: lr * g / (|g| + eps), magnitude ~ lr
    for g in (0.1, -3.0, 250.0):
        params = make_params(np.array([1.0]))
        state = AdamState(learning_rate=1e-3)
        adam_step(params, {"p0": np.array([g])}, state)
        delta = params.tensors["p0"][0] - 1.0
        expected = -1e-3 * g / (abs(g) + 1e-8)
        assert delta == pytest.approx(expected, rel=1e-12)
        assert abs(delta) == pytest.approx(1e-3, rel=1e-6)


def test_adam_per_parameter_step_sizes_differ():
    params = make_params(np.array([0.0]), np.array([0.0]))
    state = AdamState()
    # second step with unequal grad histories gives unequal effective steps
    adam_step(params, {"p0": np.array([1.0]), "p1": np.array([100.0])}, state)
    adam_step(params, {"p0": np.array([0.5]), "p1": np.array([1.0])}, state)
    step0 = params.tensors["p0"][0]
    step1 = params.tensors["p1"][0]
    assert step0 != step1


def test_adam_rejects_bad_grads():
    params = make_params(np.array([1.0, 2.0]), np.array([3.0]))
    state = AdamState()
    with pytest.raises(ValidationError, match="shape"):
        adam_step(params, {"p0": np.zeros((3,)), "p1": np.zeros(1)}, state)
    with pytest.raises(NumericError, match="'p1'"):
        adam_step(params, {"p0": np.zeros(2), "p1": np.array([np.nan])}, state)
    with pytest.raises(ValidationError, match="missing.*'p1'"):
        adam_step(params, {"p0": np.zeros(2)}, state)
    for learning_rate in (float("nan"), float("inf")):
        with pytest.raises(ValidationError, match="learning_rate"):
            adam_step(params, {"p0": np.zeros(2)}, AdamState(learning_rate=learning_rate))
    np.testing.assert_array_equal(params.buffer, [1.0, 2.0, 3.0])
    assert state.step == 0 and not state.first_moment.any() and not state.second_moment.any()


@pytest.mark.parametrize("sizes", [dict(), dict(embed_dim=2, num_heads=1, ff_dim=3)])
def test_flat_adam_matches_the_per_name_loop_bit_for_bit(sizes):
    # the paper config's 33,280 parameters, and a tiny model's
    params = init_params(seed=3, **sizes)
    reference = {name: t.copy() for name, t in params.tensors.items()}
    state, reference_state = AdamState(learning_rate=1e-3), ReferenceAdam(learning_rate=1e-3)
    rng = np.random.default_rng(4)
    for step in range(24):
        # gradients of varied scale, some entries exactly zero
        grads = {
            name: rng.normal(size=t.shape) * 10.0 ** rng.integers(-6, 4) * (rng.random(t.shape) > 0.1)
            for name, t in params.tensors.items()
        }
        adam_step(params, grads, state)
        reference_state.update(reference, grads)
        for name, t in params.tensors.items():
            np.testing.assert_array_equal(t.view(np.uint64), reference[name].view(np.uint64), f"{step} {name}")
        for flat, moments in [
            (state.first_moment, reference_state.first_moment),
            (state.second_moment, reference_state.second_moment),
        ]:
            concatenated = np.concatenate([moments[name].reshape(-1) for name in params.tensors])
            np.testing.assert_array_equal(flat.view(np.uint64), concatenated.view(np.uint64), f"{step}")


# -- heap policy (glibc) -------------------------------------------------

GLIBC = platform.libc_ver()[0] == "glibc"
SRC = Path(__file__).resolve().parent.parent / "src"

_FAULTS = """
import resource, sys
from apgf import graphgen, model, trainer

def faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

if sys.argv[1] == "evaluate":
    graph, params = graphgen.load_graph(sys.argv[2]), model.init_params(seed=0)
    trainer.evaluate(params, [graph], with_oracle=False)
    before = faults()
    for _ in range(5):
        trainer.evaluate(params, [graph], with_oracle=False)
    print((faults() - before) / 5)
else:  # faults between the Adam steps of epochs 2 and 12
    marks, step = [], trainer.adam_step
    trainer.adam_step = lambda *args: (step(*args), marks.append(faults()))
    trainer.train(trainer.TrainConfig(epochs=12))
    print((marks[11] - marks[1]) / 10)
"""


def _python(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports apgf from this tree."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, timeout=300
    )


def _child_faults(*args) -> float:
    """Minor page faults per call, counted by getrusage in a fresh process."""
    done = _python(_FAULTS, *args)
    assert done.returncode == 0, done.stderr
    return float(done.stdout)


@pytest.mark.skipif(not GLIBC, reason="the heap policy applies to glibc only")
def test_evaluate_of_a_loaded_large_graph_reuses_heap_pages(tmp_path):
    # about 1,000 faults per call when glibc maps each large temporary afresh
    path = tmp_path / "g600.json"
    save_graph(generate_random_graph(600, 660, seed=3), path)
    assert _child_faults("evaluate", str(path)) < 50


@pytest.mark.skipif(not GLIBC, reason="the heap policy applies to glibc only")
def test_paper_config_epochs_reuse_heap_pages():
    # 300-520 faults per epoch when glibc trims the heap top after each backward
    assert _child_faults("train") < 50


@pytest.mark.parametrize("error", ["AttributeError", "ValueError", "OSError"])
def test_numcore_leaves_the_allocator_alone_without_glibc(error):
    # no os.confstr, a name the platform lacks, or a libc that refuses it
    code = (
        f"import ctypes, os\ndef confstr(name): raise {error}\nos.confstr = confstr\n"
        "ctypes.CDLL = None\nimport apgf.numcore\nprint(apgf.numcore._glibc)"
    )
    done = _python(code)
    assert done.returncode == 0 and done.stdout == "None\n", done.stderr
