import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apgf.errors import NumericError, ValidationError
from apgf.numcore import AdamState, Tape, adam_step, tensor

from helpers import central_difference, max_relative_error


def rand_signed(rng, shape):
    # values bounded away from 0 so the leaky_relu kink cannot poison
    # finite differences
    return rng.uniform(0.3, 1.3, shape) * rng.choice([-1.0, 1.0], shape)


# -- analytic examples --------------------------------------------------


def test_masked_softmax_single_candidate():
    t = Tape()
    out = t.masked_softmax(tensor([2.7]), np.array([True]))
    assert out.values == pytest.approx([1.0], abs=0)


def test_masked_softmax_symmetry():
    t = Tape()
    out = t.masked_softmax(tensor([1.0, 1.0, 1.0]), np.ones(3, dtype=bool))
    np.testing.assert_allclose(out.values, [1 / 3, 1 / 3, 1 / 3], rtol=1e-15)


def test_masked_entries_are_exactly_zero():
    t = Tape()
    out = t.masked_softmax(tensor([5.0, 1.0, 3.0]), np.array([True, False, True]))
    assert out.values[1] == 0.0
    assert abs(out.values.sum() - 1.0) < 1e-12


def test_tanh_and_leaky_relu_points():
    t = Tape()
    assert t.tanh(tensor([0.0])).values[0] == 0.0
    assert t.leaky_relu(tensor([-1.0]), 0.2).values[0] == pytest.approx(-0.2, abs=0)
    assert t.leaky_relu(tensor([3.0]), 0.2).values[0] == 3.0


def test_backward_sum_gives_ones():
    t = Tape()
    w = tensor([1.0, 2.0, 3.0])
    grads = t.backward(t.sum(w), {"w": w})
    np.testing.assert_array_equal(grads["w"], [1.0, 1.0, 1.0])


def test_backward_sum_of_squares():
    t = Tape()
    w = tensor([2.0])
    grads = t.backward(t.sum(t.mul(w, w)), {"w": w})
    np.testing.assert_allclose(grads["w"], [4.0], rtol=0)


def test_determinism_bit_identical():
    rng = np.random.default_rng(5)
    a0 = rng.normal(size=(4, 4))
    b0 = rng.normal(size=(4, 4))

    def run():
        t = Tape()
        a, b = tensor(a0), tensor(b0)
        return t.masked_softmax(t.tanh(t.matmul(a, b)), np.ones((4, 4), dtype=bool)).values

    assert np.array_equal(run(), run())


# -- gradient checks per primitive --------------------------------------


def loss_through(op_builder, *arrays):
    """Build sum(op(...) * R) with fixed random R; return (tape, tensors, loss)."""
    tensors = [tensor(a) for a in arrays]
    t = Tape()
    out = op_builder(t, *tensors)
    rng = np.random.default_rng(out.values.size)
    weights = tensor(rng.normal(size=out.shape))
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
    "sum": (lambda t, a: t.reshape(t.sum(a), (1,)), [(4, 2)]),
    "transpose": (lambda t, a: t.transpose(a), [(3, 5)]),
    "reshape": (lambda t, a: t.reshape(a, (2, 6)), [(3, 4)]),
    "gather_rows": (lambda t, a: t.gather_rows(a, [2, 0, 2]), [(4, 3)]),
    "masked_softmax": (
        lambda t, a: t.masked_softmax(
            a, np.array([[True, True, False, True], [True, False, True, True]])
        ),
        [(2, 4)],
    ),
    # batched forms: a leading batch axis of 2
    "matmul_batch_shared": (lambda t, a, b: t.matmul(a, b), [(2, 3, 4), (4, 2)]),
    "matmul_batch": (lambda t, a, b: t.matmul(a, b), [(2, 3, 4), (2, 4, 2)]),
    "transpose_batch": (lambda t, a: t.transpose(a), [(2, 3, 5)]),
    "masked_softmax_batch": (
        lambda t, a: t.masked_softmax(
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


def test_grad_accumulates_when_tensor_used_twice():
    t = Tape()
    w = tensor([3.0])
    grads = t.backward(t.sum(t.add(w, w)), {"w": w})
    np.testing.assert_array_equal(grads["w"], [2.0])


def test_frozen_tensors_never_receive_gradients():
    # a frozen network can share a tape with a live one: backward hands
    # back only the gradients asked for, with zeros where the loss does
    # not reach
    t = Tape()
    live = tensor([[1.0, 2.0]])
    frozen = tensor([[3.0], [4.0]])
    unused = tensor([[5.0, 6.0]])
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
    out = t.masked_softmax(tensor(values), np.array(mask)).values
    assert np.all(out >= 0)
    assert all(out[i] == 0.0 for i, m in enumerate(mask) if not m)
    assert abs(out.sum() - 1.0) < 1e-12


# -- error paths ---------------------------------------------------------


def test_shape_mismatch_rejected():
    t = Tape()
    with pytest.raises(ValidationError):
        t.matmul(tensor(np.ones((2, 3))), tensor(np.ones((2, 3))))
    with pytest.raises(ValidationError):
        t.add(tensor(np.ones((2, 3))), tensor(np.ones((4, 5))))


def test_batched_matmul_shape_mismatch_rejected():
    t = Tape()
    for a, b in [((2, 3, 4), (3, 4, 2)), ((2, 3, 4), (2, 3, 2)), ((3, 4), (2, 4, 2))]:
        with pytest.raises(ValidationError, match="matmul shape mismatch"):
            t.matmul(tensor(np.ones(a)), tensor(np.ones(b)))
    with pytest.raises(ValidationError, match="transpose"):
        t.transpose(tensor(np.ones((2, 2, 2, 2))))


def test_batched_matmul_equals_per_entry_matmul():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 5, 6))
    shared = rng.normal(size=(6, 3))
    per_entry = rng.normal(size=(4, 6, 3))
    t = Tape()
    with_shared = t.matmul(tensor(a), tensor(shared)).values
    with_per_entry = t.matmul(tensor(a), tensor(per_entry)).values
    for i in range(4):
        np.testing.assert_array_equal(with_shared[i], a[i] @ shared)
        np.testing.assert_array_equal(with_per_entry[i], a[i] @ per_entry[i])


def test_fully_masked_row_rejected():
    t = Tape()
    with pytest.raises(ValidationError, match="masked"):
        t.masked_softmax(tensor([[1.0, 2.0], [3.0, 4.0]]), np.array([[True, True], [False, False]]))


@pytest.mark.filterwarnings("ignore:overflow")
def test_non_finite_result_rejected():
    t = Tape()
    with pytest.raises(NumericError):
        t.log(tensor([0.0]))
    with pytest.raises(NumericError):
        t.mul_scalar(tensor([1e308]), 1e308)


def test_non_scalar_loss_rejected():
    t = Tape()
    w = tensor([1.0, 2.0])
    out = t.mul_scalar(w, 2.0)
    with pytest.raises(ValidationError, match="scalar"):
        t.backward(out, {"w": w})


def test_tape_consumed_once():
    t = Tape()
    w = tensor([1.0])
    loss = t.sum(w)
    t.backward(loss, {"w": w})
    with pytest.raises(ValidationError, match="consumed"):
        t.backward(loss, {"w": w})


# -- Adam ------------------------------------------------------------------


def make_params(*arrays):
    return {f"p{i}": tensor(a) for i, a in enumerate(arrays)}


def test_adam_zero_grads_leave_params_unchanged():
    params = make_params(np.array([1.0, -2.0]), np.array([[0.5]]))
    before = {k: p.values.copy() for k, p in params.items()}
    state = AdamState()
    for _ in range(3):
        adam_step(params, {k: np.zeros_like(p.values) for k, p in params.items()}, state)
    for k, p in params.items():
        np.testing.assert_array_equal(p.values, before[k])
    assert state.step == 3


def test_adam_moments_decay_after_grads_vanish():
    params = make_params(np.array([1.0]))
    state = AdamState()
    adam_step(params, {"p0": np.array([2.0])}, state)
    m1 = state.first_moment["p0"].copy()
    adam_step(params, {"p0": np.array([0.0])}, state)
    assert abs(state.first_moment["p0"][0]) < abs(m1[0])


def test_adam_first_step_magnitude_is_learning_rate():
    # bias-corrected first step: lr * g / (|g| + eps), magnitude ~ lr
    for g in (0.1, -3.0, 250.0):
        params = make_params(np.array([1.0]))
        state = AdamState(learning_rate=1e-3)
        adam_step(params, {"p0": np.array([g])}, state)
        delta = params["p0"].values[0] - 1.0
        expected = -1e-3 * g / (abs(g) + 1e-8)
        assert delta == pytest.approx(expected, rel=1e-12)
        assert abs(delta) == pytest.approx(1e-3, rel=1e-6)


def test_adam_per_parameter_step_sizes_differ():
    params = make_params(np.array([0.0]), np.array([0.0]))
    state = AdamState()
    # second step with unequal grad histories gives unequal effective steps
    adam_step(params, {"p0": np.array([1.0]), "p1": np.array([100.0])}, state)
    adam_step(params, {"p0": np.array([0.5]), "p1": np.array([1.0])}, state)
    step0 = params["p0"].values[0]
    step1 = params["p1"].values[0]
    assert step0 != step1


def test_adam_rejects_bad_grads():
    params = make_params(np.array([1.0, 2.0]))
    state = AdamState()
    with pytest.raises(ValidationError, match="shape"):
        adam_step(params, {"p0": np.zeros((3,))}, state)
    with pytest.raises(NumericError):
        adam_step(params, {"p0": np.array([np.nan, 0.0])}, state)
    with pytest.raises(ValidationError, match="missing"):
        adam_step(params, {}, state)
    for learning_rate in (float("nan"), float("inf")):
        with pytest.raises(ValidationError, match="learning_rate"):
            adam_step(params, {"p0": np.zeros(2)}, AdamState(learning_rate=learning_rate))
    np.testing.assert_array_equal(params["p0"].values, [1.0, 2.0])
