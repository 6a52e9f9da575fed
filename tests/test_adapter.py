import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import (
    _chain_to_weight,
    embed,
    finite_difference_gradient,
    relative_error,
    scan_first_embed_error,
    scan_first_step_error,
)
from owtt.adapter import embed_backward, embed_batch, init_adapter, sgd_momentum_step
from owtt.errors import DegenerateEmbedding, InvalidSpec, NonFiniteGradient, NonFiniteInput


def step_from_rest(weight, gradient, lr=0.1, momentum=0.9):
    """One step from a zero momentum buffer; returns the new (weight, buffer)."""
    weight = np.asarray(weight, dtype=float)
    return sgd_momentum_step(weight, np.zeros_like(weight), gradient, lr, momentum)


def test_identity_map_keeps_unit_vector():
    values = np.array([[1.0, 0.0, 0.0]])
    np.testing.assert_allclose(embed_batch(values, np.eye(3)), values)


def test_embed_normalizes_3_4_vector():
    np.testing.assert_allclose(embed_batch(np.array([[3.0, 4.0]]), np.eye(2)), [[0.6, 0.8]])


def test_zero_weight_raises_degenerate():
    with pytest.raises(DegenerateEmbedding):
        embed_batch(np.array([[1.0, 1.0]]), np.zeros((2, 2)))


def test_embed_batch_matches_single_embed():
    rng = np.random.default_rng(7)
    weight = rng.normal(size=(4, 6))
    batch = rng.normal(size=(5, 6))
    stacked = np.stack([embed(row, weight) for row in batch])
    np.testing.assert_allclose(embed_batch(batch, weight), stacked)


def test_zero_momentum_reduces_to_plain_gradient_descent():
    weight, _ = step_from_rest([[2.0]], np.array([[1.0]]), lr=0.5, momentum=0.0)
    np.testing.assert_allclose(weight, [[1.5]])


def test_hand_iterated_momentum_updates():
    grad = np.array([[2.0]])
    weight, buffer = step_from_rest([[1.0]], grad, lr=0.1, momentum=0.9)
    np.testing.assert_allclose(weight, [[0.8]])
    weight, buffer = sgd_momentum_step(weight, buffer, grad, 0.1, 0.9)
    np.testing.assert_allclose(buffer, [[3.8]])
    np.testing.assert_allclose(weight, [[0.42]])


def test_a_step_returns_new_arrays_and_leaves_its_inputs_unchanged():
    weight, buffer, grad = np.eye(2), np.full((2, 2), 0.5), np.ones((2, 2))
    stepped, stepped_buffer = sgd_momentum_step(weight, buffer, grad, 0.1, 0.9)
    assert stepped is not weight and stepped_buffer is not buffer
    np.testing.assert_array_equal(weight, np.eye(2))
    np.testing.assert_array_equal(buffer, np.full((2, 2), 0.5))


def test_nan_gradient_rejected():
    with pytest.raises(NonFiniteGradient):
        step_from_rest([[1.0]], np.array([[np.nan]]))


@pytest.mark.parametrize("grad", [0.5, 2.0])
def test_a_step_to_a_weight_too_large_to_square_is_refused(grad):
    # 1 - 1e308 * 0.5 is finite but its square is not; 1e308 * 2.0 overflows itself.
    with pytest.raises(NonFiniteGradient, match="squared norm at inf"):
        step_from_rest([[1.0]], np.array([[grad]]), lr=1e308)


def test_a_step_to_a_large_weight_that_squares_is_kept():
    weight, _ = step_from_rest([[1.0]], np.array([[-1.0]]), lr=1e150, momentum=0.0)
    assert weight[0, 0] == 1e150


def test_shape_mismatch_rejected():
    with pytest.raises(InvalidSpec):
        step_from_rest(np.eye(2), np.zeros((3, 2)))


def test_zero_gradient_zero_buffer_is_identity():
    weight, _ = step_from_rest(np.eye(3), np.zeros((3, 3)), lr=0.3, momentum=0.9)
    np.testing.assert_array_equal(weight, np.eye(3))


def test_identical_gradient_sequences_are_bit_identical():
    rng = np.random.default_rng(11)
    grads = [rng.normal(size=(3, 5)) for _ in range(10)]
    a = init_adapter(3, 5, seed=4), np.zeros((3, 5))
    b = init_adapter(3, 5, seed=4), np.zeros((3, 5))
    for g in grads:
        a = sgd_momentum_step(*a, g, 0.05, 0.9)
        b = sgd_momentum_step(*b, g, 0.05, 0.9)
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])


def test_init_adapter_starts_near_identity():
    weight = init_adapter(2, 4, seed=0)
    np.testing.assert_allclose(weight[:2, :2], np.eye(2), atol=0.011)
    np.testing.assert_allclose(weight[:, 2:], 0.0, atol=0.011)


@settings(max_examples=200, deadline=None)
@given(
    values=hnp.arrays(
        np.float64,
        shape=st.integers(2, 8),
        elements=st.floats(-50, 50, allow_nan=False),
    ),
    seed=st.integers(0, 1000),
)
def test_embed_output_is_unit_norm(values, seed):
    rng = np.random.default_rng(seed)
    weight = rng.normal(size=(3, values.shape[0]))
    try:
        feature = embed_batch(values[None, :], weight)[0]
    except DegenerateEmbedding:
        return
    assert abs(np.linalg.norm(feature) - 1.0) < 1e-9


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_raises_naming_the_row(bad):
    values = np.ones((4, 3))
    values[2, 1] = bad
    with pytest.raises(NonFiniteInput, match="row 2"):
        embed_batch(values, np.eye(3))


NON_FINITE = st.sampled_from([np.nan, np.inf, -np.inf])
# NaN or +-inf values planted at drawn flat positions (taken modulo the size).
PLANTED = st.lists(st.tuples(st.integers(0, 10**6), NON_FINITE), max_size=3)


def raised(call):
    """(error type name, message) of what ``call()`` raises, or None."""
    try:
        call()
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 8),
    d_out=st.integers(1, 5),
    d_in=st.integers(1, 6),
    planted=PLANTED,
    neighbour=st.sampled_from([None, "overflowing", "tiny"]),
    neighbour_row=st.integers(0, 7),
)
@example(seed=0, n=3, d_out=2, d_in=3, planted=[(7, np.nan)], neighbour="overflowing",
         neighbour_row=0)
@example(seed=0, n=3, d_out=2, d_in=3, planted=[(1, -np.inf)], neighbour="tiny",
         neighbour_row=2)
def test_embed_batch_raises_what_an_input_scan_first_raises(
    seed, n, d_out, d_in, planted, neighbour, neighbour_row
):
    # The input scan runs only once the norm check fails: every NaN or inf
    # input must still raise what scanning the inputs first raised.
    rng = np.random.default_rng(seed)
    weight = rng.normal(size=(d_out, d_in))
    values = rng.normal(size=(n, d_in))
    if neighbour == "overflowing":
        values[neighbour_row % n] = 1e200
    elif neighbour == "tiny":
        values[neighbour_row % n] *= 1e-20
    for position, bad in planted:
        values.flat[position % values.size] = bad
    expected = scan_first_embed_error(values.tolist(), weight.tolist())
    assert raised(lambda: embed_batch(values, weight)) == expected


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 4),
    cols=st.integers(1, 5),
    planted=PLANTED,
    overflowing=st.integers(-1, 19),  # the flat position of an entry whose step overflows
)
@example(seed=0, rows=2, cols=2, planted=[(3, np.inf)], overflowing=0)
@example(seed=0, rows=1, cols=2, planted=[(0, np.nan)], overflowing=1)  # [[nan, 1e300]]
def test_sgd_momentum_step_raises_what_a_gradient_scan_first_raises(
    seed, rows, cols, planted, overflowing
):
    rng = np.random.default_rng(seed)
    weight, lr = rng.normal(size=(rows, cols)), 1e-2 if overflowing < 0 else 1e10
    buffer = rng.normal(size=(rows, cols))
    gradient = rng.normal(size=(rows, cols))
    if overflowing >= 0:
        gradient.flat[overflowing % gradient.size] = 1e300
    for position, bad in planted:
        gradient.flat[position % gradient.size] = bad
    expected = scan_first_step_error(weight.tolist(), buffer.tolist(), gradient.tolist(), lr, 0.9)
    assert raised(lambda: sgd_momentum_step(weight, buffer, gradient, lr, 0.9)) == expected


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 12),
    d_out=st.integers(1, 5),
    d_in=st.integers(1, 6),
)
@example(seed=0, n=0, d_out=3, d_in=4)
@example(seed=0, n=1, d_out=1, d_in=2)
def test_embed_backward_is_the_backward_of_embed_batch(seed, n, d_out, d_in):
    rng = np.random.default_rng(seed)
    weight = rng.normal(size=(d_out, d_in))
    values = rng.normal(size=(n, d_in)) * 2.0
    grad_features = rng.normal(size=(n, d_out))
    features = embed_batch(values, weight)

    grad = embed_backward(grad_features, features, values, weight)
    assert grad.shape == weight.shape
    assert np.array_equal(grad, _chain_to_weight(grad_features, features, weight, values))

    def pairing(w):
        return float(np.sum(grad_features * embed_batch(values, w)))

    numeric = finite_difference_gradient(pairing, weight, step=1e-5)
    assert relative_error(grad, numeric) < 1e-4
