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
from owtt.adapter import (
    AdapterState,
    embed_backward,
    embed_batch,
    init_adapter,
    sgd_momentum_step,
)
from owtt.errors import DegenerateEmbedding, InvalidSpec, NonFiniteGradient, NonFiniteInput


def make_adapter(weight, lr=0.1, momentum=0.9):
    weight = np.asarray(weight, dtype=float)
    return AdapterState(
        weight=weight,
        momentum_buffer=np.zeros_like(weight),
        learning_rate=lr,
        momentum_coeff=momentum,
    )


def test_identity_map_keeps_unit_vector():
    adapter = make_adapter(np.eye(3))
    values = np.array([[1.0, 0.0, 0.0]])
    np.testing.assert_allclose(embed_batch(values, adapter), values)


def test_embed_normalizes_3_4_vector():
    adapter = make_adapter(np.eye(2))
    np.testing.assert_allclose(embed_batch(np.array([[3.0, 4.0]]), adapter), [[0.6, 0.8]])


def test_zero_weight_raises_degenerate():
    adapter = make_adapter(np.zeros((2, 2)))
    with pytest.raises(DegenerateEmbedding):
        embed_batch(np.array([[1.0, 1.0]]), adapter)


def test_embed_batch_matches_single_embed():
    rng = np.random.default_rng(7)
    adapter = make_adapter(rng.normal(size=(4, 6)))
    batch = rng.normal(size=(5, 6))
    stacked = np.stack([embed(row, adapter.weight) for row in batch])
    np.testing.assert_allclose(embed_batch(batch, adapter), stacked)


def test_zero_momentum_reduces_to_plain_gradient_descent():
    adapter = make_adapter([[2.0]], lr=0.5, momentum=0.0)
    stepped = sgd_momentum_step(adapter, np.array([[1.0]]))
    np.testing.assert_allclose(stepped.weight, [[1.5]])


def test_hand_iterated_momentum_updates():
    adapter = make_adapter([[1.0]], lr=0.1, momentum=0.9)
    grad = np.array([[2.0]])
    step1 = sgd_momentum_step(adapter, grad)
    np.testing.assert_allclose(step1.weight, [[0.8]])
    step2 = sgd_momentum_step(step1, grad)
    np.testing.assert_allclose(step2.momentum_buffer, [[3.8]])
    np.testing.assert_allclose(step2.weight, [[0.42]])


def test_nan_gradient_rejected():
    adapter = make_adapter([[1.0]])
    with pytest.raises(NonFiniteGradient):
        sgd_momentum_step(adapter, np.array([[np.nan]]))


@pytest.mark.parametrize("grad", [0.5, 2.0])
def test_a_step_to_a_weight_too_large_to_square_is_refused(grad):
    # 1 - 1e308 * 0.5 is finite but its square is not; 1e308 * 2.0 overflows itself.
    adapter = make_adapter([[1.0]], lr=1e308)
    with pytest.raises(NonFiniteGradient, match="squared norm at inf"):
        sgd_momentum_step(adapter, np.array([[grad]]))


def test_a_step_to_a_large_weight_that_squares_is_kept():
    stepped = sgd_momentum_step(make_adapter([[1.0]], lr=1e150, momentum=0.0), np.array([[-1.0]]))
    assert stepped.weight[0, 0] == 1e150


def test_shape_mismatch_rejected():
    adapter = make_adapter(np.eye(2))
    with pytest.raises(InvalidSpec):
        sgd_momentum_step(adapter, np.zeros((3, 2)))


def test_zero_gradient_zero_buffer_is_identity():
    adapter = make_adapter(np.eye(3), lr=0.3, momentum=0.9)
    stepped = sgd_momentum_step(adapter, np.zeros((3, 3)))
    np.testing.assert_array_equal(stepped.weight, adapter.weight)


def test_identical_gradient_sequences_are_bit_identical():
    rng = np.random.default_rng(11)
    grads = [rng.normal(size=(3, 5)) for _ in range(10)]
    a = init_adapter(3, 5, learning_rate=0.05, seed=4)
    b = init_adapter(3, 5, learning_rate=0.05, seed=4)
    for g in grads:
        a = sgd_momentum_step(a, g)
        b = sgd_momentum_step(b, g)
    assert np.array_equal(a.weight, b.weight)
    assert np.array_equal(a.momentum_buffer, b.momentum_buffer)


def test_init_adapter_starts_near_identity():
    adapter = init_adapter(2, 4, learning_rate=0.1, seed=0)
    np.testing.assert_allclose(adapter.weight[:2, :2], np.eye(2), atol=0.011)
    np.testing.assert_allclose(adapter.weight[:, 2:], 0.0, atol=0.011)


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
    adapter = make_adapter(rng.normal(size=(3, values.shape[0])))
    try:
        feature = embed_batch(values[None, :], adapter)[0]
    except DegenerateEmbedding:
        return
    assert abs(np.linalg.norm(feature) - 1.0) < 1e-9


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_raises_naming_the_row(bad):
    adapter = make_adapter(np.eye(3))
    values = np.ones((4, 3))
    values[2, 1] = bad
    with pytest.raises(NonFiniteInput, match="row 2"):
        embed_batch(values, adapter)


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
    adapter = make_adapter(rng.normal(size=(d_out, d_in)))
    values = rng.normal(size=(n, d_in))
    if neighbour == "overflowing":
        values[neighbour_row % n] = 1e200
    elif neighbour == "tiny":
        values[neighbour_row % n] *= 1e-20
    for position, bad in planted:
        values.flat[position % values.size] = bad
    expected = scan_first_embed_error(values.tolist(), adapter.weight.tolist())
    assert raised(lambda: embed_batch(values, adapter)) == expected


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
    adapter = make_adapter(rng.normal(size=(rows, cols)), lr=1e-2 if overflowing < 0 else 1e10)
    adapter.momentum_buffer = rng.normal(size=(rows, cols))
    gradient = rng.normal(size=(rows, cols))
    if overflowing >= 0:
        gradient.flat[overflowing % gradient.size] = 1e300
    for position, bad in planted:
        gradient.flat[position % gradient.size] = bad
    expected = scan_first_step_error(adapter.weight.tolist(), adapter.momentum_buffer.tolist(),
                                     gradient.tolist(), adapter.learning_rate,
                                     adapter.momentum_coeff)
    assert raised(lambda: sgd_momentum_step(adapter, gradient)) == expected


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
    adapter = make_adapter(rng.normal(size=(d_out, d_in)))
    values = rng.normal(size=(n, d_in)) * 2.0
    grad_features = rng.normal(size=(n, d_out))
    features = embed_batch(values, adapter)

    grad = embed_backward(grad_features, features, values, adapter)
    assert grad.shape == adapter.weight.shape
    assert np.array_equal(
        grad, _chain_to_weight(grad_features, features, adapter.weight, values)
    )

    def pairing(weight):
        return float(np.sum(grad_features * embed_batch(values, make_adapter(weight))))

    numeric = finite_difference_gradient(pairing, adapter.weight, step=1e-5)
    assert relative_error(grad, numeric) < 1e-4
