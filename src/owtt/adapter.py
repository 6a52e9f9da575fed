"""Trainable feature map: a linear adapter followed by unit normalization.

Its weight is the only parameter updated during test-time training; the
engine holds it, with its momentum buffer, and passes it in. Everything
downstream (prototypes, scores, losses) consumes the unit-norm embeddings it
produces, and losses hand their feature gradients back to `embed_backward`,
the one place that knows the map's form.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateEmbedding, InvalidSpec, NonFiniteGradient, NonFiniteInput

# Below this output norm the adapter is considered collapsed and the run
# aborts instead of silently renormalizing noise.
NORM_EPS = 1e-12

# Half-width of the uniform noise added to the initial identity map.
INIT_NOISE = 0.01


def init_adapter(feature_dim: int, input_dim: int, seed: int = 0) -> np.ndarray:
    """The initial weight: the identity padded/truncated to shape, plus small
    uniform noise.

    Starting near the raw feature geometry keeps source prototypes
    meaningful before any adaptation step has run.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xADA]))
    weight = np.zeros((feature_dim, input_dim))
    k = min(feature_dim, input_dim)
    weight[:k, :k] = np.eye(k)
    weight += rng.uniform(-INIT_NOISE, INIT_NOISE, size=weight.shape)
    return weight


def embed_batch(values: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """Map a batch of raw inputs (rows) to unit-norm features (rows).

    Raises NonFiniteInput naming the first row that holds a NaN or inf, or
    whose embedding norm overflows (under any warning filter), and
    DegenerateEmbedding naming the smallest embedding norm below NORM_EPS:
    a tiny row is refused, although its direction is well defined.
    """
    values = np.asarray(values, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        raw = values.dot(weight.T)
        norms = np.sqrt((raw * raw).sum(axis=1))  # np.linalg.norm(raw, axis=1), unwrapped
    if not (NORM_EPS <= norms.min(initial=np.inf) and norms.max(initial=0.0) < np.inf):
        finite = np.isfinite(values).all(axis=1)  # a NaN or inf input row has a NaN or inf norm
        if not finite.all():
            raise NonFiniteInput(f"input row {int(np.argmin(finite))} holds a NaN or inf value")
        finite = np.isfinite(norms)
        if not finite.all():
            bad = int(np.argmin(finite))
            raise NonFiniteInput(f"input row {bad} overflows: its embedding norm is {norms[bad]}")
        bad = int(np.argmin(norms))
        raise DegenerateEmbedding(
            f"embedding norm {norms[bad]:.3e} below {NORM_EPS:.0e} at row {bad}"
        )
    return raw / norms[:, None]


def embed_backward(grad_features, features, values, weight: np.ndarray) -> np.ndarray:
    """Backward of `embed_batch`: per-feature gradients, through the unit
    normalization and the linear map, to the adapter weight.

    `features` must be `embed_batch(values, weight)`.
    """
    values = np.asarray(values, dtype=float)
    raw = values.dot(weight.T)
    norms = np.sqrt((raw * raw).sum(axis=1))
    radial = (features * grad_features).sum(axis=1, keepdims=True)
    grad_pre = (grad_features - features * radial) / norms[:, None]
    return grad_pre.T.dot(values)


def sgd_momentum_step(weight, momentum_buffer, gradient, learning_rate: float,
                      momentum_coeff: float) -> tuple[np.ndarray, np.ndarray]:
    """One classical-momentum step: the buffer accumulates, the weight moves
    against it; returns the new (weight, momentum_buffer), new arrays.

    Raises NonFiniteGradient for a NaN or inf gradient entry, and for a stepped
    weight whose squared norm is not finite: the step that overflowed fails,
    not the next batch's embedding.
    """
    gradient = np.asarray(gradient, dtype=float)
    if gradient.shape != weight.shape:
        raise InvalidSpec(f"gradient shape {gradient.shape} != weight shape {weight.shape}")
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite step is refused below
        buffer = momentum_coeff * momentum_buffer + gradient
        weight = weight - learning_rate * buffer
        squared_norm = np.vdot(weight, weight)
    if not math.isfinite(squared_norm):  # a NaN or inf gradient entry reaches it
        if not np.isfinite(gradient).all():
            raise NonFiniteGradient("gradient contains NaN or inf entries")
        raise NonFiniteGradient(f"the step leaves the weight's squared norm at {squared_norm}: "
                                "lower learning_rate")
    return weight, buffer
