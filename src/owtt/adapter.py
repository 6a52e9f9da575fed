"""Trainable feature map: a linear adapter followed by unit normalization.

The adapter owns the only parameters updated during test-time training.
Everything downstream (prototypes, scores, losses) consumes the unit-norm
embeddings it produces, and losses hand their feature gradients back to
`embed_backward`, the one place that knows the map's form.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateEmbedding, InvalidSpec, NonFiniteGradient, NonFiniteInput

# Below this output norm the adapter is considered collapsed and the run
# aborts instead of silently renormalizing noise.
NORM_EPS = 1e-12


@dataclass
class AdapterState:
    """Adapter weights plus SGD-momentum optimizer slots."""

    weight: np.ndarray          # (feature_dim, input_dim)
    momentum_buffer: np.ndarray  # same shape as weight
    learning_rate: float
    momentum_coeff: float


def init_adapter(
    feature_dim: int,
    input_dim: int,
    learning_rate: float,
    momentum_coeff: float = 0.9,
    seed: int = 0,
    noise_scale: float = 0.01,
) -> AdapterState:
    """Identity map padded/truncated to shape, plus small uniform noise.

    Starting near the raw feature geometry keeps source prototypes
    meaningful before any adaptation step has run.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xADA]))
    weight = np.zeros((feature_dim, input_dim))
    k = min(feature_dim, input_dim)
    weight[:k, :k] = np.eye(k)
    weight += rng.uniform(-noise_scale, noise_scale, size=weight.shape)
    return AdapterState(
        weight=weight,
        momentum_buffer=np.zeros_like(weight),
        learning_rate=learning_rate,
        momentum_coeff=momentum_coeff,
    )


def embed_batch(values: np.ndarray, adapter: AdapterState) -> np.ndarray:
    """Map a batch of raw inputs (rows) to unit-norm features (rows).

    Raises NonFiniteInput naming the first row that holds a NaN or inf, or
    whose embedding norm overflows (numpy warns of the overflow first), and
    DegenerateEmbedding naming the smallest embedding norm below NORM_EPS:
    a tiny row is refused, although its direction is well defined.
    """
    values = np.asarray(values, dtype=float)
    if not np.isfinite(values).all():
        finite = np.isfinite(values).all(axis=1)
        raise NonFiniteInput(f"input row {int(np.argmin(finite))} holds a NaN or inf value")
    raw = values @ adapter.weight.T
    norms = np.sqrt((raw * raw).sum(axis=1))  # np.linalg.norm(raw, axis=1), unwrapped
    if not (NORM_EPS <= norms.min(initial=np.inf) and norms.max(initial=0.0) < np.inf):
        finite = np.isfinite(norms)
        if not finite.all():
            bad = int(np.argmin(finite))
            raise NonFiniteInput(f"input row {bad} overflows: its embedding norm is {norms[bad]}")
        bad = int(np.argmin(norms))
        raise DegenerateEmbedding(
            f"embedding norm {norms[bad]:.3e} below {NORM_EPS:.0e} at row {bad}"
        )
    return raw / norms[:, None]


def embed_backward(grad_features, features, values, adapter: AdapterState) -> np.ndarray:
    """Backward of `embed_batch`: per-feature gradients, through the unit
    normalization and the linear map, to the adapter weight.

    `features` must be `embed_batch(values, adapter)`.
    """
    values = np.asarray(values, dtype=float)
    raw = values @ adapter.weight.T
    norms = np.sqrt((raw * raw).sum(axis=1))
    radial = (features * grad_features).sum(axis=1, keepdims=True)
    grad_pre = (grad_features - features * radial) / norms[:, None]
    return grad_pre.T @ values


def sgd_momentum_step(adapter: AdapterState, gradient: np.ndarray) -> AdapterState:
    """One classical-momentum step: buffer accumulates, weight moves against it."""
    gradient = np.asarray(gradient, dtype=float)
    if gradient.shape != adapter.weight.shape:
        raise InvalidSpec(f"gradient shape {gradient.shape} != weight shape {adapter.weight.shape}")
    if not np.isfinite(gradient).all():
        raise NonFiniteGradient("gradient contains NaN or inf entries")
    buffer = adapter.momentum_coeff * adapter.momentum_buffer + gradient
    weight = adapter.weight - adapter.learning_rate * buffer
    return AdapterState(
        weight=weight,
        momentum_buffer=buffer,
        learning_rate=adapter.learning_rate,
        momentum_coeff=adapter.momentum_coeff,
    )
