"""Machine-speed calibration for the end-to-end timings.

The benchmark runs on shared machines whose cores slow down by up to 2x for
seconds at a time, which moves raw wall times by 20-40% between runs of the
same code. Two fixed kernels, which use no owtt code, are timed before and
after every stream; each stream's times are multiplied by
``REFERENCE_S[kernel] / measured``, so the figures read as times on a core
running at the reference speed. A change to owtt cannot move the kernels,
so parent and change are scaled alike.

- ``interp``: Python object churn and numpy calls on 64x32 matrices, the mix
  that per-call overhead dominates (the engine on every workload, and the
  rejection sampling in set-up on the default world).
- ``blas``: chains of 128x128 matrix products and row stacks, the mix of
  ``rotation_matrix`` in the set-up of the 128-wide world.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict

import numpy as np

# Kernel times on a 2.0 GHz Xeon core at its usual speed (tenth percentile
# of 300 back-to-back measurements).
REFERENCE_S = {"interp": 0.0086, "blas": 0.0102}

_rng = np.random.default_rng(12345)
_ROWS = list(_rng.standard_normal((64, 32)))
_WEIGHT = _rng.standard_normal((16, 32))
_PROTOS = _rng.standard_normal((8, 16))
_EYE16 = np.eye(16)
_ROTATE = np.eye(128) + 0.01 * _rng.standard_normal((128, 128)) / 12
_POOL = list(_rng.standard_normal((110, 64)))
_QUERY = _rng.standard_normal(64)


@dataclass
class _Record:
    index: int
    score: float


def _interp() -> None:
    for _ in range(90):
        sums: Dict[int, float] = {}
        for rec in [_Record(i, i * 0.5) for i in range(64)]:
            sums[rec.index % 7] = sums.get(rec.index % 7, 0.0) + rec.score
    for _ in range(60):
        features = np.stack(_ROWS) @ _WEIGHT.T
        features /= np.linalg.norm(features, axis=1)[:, None]
        scores = 1.0 - np.max(features @ _PROTOS.T, axis=1)
        np.argsort(-scores, kind="stable")
        np.linalg.solve(np.cov(features.T) + _EYE16, features[:16].T)


def _blas() -> None:
    for _ in range(10):
        rotation = np.eye(128)
        for _ in range(4):
            rotation = _ROTATE @ rotation
        for _ in range(10):
            np.max(np.stack(_POOL) @ _QUERY)


KERNELS = {"interp": _interp, "blas": _blas}


def measure() -> Dict[str, float]:
    """Seconds each kernel takes now."""
    out = {}
    for name, kernel in KERNELS.items():
        start = time.perf_counter()
        kernel()
        out[name] = time.perf_counter() - start
    return out


def scale(before: Dict[str, float], after: Dict[str, float], kernel: str) -> float:
    """Factor turning a time measured between two calibrations into
    reference-speed time."""
    return REFERENCE_S[kernel] / ((before[kernel] + after[kernel]) / 2.0)
