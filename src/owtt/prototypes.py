"""Prototype pool: fixed source prototypes plus a bounded novel queue.

Source prototypes are unit-normalized class means computed once from
source-domain features. Novel prototypes are discovered during the stream
by the incremental expansion procedure and live in a FIFO queue so the
pool cannot grow without bound.
"""
from __future__ import annotations

import struct
from typing import Optional, Tuple

import numpy as np

from .adapter import NORM_EPS
from .errors import DegenerateEmbedding, EmptyClass, EmptyNovelPool
from .scoring import ScoreWindow, adaptive_threshold, batch_extended_scores
from .scoring import ood_score  # noqa: F401  (patched by the perfbench tracer)

_POOL_MAGIC = b"OWTP"
_POOL_VERSION = 1
_POOL_HEADER = struct.Struct("<4sIIIII")


class PrototypePool:
    """Immutable source prototypes and a FIFO queue of novel prototypes.

    All rows live in one preallocated array: the source rows, then the novel
    rows oldest-first. The matrix accessors return views of it, so they cost
    no copy, and a view taken before a later push or update sees the change.
    """

    def __init__(self, source: np.ndarray, novel_capacity: int):
        if novel_capacity < 1:
            raise ValueError("novel_capacity must be positive")
        source = np.asarray(source, dtype=float)
        self.num_source = source.shape[0]
        self.novel_capacity = novel_capacity
        self.novel_count = 0
        self._rows = np.empty((self.num_source + novel_capacity, source.shape[1]))
        self._rows[: self.num_source] = source

    def source_matrix(self) -> np.ndarray:
        return self._rows[: self.num_source]

    def novel_matrix(self) -> np.ndarray:
        return self._rows[self.num_source : self.num_source + self.novel_count]

    def all_matrix(self) -> np.ndarray:
        return self._rows[: self.num_source + self.novel_count]

    def novel_at(self, index: int) -> np.ndarray:
        return self.novel_matrix()[index]

    def push_novel(self, feature: np.ndarray) -> None:
        """Append a novel prototype; the oldest is evicted at capacity."""
        if self.novel_count == self.novel_capacity:
            self._rows[self.num_source : -1] = self._rows[self.num_source + 1 :]
        else:
            self.novel_count += 1
        self._rows[self.num_source + self.novel_count - 1] = feature


def build_source_prototypes(
    features: np.ndarray, labels: np.ndarray, num_classes: int
) -> np.ndarray:
    """Per-class mean feature, unit-normalized, one row per class id.

    All similarities downstream are cosines, so normalizing the class means
    changes no decision while keeping every prototype on the unit sphere.
    """
    features = np.asarray(features, dtype=float)
    labels = np.asarray(labels, dtype=int)
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError("labels must lie in [0, num_classes)")
    prototypes = np.zeros((num_classes, features.shape[1]))
    for k in range(num_classes):
        members = features[labels == k]
        if members.shape[0] == 0:
            raise EmptyClass(k)
        mean = members.mean(axis=0)
        norm = np.linalg.norm(mean)
        if norm < NORM_EPS:
            raise DegenerateEmbedding(f"class {k} mean collapsed to zero norm")
        prototypes[k] = mean / norm
    return prototypes


def expand(
    pool: PrototypePool,
    batch_features: np.ndarray,
    window: ScoreWindow,
    clamp_range: Optional[Tuple[float, float]] = None,
    fixed_threshold: Optional[float] = None,
) -> int:
    """Incrementally add batch features as novel prototypes; returns count added.

    Extended scores for the whole batch feed the dedicated window first and
    the threshold is estimated once. Candidates are then visited in
    descending initial-score order, and each is re-scored against the
    current (growing) pool before insertion, so near-duplicates from the
    same batch cannot all enter.

    The visit stops at the first candidate whose initial score is <= tau:
    such candidates are never visited, even when an eviction later in the
    batch would raise their score above tau.
    """
    batch_features = np.asarray(batch_features, dtype=float)
    if batch_features.shape[0] == 0:
        return 0
    initial = batch_extended_scores(batch_features, pool)
    window.push(initial)
    if fixed_threshold is not None:
        tau = fixed_threshold
    else:
        tau = adaptive_threshold(window, clamp_range).tau

    order = np.argsort(-initial, kind="stable")
    candidates = batch_features[order[: np.count_nonzero(initial > tau)]]
    # Every candidate scores above tau against the pool the batch found, so a
    # re-score need only check the prototypes this batch added that are still
    # in the pool: the last novel_capacity of them. sims[i, j % width] holds
    # candidate i's similarity to the j-th one added (-inf before it exists).
    width = min(pool.novel_capacity, candidates.shape[0])
    sims = np.full((candidates.shape[0], width), -np.inf)
    added = 0
    for i, feature in enumerate(candidates):
        if 1.0 - sims[i].max() > tau:
            pool.push_novel(feature)
            sims[i + 1 :, added % width] = candidates[i + 1 :] @ feature
            added += 1
    return added


def save_pool(pool: PrototypePool, path) -> None:
    """Checkpoint the pool: prototype-count header, then flat float64 rows."""
    source = pool.source_matrix()
    novel = pool.novel_matrix()
    with open(path, "wb") as fh:
        fh.write(
            _POOL_HEADER.pack(
                _POOL_MAGIC,
                _POOL_VERSION,
                source.shape[1],
                source.shape[0],
                novel.shape[0],
                pool.novel_capacity,
            )
        )
        fh.write(np.ascontiguousarray(source, dtype="<f8").tobytes())
        fh.write(np.ascontiguousarray(novel, dtype="<f8").tobytes())


def load_pool(path) -> PrototypePool:
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < _POOL_HEADER.size:
        raise ValueError(f"pool checkpoint header truncated ({len(data)} bytes)")
    magic, version, dim, n_source, n_novel, capacity = _POOL_HEADER.unpack_from(data)
    if magic != _POOL_MAGIC:
        raise ValueError(f"not a pool checkpoint (magic {magic!r})")
    if version != _POOL_VERSION:
        raise ValueError(f"unsupported pool checkpoint version {version}")
    if capacity < 1 or n_novel > capacity:
        raise ValueError(f"pool checkpoint holds {n_novel} novel rows at capacity {capacity}")
    expected = _POOL_HEADER.size + 8 * dim * (n_source + n_novel)
    if len(data) != expected:
        raise ValueError(f"pool checkpoint is {len(data)} bytes, its header implies {expected}")
    rows = np.frombuffer(data, "<f8", offset=_POOL_HEADER.size).reshape(n_source + n_novel, dim)
    pool = PrototypePool(rows[:n_source], novel_capacity=capacity)
    pool._rows[n_source : n_source + n_novel] = rows[n_source:]
    pool.novel_count = n_novel
    return pool


def momentum_update_novel(
    pool: PrototypePool, feature: np.ndarray, momentum: float
) -> None:
    """Blend the most similar novel prototype toward feature and renormalize."""
    if pool.novel_count == 0:
        raise EmptyNovelPool("no novel prototypes to update")
    feature = np.asarray(feature, dtype=float)
    novel = pool.novel_matrix()
    idx = int(np.argmax(novel @ feature))
    blended = (1.0 - momentum) * novel[idx] + momentum * feature
    norm = np.linalg.norm(blended)
    if norm < NORM_EPS:
        raise DegenerateEmbedding("momentum blend collapsed to zero norm")
    novel[idx] = blended / norm
