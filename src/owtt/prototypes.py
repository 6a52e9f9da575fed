"""Prototype pool: fixed source prototypes plus a bounded novel queue.

Source prototypes are unit-normalized class means computed once from
source-domain features. Novel prototypes are discovered during the stream
by the incremental expansion procedure and live in a FIFO queue so the
pool cannot grow without bound.
"""
from __future__ import annotations

import math
import struct

import numpy as np

from .adapter import NORM_EPS
from .errors import DegenerateEmbedding, EmptyClass, EmptyNovelPool, InvalidSpec, NonFiniteInput
from .scoring import adaptive_threshold, ood_score  # noqa: F401  (patched by the perfbench tracer)

_POOL_MAGIC = b"OWTP"
_POOL_VERSION = 1
_POOL_HEADER = struct.Struct("<4sIIIII")


class PrototypePool:
    """Immutable source prototypes and a FIFO queue of novel prototypes.

    All rows live in one preallocated array: the source rows, then the novel
    rows oldest-first. The matrix accessors return views of it, so they cost
    no copy, and a view taken before a later push or update sees the change.
    ``push_novel`` is the one writer of novel rows: it takes a block, so
    ``expand`` writes one batch's admissions with a single FIFO shift, and
    ``load_pool`` writes a checkpoint's rows the same way.
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

    def push_novel(self, rows: np.ndarray) -> None:
        """Append novel prototypes, oldest first (one 1-D row or a 2-D block).

        The result equals pushing the rows one at a time and evicting the
        oldest at capacity, but the surviving rows are shifted once per call.
        """
        rows = rows[None] if rows.ndim == 1 else rows[-self.novel_capacity :]
        n, start, count = len(rows), self.num_source, self.novel_count
        keep = min(count, self.novel_capacity - n)  # the newest old rows survive
        if keep < count:
            self._rows[start : start + keep] = self._rows[start + count - keep : start + count]
        self._rows[start + keep : start + keep + n] = rows
        self.novel_count = keep + n


def check_source(rows: np.ndarray, labels, num_classes: int) -> np.ndarray:
    """The source labels as ints. Raises InvalidSpec unless ``num_classes`` is
    positive, ``rows`` is 2-D and ``labels`` holds one integral class id in
    0..num_classes-1 per row."""
    if num_classes < 1:
        raise InvalidSpec(f"need at least one source class, got {num_classes}")
    if rows.ndim != 2:
        raise InvalidSpec(f"source rows must form a 2-D array, got shape {rows.shape}")
    labels = np.asarray(labels, dtype=float)
    if labels.shape != rows.shape[:1]:
        raise InvalidSpec(f"{labels.shape} source labels for {rows.shape[0]} source rows")
    valid = (labels == np.round(labels)) & (labels >= 0) & (labels < num_classes)
    if not valid.all():
        i = int(np.argmin(valid))
        raise InvalidSpec(
            f"source label {i} is {labels[i]:g}: need an integer in 0..{num_classes - 1}"
        )
    return labels.astype(int)


def build_source_prototypes(
    features: np.ndarray, labels: np.ndarray, num_classes: int
) -> np.ndarray:
    """Per-class mean feature, unit-normalized, one row per class id.

    All similarities downstream are cosines, so normalizing the class means
    changes no decision while keeping every prototype on the unit sphere.
    """
    features = np.asarray(features, dtype=float)
    labels = check_source(features, labels, num_classes)
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
    pool: PrototypePool, batch_features: np.ndarray, scores: np.ndarray, tau: float
) -> int:
    """Incrementally add batch features as novel prototypes; returns count added.

    ``scores`` are the batch's extended OOD scores against the pool as the
    batch found it. Candidates are visited in descending score order, and
    each is re-scored against the pool as the batch found it plus this
    batch's admissions that are still live, read from a table, so
    near-duplicates from the same batch cannot all enter. The admissions
    enter the pool after the visit as one block, oldest first, which leaves
    the same FIFO queue as pushing each on admission.

    The visit stops at the first candidate whose initial score is <= tau:
    such candidates are never visited, even when an eviction later in the
    batch would raise their score above tau.
    """
    count = np.count_nonzero(scores > tau)
    if not count:
        return 0
    order = np.argsort(-scores, kind="stable")
    candidates = batch_features[order[:count]]
    # Every candidate scores above tau against the pool the batch found, so a
    # re-score need only check the prototypes this batch added that are still
    # in the pool: the last novel_capacity of them. sims[i, j % width] holds
    # candidate i's similarity to the j-th one added (-inf before it exists).
    # The loop never reads the pool, so the admissions can wait for one push.
    width = min(pool.novel_capacity, candidates.shape[0])
    sims = np.full((candidates.shape[0], width), -np.inf)
    admitted = []
    for i, feature in enumerate(candidates):
        if 1.0 - np.maximum.reduce(sims[i]) > tau:
            sims[i + 1 :, len(admitted) % width] = candidates[i + 1 :] @ feature
            admitted.append(i)
    pool.push_novel(candidates[admitted])
    return len(admitted)


def _check_finite(rows: np.ndarray, what: str, error=InvalidSpec) -> None:
    bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
    if bad.size:
        raise error(f"{what} row {bad[0]} holds a NaN or infinite value")


def save_pool(pool: PrototypePool, path) -> None:
    """Checkpoint the pool: prototype-count header, then flat float64 rows.

    A NaN or inf row raises InvalidSpec before the file is opened, because
    ``load_pool`` would refuse the checkpoint.
    """
    rows = pool.all_matrix()  # the source rows, then the novel rows
    _check_finite(rows, "pool")
    header = _POOL_HEADER.pack(
        _POOL_MAGIC, _POOL_VERSION, rows.shape[1], pool.num_source, pool.novel_count,
        pool.novel_capacity,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(rows, dtype="<f8").tobytes())


def load_pool(path) -> PrototypePool:
    """Read a checkpoint written by ``save_pool``; a malformed one raises InvalidSpec."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < _POOL_HEADER.size:
        raise InvalidSpec(f"pool checkpoint header truncated ({len(data)} bytes)")
    magic, version, dim, n_source, n_novel, capacity = _POOL_HEADER.unpack_from(data)
    if magic != _POOL_MAGIC:
        raise InvalidSpec(f"not a pool checkpoint (magic {magic!r})")
    if version != _POOL_VERSION:
        raise InvalidSpec(f"unsupported pool checkpoint version {version}")
    if capacity < 1 or n_novel > capacity:
        raise InvalidSpec(f"pool checkpoint holds {n_novel} novel rows at capacity {capacity}")
    expected = _POOL_HEADER.size + 8 * dim * (n_source + n_novel)
    if len(data) != expected:
        raise InvalidSpec(f"pool checkpoint is {len(data)} bytes, its header implies {expected}")
    rows = np.frombuffer(data, "<f8", offset=_POOL_HEADER.size).reshape(n_source + n_novel, dim)
    _check_finite(rows, "pool checkpoint")
    pool = PrototypePool(rows[:n_source], novel_capacity=capacity)
    pool.push_novel(rows[n_source:])
    return pool


def momentum_update_novel(pool: PrototypePool, rows: np.ndarray, momentum: float) -> None:
    """Blend novel prototypes toward a block of feature rows, one row at a time.

    For each row in block order (a 1-D row is a block of one), the first most
    similar novel prototype becomes ``(1 - momentum) * prototype + momentum *
    row``, renormalized; each row sees the updates of the rows before it. The
    engine calls this once per batch with the batch's rejected rows.

    A block with a NaN or inf row raises NonFiniteInput naming the first
    such row, and a block whose width is not the pool's raises InvalidSpec;
    either refusal leaves the pool unchanged. A blend that collapses to zero
    norm raises DegenerateEmbedding with the block's earlier rows applied.
    """
    if pool.novel_count == 0:
        raise EmptyNovelPool("no novel prototypes to update")
    rows = np.asarray(rows, dtype=float)
    rows = rows[None] if rows.ndim == 1 else rows
    novel = pool.novel_matrix()
    if rows.ndim != 2 or rows.shape[1] != novel.shape[1]:
        raise InvalidSpec(f"momentum rows of shape {rows.shape} for pool width {novel.shape[1]}")
    _check_finite(rows, "momentum", NonFiniteInput)
    keep = 1.0 - momentum
    for row, pull in zip(rows, momentum * rows):
        idx = (novel @ row).argmax()
        blended = keep * novel[idx] + pull
        norm = math.sqrt(blended.dot(blended))  # what np.linalg.norm computes for a 1-D row
        if norm < NORM_EPS:
            raise DegenerateEmbedding("momentum blend collapsed to zero norm")
        np.divide(blended, norm, out=novel[idx])
