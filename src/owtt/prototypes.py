"""Prototype pool: fixed source prototypes plus a bounded novel queue.

Source prototypes are unit-normalized class means computed once from
source-domain features. Novel prototypes are discovered during the stream
by the incremental expansion procedure and live in a FIFO queue so the
pool cannot grow without bound.
"""
from __future__ import annotations

import math
import struct
from itertools import accumulate

import numpy as np

from .adapter import NORM_EPS
from .datagen import fresh
from .errors import (
    ConfigError, DegenerateEmbedding, EmptyClass, EmptyNovelPool, InvalidSpec, NonFiniteInput
)
from .scoring import adaptive_threshold, ood_score  # noqa: F401  (patched by the perfbench tracer)

_POOL_MAGIC = b"OWTP"
_POOL_VERSION = 1
_POOL_HEADER = struct.Struct("<4sIIIII")

# Most novel prototypes a pool may hold: the pool preallocates its rows, so a
# larger capacity from a config or a checkpoint is refused before allocation.
MAX_NOVEL_CAPACITY = 2**16

# Most a checkpointed row's norm may differ from 1: an engine pool holds only
# renormalized rows (class means, embeddings and momentum blends).
UNIT_NORM_TOL = 1e-9


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
        if not 1 <= novel_capacity <= MAX_NOVEL_CAPACITY:
            raise ConfigError(
                f"novel_capacity must lie in 1..{MAX_NOVEL_CAPACITY}, got {novel_capacity}"
            )
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
    a positive integer (a bool is not), ``rows`` is 2-D and ``labels`` holds
    one integral class id in 0..num_classes-1 per row."""
    if isinstance(num_classes, bool) or not isinstance(num_classes, (int, np.integer)):
        raise InvalidSpec(f"the number of source classes must be an integer, got {num_classes!r}")
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


def _admit(close: np.ndarray, cap: int) -> list:
    """The candidates ``expand`` admits, in visit order: i enters unless
    ``close[j, i]`` for one of the last ``cap`` admissions j. The live rows' OR,
    in ints of bits, is ``newer`` (the rows since the last full block of ``cap``)
    with the top of ``older`` (that block's suffix ORs, popped as rows leave)."""
    packed = np.packbits(close, axis=1, bitorder="little")
    width, data, count, frombytes = packed.shape[1], packed.tobytes(), len(close), int.from_bytes
    admitted, rows, newer, i, older = [], [], 0, -1, [0] * (min(cap, count) + 1)  # no block yet
    while True:
        blocked = (newer | older.pop()) >> (i + 1)  # one pop per admission
        i += (~blocked & (blocked + 1)).bit_length()  # jump to the lowest clear bit after i
        if i >= count:
            return admitted
        admitted.append(i)
        rows.append(row := frombytes(data[i * width : (i + 1) * width], "little"))
        newer |= row
        if len(rows) % cap == 0:
            older, newer = [0, *accumulate(reversed(rows[-cap:]), int.__or__)], 0


def expand(
    pool: PrototypePool, batch_features: np.ndarray, scores: np.ndarray, tau: float
) -> int:
    """Incrementally add batch features as novel prototypes; returns count added.

    ``scores`` are the batch's extended OOD scores against the pool as the
    batch found it, so each candidate (score > tau) beats tau against that
    pool and is blocked only by a still-live (not yet evicted) admission of
    this batch with ``1 - cos <= tau`` to it: near-duplicates cannot all
    enter. Candidates are visited in descending score order, jumping from one
    admission to the next (``_admit``); their cosines come from one product
    of the candidates. It transiently holds ``count**2`` doubles, a
    ``count**2`` bool matrix built while the doubles are still alive (9 bytes
    a pair at the peak), and ``count**2 / 8`` bytes of bitsets. The
    admissions enter the pool as one block, oldest first, which leaves the
    same FIFO queue as pushing each in turn.

    The visit stops at the first candidate whose initial score is <= tau:
    such candidates are never visited, even when an eviction later in the
    batch would raise their score above tau.
    """
    above = (scores > tau).nonzero()[0]
    if not above.size:
        return 0
    candidates = batch_features[above[(-scores[above]).argsort(kind="stable")]]
    close = candidates @ candidates.T
    close = np.subtract(1.0, close, out=close) <= tau  # admission j blocks candidate i
    admitted = _admit(close, pool.novel_capacity)
    pool.push_novel(candidates[admitted])
    return len(admitted)


def _check_finite(rows: np.ndarray, what: str, error=InvalidSpec) -> None:
    bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
    if bad.size:
        raise error(f"{what} row {bad[0]} holds a NaN or infinite value")


def _check_pool_rows(rows: np.ndarray, num_source: int, what: str) -> None:
    """Raise InvalidSpec unless ``rows`` could be an engine pool's: at least one
    source row, a positive width, and finite rows of norm 1 within UNIT_NORM_TOL."""
    if num_source < 1 or rows.shape[1] < 1:
        raise InvalidSpec(f"{what} holds {num_source} source rows of width {rows.shape[1]}: "
                          "need at least one source row and a positive width")
    _check_finite(rows, what)
    with np.errstate(over="ignore"):  # a row too long to square is refused below
        norms = np.sqrt((rows * rows).sum(axis=1))
    bad = np.flatnonzero(np.abs(norms - 1.0) > UNIT_NORM_TOL)
    if bad.size:
        raise InvalidSpec(f"{what} row {bad[0]} has norm {norms[bad[0]]:.12g}, "
                          f"not 1 within {UNIT_NORM_TOL:g}")


def save_pool(pool: PrototypePool, path) -> None:
    """Checkpoint the pool: prototype-count header, then flat float64 rows.

    A pool that ``load_pool`` would refuse (no source row, zero width, or a
    row that is not finite and of unit norm) raises InvalidSpec before the
    file is opened.
    """
    rows = pool.all_matrix()  # the source rows, then the novel rows
    _check_pool_rows(rows, pool.num_source, "pool")
    header = _POOL_HEADER.pack(
        _POOL_MAGIC, _POOL_VERSION, rows.shape[1], pool.num_source, pool.novel_count,
        pool.novel_capacity,
    )
    with open(fresh(path), "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(rows, dtype="<f8").tobytes())


def load_pool(path) -> PrototypePool:
    """Read a checkpoint written by ``save_pool``; a malformed one, or one whose
    rows no engine pool holds (see ``save_pool``), raises InvalidSpec."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < _POOL_HEADER.size:
        raise InvalidSpec(f"pool checkpoint header truncated ({len(data)} bytes)")
    magic, version, dim, n_source, n_novel, capacity = _POOL_HEADER.unpack_from(data)
    if magic != _POOL_MAGIC:
        raise InvalidSpec(f"not a pool checkpoint (magic {magic!r})")
    if version != _POOL_VERSION:
        raise InvalidSpec(f"unsupported pool checkpoint version {version}")
    if not 1 <= capacity <= MAX_NOVEL_CAPACITY or n_novel > capacity:
        raise InvalidSpec(
            f"pool checkpoint holds {n_novel} novel rows at capacity {capacity}: "
            f"need a capacity in 1..{MAX_NOVEL_CAPACITY} and no more rows"
        )
    expected = _POOL_HEADER.size + 8 * dim * (n_source + n_novel)
    if len(data) != expected:
        raise InvalidSpec(f"pool checkpoint is {len(data)} bytes, its header implies {expected}")
    rows = np.frombuffer(data, "<f8", offset=_POOL_HEADER.size).reshape(n_source + n_novel, dim)
    _check_pool_rows(rows, n_source, "pool checkpoint")
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
        idx = novel.dot(row).argmax()
        blended = keep * novel[idx] + pull
        norm = math.sqrt(blended.dot(blended))  # what np.linalg.norm computes for a 1-D row
        if norm < NORM_EPS:
            raise DegenerateEmbedding("momentum blend collapsed to zero norm")
        np.divide(blended, norm, out=novel[idx])
