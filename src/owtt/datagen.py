"""Seeded synthetic open-world stream generator.

A source domain of Gaussian class clusters, a weak-OOD target stream made
of those classes under a fixed rotation/bias/noise shift, and strong-OOD
contamination with a controllable mix ratio and difficulty. All outputs
are bit-reproducible per (spec, seed), and each batch is seeded
independently so stream prefixes do not depend on the total length. That
independence also lets generate_stream draw a stream of large batches on two
threads with the same bits as one.
"""
from __future__ import annotations

import ctypes
import math
import os
import stat
import struct
import threading
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from .errors import InvalidSpec
from .fields import check_fields

STRONG_MODES = ("uniform_noise", "disjoint_clusters", "near_clusters")

_STREAM_MAGIC = b"OWTT"
_STREAM_VERSION = 1
_STREAM_HEADER = struct.Struct("<4sIIII")
# Largest label a stream file holds: float32 represents every integer up to 2**24.
_MAX_LABEL = 2**24

# SeedSequence tags keeping the independent random draws decoupled.
_TAG_SOURCE_MEANS = 1
_TAG_STRONG_MEANS = 2
_TAG_ROTATION = 3
_TAG_BIAS = 4
_TAG_SOURCE_SAMPLES = 5
_TAG_BATCH = 6

_MAX_PLACEMENT_TRIES = 20_000

# Most source (k_s) or strong (k_t) classes a world may have: the paper's
# largest label space is ImageNet-C's 1,000 classes.
MAX_CLASSES = 1024

# Most float64 elements (1 GiB) one world array may hold: the source values
# (n_source x d_in), the stream (n_batches x batch_size x d_in) and the
# rotation (d_in x d_in); the last keeps d_in below 2**13.5, so the strong
# means (k_t x d_in, k_t <= MAX_CLASSES) stay below 2**24. A size typo raises
# InvalidSpec, not MemoryError.
MAX_WORLD_ELEMENTS = 2**27

# Largest world scale: class_sep * (offset_scale + max(1, |strong_margin|)) +
# bias_scale + within_std + noise_std bounds a sample's norm up to the size of
# a normal draw and sqrt(d_in), so no squared norm overflows (and warns) below it.
MAX_WORLD_SCALE = 1e150

# Fewest values per batch (batch_size x d_in) for which generate_stream draws
# the second half of the batches on a worker thread. numpy releases the GIL in
# a large batch's normal draws and shift product, so the halves overlap; a
# small batch is mostly GIL-held Python, which the two threads take in turns.
SPLIT_BATCH_VALUES = 2**14

try:  # the CPU the calling thread is on, or -1: Linux's C libraries have the call
    _sched_getcpu = ctypes.CDLL(None).sched_getcpu
    _sched_getcpu.argtypes, _sched_getcpu.restype = (), ctypes.c_int
except (AttributeError, OSError, TypeError):  # no such call, or no C library to ask
    def _sched_getcpu():
        return -1


def real_array(array, what: str) -> np.ndarray:
    """``array`` as an array; InvalidSpec if complex: a real cast would drop its imaginary part."""
    array = np.asarray(array)
    if array.dtype.kind == "c":
        raise InvalidSpec(f"{what} are complex, not real")
    return array


def fresh(path):
    """``path``, its old regular file unlinked: truncating one can wait on a flush
    (ext4). A symlink, FIFO or device is kept, so a write goes through it."""
    try:
        if stat.S_ISREG(os.lstat(path).st_mode):
            os.unlink(path)
    except FileNotFoundError:
        pass
    return path


@dataclass
class Batch:
    """One stream batch: input rows and their non-negative integer evaluation-only labels."""

    values: np.ndarray  # (B, d_in) float64
    hidden: np.ndarray  # (B,) int

    def __post_init__(self):
        self.values = real_array(self.values, "batch values").astype(float, copy=False)
        labels = real_array(self.hidden, "hidden labels")
        labels = labels.astype(int if labels.dtype.kind in "bi" else float, copy=False)
        if self.values.ndim != 2 or labels.shape != self.values.shape[:1]:
            raise InvalidSpec(f"a batch needs 2-D values and one label per row, got values "
                              f"of shape {self.values.shape} and labels of shape {labels.shape}")
        if labels.dtype.kind == "f" or labels.min(initial=0) < 0:  # one min() passes int labels
            valid = (labels >= 0) & (labels < 2.0**63) & (labels == np.round(labels))
            if not valid.all():
                i = int(np.argmin(valid))
                raise InvalidSpec(f"hidden label {i} is {labels[i]:g}, not a non-negative integer")
        self.hidden = labels.astype(int, copy=False)

    def __len__(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class WorldSpec:
    """Synthetic open-world benchmark description, checked when built: field
    types first (ConfigError), then values (InvalidSpec)."""

    d_in: int = 32
    # Leading input dimensions carrying class structure; the rest are
    # nuisance dimensions holding only noise. The covariate shift rotates
    # signal into the nuisance subspace, which degrades any fixed projection
    # uniformly across classes and stays exactly recoverable by a linear map.
    signal_dims: int = 16
    k_s: int = 5
    k_t: int = 5
    class_sep: float = 8.0
    within_std: float = 0.35
    # Common positive offset (in units of class_sep along the all-ones
    # signal direction) shared by every sample. It keeps pairwise cosines
    # positive, mimicking post-ReLU feature geometry where OOD scores live
    # in [0, 1].
    offset_scale: float = 0.6
    rotation_angle: float = 1.3
    bias_scale: float = 1.0
    noise_std: float = 1.0
    strong_mode: str = "disjoint_clusters"
    # How far near_clusters pulls each strong mean toward a source class
    # (0 leaves it disjoint); other strong modes refuse a positive value.
    near_interp: float = 0.0
    # Strong-OOD cluster means keep at least strong_margin * class_sep distance
    # from every source mean: novel-dataset contamination sits farther away
    # than the source classes sit from each other.
    strong_margin: float = 1.4
    ratio: float = 1.0
    n_source: int = 1000
    n_batches: int = 100
    batch_size: int = 64
    seed: int = 0

    def __post_init__(self):
        check_fields(self)
        for key in ("class_sep", "within_std", "offset_scale", "bias_scale", "noise_std",
                    "rotation_angle", "strong_margin"):  # checks below pass NaN or inf
            if not -math.inf < getattr(self, key) < math.inf:  # refuses NaN too
                raise InvalidSpec(f"{key} must be finite, got {getattr(self, key)}")
        if self.d_in < 2:
            raise InvalidSpec("d_in must be at least 2")
        if not 2 <= self.signal_dims <= self.d_in:
            raise InvalidSpec("signal_dims must lie in [2, d_in]")
        for key in ("k_s", "k_t"):
            if not 1 <= getattr(self, key) <= MAX_CLASSES:
                raise InvalidSpec(f"k_s and k_t must lie in 1..{MAX_CLASSES}, got "
                                  f"{key}={getattr(self, key)}")
        if self.class_sep <= 0 or self.within_std <= 0:
            raise InvalidSpec("class_sep and within_std must be positive")
        if self.noise_std < 0 or self.bias_scale < 0 or self.offset_scale < 0:
            raise InvalidSpec("noise_std, bias_scale, offset_scale must be non-negative")
        scale = (self.class_sep * (self.offset_scale + max(1.0, abs(self.strong_margin)))
                 + self.bias_scale + self.within_std + self.noise_std)
        if scale > MAX_WORLD_SCALE:
            raise InvalidSpec(f"the world's scale is {scale:g}, above {MAX_WORLD_SCALE:g}: lower "
                              "class_sep, offset_scale, strong_margin, bias_scale, within_std "
                              "or noise_std")
        if self.strong_mode not in STRONG_MODES:
            raise InvalidSpec(f"strong_mode must be one of {STRONG_MODES}")
        if not 0.0 <= self.near_interp <= 1.0:
            raise InvalidSpec("near_interp must lie in [0, 1]")
        if self.near_interp > 0.0 and self.strong_mode != "near_clusters":
            raise InvalidSpec(f"near_interp applies only to near_clusters, not {self.strong_mode}")
        if not 0.0 < self.ratio <= 1.0:
            raise InvalidSpec("ratio must lie in (0, 1]")
        if self.n_source < self.k_s:
            raise InvalidSpec("n_source must cover every class")
        if self.n_batches < 1 or self.batch_size < 2:
            raise InvalidSpec("need at least one batch of size >= 2")
        if self.seed < 0:
            raise InvalidSpec("seed must be non-negative")
        for keys in (("n_source", "d_in"), ("n_batches", "batch_size", "d_in"), ("d_in", "d_in")):
            size = math.prod(getattr(self, key) for key in keys)
            if size > MAX_WORLD_ELEMENTS:
                raise InvalidSpec(
                    f"{' x '.join(keys)} is {size} elements, above {MAX_WORLD_ELEMENTS}"
                )


def _rng(spec: WorldSpec, *tags: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([spec.seed, *tags]))


def _place_means(rng, count, dim, radius, min_dist, exclude=(), exclude_dist=None,
                 what="means", loosen="ask for fewer or raise dim"):
    """Random points on a sphere, pairwise >= min_dist apart.

    Points additionally keep exclude_dist (defaults to min_dist) away from
    every vector in exclude. Each try meets every anchor (the excluded vectors,
    then the points placed so far) in one stacked product of row dot products,
    which rounds as ``np.linalg.norm(v - q)`` does per row. Raises InvalidSpec
    naming ``what``, how many were placed and ``loosen`` when the tries run out.
    """
    exclude = np.asarray(exclude, dtype=float).reshape(-1, dim)
    anchors = np.empty((len(exclude) + count, dim))
    anchors[: len(exclude)] = exclude
    clearance = np.full(len(anchors), float(min_dist))
    clearance[: len(exclude)] = min_dist if exclude_dist is None else exclude_dist
    n = len(exclude)
    for _ in range(_MAX_PLACEMENT_TRIES):
        v = rng.standard_normal(dim)
        v *= radius / np.linalg.norm(v)
        gaps = anchors[:n] - v
        if (np.sqrt((gaps[:, None] @ gaps[:, :, None])[:, 0, 0]) >= clearance[:n]).all():
            anchors[n] = v
            n += 1
            if n == len(anchors):
                return anchors[len(exclude):]
    raise InvalidSpec(f"could not place {what}: {n - len(exclude)} of {count} placed in "
                      f"{_MAX_PLACEMENT_TRIES} tries; {loosen}")


def _anchor(spec: WorldSpec) -> np.ndarray:
    """Unit direction of the common offset (all-ones over the signal dims)."""
    v = np.zeros(spec.d_in)
    v[: spec.signal_dims] = 1.0 / np.sqrt(spec.signal_dims)
    return v


def base_offset(spec: WorldSpec) -> np.ndarray:
    """Deterministic common offset keeping all samples in one half-space."""
    return spec.offset_scale * spec.class_sep * _anchor(spec)


def _embed_signal(spec: WorldSpec, points: np.ndarray) -> np.ndarray:
    full = np.zeros((points.shape[0], spec.d_in))
    full[:, : spec.signal_dims] = points
    return full


def _raw_class_means(spec: WorldSpec) -> np.ndarray:
    rng = _rng(spec, _TAG_SOURCE_MEANS)
    means = _place_means(rng, spec.k_s, spec.signal_dims, spec.class_sep, spec.class_sep,
                         what="source means", loosen="lower k_s or raise signal_dims")
    return _embed_signal(spec, means)


def class_means(spec: WorldSpec) -> np.ndarray:
    """Source class means, deterministic per seed."""
    return _raw_class_means(spec) + base_offset(spec)


def strong_means(spec: WorldSpec) -> np.ndarray:
    """Strong-OOD cluster means, kept clear of the source means.

    In near_clusters mode each mean is pulled toward a source mean by the
    interpolation factor, shrinking the distribution shift.
    """
    return _strong_means(spec, _raw_class_means(spec))


def _strong_means(spec: WorldSpec, raw: np.ndarray) -> np.ndarray:
    rng = _rng(spec, _TAG_STRONG_MEANS)
    far = spec.strong_margin * spec.class_sep
    placed = _place_means(
        rng,
        spec.k_t,
        spec.signal_dims,
        far,
        spec.class_sep,
        exclude=raw[:, : spec.signal_dims],
        exclude_dist=far,
        what="strong means",
        loosen="lower k_t or k_s, or raise signal_dims",
    )
    disjoint = _embed_signal(spec, placed) + base_offset(spec)
    if spec.strong_mode == "near_clusters" and spec.near_interp > 0.0:
        # Pull each mean toward a source mean, stopping at class_sep distance:
        # at interp = 1 the novel clusters sit as close to the known classes
        # as the known classes sit to each other, not on top of them.
        anchors = (raw + base_offset(spec))[np.arange(spec.k_t) % spec.k_s]
        direction = disjoint - anchors
        dist = np.linalg.norm(direction, axis=1, keepdims=True)
        touch = anchors + direction * (spec.class_sep / dist)
        return disjoint + spec.near_interp * (touch - disjoint)
    return disjoint


def rotation_matrix(spec: WorldSpec) -> np.ndarray:
    """Fixed rotation moving signal energy into the nuisance subspace.

    The s signal dims get a random orthonormal basis led by the common
    offset's direction; the other s - 1 are spin directions. Each 2-plane
    pairs one spin direction with one random nuisance direction and rotates
    it by the same angle, so every class attenuates equally under a
    projection that only reads the signal dims: min(s - 1, d - s) planes.
    With no nuisance dims (d == s) the first (s - 1) // 2 spin directions
    pair with the next as many instead. Every other direction, the offset's
    among them, stays fixed, so R - I has rank 2 * planes. The planes are
    mutually orthogonal, so R = I + (c - 1)(UU' + VV') + s(VU' - UV'), with
    the paired spin directions as U's columns and their partners as V's.
    """
    if spec.rotation_angle == 0.0:
        return np.eye(spec.d_in)
    rng = _rng(spec, _TAG_ROTATION)
    s, d = spec.signal_dims, spec.d_in

    signal_seed = np.zeros((d, s))
    signal_seed[:s, 0] = 1.0 / np.sqrt(s)  # anchor column, kept out of the planes
    signal_seed[:s, 1:] = rng.standard_normal((s, s - 1))
    spin = np.linalg.qr(signal_seed)[0][:, 1:]

    if d > s:
        nuis_seed = np.zeros((d, d - s))
        nuis_seed[s:, :] = rng.standard_normal((d - s, d - s))
        partners = np.linalg.qr(nuis_seed)[0]
        # QR leaks rounding (up to ~1e-12) into the signal rows, and the closed
        # form needs U'V = 0 exactly. A QR of the lower block alone could flip
        # a partner's sign, and with it the turning direction.
        partners[:s] = 0.0
    else:
        half = (s - 1) // 2
        spin, partners = spin[:, :half], spin[:, half : 2 * half]
    planes = min(spin.shape[1], partners.shape[1])
    u, v = spin[:, :planes], partners[:, :planes]

    angle = float(spec.rotation_angle)  # a float field may hold an int past int64
    cos_m1, sin_t = np.cos(angle) - 1.0, np.sin(angle)
    rotation = np.hstack([cos_m1 * u + sin_t * v, cos_m1 * v - sin_t * u]) @ np.hstack([u, v]).T
    rotation[np.diag_indices(d)] += 1.0
    return rotation


def bias_vector(spec: WorldSpec) -> np.ndarray:
    """Unit bias direction in the signal subspace, orthogonal to the offset.

    Staying orthogonal to the shared offset keeps the shift severity
    comparable across seeds.
    """
    rng = _rng(spec, _TAG_BIAS)
    v = np.zeros(spec.d_in)
    v[: spec.signal_dims] = rng.standard_normal(spec.signal_dims)
    anchor = _anchor(spec)
    v -= (v @ anchor) * anchor
    return v / np.linalg.norm(v)


def generate_source(spec: WorldSpec):
    """Source-domain training set: (values, labels), deterministic per seed."""
    rng = _rng(spec, _TAG_SOURCE_SAMPLES)
    means = class_means(spec)
    labels = rng.integers(0, spec.k_s, size=spec.n_source)
    # Guarantee every class appears at least once.
    labels[: spec.k_s] = np.arange(spec.k_s)
    values = rng.standard_normal((spec.n_source, spec.d_in))
    values *= spec.within_std
    values += means[labels]
    return values, labels


def batch_counts(spec: WorldSpec):
    """(weak, strong) sample counts per batch honoring the strong:weak ratio."""
    n_strong = int(round(spec.batch_size * spec.ratio / (1.0 + spec.ratio)))
    n_strong = min(max(n_strong, 1), spec.batch_size - 1)
    return spec.batch_size - n_strong, n_strong


def _world_constants(spec: WorldSpec):
    """(class means, strong means or None, rotation, bias, weak rows) shared by every batch."""
    raw = _raw_class_means(spec)  # placed once, for both kinds of mean
    strong = None if spec.strong_mode == "uniform_noise" else _strong_means(spec, raw)
    bias = spec.bias_scale * bias_vector(spec)
    return raw + base_offset(spec), strong, rotation_matrix(spec), bias, batch_counts(spec)[0]


def generate_batch(spec: WorldSpec, t: int) -> Batch:
    """One stream batch; depends only on (spec fields, seed, t)."""
    return _batch(spec, t, *_world_constants(spec))


def _batch(spec: WorldSpec, t: int, source, means, rotation, bias, n_weak) -> Batch:
    """Weak rows then strong rows, drawn into one array in place and shuffled. Each
    element meets the operations of ``mean + std * normal`` and ``x @ R.T + bias +
    noise`` with only their operands swapped, so it keeps the out-of-place bits."""
    rng = _rng(spec, _TAG_BATCH, t)
    values = np.empty((spec.batch_size, spec.d_in))
    labels = np.empty(spec.batch_size, dtype=int)
    weak, strong = values[:n_weak], values[n_weak:]

    labels[:n_weak] = rng.integers(0, spec.k_s, size=n_weak)
    raw = rng.standard_normal(weak.shape)
    raw *= spec.within_std
    raw += source[labels[:n_weak]]
    np.matmul(raw, rotation.T, out=weak)
    weak += bias
    if spec.noise_std > 0.0:
        weak += np.multiply(rng.standard_normal(out=raw), spec.noise_std, out=raw)

    if spec.strong_mode == "uniform_noise":
        np.add(base_offset(spec), rng.uniform(-spec.class_sep, spec.class_sep, size=strong.shape),
               out=strong)
        labels[n_weak:] = spec.k_s
    else:
        picks = rng.integers(0, spec.k_t, size=len(strong))
        rng.standard_normal(out=strong)
        strong *= spec.within_std
        strong += means[picks]
        np.add(picks, spec.k_s, out=labels[n_weak:])

    order = rng.permutation(spec.batch_size)
    batch = Batch.__new__(Batch)  # float64, 2-D and non-negative int by construction: no re-check
    batch.values, batch.hidden = values[order], labels[order]
    return batch


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _start_worker(target, name=None) -> threading.Thread:
    """Start a thread that runs ``target`` on the process's usable CPUs other than
    the calling thread's, so the two run side by side even where the kernel keeps
    a new thread on its creator's CPU. Only the worker's own mask is set; where
    the CPU lookup or an affinity call is missing or fails, it runs unpinned."""
    try:
        others = os.sched_getaffinity(0) - {_sched_getcpu()}
    except (AttributeError, OSError):
        others = None

    def pinned():
        if others:
            try:
                os.sched_setaffinity(0, others)  # pid 0: this thread alone
            except OSError:
                pass
        target()

    worker = threading.Thread(target=pinned, name=name)
    worker.start()
    return worker


def generate_stream(spec: WorldSpec) -> List[Batch]:
    """The full test stream as a list of batches.

    A batch of at least SPLIT_BATCH_VALUES values, on a process that may use
    two CPUs, has the later half of the stream drawn on a worker thread (off
    this one's CPU) while this one draws the first half. Each batch seeds its
    own generator and reads only the world's constants, so the batches are
    bit-identical to a serial draw. Smaller batches stay serial: most of
    their time is GIL-held Python, which the two threads would take in turns.
    The worker is joined before this returns or raises, and an error it
    raised is raised here.
    """
    constants = _world_constants(spec)
    half = spec.n_batches // 2
    if (half == 0 or spec.batch_size * spec.d_in < SPLIT_BATCH_VALUES
            or _usable_cpus() < 2):
        return [_batch(spec, t, *constants) for t in range(spec.n_batches)]

    batches: List[Batch] = [None] * spec.n_batches
    errors: List[BaseException] = []

    def draw_later_half():
        try:
            for t in range(half, spec.n_batches):
                batches[t] = _batch(spec, t, *constants)
        except BaseException as exc:  # raised again on the calling thread
            errors.append(exc)

    worker = _start_worker(draw_later_half)
    try:
        for t in range(half):
            batches[t] = _batch(spec, t, *constants)
    finally:
        worker.join()
    if errors:
        raise errors[0]
    return batches


# --- stream export / ingestion ----------------------------------------------------


def _stream_width(batches: Sequence[Batch]) -> int:
    """The one row width of a stream's batches: InvalidSpec for a stream with
    no batch, or naming the first batch with no rows or whose width differs
    from batch 0's."""
    if not batches:
        raise InvalidSpec("the stream holds no batch")
    width = batches[0].values.shape[1]
    for t, batch in enumerate(batches):
        if not len(batch):  # load_stream refuses it
            raise InvalidSpec(f"stream batch {t} has no rows")
        if batch.values.shape[1] != width:
            raise InvalidSpec(f"stream batch {t} has rows of width {batch.values.shape[1]}, "
                              f"batch 0 has width {width}")
    return width


def export_stream(batches: Sequence[Batch], path) -> None:
    """Write a stream as little-endian float32 rows with an OWTT header.

    Row layout: batch index, hidden label, then the d_in input values.
    Raises InvalidSpec, before the file is opened, for a stream with no
    batch, a batch with no rows or mixed row widths, and naming the batch
    and row of the first label above _MAX_LABEL (float32 would round it) or
    finite value outside float32's range.
    """
    _stream_width(batches)
    sizes = [len(batch) for batch in batches]
    stamps = np.repeat(np.arange(len(batches)), sizes)
    values = np.concatenate([batch.values for batch in batches])
    labels = np.concatenate([batch.hidden for batch in batches])
    outside = (np.abs(values) > np.finfo(np.float32).max) & np.isfinite(values)
    bad = (labels > _MAX_LABEL) | outside.any(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        held = (f"label {labels[i]}, above {_MAX_LABEL}" if labels[i] > _MAX_LABEL
                else f"{values[i][outside[i]][0]:g}, outside float32's range")
        t = stamps[i]
        raise InvalidSpec(f"stream batch {t} row {i - sum(sizes[:t])} holds {held}")
    rows = np.empty((sum(sizes), values.shape[1] + 2), dtype="<f4")
    rows[:, 0] = stamps
    rows[:, 1] = labels
    rows[:, 2:] = values
    with open(fresh(path), "wb") as fh:
        fh.write(
            _STREAM_HEADER.pack(
                _STREAM_MAGIC, _STREAM_VERSION, rows.shape[1] - 2, rows.shape[0], len(batches)
            )
        )
        fh.write(rows.tobytes())


def load_stream(path) -> List[Batch]:
    """Read a stream written by export_stream; rows keep their file order.

    Raises InvalidSpec for a bad magic or version, a file whose length
    disagrees with its header, more batches than rows, a non-integral label
    or batch index, a label outside 0..2**24 (the integers float32 holds
    exactly), a batch index outside 0..n_batches-1, or a batch with no rows.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < _STREAM_HEADER.size:
        raise InvalidSpec(f"stream header truncated ({len(data)} bytes)")
    magic, version, d_in, n_samples, n_batches = _STREAM_HEADER.unpack_from(data)
    if magic != _STREAM_MAGIC:
        raise InvalidSpec(f"not a stream file (magic {magic!r})")
    if version != _STREAM_VERSION:
        raise InvalidSpec(f"unsupported stream version {version}")
    expected = _STREAM_HEADER.size + 4 * n_samples * (d_in + 2)
    if len(data) != expected:
        raise InvalidSpec(f"stream file is {len(data)} bytes, its header implies {expected}")
    if n_batches > n_samples:  # some batch would have no rows
        raise InvalidSpec(f"stream header names {n_batches} batches for {n_samples} rows")
    rows = np.frombuffer(data, "<f4", offset=_STREAM_HEADER.size).reshape(n_samples, d_in + 2)
    stamps, labels = rows[:, 0], rows[:, 1]
    valid = (stamps >= 0) & (stamps < n_batches) & (stamps == np.round(stamps))
    valid &= (labels >= 0) & (labels <= _MAX_LABEL) & (labels == np.round(labels))
    if not valid.all():
        i = int(np.argmin(valid))
        raise InvalidSpec(
            f"stream row {i} has batch {stamps[i]:g}, label {labels[i]:g}: "
            f"need integers, the batch in 0..{n_batches - 1}, the label in 0..{_MAX_LABEL}"
        )
    stamps = stamps.astype(int)
    counts = np.bincount(stamps, minlength=n_batches)
    if not counts.all():
        raise InvalidSpec(f"stream batch {int(np.argmin(counts))} has no rows")
    rows = rows[np.argsort(stamps, kind="stable")]
    ends = np.cumsum(counts).tolist()
    with np.errstate(invalid="ignore"):  # a signalling NaN value widens to a quiet NaN
        return [
            Batch(rows[end - n : end, 2:], rows[end - n : end, 1])
            for n, end in zip(counts.tolist(), ends)
        ]


def write_stream_csv(batches: Sequence[Batch], path) -> None:
    """Human-inspectable CSV mirror of a stream; refuses what export_stream
    refuses for its shape, before the file is opened."""
    d_in = _stream_width(batches)
    with open(fresh(path), "w", encoding="utf-8") as fh:
        fh.write("batch,hidden_label," + ",".join(f"v{i}" for i in range(d_in)) + "\n")
        for t, batch in enumerate(batches):
            for label, row in zip(batch.hidden.tolist(), batch.values.tolist()):
                vals = ",".join(f"{v:.8g}" for v in row)
                fh.write(f"{t},{label},{vals}\n")
