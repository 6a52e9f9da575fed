"""Seeded synthetic open-world stream generator.

A source domain of Gaussian class clusters, a weak-OOD target stream made
of those classes under a fixed rotation/bias/noise shift, and strong-OOD
contamination with a controllable mix ratio and difficulty. All outputs
are bit-reproducible per (spec, seed), and each batch is seeded
independently so stream prefixes do not depend on the total length.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from .errors import InvalidSpec

STRONG_MODES = ("uniform_noise", "disjoint_clusters", "near_clusters")

_STREAM_MAGIC = b"OWTT"
_STREAM_VERSION = 1
_STREAM_HEADER = struct.Struct("<4sIIII")

# SeedSequence tags keeping the independent random draws decoupled.
_TAG_SOURCE_MEANS = 1
_TAG_STRONG_MEANS = 2
_TAG_ROTATION = 3
_TAG_BIAS = 4
_TAG_SOURCE_SAMPLES = 5
_TAG_BATCH = 6

_MAX_PLACEMENT_TRIES = 20_000


@dataclass
class Batch:
    """One stream batch: input rows and their evaluation-only labels."""

    values: np.ndarray  # (B, d_in) float64
    hidden: np.ndarray  # (B,) int

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.hidden = np.asarray(self.hidden, dtype=int)

    def __len__(self) -> int:
        return self.values.shape[0]


@dataclass
class WorldSpec:
    """Synthetic open-world benchmark description."""

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

    def validate(self) -> "WorldSpec":
        if self.d_in < 2:
            raise InvalidSpec("d_in must be at least 2")
        if not 2 <= self.signal_dims <= self.d_in:
            raise InvalidSpec("signal_dims must lie in [2, d_in]")
        if self.k_s < 1 or self.k_t < 1:
            raise InvalidSpec("k_s and k_t must be positive")
        if self.class_sep <= 0 or self.within_std <= 0:
            raise InvalidSpec("class_sep and within_std must be positive")
        if self.noise_std < 0 or self.bias_scale < 0 or self.offset_scale < 0:
            raise InvalidSpec("noise_std, bias_scale, offset_scale must be non-negative")
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
        return self


def _rng(spec: WorldSpec, *tags: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([spec.seed, *tags]))


def _place_means(rng, count, dim, radius, min_dist, exclude=(), exclude_dist=None):
    """Random points on a sphere, pairwise >= min_dist apart.

    Points additionally keep exclude_dist (defaults to min_dist) away from
    every vector in exclude.
    """
    if exclude_dist is None:
        exclude_dist = min_dist
    placed: List[np.ndarray] = []
    anchors = [(np.asarray(e), exclude_dist) for e in exclude]
    tries = 0
    while len(placed) < count:
        tries += 1
        if tries > _MAX_PLACEMENT_TRIES:
            raise InvalidSpec(
                "could not place class means with the requested separation"
            )
        v = rng.standard_normal(dim)
        v *= radius / np.linalg.norm(v)
        if all(np.linalg.norm(v - q) >= dist for q, dist in anchors):
            placed.append(v)
            anchors.append((v, min_dist))
    return np.stack(placed)


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
    means = _place_means(rng, spec.k_s, spec.signal_dims, spec.class_sep, spec.class_sep)
    return _embed_signal(spec, means)


def class_means(spec: WorldSpec) -> np.ndarray:
    """Source class means, deterministic per seed."""
    return _raw_class_means(spec) + base_offset(spec)


def strong_means(spec: WorldSpec) -> np.ndarray:
    """Strong-OOD cluster means, kept clear of the source means.

    In near_clusters mode each mean is pulled toward a source mean by the
    interpolation factor, shrinking the distribution shift.
    """
    rng = _rng(spec, _TAG_STRONG_MEANS)
    source = _raw_class_means(spec)[:, : spec.signal_dims]
    far = spec.strong_margin * spec.class_sep
    placed = _place_means(
        rng,
        spec.k_t,
        spec.signal_dims,
        far,
        spec.class_sep,
        exclude=source,
        exclude_dist=far,
    )
    disjoint = _embed_signal(spec, placed) + base_offset(spec)
    if spec.strong_mode == "near_clusters" and spec.near_interp > 0.0:
        # Pull each mean toward a source mean, stopping at class_sep distance:
        # at interp = 1 the novel clusters sit as close to the known classes
        # as the known classes sit to each other, not on top of them.
        anchors = class_means(spec)[np.arange(spec.k_t) % spec.k_s]
        direction = disjoint - anchors
        dist = np.linalg.norm(direction, axis=1, keepdims=True)
        touch = anchors + direction * (spec.class_sep / dist)
        return disjoint + spec.near_interp * (touch - disjoint)
    return disjoint


def rotation_matrix(spec: WorldSpec) -> np.ndarray:
    """Fixed rotation moving signal energy into the nuisance subspace.

    Each 2-plane pairs one random signal direction (orthogonal to the
    common offset, which stays fixed) with one random nuisance direction
    and rotates it by the same angle, so every class attenuates equally
    under a projection that only reads the signal dims. With no nuisance
    dims available the planes pair signal directions instead.
    """
    if spec.rotation_angle == 0.0:
        return np.eye(spec.d_in)
    rng = _rng(spec, _TAG_ROTATION)
    s, d = spec.signal_dims, spec.d_in

    signal_seed = np.zeros((d, s))
    signal_seed[:s, 0] = 1.0 / np.sqrt(s)  # anchor column, kept out of the planes
    signal_seed[:s, 1:] = rng.standard_normal((s, s - 1))
    signal_basis, _ = np.linalg.qr(signal_seed)
    spin_dirs = [signal_basis[:, i] for i in range(1, s)]

    if d > s:
        nuis_seed = np.zeros((d, d - s))
        nuis_seed[s:, :] = rng.standard_normal((d - s, d - s))
        nuis_basis, _ = np.linalg.qr(nuis_seed)
        partners = [nuis_basis[:, i] for i in range(d - s)]
    else:
        half = len(spin_dirs) // 2
        partners = spin_dirs[half : 2 * half]
        spin_dirs = spin_dirs[:half]

    rotation = np.eye(d)
    cos_t, sin_t = np.cos(spec.rotation_angle), np.sin(spec.rotation_angle)
    for u, v in zip(spin_dirs, partners):
        plane = (
            (cos_t - 1.0) * (np.outer(u, u) + np.outer(v, v))
            + sin_t * (np.outer(v, u) - np.outer(u, v))
        )
        rotation = (np.eye(d) + plane) @ rotation
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
    spec.validate()
    rng = _rng(spec, _TAG_SOURCE_SAMPLES)
    means = class_means(spec)
    labels = rng.integers(0, spec.k_s, size=spec.n_source)
    # Guarantee every class appears at least once.
    labels[: spec.k_s] = np.arange(spec.k_s)
    values = means[labels] + spec.within_std * rng.standard_normal(
        (spec.n_source, spec.d_in)
    )
    return values, labels


def batch_counts(spec: WorldSpec):
    """(weak, strong) sample counts per batch honoring the strong:weak ratio."""
    n_strong = int(round(spec.batch_size * spec.ratio / (1.0 + spec.ratio)))
    n_strong = min(max(n_strong, 1), spec.batch_size - 1)
    return spec.batch_size - n_strong, n_strong


def _apply_shift(values, rotation, bias, noise_std, rng):
    shifted = values @ rotation.T + bias
    if noise_std > 0.0:
        shifted = shifted + noise_std * rng.standard_normal(values.shape)
    return shifted


def _world_constants(spec: WorldSpec):
    """(class means, strong means or None, rotation, bias) shared by every batch."""
    strong = None if spec.strong_mode == "uniform_noise" else strong_means(spec)
    return class_means(spec), strong, rotation_matrix(spec), spec.bias_scale * bias_vector(spec)


def generate_batch(spec: WorldSpec, t: int) -> Batch:
    """One stream batch; depends only on (spec fields, seed, t)."""
    return _batch(spec, t, *_world_constants(spec))


def _batch(spec: WorldSpec, t: int, source, means, rotation, bias) -> Batch:
    rng = _rng(spec, _TAG_BATCH, t)
    n_weak, n_strong = batch_counts(spec)

    weak_labels = rng.integers(0, spec.k_s, size=n_weak)
    weak_raw = source[weak_labels] + spec.within_std * rng.standard_normal(
        (n_weak, spec.d_in)
    )
    weak_values = _apply_shift(weak_raw, rotation, bias, spec.noise_std, rng)

    if spec.strong_mode == "uniform_noise":
        strong_values = base_offset(spec) + rng.uniform(
            -spec.class_sep, spec.class_sep, size=(n_strong, spec.d_in)
        )
        strong_labels = np.full(n_strong, spec.k_s)
    else:
        picks = rng.integers(0, spec.k_t, size=n_strong)
        strong_values = means[picks] + spec.within_std * rng.standard_normal(
            (n_strong, spec.d_in)
        )
        strong_labels = spec.k_s + picks

    values = np.vstack([weak_values, strong_values])
    labels = np.concatenate([weak_labels, strong_labels])
    order = rng.permutation(spec.batch_size)
    return Batch(values[order], labels[order])


def generate_stream(spec: WorldSpec) -> List[Batch]:
    """The full test stream as a list of batches."""
    spec.validate()
    constants = _world_constants(spec)
    return [_batch(spec, t, *constants) for t in range(spec.n_batches)]


# --- stream export / ingestion ----------------------------------------------------


def export_stream(batches: Sequence[Batch], path) -> None:
    """Write a stream as little-endian float32 rows with an OWTT header.

    Row layout: batch index, hidden label, then the d_in input values.
    """
    sizes = [len(batch) for batch in batches]
    rows = np.empty((sum(sizes), batches[0].values.shape[1] + 2), dtype="<f4")
    rows[:, 0] = np.repeat(np.arange(len(batches)), sizes)
    rows[:, 1] = np.concatenate([batch.hidden for batch in batches])
    rows[:, 2:] = np.concatenate([batch.values for batch in batches])
    with open(path, "wb") as fh:
        fh.write(
            _STREAM_HEADER.pack(
                _STREAM_MAGIC, _STREAM_VERSION, rows.shape[1] - 2, rows.shape[0], len(batches)
            )
        )
        fh.write(rows.tobytes())


def load_stream(path) -> List[Batch]:
    """Read a stream written by export_stream; rows keep their file order.

    Raises InvalidSpec for a bad magic or version, a file whose length
    disagrees with its header, a non-integral label or batch index, a batch
    index outside 0..n_batches-1, or a batch with no rows.
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
    rows = np.frombuffer(data, "<f4", offset=_STREAM_HEADER.size).reshape(n_samples, d_in + 2)
    stamps, labels = rows[:, 0], rows[:, 1]
    valid = (stamps >= 0) & (stamps < n_batches) & (stamps == np.round(stamps))
    valid &= np.isfinite(labels) & (labels == np.round(labels))
    if not valid.all():
        i = int(np.argmin(valid))
        raise InvalidSpec(
            f"stream row {i} has batch {stamps[i]:g}, label {labels[i]:g}: "
            f"need integers, the batch in 0..{n_batches - 1}"
        )
    stamps = stamps.astype(int)
    counts = np.bincount(stamps, minlength=n_batches)
    if not counts.all():
        raise InvalidSpec(f"stream batch {int(np.argmin(counts))} has no rows")
    rows = rows[np.argsort(stamps, kind="stable")]
    ends = np.cumsum(counts).tolist()
    return [
        Batch(rows[end - n : end, 2:], rows[end - n : end, 1])
        for n, end in zip(counts.tolist(), ends)
    ]


def write_stream_csv(batches: Sequence[Batch], path) -> None:
    """Human-inspectable CSV mirror of a stream."""
    d_in = batches[0].values.shape[1]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("batch,hidden_label," + ",".join(f"v{i}" for i in range(d_in)) + "\n")
        for t, batch in enumerate(batches):
            for label, row in zip(batch.hidden.tolist(), batch.values.tolist()):
                vals = ",".join(f"{v:.8g}" for v in row)
                fh.write(f"{t},{label},{vals}\n")
