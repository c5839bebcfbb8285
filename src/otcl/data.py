"""Dataset ingestion and task-stream assembly.

Three concerns live here: reading/writing the classic IDX image format,
generating a controlled multimodal synthetic dataset, and slicing a labeled
dataset into a single-pass class-incremental stream (disjoint class groups
per task, fixed ascending order, shuffled batches within each task).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801


class IdxError(ValueError):
    """Malformed IDX input."""


class BadMagicError(IdxError):
    pass


class CountMismatchError(IdxError):
    pass


class TruncatedFileError(IdxError):
    pass


@dataclass(frozen=True)
class LabeledSample:
    """One example: a flat feature vector plus an integer class id.

    Pixel data arrives scaled to [0,1]; synthetic features live on whatever
    scale their mode centers dictate.
    """

    features: np.ndarray
    label: int


@dataclass(frozen=True)
class Batch:
    features: np.ndarray  # (n, dim)
    labels: np.ndarray  # (n,) int64

    def __len__(self) -> int:
        return self.features.shape[0]

    @classmethod
    def of(cls, samples) -> Batch:
        """Labeled samples stacked into one batch, in order."""
        return cls(
            np.stack([s.features for s in samples]),
            np.array([s.label for s in samples], dtype=np.int64),
        )


@dataclass(frozen=True)
class Task:
    class_ids: tuple[int, ...]
    batches: tuple[Batch, ...]


@dataclass(frozen=True)
class TaskStream:
    """Ordered tasks over pairwise-disjoint class groups; one pass, no reuse."""

    tasks: tuple[Task, ...]


# ---------------------------------------------------------------------------
# IDX format


def _read_u32(f, path) -> int:
    raw = f.read(4)
    if len(raw) != 4:
        raise TruncatedFileError(f"{path}: truncated header")
    return struct.unpack(">I", raw)[0]


def read_idx(images_path, labels_path) -> Batch:
    """Read an IDX image/label file pair into one Batch with [0,1] features.

    Order is preserved. Raises BadMagicError / CountMismatchError /
    TruncatedFileError so callers can tell a wrong file from a damaged one.
    """
    with open(images_path, "rb") as f:
        magic = _read_u32(f, images_path)
        if magic != IMAGE_MAGIC:
            raise BadMagicError(f"bad image magic 0x{magic:08x} in {images_path}")
        n = _read_u32(f, images_path)
        rows = _read_u32(f, images_path)
        cols = _read_u32(f, images_path)
        raw = f.read(n * rows * cols)
        if len(raw) != n * rows * cols:
            raise TruncatedFileError(
                f"{images_path}: expected {n * rows * cols} pixel bytes, got {len(raw)}"
            )
    pixels = np.frombuffer(raw, dtype=np.uint8).reshape(n, rows * cols)

    with open(labels_path, "rb") as f:
        magic = _read_u32(f, labels_path)
        if magic != LABEL_MAGIC:
            raise BadMagicError(f"bad label magic 0x{magic:08x} in {labels_path}")
        n_labels = _read_u32(f, labels_path)
        if n_labels != n:
            raise CountMismatchError(
                f"{n} images but {n_labels} labels ({images_path} / {labels_path})"
            )
        raw = f.read(n_labels)
        if len(raw) != n_labels:
            raise TruncatedFileError(
                f"{labels_path}: expected {n_labels} label bytes, got {len(raw)}"
            )
    scaled = pixels.astype(np.float64)
    scaled /= 255.0
    return Batch(scaled, np.frombuffer(raw, dtype=np.uint8).astype(np.int64))


def load_idx(images_path, labels_path) -> list[LabeledSample]:
    """`read_idx` as one sample per row."""
    batch = read_idx(images_path, labels_path)
    return [LabeledSample(row, label) for row, label in zip(batch.features, batch.labels.tolist())]


def write_idx(images_path, labels_path, images: np.ndarray, labels) -> None:
    """Write a uint8 image stack (n, rows, cols) and labels as an IDX pair.

    Writes test fixtures and the benchmark's MNIST-shaped stand-in; load_idx
    must round-trip anything written here.
    """
    images = np.asarray(images, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    if images.ndim != 3:
        raise ValueError("images must be (n, rows, cols)")
    if images.shape[0] != labels.shape[0]:
        raise ValueError("one label per image required")
    n, rows, cols = images.shape
    with open(images_path, "wb") as f:
        f.write(struct.pack(">IIII", IMAGE_MAGIC, n, rows, cols))
        f.write(images.tobytes())
    with open(labels_path, "wb") as f:
        f.write(struct.pack(">II", LABEL_MAGIC, n))
        f.write(labels.tobytes())


# ---------------------------------------------------------------------------
# task streams


def task_blocks(
    labels: np.ndarray, num_tasks: int, classes_per_task: int
) -> list[tuple[tuple[int, ...], np.ndarray]]:
    """The task split: task t owns the ascending class block
    {t*cpt, ..., t*cpt + cpt - 1}. Returns each task's class ids and the
    ascending indices of its rows."""
    blocks = []
    for t in range(num_tasks):
        class_ids = tuple(range(t * classes_per_task, (t + 1) * classes_per_task))
        blocks.append((class_ids, np.flatnonzero(np.isin(labels, class_ids))))
    return blocks


def split_tasks(data: Batch, num_tasks: int, classes_per_task: int) -> list[Batch]:
    """Each task's rows of a held-out set, in order; every task needs one."""
    per_task = []
    for t, (_, idx) in enumerate(task_blocks(data.labels, num_tasks, classes_per_task)):
        if idx.size == 0:
            raise ValueError(f"no test samples for task {t + 1}")
        per_task.append(Batch(data.features[idx], data.labels[idx]))
    return per_task


def make_split_stream(
    samples: list[LabeledSample],
    num_tasks: int,
    classes_per_task: int,
    batch_size: int,
    seed: int,
) -> TaskStream:
    """Slice a dataset into the fixed-order class-incremental stream.

    Each task's samples (all classes of its block mixed) are shuffled once
    under the seed and chunked; every sample lands in exactly one batch, so
    a consumer that walks the stream sees each example a single time.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be at least 1")
    labels = np.array([s.label for s in samples], dtype=np.int64)
    classes = np.unique(labels)
    if num_tasks * classes_per_task != len(classes):
        raise ValueError(
            f"{num_tasks} tasks x {classes_per_task} classes != {len(classes)} classes present"
        )
    expected = np.arange(len(classes))
    if not np.array_equal(classes, expected):
        raise ValueError("class ids must be contiguous from 0")

    rng = np.random.default_rng(seed)
    tasks = []
    for class_ids, idx in task_blocks(labels, num_tasks, classes_per_task):
        idx = idx[rng.permutation(len(idx))]
        # one stack per task, in stream order, with every batch a view of
        # it: no stacked copy of the whole train set sits next to the stream
        rows = Batch.of([samples[j] for j in idx])
        batches = tuple(
            Batch(rows.features[i : i + batch_size], rows.labels[i : i + batch_size])
            for i in range(0, len(idx), batch_size)
        )
        tasks.append(Task(class_ids, batches))
    return TaskStream(tuple(tasks))


# ---------------------------------------------------------------------------
# synthetic multimodal data


@dataclass(frozen=True)
class SynthSpec:
    """Equal-weight isotropic Gaussian mixture per class.

    `mode_centers` has shape (num_classes, modes_per_class, dim); centers
    must be distinct within a class so the modes are actual modes.
    """

    num_classes: int
    modes_per_class: int
    mode_centers: np.ndarray
    mode_scale: float
    samples_per_class: int
    seed: int = 0

    def __post_init__(self):
        centers = np.asarray(self.mode_centers, dtype=np.float64)
        if self.num_classes < 1:
            raise ValueError("num_classes must be at least 1")
        if not 0 < _train_rows(self.samples_per_class) < self.samples_per_class:
            raise ValueError("samples_per_class leaves the 80/20 train or test split empty")
        if self.modes_per_class < 1:
            raise ValueError("modes_per_class must be at least 1")
        if self.mode_scale < 0:
            raise ValueError("mode_scale must be non-negative")
        if centers.shape[:2] != (self.num_classes, self.modes_per_class):
            raise ValueError("mode_centers must be (num_classes, modes_per_class, dim)")
        for c in range(self.num_classes):
            uniq = np.unique(centers[c], axis=0)
            if uniq.shape[0] != self.modes_per_class:
                raise ValueError(f"class {c} has duplicate mode centers")
        object.__setattr__(self, "mode_centers", centers)


def _train_rows(samples_per_class: int) -> int:
    """Per-class train rows of the 80/20 train/test split."""
    return int(round(0.8 * samples_per_class))


def ring_centers(num_classes: int, modes_per_class: int, radius: float = 5.0,
                 dim: int = 2) -> np.ndarray:
    """Interleave all class modes evenly around a circle.

    Adjacent positions cycle through the classes, so every class's modes are
    spread apart and its arithmetic mean collapses toward the ring's center —
    the regime where one centroid per class is genuinely wrong.
    """
    total = num_classes * modes_per_class
    angles = 2.0 * np.pi * np.arange(total) / total
    ring = np.stack([radius * np.cos(angles), radius * np.sin(angles)], axis=1)
    centers = np.zeros((num_classes, modes_per_class, dim))
    for pos in range(total):
        c, k = pos % num_classes, pos // num_classes
        centers[c, k, :2] = ring[pos]
    return centers


def gen_synthetic(spec: SynthSpec) -> tuple[list[LabeledSample], list[LabeledSample]]:
    """Draw per-class mixtures and split 80/20 into train/test.

    Mode assignment is uniform over the class's modes; samples are center +
    scale * standard normal. Deterministic for a fixed spec.
    """
    rng = np.random.default_rng(spec.seed)
    dim = spec.mode_centers.shape[2]
    train, test = [], []
    for c in range(spec.num_classes):
        modes = rng.integers(0, spec.modes_per_class, size=spec.samples_per_class)
        noise = rng.standard_normal((spec.samples_per_class, dim))
        points = spec.mode_centers[c][modes] + spec.mode_scale * noise
        n_train = _train_rows(spec.samples_per_class)
        for i in range(spec.samples_per_class):
            sample = LabeledSample(points[i], c)
            (train if i < n_train else test).append(sample)
    return train, test
