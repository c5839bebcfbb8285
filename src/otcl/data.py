"""Dataset ingestion and task-stream assembly.

Three concerns live here: reading/writing the classic IDX image format,
generating a controlled multimodal synthetic dataset, and slicing a labeled
dataset into a single-pass class-incremental stream (disjoint class groups
per task, fixed ascending order, shuffled batches within each task).

Data travels as `Batch`: one (n, dim) feature array plus its int64 labels,
from the readers through the stream to the replay memory. Iterating a
`Batch` yields its rows as `LabeledSample`s. IDX pixels stay uint8, mapped
from the file, until `as_float` scales them, as a stream batch is gathered
or a chunk enters the model; a stream task holds row indices, not rows, so
only the pixel rows a run gathers are ever read from disk.
"""

from __future__ import annotations

import contextlib
import mmap
import os
import struct
from collections.abc import Sequence
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
    """One row of a `Batch`: a 1-D view of its features and its class id."""

    features: np.ndarray
    label: int


@dataclass(frozen=True)
class Batch:
    """Labeled rows. uint8 features are IDX pixels whose value is v/255
    (`as_float` scales them); float features, such as the synthetic ones,
    live on whatever scale their mode centers dictate."""

    features: np.ndarray  # (n, dim)
    labels: np.ndarray  # (n,) int64

    def __len__(self) -> int:
        return self.features.shape[0]

    def __iter__(self):
        """The rows in order, each a view of `features` and a Python int."""
        for row, label in zip(self.features, self.labels.tolist()):
            yield LabeledSample(row, label)


def as_float(x: np.ndarray, dtype=np.float64) -> np.ndarray:
    """`x` as `dtype` features: uint8 pixels v become v/255, computed in
    `dtype`; any other array is cast, without a copy if it already is one."""
    if x.dtype == np.uint8:
        out = x.astype(dtype)
        out /= np.dtype(dtype).type(255)
        return out
    return x.astype(dtype, copy=False)


@dataclass(frozen=True, eq=False)
class TaskBatches(Sequence):
    """A task's stream batches: consecutive `batch_size` chunks of `order`,
    each gathered from `data` as a float64 `Batch` when it is read."""

    data: Batch
    order: np.ndarray
    batch_size: int

    def __len__(self) -> int:
        return len(range(0, len(self.order), self.batch_size))

    def __getitem__(self, i: int) -> Batch:
        start = range(0, len(self.order), self.batch_size)[i]
        idx = self.order[start : start + self.batch_size]
        return Batch(as_float(self.data.features[idx]), self.data.labels[idx])


@dataclass(frozen=True)
class Task:
    class_ids: tuple[int, ...]
    batches: TaskBatches


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


def load_idx(images_path, labels_path) -> Batch:
    """Read an IDX image/label file pair into one Batch: the uint8 pixels
    (a read-only view of the image file, one row per image) and int64
    labels.

    The pixels are mapped, not read: only the rows a caller touches become
    resident, and a file whose header claims more pixels than it holds is
    rejected before anything is allocated. The image file must therefore
    not be truncated or rewritten in place while the result is in use
    (`write_idx` replaces files instead). Order is preserved. Raises
    BadMagicError / CountMismatchError / TruncatedFileError so callers can
    tell a wrong file from a damaged one.
    """
    with open(images_path, "rb") as f:
        magic = _read_u32(f, images_path)
        if magic != IMAGE_MAGIC:
            raise BadMagicError(f"bad image magic 0x{magic:08x} in {images_path}")
        n = _read_u32(f, images_path)
        rows = _read_u32(f, images_path)
        cols = _read_u32(f, images_path)
        header = f.tell()
        have = os.fstat(f.fileno()).st_size - header
        if have < n * rows * cols:
            raise TruncatedFileError(
                f"{images_path}: expected {n * rows * cols} pixel bytes, got {have}"
            )
        mapped = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
    pixels = np.frombuffer(mapped, np.uint8, count=n * rows * cols, offset=header)
    pixels = pixels.reshape(n, rows * cols)

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
    return Batch(pixels, np.frombuffer(raw, dtype=np.uint8).astype(np.int64))


def write_idx(images_path, labels_path, images: np.ndarray, labels) -> None:
    """Write a uint8 image stack (n, rows, cols) and labels as an IDX pair.

    Writes test fixtures and the benchmark's MNIST-shaped stand-in; load_idx
    must round-trip anything written here. Each file is written beside its
    target and renamed over it, so pixels that `load_idx` mapped from an
    older file keep their bytes. A value that a byte cannot hold (outside
    0..255, fractional or NaN) raises `ValueError` before either is written.
    """
    images = _as_uint8(images, "pixel")
    labels = _as_uint8(labels, "label")
    if images.ndim != 3:
        raise ValueError("images must be (n, rows, cols)")
    if images.shape[0] != labels.shape[0]:
        raise ValueError("one label per image required")
    n, rows, cols = images.shape
    _replace_file(images_path, struct.pack(">IIII", IMAGE_MAGIC, n, rows, cols), images.tobytes())
    _replace_file(labels_path, struct.pack(">II", LABEL_MAGIC, n), labels.tobytes())


def _as_uint8(values, what: str) -> np.ndarray:
    """`values` as uint8, or `ValueError` naming the first value the cast changes."""
    values = np.asarray(values)
    if values.dtype != np.uint8:
        fits = ((values >= 0) & (values <= 255) & (values == np.round(values))).ravel()
        if not fits.all():
            bad = values.ravel()[np.argmin(fits)].item()
            raise ValueError(f"{what} {bad!r} does not fit in a byte (0..255)")
    return values.astype(np.uint8, copy=False)


def _replace_file(path, *chunks: bytes) -> None:
    """Write `chunks` to a new file in `path`'s directory, then rename it over `path`."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            for chunk in chunks:
                f.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


# ---------------------------------------------------------------------------
# task streams


def present_classes(labels: np.ndarray) -> np.ndarray:
    """The sorted class ids present in a 1-D array of non-negative integer
    labels: `np.unique`'s values, without the `numpy.ma` import that a plain
    `np.unique` call triggers."""
    labels = np.asarray(labels)
    if labels.size and labels.min() < 0:
        negative = sorted(set(labels[labels < 0].tolist()))
        raise ValueError(f"class labels must be non-negative, got {negative}")
    return np.flatnonzero(np.bincount(labels))


def class_rows(labels: np.ndarray) -> dict[int, np.ndarray]:
    """Each class in 1-D non-negative integer labels, ascending, with the
    ascending indices of its rows: the one per-class view of a batch."""
    labels = np.asarray(labels)
    return {c: np.flatnonzero(labels == c) for c in present_classes(labels).tolist()}


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
    data: Batch,
    num_tasks: int,
    classes_per_task: int,
    batch_size: int,
    seed: int,
) -> TaskStream:
    """Slice a dataset into the fixed-order class-incremental stream.

    Each task's rows (all classes of its block mixed) are shuffled once
    under the seed and chunked; every row lands in exactly one batch, so
    a consumer that walks the stream sees each example a single time. The
    stream keeps each task's permuted indices into `data`, not its rows.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be at least 1")
    classes = present_classes(data.labels)
    if num_tasks * classes_per_task != len(classes):
        raise ValueError(
            f"{num_tasks} tasks x {classes_per_task} classes != {len(classes)} classes present"
        )
    expected = np.arange(len(classes))
    if not np.array_equal(classes, expected):
        raise ValueError("class ids must be contiguous from 0")

    rng = np.random.default_rng(seed)
    tasks = []
    for class_ids, idx in task_blocks(data.labels, num_tasks, classes_per_task):
        order = idx[rng.permutation(len(idx))]
        tasks.append(Task(class_ids, TaskBatches(data, order, batch_size)))
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
        pairs = np.triu_indices(self.modes_per_class, 1)
        for c in range(self.num_classes):
            same = (centers[c][:, None] == centers[c][None]).all(axis=-1)
            if same[pairs].any():
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


def gen_synthetic(spec: SynthSpec) -> tuple[Batch, Batch]:
    """Draw per-class mixtures and split 80/20 into (train, test).

    Mode assignment is uniform over the class's modes; samples are center +
    scale * standard normal. Rows are grouped by ascending class, in draw
    order within a class. Deterministic for a fixed spec.
    """
    rng = np.random.default_rng(spec.seed)
    dim = spec.mode_centers.shape[2]
    n, n_train = spec.samples_per_class, _train_rows(spec.samples_per_class)
    per_class = []
    for c in range(spec.num_classes):
        modes = rng.integers(0, spec.modes_per_class, size=n)
        noise = rng.standard_normal((n, dim))
        per_class.append(spec.mode_centers[c][modes] + spec.mode_scale * noise)
    points = np.stack(per_class)  # (num_classes, n, dim)
    classes = np.arange(spec.num_classes, dtype=np.int64)
    return (
        Batch(points[:, :n_train].reshape(-1, dim), np.repeat(classes, n_train)),
        Batch(points[:, n_train:].reshape(-1, dim), np.repeat(classes, n - n_train)),
    )
