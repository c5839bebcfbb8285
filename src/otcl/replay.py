"""Bounded replay memory with centroid-aware insertion and balanced retrieval.

The memory holds raw input rows (not embeddings — embeddings drift as the
extractor trains, so distances are recomputed with the current extractor at
insertion time) under a shared budget of `capacity` samples. Each class seen
so far owns an equal quota, floor(capacity / classes_seen); quotas shrink as
classes accumulate, and over-quota classes are trimmed by uniform random
eviction so the total never exceeds the budget after any public operation.

Each class maps to a list of its stored rows. Every stored row is its own
copy, so it never keeps the batch it came from alive. Insertions take
single-class `Batch`es; a replay draw comes back as one `Batch` per class.

Insertion is centroid-aware: for every mixture centroid of the incoming
class, the closest batch samples in feature space are kept, which spreads
the stored exemplars across the class's modes instead of wherever the batch
happened to be dense. A uniform-random variant with the same budget exists
as an ablation.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate

import numpy as np

from .data import Batch


class ReplayMemory:
    """Class-keyed row store under a shared capacity."""

    def __init__(self, capacity: int, seed: int = 0):
        if capacity < 1:
            raise ValueError("capacity must be a positive sample count")
        self.capacity = capacity
        self.store: dict[int, list[np.ndarray]] = {}  # class -> 1-D rows
        self.classes_seen = 0
        self._rng = np.random.default_rng(seed)

    def quota(self) -> int:
        """Per-class budget under the classes registered so far."""
        if self.classes_seen == 0:
            return self.capacity
        return self.capacity // self.classes_seen

    def total(self) -> int:
        return sum(len(v) for v in self.store.values())

    def register_class(self, class_id: int) -> None:
        """Track a class (creating its slot) and re-trim if quotas shrank."""
        if class_id not in self.store:
            self.store[class_id] = []
        if len(self.store) > self.classes_seen:
            self.classes_seen = len(self.store)
            self._trim_to_quota()

    def _trim_to_quota(self) -> None:
        q = self.quota()
        for c, rows in self.store.items():
            excess = len(rows) - q
            if excess > 0:
                keep = self._rng.choice(len(rows), size=q, replace=False)
                self.store[c] = [rows[i] for i in sorted(keep)]


def _single_class_of(batch: Batch) -> int:
    labels = np.unique(batch.labels)
    if labels.size != 1:
        raise ValueError("insertion expects a single-class batch")
    return int(labels[0])


def _select_closest_per_centroid(
    features: np.ndarray, centroids: np.ndarray, n_per_centroid: int
) -> list[int]:
    """Indices of the n closest batch rows to each centroid, deduplicated.

    Order is deterministic: centroids in given order, then increasing
    distance (ties by row index); a row already claimed by an earlier
    centroid is skipped rather than recounted.
    """
    dists = ((features[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    chosen: list[int] = []
    for k in range(centroids.shape[0]):
        order = np.argsort(dists[:, k], kind="stable").tolist()
        chosen += [i for i in order if i not in chosen][:n_per_centroid]
    return chosen


def _store_selected(mem: ReplayMemory, c: int, batch: Batch, selected: list[int]) -> None:
    """Append what fits under class c's quota; replace random old c rows with the rest."""
    rows = mem.store[c]
    fresh = [batch.features[i].copy() for i in selected]
    free = max(0, mem.quota() - len(rows))
    rows.extend(fresh[:free])
    leftover = fresh[free:]
    if not leftover:
        return
    n_old = len(rows) - len(fresh[:free])  # entries that predate this call
    n_replace = min(len(leftover), n_old)
    if n_replace == 0:
        return
    victims = mem._rng.choice(n_old, size=n_replace, replace=False)
    for v, new in zip(victims, leftover[:n_replace]):
        rows[int(v)] = new


def insertion_budget(mem: ReplayMemory, class_id: int, k: int) -> int:
    """Rows per centroid an insertion of the class selects: its free quota
    split across k centroids, at least one each. Registers the class first,
    so a new class is budgeted under the quota that counts it."""
    mem.register_class(class_id)
    return max(1, (mem.quota() - len(mem.store[class_id])) // k)


def insert_with_centroids(
    mem: ReplayMemory,
    batch: Batch,
    features: np.ndarray,
    centroids: np.ndarray,
) -> ReplayMemory:
    """Store the batch samples closest to each class centroid.

    `features` are the current embeddings of the batch rows (same order);
    distances are measured there against the class's (k, dim) `centroids`.
    When the class store is full, each selected sample replaces a uniformly
    chosen existing entry of the same class.

    Each centroid selects `insertion_budget` rows.
    """
    if len(batch) == 0:
        return mem
    c = _single_class_of(batch)
    n_per_centroid = insertion_budget(mem, c, centroids.shape[0])  # registers c
    if mem.quota() == 0:
        return mem
    if features.shape[0] != len(batch):
        raise ValueError("features must align with the batch rows")
    selected = _select_closest_per_centroid(features, centroids, n_per_centroid)
    _store_selected(mem, c, batch, selected)
    return mem


def insert_random(
    mem: ReplayMemory, batch: Batch, n_samples: int
) -> ReplayMemory:
    """Ablation path: store n uniformly chosen batch rows, same budget rules."""
    if len(batch) == 0:
        return mem
    c = _single_class_of(batch)
    mem.register_class(c)
    if mem.quota() == 0:
        return mem
    n = min(n_samples, len(batch))
    if n < 1:
        return mem
    picked = mem._rng.choice(len(batch), size=n, replace=False)
    _store_selected(mem, c, batch, [int(i) for i in sorted(picked)])
    return mem


def sample_replay_batch(
    mem: ReplayMemory, batch_size: int, rng: np.random.Generator
) -> dict[int, Batch]:
    """Uniform draw without replacement across everything stored, by class.

    Returns {class_id: Batch}; empty memory gives an empty dict, and a
    memory smaller than batch_size comes back whole.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be positive")
    classes = sorted(mem.store)
    ends = list(accumulate(len(mem.store[c]) for c in classes))
    total = ends[-1] if ends else 0
    if total == 0:
        return {}
    picked = rng.choice(total, size=min(batch_size, total), replace=False)
    # the picks index every stored row in ascending class order: pick i
    # falls in the first class k whose cumulative count exceeds i
    by_class: dict[int, list[np.ndarray]] = {}
    for i in sorted(picked.tolist()):
        k = bisect_right(ends, i)
        rows = mem.store[classes[k]]
        start = ends[k] - len(rows)
        by_class.setdefault(classes[k], []).append(rows[i - start])
    return {
        c: Batch(
            features=np.stack(rows),
            labels=np.full(len(rows), c, dtype=np.int64),
        )
        for c, rows in sorted(by_class.items())
    }


def merge_class_batches(grouped: dict[int, Batch]) -> Batch | None:
    """Concatenate per-class batches into one joint batch (None if empty)."""
    if not grouped:
        return None
    parts = [grouped[c] for c in sorted(grouped)]
    return Batch(
        features=np.concatenate([p.features for p in parts], axis=0),
        labels=np.concatenate([p.labels for p in parts]),
    )


def rebalance_quotas(mem: ReplayMemory, num_classes: int) -> ReplayMemory:
    """Recompute equal quotas for a grown class count and trim the excess."""
    if num_classes < len(mem.store):
        raise ValueError("class count cannot be below the classes already stored")
    if num_classes > mem.classes_seen:
        mem.classes_seen = num_classes
        mem._trim_to_quota()
    return mem
