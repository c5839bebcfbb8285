"""Bounded replay memory with centroid-aware insertion and balanced retrieval.

The memory holds raw input rows (not embeddings — embeddings drift as the
extractor trains, so distances are recomputed with the current extractor at
insertion time) under a shared budget of `capacity` samples. Each class seen
so far owns an equal quota, floor(capacity / classes_seen); quotas shrink as
classes accumulate, and over-quota classes are trimmed by uniform random
eviction so the total never exceeds the budget after any public operation.

The rows live in one `(capacity, dim)` array, allocated at the first write
in that batch's width and dtype. Each class maps to the slot indices of its
rows in store order; a slot no class holds is free. Stored rows are copies,
never views of the batch they came from. Insertions take single-class
`Batch`es; a replay draw comes back as one `Batch` per class.

Insertion is centroid-aware: for every mixture centroid of the incoming
class, the closest batch samples in feature space are kept, which spreads
the stored exemplars across the class's modes instead of wherever the batch
happened to be dense. A uniform-random variant with the same budget exists
as an ablation.
"""

from __future__ import annotations

import numpy as np

from .data import Batch, present_classes


class ReplayMemory:
    """Class-keyed row store under a shared capacity."""

    def __init__(self, capacity: int, seed: int = 0):
        if capacity < 1:
            raise ValueError("capacity must be a positive sample count")
        self.capacity = capacity
        self.rows: np.ndarray | None = None  # (capacity, dim), at the first write
        self.slots: dict[int, np.ndarray] = {}  # class -> its slots, in store order
        self._used = np.zeros(capacity, dtype=bool)  # slot holds a class's row
        self.classes_seen = 0
        self._rng = np.random.default_rng(seed)

    def quota(self) -> int:
        """Per-class budget under the classes registered so far."""
        if self.classes_seen == 0:
            return self.capacity
        return self.capacity // self.classes_seen

    def total(self) -> int:
        return sum(s.size for s in self.slots.values())

    def register_class(self, class_id: int) -> None:
        """Track a class (creating its slot) and re-trim if quotas shrank."""
        if class_id not in self.slots:
            self.slots[class_id] = np.empty(0, dtype=np.intp)
        if len(self.slots) > self.classes_seen:
            self.classes_seen = len(self.slots)
            self._trim_to_quota()

    def _trim_to_quota(self) -> None:
        q = self.quota()
        for c, s in self.slots.items():
            if s.size > q:
                keep = self._rng.choice(s.size, size=q, replace=False)
                self._used[np.delete(s, keep)] = False
                self.slots[c] = s[np.sort(keep)]


def _checked_class(mem: ReplayMemory, batch: Batch, features=None, centroids=None) -> int:
    """The batch's one class, checked before it registers: a rejected call changes nothing."""
    labels = present_classes(batch.labels)
    if labels.size != 1:
        raise ValueError("insertion expects a single-class batch")
    if mem.rows is not None and batch.features.shape[1:] != mem.rows.shape[1:]:
        raise ValueError("batch rows must have the width of the stored rows")
    if features is not None and (
        features.shape[0] != len(batch) or features.shape[1:] != centroids.shape[1:]
    ):
        raise ValueError("features must align with the batch rows and match the centroids' width")
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


def _store_selected(mem: ReplayMemory, c: int, batch: Batch, selected) -> None:
    """Append what fits under class c's quota; replace random old c rows with the rest."""
    fresh = batch.features[selected]
    if mem.rows is None:
        mem.rows = np.zeros((mem.capacity,) + fresh.shape[1:], dtype=fresh.dtype)
    old = mem.slots[c]  # entries that predate this call
    n_new = min(max(0, mem.quota() - old.size), len(fresh))
    if n_new > 0:
        new = np.flatnonzero(~mem._used)[:n_new]
        mem._used[new] = True
        mem.rows[new] = fresh[:n_new]
        mem.slots[c] = np.concatenate([old, new])
    n_replace = min(len(fresh) - n_new, old.size)
    if n_replace > 0:
        victims = mem._rng.choice(old.size, size=n_replace, replace=False)
        mem.rows[old[victims]] = fresh[n_new : n_new + n_replace]


def insertion_budget(mem: ReplayMemory, class_id: int, k: int) -> int:
    """Rows per centroid an insertion of the class selects: its free quota
    split across k centroids, at least one each. Registers the class first,
    so a new class is budgeted under the quota that counts it."""
    mem.register_class(class_id)
    return max(1, (mem.quota() - mem.slots[class_id].size) // k)


def insert_with_centroids(
    mem: ReplayMemory, batch: Batch, features: np.ndarray, centroids: np.ndarray
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
    c = _checked_class(mem, batch, features, centroids)
    n_per_centroid = insertion_budget(mem, c, centroids.shape[0])  # registers c
    if mem.quota() == 0:
        return mem
    selected = _select_closest_per_centroid(features, centroids, n_per_centroid)
    _store_selected(mem, c, batch, selected)
    return mem


def insert_random(mem: ReplayMemory, batch: Batch, n_samples: int) -> ReplayMemory:
    """Ablation path: store n uniformly chosen batch rows, same budget rules."""
    if len(batch) == 0:
        return mem
    c = _checked_class(mem, batch)
    mem.register_class(c)
    if mem.quota() == 0:
        return mem
    n = min(n_samples, len(batch))
    if n < 1:
        return mem
    picked = mem._rng.choice(len(batch), size=n, replace=False)
    _store_selected(mem, c, batch, np.sort(picked))
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
    total = mem.total()
    if total == 0:
        return {}
    # the picks index every stored row in ascending class order
    classes = sorted(mem.slots)
    picked = np.sort(rng.choice(total, size=min(batch_size, total), replace=False))
    rows = mem.rows[np.concatenate([mem.slots[c] for c in classes])[picked]]
    ends = np.searchsorted(picked, np.cumsum([mem.slots[c].size for c in classes])).tolist()
    return {
        c: Batch(features=rows[a:b], labels=np.full(b - a, c, dtype=np.int64))
        for c, a, b in zip(classes, [0] + ends, ends)
        if b > a
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
    if num_classes < len(mem.slots):
        raise ValueError("class count cannot be below the classes already stored")
    if num_classes > mem.classes_seen:
        mem.classes_seen = num_classes
        mem._trim_to_quota()
    return mem
