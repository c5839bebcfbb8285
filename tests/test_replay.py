"""Tests for the bounded replay memory."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otcl import replay as rp
from otcl.data import Batch, SynthSpec, gen_synthetic


def class_batch(c: int, features: np.ndarray) -> Batch:
    return Batch(
        features=np.asarray(features, dtype=np.float64),
        labels=np.full(len(features), c, dtype=np.int64),
    )


def stored_features(mem: rp.ReplayMemory, c: int) -> np.ndarray:
    return np.stack([s.features for s in mem.store[c]])


def stored_counts(mem: rp.ReplayMemory) -> dict[int, int]:
    return {c: len(v) for c, v in sorted(mem.store.items())}


# ------------------------------------------------------------- insertion


def test_closest_samples_win_per_centroid():
    mem = rp.ReplayMemory(capacity=2)  # a budget of 2 rows for the one centroid
    feats = np.array([[3.0, 0.0], [1.0, 0.0], [2.0, 0.0]])  # distances 3, 1, 2
    batch = class_batch(0, feats)
    rp.insert_with_centroids(mem, batch, feats, np.zeros((1, 2)))
    got = stored_features(mem, 0)
    np.testing.assert_array_equal(got, [[1.0, 0.0], [2.0, 0.0]])


def test_at_quota_insertion_replaces_exactly_j_old_entries():
    mem = rp.ReplayMemory(capacity=6, seed=3)
    old = class_batch(0, np.arange(6, dtype=float).reshape(6, 1))
    rp.insert_with_centroids(mem, old, None, None)  # fills the quota
    assert mem.total() == 6

    fresh_rows = np.array([[100.0], [101.0], [102.0]])
    fresh = class_batch(0, fresh_rows)
    # at quota each centroid selects one row: the fresh rows as centroids pick all three
    rp.insert_with_centroids(mem, fresh, fresh_rows, fresh_rows)
    assert mem.total() == 6
    got = stored_features(mem, 0).ravel()
    assert sum(1 for v in got if v >= 100.0) == 3  # the j fresh ones are in
    assert sum(1 for v in got if v < 100.0) == 3  # exactly j old ones gone


def test_two_centroids_keep_one_exemplar_per_mode():
    centers = np.array([[[3.0, 0.0], [-3.0, 0.0]]])
    spec = SynthSpec(num_classes=1, modes_per_class=2, mode_centers=centers,
                     mode_scale=0.1, samples_per_class=50, seed=0)
    train, _ = gen_synthetic(spec)
    feats = np.stack([s.features for s in train])
    batch = class_batch(0, feats)

    mem = rp.ReplayMemory(capacity=2)  # a budget of 1 row per centroid
    rp.insert_with_centroids(mem, batch, feats, centers[0])
    got = stored_features(mem, 0)
    assert got.shape == (2, 2)
    d_to = lambda center: np.linalg.norm(got - center, axis=1).min()
    assert d_to(centers[0, 0]) < 1.0
    assert d_to(centers[0, 1]) < 1.0


def test_missing_centroids_falls_back_to_quota_fill():
    mem = rp.ReplayMemory(capacity=4)
    batch = class_batch(2, np.arange(10, dtype=float).reshape(10, 1))
    rp.insert_with_centroids(mem, batch, None, None)
    got = stored_features(mem, 2).ravel()
    np.testing.assert_array_equal(got, [0.0, 1.0, 2.0, 3.0])  # first rows, no churn

    rp.insert_with_centroids(mem, class_batch(2, [[9.0]]), None, None)
    np.testing.assert_array_equal(stored_features(mem, 2).ravel(), got)  # full: no-op


def test_default_budget_splits_free_quota_across_centroids():
    mem = rp.ReplayMemory(capacity=9)
    feats = np.arange(20, dtype=float).reshape(20, 1)
    cents = np.array([[0.0], [19.0], [10.0]])
    rp.insert_with_centroids(mem, class_batch(0, feats), feats, cents)
    # free quota 9 over 3 centroids -> 3 each
    assert mem.total() == 9


def test_insertion_rejects_mixed_class_batches_and_misaligned_features():
    mem = rp.ReplayMemory(capacity=4)
    mixed = Batch(features=np.zeros((2, 1)), labels=np.array([0, 1], dtype=np.int64))
    with pytest.raises(ValueError):
        rp.insert_with_centroids(mem, mixed, None, None)
    batch = class_batch(0, np.zeros((3, 1)))
    with pytest.raises(ValueError):
        rp.insert_with_centroids(mem, batch, np.zeros((2, 1)), np.zeros((1, 1)))
    with pytest.raises(ValueError):
        rp.insert_with_centroids(mem, batch, None, np.zeros((1, 1)))


def test_more_classes_than_capacity_stores_nothing_new():
    mem = rp.ReplayMemory(capacity=2, seed=0)
    for c in range(3):
        rp.insert_with_centroids(mem, class_batch(c, [[float(c)]]), None, None)
    assert mem.quota() == 0
    assert mem.total() <= 2


def test_random_insertion_respects_the_same_budget():
    mem = rp.ReplayMemory(capacity=4, seed=1)
    batch = class_batch(0, np.arange(12, dtype=float).reshape(12, 1))
    rp.insert_random(mem, batch, n_samples=9)
    assert mem.total() == 4  # quota caps it
    stored = stored_features(mem, 0).ravel()
    assert set(stored).issubset(set(batch.features.ravel()))


def test_random_insertion_budgets_a_new_class_under_its_shrunk_quota():
    # classes 0 and 1 fill a capacity of 10; class 2 drops the quota to 3
    mem = rp.ReplayMemory(10, seed=0)
    for c in (0, 1):
        rp.insert_with_centroids(mem, class_batch(c, np.full((5, 1), float(c))), None, None)
    batch = class_batch(2, np.arange(20.0, 28.0).reshape(8, 1))
    budget = rp.insertion_budget(mem, 2, 1)
    assert budget == mem.quota() == 3
    # every row of the uniform draw is stored, not the lowest-index part of
    # a larger draw
    want = 20.0 + np.sort(copy.deepcopy(mem._rng).choice(8, size=budget, replace=False))
    rp.insert_random(mem, batch, budget)
    assert stored_features(mem, 2).ravel().tolist() == want.tolist()
    assert mem.total() <= mem.capacity


# -------------------------------------------------------------- sampling


def test_sampling_empty_memory_returns_nothing():
    mem = rp.ReplayMemory(capacity=5)
    assert rp.sample_replay_batch(mem, 4, np.random.default_rng(0)) == {}


def test_sampling_small_memory_returns_everything():
    mem = rp.ReplayMemory(capacity=10)
    rp.insert_with_centroids(mem, class_batch(0, [[1.0], [2.0]]), None, None)
    rp.insert_with_centroids(mem, class_batch(1, [[3.0]]), None, None)
    got = rp.sample_replay_batch(mem, 50, np.random.default_rng(0))
    assert sorted(got) == [0, 1]
    assert len(got[0]) == 2 and len(got[1]) == 1


def test_sampling_frequencies_follow_the_stored_split():
    mem = rp.ReplayMemory(capacity=200)  # quota 100 per class: 30/70 fits whole
    rp.insert_with_centroids(mem, class_batch(0, np.zeros((30, 1))), None, None)
    rp.insert_with_centroids(mem, class_batch(1, np.ones((70, 1))), None, None)
    assert stored_counts(mem) == {0: 30, 1: 70}
    rng = np.random.default_rng(5)
    hits = np.zeros(2)
    for _ in range(10_000):
        got = rp.sample_replay_batch(mem, 1, rng)
        hits[next(iter(got))] += 1
    freq = hits / hits.sum()
    assert np.all(np.abs(freq - [0.3, 0.7]) <= 0.02)


def test_sampled_batches_carry_their_own_class_labels():
    mem = rp.ReplayMemory(capacity=20)
    rp.insert_with_centroids(mem, class_batch(3, np.full((4, 2), 3.0)), None, None)
    rp.insert_with_centroids(mem, class_batch(8, np.full((4, 2), 8.0)), None, None)
    got = rp.sample_replay_batch(mem, 6, np.random.default_rng(1))
    for c, b in got.items():
        assert np.all(b.labels == c)
        assert np.all(b.features == float(c))


def test_merge_class_batches_concatenates_in_class_order():
    mem = rp.ReplayMemory(capacity=20)
    rp.insert_with_centroids(mem, class_batch(5, np.full((2, 1), 5.0)), None, None)
    rp.insert_with_centroids(mem, class_batch(1, np.full((3, 1), 1.0)), None, None)
    merged = rp.merge_class_batches(rp.sample_replay_batch(mem, 10, np.random.default_rng(0)))
    assert len(merged) == 5
    np.testing.assert_array_equal(np.unique(merged.labels), [1, 5])
    assert rp.merge_class_batches({}) is None


# ------------------------------------------------------------ rebalance


def test_rebalance_trims_overfull_classes_to_the_new_quota():
    mem = rp.ReplayMemory(capacity=100, seed=2)
    for c in range(2):
        rp.insert_with_centroids(
            mem, class_batch(c, np.random.default_rng(c).normal(size=(80, 1))), None, None
        )
    assert stored_counts(mem) == {0: 50, 1: 50}
    rp.rebalance_quotas(mem, 4)
    assert mem.quota() == 25
    assert stored_counts(mem) == {0: 25, 1: 25}
    assert mem.total() <= 100


def test_rebalance_with_no_overflow_changes_nothing():
    mem = rp.ReplayMemory(capacity=100)
    rp.insert_with_centroids(mem, class_batch(0, np.arange(5, dtype=float).reshape(5, 1)), None, None)
    before = stored_features(mem, 0).copy()
    rp.rebalance_quotas(mem, 4)
    np.testing.assert_array_equal(stored_features(mem, 0), before)


def test_rebalance_rejects_shrinking_below_known_classes():
    mem = rp.ReplayMemory(capacity=10)
    for c in range(3):
        rp.insert_with_centroids(mem, class_batch(c, [[0.0]]), None, None)
    with pytest.raises(ValueError):
        rp.rebalance_quotas(mem, 2)


def test_new_class_arrival_shrinks_quotas_immediately():
    # The budget invariant must hold after the insert itself, not only after
    # an explicit rebalance.
    mem = rp.ReplayMemory(capacity=10, seed=0)
    rp.insert_with_centroids(
        mem, class_batch(0, np.arange(10, dtype=float).reshape(10, 1)), None, None
    )
    assert mem.total() == 10
    rp.insert_with_centroids(
        mem, class_batch(1, np.arange(10, 16, dtype=float).reshape(6, 1)), None, None
    )
    assert mem.total() <= 10
    assert stored_counts(mem) == {0: 5, 1: 5}


def test_memory_evolution_is_deterministic_under_a_seed():
    def evolve():
        mem = rp.ReplayMemory(capacity=8, seed=11)
        rng = np.random.default_rng(4)
        for step in range(6):
            c = step % 3
            rows = rng.normal(size=(5, 2))
            rp.insert_with_centroids(mem, class_batch(c, rows), rows,
                                     rng.normal(size=(2, 2)))
        return {c: stored_features(mem, c) for c in mem.store if mem.store[c]}

    a, b = evolve(), evolve()
    assert sorted(a) == sorted(b)
    for c in a:
        np.testing.assert_array_equal(a[c], b[c])


# ----------------------------------------------------------- properties


ops = st.lists(
    st.tuples(
        st.sampled_from(["insert", "insert_random", "rebalance", "sample"]),
        st.integers(min_value=0, max_value=3),  # class id / class count seed
        st.integers(min_value=1, max_value=6),  # rows / batch size
    ),
    min_size=1,
    max_size=25,
)


@settings(deadline=None, max_examples=60)
@given(ops=ops, capacity=st.integers(min_value=1, max_value=12))
def test_capacity_and_labels_hold_under_arbitrary_operation_sequences(ops, capacity):
    mem = rp.ReplayMemory(capacity=capacity, seed=0)
    rng = np.random.default_rng(1)
    for kind, c, n in ops:
        rows = rng.normal(size=(n, 2))
        if kind == "insert":
            rp.insert_with_centroids(mem, class_batch(c, rows), rows,
                                     rng.normal(size=(2, 2)))
        elif kind == "insert_random":
            rp.insert_random(mem, class_batch(c, rows), n_samples=n)
        elif kind == "rebalance":
            rp.rebalance_quotas(mem, max(len(mem.store), c + 1))
        else:
            got = rp.sample_replay_batch(mem, n, rng)
            for cls, b in got.items():
                assert np.all(b.labels == cls)
        assert mem.total() <= capacity
        for cls, samples in mem.store.items():
            assert len(samples) <= mem.quota()
            assert all(s.label == cls for s in samples)
