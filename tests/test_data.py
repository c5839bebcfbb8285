import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otcl import data as d


def make_idx_pair(tmp_path, images, labels, name="t"):
    ip, lp = tmp_path / f"{name}-images", tmp_path / f"{name}-labels"
    d.write_idx(ip, lp, images, labels)
    return ip, lp


class TestIdx:
    def test_round_trip_extremes(self, tmp_path):
        images = np.array(
            [[[0, 255], [128, 0]], [[255, 255], [0, 1]]], dtype=np.uint8
        )
        ip, lp = make_idx_pair(tmp_path, images, [3, 7])
        samples = d.load_idx(ip, lp)
        assert len(samples) == 2
        np.testing.assert_allclose(samples[0].features, [0.0, 1.0, 128 / 255, 0.0])
        np.testing.assert_allclose(samples[1].features, [1.0, 1.0, 0.0, 1 / 255])
        assert [s.label for s in samples] == [3, 7]

    def test_order_preserved(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, size=(20, 3, 3), dtype=np.uint8)
        labels = rng.integers(0, 10, size=20, dtype=np.uint8)
        ip, lp = make_idx_pair(tmp_path, images, labels)
        samples = d.load_idx(ip, lp)
        for i, s in enumerate(samples):
            np.testing.assert_array_equal(s.features * 255, images[i].reshape(-1))
            assert s.label == labels[i]

    def test_bad_image_magic(self, tmp_path):
        ip, lp = make_idx_pair(tmp_path, np.zeros((1, 2, 2), np.uint8), [0])
        blob = bytearray(ip.read_bytes())
        blob[:4] = struct.pack(">I", 0x00000802)
        ip.write_bytes(bytes(blob))
        with pytest.raises(d.BadMagicError, match="bad image magic"):
            d.load_idx(ip, lp)

    def test_bad_label_magic(self, tmp_path):
        ip, lp = make_idx_pair(tmp_path, np.zeros((1, 2, 2), np.uint8), [0])
        blob = bytearray(lp.read_bytes())
        blob[:4] = struct.pack(">I", 0xDEADBEEF)
        lp.write_bytes(bytes(blob))
        with pytest.raises(d.BadMagicError, match="bad label magic"):
            d.load_idx(ip, lp)

    def test_count_mismatch(self, tmp_path):
        ip, _ = make_idx_pair(tmp_path, np.zeros((3, 2, 2), np.uint8), [0, 1, 2])
        _, lp = make_idx_pair(tmp_path, np.zeros((2, 2, 2), np.uint8), [0, 1], "u")
        with pytest.raises(d.CountMismatchError):
            d.load_idx(ip, lp)

    def test_truncated_pixels(self, tmp_path):
        ip, lp = make_idx_pair(tmp_path, np.zeros((2, 2, 2), np.uint8), [0, 1])
        ip.write_bytes(ip.read_bytes()[:-3])
        with pytest.raises(d.TruncatedFileError):
            d.load_idx(ip, lp)

    def test_truncated_header(self, tmp_path):
        ip, lp = make_idx_pair(tmp_path, np.zeros((2, 2, 2), np.uint8), [0, 1])
        ip.write_bytes(ip.read_bytes()[:10])
        with pytest.raises(d.TruncatedFileError):
            d.load_idx(ip, lp)

    def test_distinct_error_types(self):
        kinds = {d.BadMagicError, d.CountMismatchError, d.TruncatedFileError}
        assert len(kinds) == 3
        assert all(issubclass(k, d.IdxError) for k in kinds)


def toy_dataset(n_per_class=12, num_classes=4, dim=3, seed=0):
    rng = np.random.default_rng(seed)
    samples = []
    for c in range(num_classes):
        for _ in range(n_per_class):
            samples.append(d.LabeledSample(rng.uniform(size=dim), c))
    rng.shuffle(samples)
    return samples


class TestSplitStream:
    def test_fixed_ascending_class_blocks(self):
        stream = d.make_split_stream(toy_dataset(num_classes=10), 5, 2, 4, seed=0)
        assert [t.class_ids for t in stream.tasks] == [
            (0, 1), (2, 3), (4, 5), (6, 7), (8, 9),
        ]

    def test_batches_full_except_possibly_last(self):
        stream = d.make_split_stream(toy_dataset(n_per_class=13), 2, 2, 10, seed=1)
        for task in stream.tasks:
            sizes = [len(b) for b in task.batches]
            assert all(s == 10 for s in sizes[:-1])
            assert 1 <= sizes[-1] <= 10
            assert sum(sizes) == 26

    def test_batch_labels_subset_of_task_classes(self):
        stream = d.make_split_stream(toy_dataset(), 2, 2, 5, seed=2)
        for task in stream.tasks:
            for batch in task.batches:
                assert set(batch.labels).issubset(set(task.class_ids))

    def test_same_seed_identical(self):
        samples = toy_dataset()
        a = d.make_split_stream(samples, 2, 2, 5, seed=7)
        b = d.make_split_stream(samples, 2, 2, 5, seed=7)
        for ta, tb in zip(a.tasks, b.tasks):
            for ba, bb in zip(ta.batches, tb.batches):
                np.testing.assert_array_equal(ba.features, bb.features)
                np.testing.assert_array_equal(ba.labels, bb.labels)

    def test_different_seed_differs(self):
        samples = toy_dataset(n_per_class=50)
        a = d.make_split_stream(samples, 2, 2, 25, seed=0)
        b = d.make_split_stream(samples, 2, 2, 25, seed=1)
        assert any(
            not np.array_equal(ba.labels, bb.labels)
            for ta, tb in zip(a.tasks, b.tasks)
            for ba, bb in zip(ta.batches, tb.batches)
        )

    def test_class_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="classes"):
            d.make_split_stream(toy_dataset(num_classes=4), 3, 2, 5, seed=0)

    def test_bad_batch_size_rejected(self):
        with pytest.raises(ValueError, match="batch_size"):
            d.make_split_stream(toy_dataset(), 2, 2, 0, seed=0)

    def test_held_out_split_follows_the_stream_blocks(self):
        samples = toy_dataset(num_classes=6)
        stream = d.make_split_stream(samples, 3, 2, 5, seed=0)
        per_task = d.split_tasks(d.Batch.of(samples), 3, 2)
        for task, held_out in zip(stream.tasks, per_task):
            assert set(held_out.labels.tolist()) == set(task.class_ids)
            # rows keep their input order
            want = [s.features for s in samples if s.label in task.class_ids]
            np.testing.assert_array_equal(held_out.features, np.stack(want))

    def test_held_out_split_rejects_a_task_without_rows(self):
        with pytest.raises(ValueError, match="task 3"):
            d.split_tasks(d.Batch.of(toy_dataset(num_classes=4)), 3, 2)

    @given(
        n_per_class=st.integers(1, 9),
        num_classes=st.sampled_from([2, 4, 6]),
        batch_size=st.integers(1, 7),
        seed=st.integers(0, 999),
    )
    @settings(max_examples=40, deadline=None)
    def test_single_pass_property(self, n_per_class, num_classes, batch_size, seed):
        samples = toy_dataset(n_per_class, num_classes, seed=seed)
        stream = d.make_split_stream(samples, num_classes // 2, 2, batch_size, seed)

        seen = [
            (batch.features[i].tobytes(), int(batch.labels[i]))
            for task in stream.tasks
            for batch in task.batches
            for i in range(len(batch))
        ]
        want = sorted((s.features.tobytes(), s.label) for s in samples)
        assert sorted(seen) == want

        all_class_sets = [set(t.class_ids) for t in stream.tasks]
        for i, a in enumerate(all_class_sets):
            for b in all_class_sets[i + 1 :]:
                assert a.isdisjoint(b)


class TestSynthetic:
    def test_degenerate_single_mode_at_origin(self):
        spec = d.SynthSpec(1, 1, np.zeros((1, 1, 2)), 0.0, 50, seed=0)
        train, test = d.gen_synthetic(spec)
        assert len(train) == 40 and len(test) == 10
        for s in train + test:
            np.testing.assert_array_equal(s.features, [0.0, 0.0])

    def test_two_mode_counts_binomially_plausible(self):
        centers = np.array([[[5.0, 0.0], [-5.0, 0.0]]])
        spec = d.SynthSpec(1, 2, centers, 0.1, 1000, seed=3)
        train, test = d.gen_synthetic(spec)
        xs = np.stack([s.features for s in train + test])
        near_pos = (xs[:, 0] > 0).sum()
        # binomial(1000, 1/2): 3 sigma ~ 47.4, so +-60 is a safe band
        assert abs(near_pos - 500) <= 60
        assert abs((1000 - near_pos) - 500) <= 60

    def test_same_seed_identical(self):
        centers = d.ring_centers(2, 4)
        spec = d.SynthSpec(2, 4, centers, 0.3, 100, seed=11)
        a_train, a_test = d.gen_synthetic(spec)
        b_train, b_test = d.gen_synthetic(spec)
        for sa, sb in zip(a_train + a_test, b_train + b_test):
            np.testing.assert_array_equal(sa.features, sb.features)
            assert sa.label == sb.label

    def test_duplicate_centers_rejected(self):
        centers = np.zeros((1, 2, 2))
        with pytest.raises(ValueError, match="duplicate"):
            d.SynthSpec(1, 2, centers, 0.1, 10)

    @pytest.mark.parametrize("num_classes, samples_per_class", [(0, 10), (1, 0), (1, 1), (1, 2)])
    def test_empty_class_set_or_split_side_rejected(self, num_classes, samples_per_class):
        # 1 and 2 samples per class round to an 80% train side that leaves
        # the test side empty
        centers = np.zeros((num_classes, 1, 2))
        with pytest.raises(ValueError, match="num_classes|split"):
            d.SynthSpec(num_classes, 1, centers, 0.1, samples_per_class)

    def test_smallest_spec_fills_both_split_sides(self):
        train, test = d.gen_synthetic(d.SynthSpec(1, 1, np.zeros((1, 1, 2)), 0.1, 3))
        assert (len(train), len(test)) == (2, 1)

    def test_ring_centers_interleave_classes(self):
        centers = d.ring_centers(2, 4, radius=5.0)
        assert centers.shape == (2, 4, 2)
        # interleaving makes each class mean collapse toward the origin
        for c in range(2):
            assert np.linalg.norm(centers[c].mean(axis=0)) < 1e-9
        flat = centers.reshape(-1, 2)
        assert np.unique(np.round(flat, 9), axis=0).shape[0] == 8

    def test_labels_cover_all_classes(self):
        centers = d.ring_centers(3, 2)
        spec = d.SynthSpec(3, 2, centers, 0.2, 30, seed=5)
        train, test = d.gen_synthetic(spec)
        assert {s.label for s in train} == {0, 1, 2}
        assert {s.label for s in test} == {0, 1, 2}
