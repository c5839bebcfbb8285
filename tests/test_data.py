import struct
import tracemalloc

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
        batch = d.load_idx(ip, lp)
        assert len(batch) == 2
        assert batch.features.dtype == np.uint8
        assert batch.features.tolist() == [[0, 255, 128, 0], [255, 255, 0, 1]]
        # the pixels are v/255 once they are read as features
        assert d.as_float(batch.features).tolist() == [
            [0.0, 1.0, 128 / 255, 0.0], [1.0, 1.0, 0.0, 1 / 255],
        ]
        assert batch.labels.dtype == np.int64
        assert batch.labels.tolist() == [3, 7]

    def test_order_preserved(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, size=(20, 3, 3), dtype=np.uint8)
        labels = rng.integers(0, 10, size=20, dtype=np.uint8)
        ip, lp = make_idx_pair(tmp_path, images, labels)
        batch = d.load_idx(ip, lp)
        assert batch.features.dtype == np.uint8
        assert batch.features.tobytes() == images.tobytes()
        assert batch.features.shape == (20, 9)
        np.testing.assert_array_equal(batch.labels, labels)

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

    def test_header_count_past_the_file_is_truncation_not_an_allocation(self, tmp_path):
        # a 2-image 28x28 file whose header claims 2**31 images: reading the
        # claimed 1.7 TB of pixels would raise MemoryError before any check
        ip, lp = make_idx_pair(tmp_path, np.zeros((2, 28, 28), np.uint8), [0, 1])
        blob = bytearray(ip.read_bytes())
        blob[4:8] = struct.pack(">I", 2**31)
        ip.write_bytes(bytes(blob))
        with pytest.raises(d.TruncatedFileError, match="got 1568"):
            d.load_idx(ip, lp)

    def test_pixels_are_a_read_only_view_of_the_written_bytes(self, tmp_path):
        images = np.random.default_rng(1).integers(0, 256, size=(30, 4, 5), dtype=np.uint8)
        ip, lp = make_idx_pair(tmp_path, images, np.arange(30) % 3)
        batch = d.load_idx(ip, lp)
        assert type(batch.features) is np.ndarray
        assert not batch.features.flags.writeable
        assert batch.features.shape == (30, 20)
        assert batch.features.tobytes() == images.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            batch.features[0, 0] = 1

    def test_zero_images_load(self, tmp_path):
        ip, lp = make_idx_pair(tmp_path, np.zeros((0, 28, 28), np.uint8), [])
        batch = d.load_idx(ip, lp)
        assert batch.features.shape == (0, 784) and batch.features.dtype == np.uint8
        assert batch.labels.shape == (0,) and batch.labels.dtype == np.int64

    def test_trailing_bytes_are_ignored(self, tmp_path):
        images = np.arange(2 * 3 * 3, dtype=np.uint8).reshape(2, 3, 3)
        ip, lp = make_idx_pair(tmp_path, images, [4, 5])
        ip.write_bytes(ip.read_bytes() + b"\xff" * 7)
        lp.write_bytes(lp.read_bytes() + b"\x09" * 3)
        batch = d.load_idx(ip, lp)
        assert batch.features.tobytes() == images.tobytes()
        assert batch.labels.tolist() == [4, 5]

    def test_load_copies_no_pixels(self, tmp_path):
        # the pixels are mapped from the file: loading a 20000 x 784 pair
        # (15.7 MB of pixels) allocates only the labels and their int64 copy
        images = np.random.default_rng(2).integers(0, 256, size=(20000, 28, 28), dtype=np.uint8)
        ip, lp = make_idx_pair(tmp_path, images, np.arange(20000) % 10)
        del images
        tracemalloc.start()
        try:
            batch = d.load_idx(ip, lp)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert batch.features.shape == (20000, 784)
        assert peak < 1_000_000

    def test_rewriting_a_loaded_pair_leaves_the_loaded_batch_intact(self, tmp_path):
        # write_idx replaces the files instead of truncating them, so the
        # pixels mapped from the old image file keep their bytes (truncating
        # a mapped file makes a later read of its rows a SIGBUS)
        rng = np.random.default_rng(3)
        old = rng.integers(0, 256, size=(50, 8, 8), dtype=np.uint8)
        ip, lp = make_idx_pair(tmp_path, old, np.arange(50) % 5)
        batch = d.load_idx(ip, lp)
        d.write_idx(ip, lp, rng.integers(0, 256, size=(3, 2, 2), dtype=np.uint8), [1, 1, 1])
        assert batch.features.tobytes() == old.tobytes()
        assert batch.labels.tolist() == (np.arange(50) % 5).tolist()
        assert d.load_idx(ip, lp).labels.tolist() == [1, 1, 1]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t-images", "t-labels"]

    def test_distinct_error_types(self):
        kinds = {d.BadMagicError, d.CountMismatchError, d.TruncatedFileError}
        assert len(kinds) == 3
        assert all(issubclass(k, d.IdxError) for k in kinds)


def old_load_scaling(pixels: np.ndarray) -> np.ndarray:
    """The float64 features the IDX reader returned before pixels stayed uint8."""
    scaled = pixels.astype(np.float64)
    scaled /= 255.0
    return scaled


ALL_PIXELS = np.arange(256, dtype=np.uint8)


class TestAsFloat:
    def test_float64_is_the_old_load_scaling_bit_for_bit(self):
        got = d.as_float(ALL_PIXELS)
        assert got.dtype == np.float64
        assert np.array_equal(got.view(np.uint64), old_load_scaling(ALL_PIXELS).view(np.uint64))

    def test_float32_is_the_old_load_scaling_cast_bit_for_bit(self):
        # float32(v) / float32(255) rounds to the same float32 as v / 255
        # computed in float64, for every pixel value
        got = d.as_float(ALL_PIXELS, np.float32)
        want = old_load_scaling(ALL_PIXELS).astype(np.float32)
        assert got.dtype == np.float32
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32))

    def test_other_dtypes_are_cast_not_scaled(self):
        x = np.random.default_rng(0).uniform(size=(3, 4))
        assert d.as_float(x) is x
        assert d.as_float(x, np.float32).tobytes() == x.astype(np.float32).tobytes()
        assert d.as_float(np.array([0, 255, 256])).tolist() == [0.0, 255.0, 256.0]


def toy_dataset(n_per_class=12, num_classes=4, dim=3, seed=0) -> d.Batch:
    """Uniform rows of every class, in a shuffled order."""
    rng = np.random.default_rng(seed)
    features = rng.uniform(size=(num_classes * n_per_class, dim))
    labels = np.repeat(np.arange(num_classes, dtype=np.int64), n_per_class)
    order = rng.permutation(len(labels))
    return d.Batch(features[order], labels[order])


class TestPresentClasses:
    @given(st.lists(st.integers(0, 40), max_size=60))
    @settings(max_examples=50, deadline=None)
    def test_matches_unique(self, labels):
        got = d.present_classes(np.array(labels, dtype=np.int64))
        assert got.tolist() == np.unique(np.array(labels, dtype=np.int64)).tolist()

    def test_accepts_uint8_labels(self):
        assert d.present_classes(np.array([9, 0, 9, 3], np.uint8)).tolist() == [0, 3, 9]

    def test_negative_labels_rejected_by_value(self):
        with pytest.raises(ValueError, match=r"non-negative, got \[-7, -1\]"):
            d.present_classes(np.array([2, -1, 0, -7, -1]))


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
        data = toy_dataset()
        a = d.make_split_stream(data, 2, 2, 5, seed=7)
        b = d.make_split_stream(data, 2, 2, 5, seed=7)
        for ta, tb in zip(a.tasks, b.tasks):
            for ba, bb in zip(ta.batches, tb.batches):
                np.testing.assert_array_equal(ba.features, bb.features)
                np.testing.assert_array_equal(ba.labels, bb.labels)

    def test_different_seed_differs(self):
        data = toy_dataset(n_per_class=50)
        a = d.make_split_stream(data, 2, 2, 25, seed=0)
        b = d.make_split_stream(data, 2, 2, 25, seed=1)
        assert any(
            not np.array_equal(ba.labels, bb.labels)
            for ta, tb in zip(a.tasks, b.tasks)
            for ba, bb in zip(ta.batches, tb.batches)
        )

    def test_task_batches_index_like_a_sequence(self):
        task = d.make_split_stream(toy_dataset(n_per_class=13), 2, 2, 10, seed=4).tasks[0]
        assert len(task.batches) == 3
        listed = list(task.batches)
        assert len(listed) == 3
        for i, batch in enumerate(listed):
            for same in (task.batches[i], task.batches[i - 3]):
                assert same.features.tobytes() == batch.features.tobytes()
                assert same.labels.tobytes() == batch.labels.tobytes()
        for bad in (3, -4):
            with pytest.raises(IndexError):
                task.batches[bad]

    def test_class_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="classes"):
            d.make_split_stream(toy_dataset(num_classes=4), 3, 2, 5, seed=0)

    def test_bad_batch_size_rejected(self):
        with pytest.raises(ValueError, match="batch_size"):
            d.make_split_stream(toy_dataset(), 2, 2, 0, seed=0)

    def test_held_out_split_follows_the_stream_blocks(self):
        data = toy_dataset(num_classes=6)
        stream = d.make_split_stream(data, 3, 2, 5, seed=0)
        per_task = d.split_tasks(data, 3, 2)
        for task, held_out in zip(stream.tasks, per_task):
            assert set(held_out.labels.tolist()) == set(task.class_ids)
            # rows keep their input order
            want = [s.features for s in data if s.label in task.class_ids]
            np.testing.assert_array_equal(held_out.features, np.stack(want))

    def test_held_out_split_rejects_a_task_without_rows(self):
        with pytest.raises(ValueError, match="task 3"):
            d.split_tasks(toy_dataset(num_classes=4), 3, 2)

    @given(
        n_per_class=st.integers(1, 9),
        num_classes=st.sampled_from([2, 4, 6]),
        batch_size=st.integers(1, 7),
        seed=st.integers(0, 999),
    )
    @settings(max_examples=40, deadline=None)
    def test_single_pass_property(self, n_per_class, num_classes, batch_size, seed):
        data = toy_dataset(n_per_class, num_classes, seed=seed)
        stream = d.make_split_stream(data, num_classes // 2, 2, batch_size, seed)

        seen = [
            (batch.features[i].tobytes(), int(batch.labels[i]))
            for task in stream.tasks
            for batch in task.batches
            for i in range(len(batch))
        ]
        want = sorted((s.features.tobytes(), s.label) for s in data)
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
        for part in (train, test):
            np.testing.assert_array_equal(part.features, np.zeros((len(part), 2)))

    def test_two_mode_counts_binomially_plausible(self):
        centers = np.array([[[5.0, 0.0], [-5.0, 0.0]]])
        spec = d.SynthSpec(1, 2, centers, 0.1, 1000, seed=3)
        train, test = d.gen_synthetic(spec)
        xs = np.concatenate([train.features, test.features])
        near_pos = (xs[:, 0] > 0).sum()
        # binomial(1000, 1/2): 3 sigma ~ 47.4, so +-60 is a safe band
        assert abs(near_pos - 500) <= 60
        assert abs((1000 - near_pos) - 500) <= 60

    def test_same_seed_identical(self):
        centers = d.ring_centers(2, 4)
        spec = d.SynthSpec(2, 4, centers, 0.3, 100, seed=11)
        a_train, a_test = d.gen_synthetic(spec)
        b_train, b_test = d.gen_synthetic(spec)
        for pa, pb in ((a_train, b_train), (a_test, b_test)):
            np.testing.assert_array_equal(pa.features, pb.features)
            np.testing.assert_array_equal(pa.labels, pb.labels)

    def test_duplicate_centers_rejected(self):
        centers = np.zeros((1, 2, 2))
        with pytest.raises(ValueError, match="duplicate"):
            d.SynthSpec(1, 2, centers, 0.1, 10)

    def test_only_a_class_with_two_equal_centers_is_rejected(self):
        # class 1's first and third centers are equal; every other pair,
        # within a class or across classes, differs in at least one coordinate
        centers = np.array([[[0, 0], [0, 1], [1, 0]], [[2, 2], [0, 0], [2, 2]]], dtype=float)
        with pytest.raises(ValueError, match="class 1 has duplicate"):
            d.SynthSpec(2, 3, centers, 0.1, 10)
        centers[1, 2, 1] = 3
        d.SynthSpec(2, 3, centers, 0.1, 10)

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


# ---------------------------------------------------------------------------
# the array data path against the per-sample one it replaced


def naive_gen_synthetic(spec: d.SynthSpec):
    """The per-sample generator: the same draws, one LabeledSample per row."""
    rng = np.random.default_rng(spec.seed)
    dim = spec.mode_centers.shape[2]
    train, test = [], []
    for c in range(spec.num_classes):
        modes = rng.integers(0, spec.modes_per_class, size=spec.samples_per_class)
        noise = rng.standard_normal((spec.samples_per_class, dim))
        points = spec.mode_centers[c][modes] + spec.mode_scale * noise
        n_train = int(round(0.8 * spec.samples_per_class))
        for i in range(spec.samples_per_class):
            (train if i < n_train else test).append(d.LabeledSample(points[i], c))
    return train, test


def naive_make_split_stream(samples, num_tasks, classes_per_task, batch_size, seed):
    """The per-sample stream: (class ids, [(features, labels), ...]) per task,
    each batch stacked from its samples."""
    rng = np.random.default_rng(seed)
    tasks = []
    for t in range(num_tasks):
        class_ids = tuple(range(t * classes_per_task, (t + 1) * classes_per_task))
        idx = [j for j, s in enumerate(samples) if s.label in class_ids]
        idx = [idx[k] for k in rng.permutation(len(idx))]
        batches = []
        for i in range(0, len(idx), batch_size):
            chunk = [samples[j] for j in idx[i : i + batch_size]]
            batches.append((
                np.stack([s.features for s in chunk]),
                np.array([s.label for s in chunk], dtype=np.int64),
            ))
        tasks.append((class_ids, batches))
    return tasks


def copied_block_make_split_stream(data: d.Batch, num_tasks, classes_per_task, batch_size, seed):
    """The copied-block stream: each task's permuted rows fancy-indexed into
    one float block, every batch a view of it; (class ids, [(features,
    labels), ...]) per task."""
    rng = np.random.default_rng(seed)
    tasks = []
    for class_ids, idx in d.task_blocks(data.labels, num_tasks, classes_per_task):
        idx = idx[rng.permutation(len(idx))]
        features, labels = data.features[idx], data.labels[idx]
        tasks.append((class_ids, [
            (features[i : i + batch_size], labels[i : i + batch_size])
            for i in range(0, len(idx), batch_size)
        ]))
    return tasks


def assert_same_stream(got: d.TaskStream, want):
    assert len(got.tasks) == len(want)
    for task, (class_ids, batches) in zip(got.tasks, want):
        assert task.class_ids == class_ids
        assert len(task.batches) == len(batches)
        for batch, (features, labels) in zip(task.batches, batches):
            assert batch.features.dtype == np.float64 and batch.labels.dtype == np.int64
            assert batch.features.tobytes() == features.tobytes()
            assert batch.labels.tobytes() == labels.tobytes()


def assert_same_rows(batch: d.Batch, samples):
    assert batch.features.dtype == np.float64 and batch.labels.dtype == np.int64
    assert batch.features.tobytes() == np.stack([s.features for s in samples]).tobytes()
    assert batch.labels.tolist() == [s.label for s in samples]


SPECS = [
    (1, 1, np.zeros((1, 1, 2)), 0.0, 3),
    (2, 4, d.ring_centers(2, 4), 0.3, 37),
    (4, 2, d.ring_centers(4, 2, radius=1.0, dim=5), 0.2, 50),
    (6, 3, d.ring_centers(6, 3, dim=3), 0.05, 21),
]


class TestArrayDataPathOracle:
    @pytest.mark.parametrize("spec_args", SPECS)
    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_gen_synthetic_matches_the_per_sample_generator(self, spec_args, seed):
        spec = d.SynthSpec(*spec_args, seed=seed)
        out = d.gen_synthetic(spec)
        assert isinstance(out, tuple) and len(out) == 2
        for part, want in zip(out, naive_gen_synthetic(spec)):
            assert_same_rows(part, want)

    @pytest.mark.parametrize("spec_args, tasks, cpt", [
        (SPECS[1], 1, 2), (SPECS[1], 2, 1), (SPECS[2], 2, 2), (SPECS[3], 3, 2),
    ])
    @pytest.mark.parametrize("batch_size", [1, 4, 10, 1000])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_stream_matches_the_per_sample_stream(self, spec_args, tasks, cpt, batch_size, seed):
        spec = d.SynthSpec(*spec_args, seed=seed + 1)
        train, _ = d.gen_synthetic(spec)
        naive_train, _ = naive_gen_synthetic(spec)
        got = d.make_split_stream(train, tasks, cpt, batch_size, seed)
        assert_same_stream(got, naive_make_split_stream(naive_train, tasks, cpt, batch_size, seed))
        assert_same_stream(got, copied_block_make_split_stream(train, tasks, cpt, batch_size, seed))

    def test_stream_of_shuffled_rows_matches_the_per_sample_stream(self):
        data = toy_dataset(n_per_class=9, num_classes=6, seed=3)
        got = d.make_split_stream(data, 3, 2, 4, seed=11)
        assert_same_stream(got, naive_make_split_stream(list(data), 3, 2, 4, seed=11))

    @pytest.mark.parametrize("batch_size", [1, 4, 10, 1000])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_stream_of_idx_pixels_matches_the_copied_float_block_stream(
        self, tmp_path, batch_size, seed
    ):
        # the lazy stream over the loaded uint8 pixels against the stream
        # that copied each task's rows out of the float64 scaled pixels
        rng = np.random.default_rng(seed)
        images = rng.integers(0, 256, size=(90, 4, 5), dtype=np.uint8)
        labels = rng.permutation(np.repeat(np.arange(6), 15))
        pixels = d.load_idx(*make_idx_pair(tmp_path, images, labels))
        assert pixels.features.dtype == np.uint8
        scaled = d.Batch(old_load_scaling(pixels.features), pixels.labels)
        got = d.make_split_stream(pixels, 3, 2, batch_size, seed)
        assert_same_stream(got, copied_block_make_split_stream(scaled, 3, 2, batch_size, seed))

    def test_stream_over_pixels_holds_indices_not_rows(self):
        # 20k MNIST-shaped rows: the copied float64 blocks would be 125 MB
        rng = np.random.default_rng(0)
        pixels = rng.integers(0, 256, size=(20_000, 784), dtype=np.uint8)
        data = d.Batch(pixels, rng.permutation(np.repeat(np.arange(10), 2_000)))
        # numpy imports modules on the first call; only the stream is measured
        d.make_split_stream(toy_dataset(), 2, 2, 10, seed=0)
        tracemalloc.start()
        try:
            stream = d.make_split_stream(data, 5, 2, 10, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert sum(len(t.batches) for t in stream.tasks) == 2_000
        (_, idx), *_ = d.task_blocks(data.labels, 5, 2)
        first = idx[np.random.default_rng(0).permutation(len(idx))][:10]
        assert stream.tasks[0].batches[0].features.tobytes() == (
            old_load_scaling(pixels[first]).tobytes()
        )

    def test_iteration_yields_row_views_with_int_labels_in_order(self):
        data = toy_dataset(n_per_class=3, num_classes=2)
        rows = list(data)
        assert len(rows) == len(data)
        for i, row in enumerate(rows):
            assert isinstance(row, d.LabeledSample)
            assert row.features.ndim == 1
            assert np.shares_memory(row.features, data.features)
            assert row.features.tobytes() == data.features[i].tobytes()
            assert type(row.label) is int and row.label == data.labels[i]
