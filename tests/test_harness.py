"""Tests for the experiment harness: prediction, metrics, and full runs."""

import json
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from numpy.random import default_rng

from otcl.autodiff import NumericsError
from otcl.data import Batch, SynthSpec, ring_centers
from otcl.harness import (
    AccMatrix,
    RunConfig,
    avg_accuracy,
    avg_forgetting,
    evaluate_task,
    load_model,
    predict,
    run_experiment,
)
from otcl.losses import PreservationConfig
from otcl.mixture import ClassMixture, OtmmConfig
from otcl.model import FeatureExtractor, load_checkpoint


def small_extractor(input_dim=2, feat_dim=4, seed=0):
    return FeatureExtractor(input_dim, feat_dim, seed=seed, hidden=8)


def mixture_at(centroids: np.ndarray) -> ClassMixture:
    """Mixture whose component means are exactly the given rows."""
    c = np.asarray(centroids, dtype=np.float64)
    return ClassMixture.from_features(c, c.shape[0])


def separable_spec(seed=0):
    return SynthSpec(
        num_classes=2,
        modes_per_class=1,
        mode_centers=np.array([[[3.0, 0.0]], [[-3.0, 0.0]]]),
        mode_scale=0.3,
        samples_per_class=300,
        seed=seed,
    )


def tiny_run_config(out_dir=None, seeds=(0,), **overrides):
    base = dict(
        dataset="synth",
        synth=separable_spec(),
        num_tasks=1,
        classes_per_task=2,
        memory_size=100,
        batch_size=10,
        n_centroids=1,
        feat_dim=8,
        hidden_dim=32,
        seeds=seeds,
        out_dir=out_dir,
    )
    base.update(overrides)
    return RunConfig(**base)


# ------------------------------------------------------------- predict


def test_predict_returns_class_of_matching_centroid():
    fe = small_extractor()
    x0 = np.array([0.25, 0.75])
    x1 = np.array([0.9, 0.1])
    z0 = fe.features_np(x0.reshape(1, -1))[0]
    z1 = fe.features_np(x1.reshape(1, -1))[0]
    mixtures = {0: mixture_at(z0.reshape(1, -1)), 1: mixture_at(z1.reshape(1, -1))}
    assert predict(x0, fe, mixtures) == 0
    assert predict(x1, fe, mixtures) == 1


def test_predict_single_class_always_wins():
    fe = small_extractor()
    mixtures = {7: mixture_at(np.zeros((1, fe.feat_dim)))}
    rng = default_rng(0)
    for _ in range(5):
        assert predict(rng.normal(size=2), fe, mixtures) == 7


def test_predict_matches_brute_force_enumeration():
    # three classes, two components each, checked against a hand-rolled argmin
    fe = small_extractor(feat_dim=3)
    rng = default_rng(42)
    tables = {c: rng.normal(size=(2, 3)) for c in (0, 1, 2)}
    mixtures = {c: mixture_at(t) for c, t in tables.items()}
    for _ in range(50):
        x = rng.normal(size=2)
        z = fe.features_np(x.reshape(1, -1))[0]
        best_c, best_d = None, np.inf
        for c in (0, 1, 2):  # ascending order: ties resolve to the smallest id
            for row in tables[c]:
                d = float(np.sum((z - row) ** 2))
                if d < best_d:
                    best_c, best_d = c, d
        assert predict(x, fe, mixtures) == best_c


def test_predict_ignores_dict_insertion_order():
    fe = small_extractor()
    rng = default_rng(1)
    tables = {c: rng.normal(size=(2, fe.feat_dim)) for c in (0, 1, 2)}
    fwd = {c: mixture_at(tables[c]) for c in (0, 1, 2)}
    rev = {c: mixture_at(tables[c]) for c in (2, 1, 0)}
    for _ in range(20):
        x = rng.normal(size=2)
        assert predict(x, fe, fwd) == predict(x, fe, rev)


def test_predict_tie_breaks_to_smaller_class_id():
    fe = small_extractor()
    z = fe.features_np(np.array([[0.5, 0.5]]))[0]
    same = z.reshape(1, -1)
    mixtures = {3: mixture_at(same), 1: mixture_at(same.copy())}
    assert predict(np.array([0.5, 0.5]), fe, mixtures) == 1


# -------------------------------------------------------- evaluate_task


def test_evaluate_task_all_correct():
    fe = small_extractor()
    xs = np.array([[0.1, 0.2], [0.8, 0.9], [0.4, 0.6]])
    zs = fe.features_np(xs)
    mixtures = {c: mixture_at(zs[c].reshape(1, -1)) for c in range(3)}
    batch = Batch(features=xs, labels=np.array([0, 1, 2]))
    assert evaluate_task(batch, fe, mixtures) == 1.0


def test_evaluate_task_fractional_accuracy():
    fe = small_extractor()
    xs = np.array([[0.1, 0.2], [0.8, 0.9], [0.4, 0.6], [0.7, 0.3]])
    zs = fe.features_np(xs)
    mixtures = {0: mixture_at(zs[:1]), 1: mixture_at(zs[1:2])}
    # rows 2 and 3 are labelled with whatever they are NOT nearest to / are nearest to
    preds = [predict(x, fe, mixtures) for x in xs]
    labels = np.array([preds[0], preds[1], preds[2], 1 - preds[3]])
    batch = Batch(features=xs, labels=labels)
    assert evaluate_task(batch, fe, mixtures) == pytest.approx(0.75)


def test_evaluate_task_tie_breaks_to_smaller_class_id():
    # classes 3 and 8 share one centroid table, placed on the test rows'
    # own features; the random classes around them sit far away
    fe = FeatureExtractor(784, 128, seed=0)
    rng = default_rng(5)
    xs = rng.random((40, 784))
    shared = fe.features_np(xs[:2])
    tables = {c: 10.0 * rng.normal(size=(2, 128)) for c in range(10)}
    tables[3], tables[8] = shared, shared.copy()
    batch = Batch(features=xs[:2], labels=np.array([3, 3]))
    for order in (range(10), reversed(range(10))):
        mixtures = {c: mixture_at(tables[c]) for c in order}
        assert evaluate_task(batch, fe, mixtures) == 1.0


def test_evaluate_task_on_pixels_matches_the_prescaled_rows():
    # IDX pixels reach evaluation as uint8 and are scaled chunk by chunk in
    # the float32 forward; the loader used to hand over float64 v/255 rows
    fe = FeatureExtractor(784, 16, seed=0, hidden=32)
    rng = default_rng(7)
    pixels = rng.integers(0, 256, size=(300, 784), dtype=np.uint8)
    scaled = pixels.astype(np.float64)
    scaled /= 255.0
    for chunk in (64, 4096):
        z_pixels = fe.features_np(pixels, chunk=chunk, dtype=np.float32)
        assert z_pixels.tobytes() == fe.features_np(scaled, chunk=chunk, dtype=np.float32).tobytes()
    assert fe.features_np(pixels).tobytes() == fe.features_np(scaled).tobytes()

    anchors = fe.features_np(scaled[:4])
    mixtures = {c: mixture_at(anchors[c : c + 1]) for c in range(4)}
    preds = [predict(x, fe, mixtures) for x in pixels]
    assert preds == [predict(x, fe, mixtures) for x in scaled]
    assert len(set(preds)) == 4
    labels = rng.integers(0, 4, size=len(pixels))
    acc = evaluate_task(Batch(pixels, labels), fe, mixtures)
    assert 0.0 < acc < 1.0
    assert acc == evaluate_task(Batch(scaled, labels), fe, mixtures)
    assert acc == float(np.mean(np.array(preds) == labels))


def test_float32_evaluation_agrees_with_float64_outside_near_ties():
    """Evaluation runs the forward in float32; away from a tie it must pick
    the centroid the float64 forward and a brute-force argmin pick.

    Margin, fixed from the dtype before running: the float32 forward
    perturbs each feature row by delta with |delta| <= RHO |z|. Inputs,
    weights and biases are rounded once (u = 2**-24, about 6e-8), and each
    float32 dot product of length n <= 784 adds at most n u (about 4.7e-5)
    of the sum of |x_i w_i|, which for Gaussian weights is about ten times
    |sum x_i w_i| per layer: RHO = 1e-3 bounds the three layers. A delta
    moves d_c - d_1 = |z - mu_c|^2 - |z - mu_1|^2 by at most
    2 |delta| |mu_1 - mu_c| <= 2 RHO |z| (sqrt(d_1) + sqrt(d_c)), and that
    bound grows slower than d_c, so a row whose two nearest centroids
    (float64, squared distances d_1 <= d_2) satisfy
    d_2 - d_1 > 2 RHO |z| (sqrt(d_1) + sqrt(d_2)) cannot change its
    nearest centroid. The float64 distance form rounds at about 1e-16 of
    |z|^2 + |mu|^2, far below that margin.
    """
    RHO = 1e-3
    fe = FeatureExtractor(784, 128, seed=3)
    rng = default_rng(11)
    x = rng.random((2000, 784))
    z = fe.forward_np(x)[0]
    z32 = fe.features_np(x, dtype=np.float32)
    assert z32.dtype == np.float32
    err = np.linalg.norm(z32 - z, axis=1) / np.linalg.norm(z, axis=1)
    assert err.max() <= RHO  # the bound the margin rests on

    # pairs of classes whose centroids differ by offsets from 1e-1 to 1e-6
    # of the centroid's norm, so rows land on both sides of the margin
    anchors = fe.forward_np(rng.random((10, 784)))[0]
    tables = {}
    for k, scale in enumerate((1e-1, 1e-2, 1e-3, 1e-4, 1e-6)):
        base = anchors[2 * k : 2 * k + 2]
        step = rng.normal(size=base.shape)
        step *= scale * np.linalg.norm(base, axis=1, keepdims=True) / np.linalg.norm(
            step, axis=1, keepdims=True
        )
        tables[2 * k], tables[2 * k + 1] = base, base + step
    mixtures = {c: mixture_at(t) for c, t in tables.items()}

    table = np.concatenate([tables[c] for c in sorted(tables)])
    owner = np.repeat(sorted(tables), 2)
    d = ((z[:, None, :] - table[None, :, :]) ** 2).sum(axis=2)
    want = owner[np.argmin(d, axis=1)]
    d1, d2 = np.sort(d, axis=1)[:, :2].T
    clear = d2 - d1 > 2 * RHO * np.linalg.norm(z, axis=1) * (np.sqrt(d1) + np.sqrt(d2))
    assert clear.sum() >= 300 and (~clear).sum() >= 300  # both sides are populated
    assert evaluate_task(Batch(x[clear], want[clear]), fe, mixtures) == 1.0


def standin_run_config(tmp_path, **overrides) -> RunConfig:
    """The paper shape on a small IDX stand-in written by the benchmark's
    own generator (`perfbench/standin.py`, imported): 60 stream rows and
    200 held-out rows per task, at the benchmark's pinned rate."""
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "perfbench_standin", os.path.join(PERFBENCH, "standin.py")
    )
    standin = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(standin)
    data_dir = tmp_path / "idx"
    standin.write_standin(str(data_dir), 3, 300, 1000)
    base = dict(
        dataset="mnist", data_dir=str(data_dir), num_tasks=5, classes_per_task=2,
        memory_size=100, batch_size=10, preservation=PreservationConfig(lr_theta=0.01),
    )
    return RunConfig(**(base | overrides))


@pytest.mark.parametrize("data", ["synth", "idx-standin"])
def test_evaluation_does_not_touch_training(tmp_path, data):
    """Evaluating after every batch must leave every trained array and
    every accuracy-matrix row bit for bit: the mid-task evaluations read
    first-layer products that the preservation steps update, and each task
    end drops them, so its row is scored from fresh ones."""
    runs, metrics = {}, {}
    for every in (False, True):
        out = tmp_path / str(every)
        if data == "synth":
            cfg = tiny_run_config(out_dir=str(out), eval_every_batch=every)
        else:
            cfg = standin_run_config(tmp_path, out_dir=str(out), eval_every_batch=every)
        run_experiment(cfg)
        runs[every], _ = load_checkpoint(str(out / "checkpoint_seed0.npz"))
        metrics[every] = (out / "metrics.csv").read_bytes()
    assert metrics[True] == metrics[False]
    assert runs[True].keys() == runs[False].keys()
    for group, arrays in runs[False].items():
        assert arrays.keys() == runs[True][group].keys()
        for name, arr in arrays.items():
            assert arr.tobytes() == runs[True][group][name].tobytes(), (group, name)


def test_evaluate_tasks_scores_each_batch_in_one_pass(monkeypatch):
    """One float32 weight copy for all the batches, and every score bytewise
    that of an `evaluate_task` call on its own copy, made through the module
    global with positional arguments, as the benchmark's tracer sees it."""
    import otcl.harness as hz

    fe = FeatureExtractor(784, 16, seed=0, hidden=32)
    rng = default_rng(8)
    anchors = fe.features_np(rng.random((4, 784)))
    mixtures = {c: mixture_at(anchors[c : c + 1]) for c in range(4)}
    batches = [
        Batch(rng.integers(0, 256, size=(n, 784), dtype=np.uint8), rng.integers(0, 4, size=n))
        for n in (30, 1, 57)
    ]
    per_call = [evaluate_task(b, fe, mixtures) for b in batches]

    calls, copies, weights, evaluate = [], [], fe.weights, hz.evaluate_task

    def counted_weights(dtype=np.float64):
        copies.append(np.dtype(dtype))
        return weights(dtype)

    def counted(*args):
        calls.append(args)
        return evaluate(*args)

    monkeypatch.setattr(fe, "weights", counted_weights)
    monkeypatch.setattr(hz, "evaluate_task", counted)
    scores = hz.evaluate_tasks(batches, fe, mixtures)
    assert np.array(scores).tobytes() == np.array(per_call).tobytes()
    assert len(calls) == len(batches)
    for args, batch in zip(calls, batches):
        assert args[0] is batch and args[1] is fe and args[2] is mixtures
    assert copies == [np.dtype(np.float32)]


def test_evaluate_task_rejects_empty_mixtures():
    fe = small_extractor()
    batch = Batch(features=np.zeros((2, 2)), labels=np.array([0, 1]))
    with pytest.raises(ValueError):
        evaluate_task(batch, fe, {})


# ------------------------------------------------------------- metrics


def test_acc_matrix_shape_and_row_validation():
    acc = AccMatrix(3)
    assert acc.values.shape == (3, 3)
    assert np.all(np.isnan(acc.values))
    acc.set_row(0, [1.0])
    acc.set_row(1, [0.9, 0.8])
    assert acc.values[1, :2].tolist() == [0.9, 0.8]
    with pytest.raises(ValueError):
        acc.set_row(2, [0.5, 0.5])  # needs 3 entries
    with pytest.raises(ValueError):
        acc.set_row(2, [0.5, 0.5, 1.5])  # out of range


def test_avg_accuracy_two_tasks():
    acc = AccMatrix(2)
    acc.set_row(0, [1.0])
    acc.set_row(1, [1.0, 0.8])
    assert avg_accuracy(acc, 2) == pytest.approx(0.9)


def test_avg_accuracy_single_task():
    acc = AccMatrix(1)
    acc.set_row(0, [0.73])
    assert avg_accuracy(acc, 1) == pytest.approx(0.73)


def test_avg_accuracy_rejects_unfilled_row():
    acc = AccMatrix(2)
    acc.set_row(0, [1.0])
    with pytest.raises(ValueError):
        avg_accuracy(acc, 2)


def test_avg_forgetting_two_tasks():
    acc = AccMatrix(2)
    acc.set_row(0, [0.9])
    acc.set_row(1, [0.7, 0.95])
    # only task 1 can be forgotten: 0.9 - 0.7
    assert avg_forgetting(acc, 2) == pytest.approx(0.2)


def test_avg_forgetting_zero_when_no_degradation():
    # the gap is unclamped, so F is zero exactly when the final accuracy
    # matches the best earlier accuracy on every old task
    acc = AccMatrix(2)
    acc.set_row(0, [0.8])
    acc.set_row(1, [0.8, 0.9])
    assert avg_forgetting(acc, 2) == pytest.approx(0.0)


def test_avg_forgetting_can_go_negative_on_backward_transfer():
    acc = AccMatrix(2)
    acc.set_row(0, [0.8])
    acc.set_row(1, [0.85, 0.9])
    assert avg_forgetting(acc, 2) == pytest.approx(-0.05)


def test_avg_forgetting_three_tasks_uses_running_max():
    acc = AccMatrix(3)
    acc.set_row(0, [0.9])
    acc.set_row(1, [0.95, 0.8])  # task 1 improves before dropping
    acc.set_row(2, [0.7, 0.75, 0.9])
    # task 1: max(0.9, 0.95) - 0.7 = 0.25; task 2: 0.8 - 0.75 = 0.05
    assert avg_forgetting(acc, 3) == pytest.approx((0.25 + 0.05) / 2)


def test_avg_forgetting_needs_two_tasks():
    acc = AccMatrix(1)
    acc.set_row(0, [1.0])
    with pytest.raises(ValueError):
        avg_forgetting(acc, 1)


# -------------------------------------------------------- full runs


def test_run_config_validation():
    with pytest.raises(ValueError):
        tiny_run_config(memory_size=0)
    with pytest.raises(ValueError):
        tiny_run_config(num_tasks=0)
    with pytest.raises(ValueError):
        tiny_run_config(seeds=())
    with pytest.raises(ValueError, match="distinct"):
        tiny_run_config(seeds=(0, 0))  # would run seed 0 twice
    with pytest.raises(ValueError):
        RunConfig(dataset="synth", synth=None)  # synth data needs a spec
    with pytest.raises(ValueError):
        tiny_run_config(dataset="imagenet")
    for bad in ({"feat_dim": 0}, {"hidden_dim": 0}, {"seeds": (0, -1)}):
        with pytest.raises(ValueError):
            tiny_run_config(**bad)
    # the separable spec has 2 classes: the layout must hold exactly those
    for layout in ({"num_tasks": 2}, {"classes_per_task": 1}):
        with pytest.raises(ValueError, match="synth.num_classes 2"):
            tiny_run_config(**layout)


def test_run_experiment_learns_separable_classes(tmp_path):
    cfg = tiny_run_config(out_dir=str(tmp_path))
    mats, summary = run_experiment(cfg)
    assert avg_accuracy(mats[0], 1) >= 0.95
    assert summary["per_seed"]["0"]["avg_accuracy"] >= 0.95
    assert summary["per_seed"]["0"]["avg_forgetting"] is None  # undefined for one task
    assert summary["wall_clock_seconds"] > 0


def test_run_experiment_is_deterministic():
    cfg = tiny_run_config()
    mats_a, _ = run_experiment(cfg)
    mats_b, _ = run_experiment(tiny_run_config())
    assert np.array_equal(mats_a[0].values, mats_b[0].values, equal_nan=True)


def test_zero_step_config_leaves_model_untouched(tmp_path):
    pres = PreservationConfig(steps_l1=0, steps_l2=0)
    otmm = OtmmConfig(n_phi_steps=0, n_mix_steps=0)
    cfg = tiny_run_config(out_dir=str(tmp_path), preservation=pres, otmm=otmm)
    run_experiment(cfg)  # must not blow up even though nothing trains
    fe, _, _, _ = load_model(str(tmp_path / "checkpoint_seed0.npz"))
    # the extractor that came out of the run is bitwise the seed-0 init
    fresh = FeatureExtractor(2, cfg.feat_dim, seed=0, hidden=cfg.hidden_dim)
    for k, v in fresh.params.items():
        assert np.array_equal(fe.params[k].data, v.data)


def test_run_writes_metrics_and_summary(tmp_path):
    spec = SynthSpec(
        num_classes=4,
        modes_per_class=1,
        mode_centers=ring_centers(4, 1, radius=4.0),
        mode_scale=0.3,
        samples_per_class=200,
        seed=0,
    )
    cfg = tiny_run_config(out_dir=str(tmp_path), synth=spec, num_tasks=2, seeds=(0, 1))
    mats, summary = run_experiment(cfg)

    with open(tmp_path / "metrics.csv") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    assert lines[0] == "seed,task_index,eval_task,accuracy"
    # per seed: 1 + 2 lower-triangular entries
    assert len(lines) == 1 + 2 * 3
    for ln in lines[1:]:
        seed, t, j, a = ln.split(",")
        assert int(seed) in (0, 1)
        assert 1 <= int(j) <= int(t) <= 2
        np.testing.assert_allclose(float(a), mats[int(seed)].values[int(t) - 1, int(j) - 1])

    with open(tmp_path / "summary.json") as fh:
        s = json.load(fh)
    assert s["config"]["num_tasks"] == 2
    assert set(s["per_seed"]) == {"0", "1"}
    assert "mean_avg_accuracy" in s and "std_avg_accuracy" in s
    assert "mean_avg_forgetting" in s and "wall_clock_seconds" in s
    assert s == summary  # in-memory summary is exactly what was written


def test_run_saves_loadable_checkpoint(tmp_path):
    cfg = tiny_run_config(out_dir=str(tmp_path))
    mats, _ = run_experiment(cfg)
    fe, state, protos, meta = load_model(str(tmp_path / "checkpoint_seed0.npz"))
    assert meta["classes_per_task"] == 2 and meta["num_tasks"] == 1
    assert sorted(state.mixtures) == [0, 1]
    # the restored model reproduces the recorded final-task accuracy
    spec = separable_spec()
    from otcl.data import gen_synthetic

    _, test = gen_synthetic(spec)
    feats = np.stack([s.features for s in test])
    labels = np.array([s.label for s in test])
    acc = evaluate_task(Batch(features=feats, labels=labels), fe, state.mixtures)
    np.testing.assert_allclose(acc, mats[0].values[0, 0])


def test_eval_curve_written_when_requested(tmp_path):
    cfg = tiny_run_config(out_dir=str(tmp_path), eval_every_batch=True)
    run_experiment(cfg)
    path = tmp_path / "curve_seed0.csv"
    assert path.exists()
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    assert lines[0] == "task_index,batch_index,avg_accuracy_seen"
    assert len(lines) > 1
    last = lines[-1].split(",")
    assert 0.0 <= float(last[2]) <= 1.0


def test_random_insertion_ablation_runs(tmp_path):
    cfg = tiny_run_config(out_dir=str(tmp_path), random_insertion=True)
    mats, _ = run_experiment(cfg)
    assert avg_accuracy(mats[0], 1) >= 0.9  # easy data: ablation still learns


def test_two_seed_run_loads_and_splits_once(monkeypatch):
    import otcl.harness as hz

    calls = {"gen_synthetic": 0, "split_tasks": 0}
    for name in calls:
        def counted(*args, _real=getattr(hz, name), _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(hz, name, counted)
    spec = SynthSpec(
        num_classes=4, modes_per_class=2, mode_centers=ring_centers(4, 2, radius=1.0),
        mode_scale=0.3, samples_per_class=60, seed=0,
    )
    cfg = tiny_run_config(synth=spec, num_tasks=2)
    both, _ = run_experiment(replace(cfg, seeds=(0, 1)))
    assert calls == {"gen_synthetic": 1, "split_tasks": 1}
    for seed in (0, 1):
        alone, _ = run_experiment(replace(cfg, seeds=(seed,)))
        assert both[seed].values.tobytes() == alone[seed].values.tobytes()


def test_loaded_test_set_is_released_before_the_seeds_run(monkeypatch):
    import gc
    import weakref

    import otcl.harness as hz

    loaded, alive = [], []
    real_load, real_run = hz._load_dataset, hz._run_single_seed

    def load(cfg):
        train, test = real_load(cfg)
        loaded.append(weakref.ref(test.features))
        return train, test

    def run(*args, **kwargs):
        gc.collect()
        alive.append(loaded[0]() is not None)
        return real_run(*args, **kwargs)

    monkeypatch.setattr(hz, "_load_dataset", load)
    monkeypatch.setattr(hz, "_run_single_seed", run)
    run_experiment(tiny_run_config(seeds=(0, 1)))
    # only the per-task split of the held-out rows lives on
    assert alive == [False, False]


def test_partial_metrics_flushed_on_failure(tmp_path, monkeypatch):
    import otcl.harness as hz

    real = hz._run_single_seed

    def flaky(cfg, seed, train, test_batches, on_row):
        if seed == 1:
            raise ValueError("synthetic mid-run failure")
        return real(cfg, seed, train, test_batches, on_row)

    monkeypatch.setattr(hz, "_run_single_seed", flaky)
    cfg = tiny_run_config(out_dir=str(tmp_path), seeds=(0, 1))
    with pytest.raises(ValueError, match="mid-run failure"):
        run_experiment(cfg)
    # seed 0's rows reached disk, and the summary records the failure
    with open(tmp_path / "metrics.csv") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    assert lines[0] == "seed,task_index,eval_task,accuracy"
    assert len(lines) == 2 and lines[1].startswith("0,1,1,")
    with open(tmp_path / "summary.json") as fh:
        s = json.load(fh)
    assert "error" in s and "mid-run failure" in s["error"]


def test_summary_records_what_a_seed_reproduces_under(tmp_path, monkeypatch):
    import otcl.harness as hz

    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    threads = {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    run_experiment(tiny_run_config(out_dir=str(tmp_path / "ok")))

    def no_data(cfg):
        raise ValueError("no data")

    monkeypatch.setattr(hz, "_load_dataset", no_data)
    with pytest.raises(ValueError, match="no data"):
        run_experiment(tiny_run_config(out_dir=str(tmp_path / "failed")))
    for run in ("ok", "failed"):
        with open(tmp_path / run / "summary.json") as fh:
            env = json.load(fh)["environment"]
        assert env["numpy"] == np.__version__
        assert env["threads"] == threads | {"MKL_NUM_THREADS": None}
        assert env["blas"] is None or set(env["blas"]) == {"name", "version"}



ONE_THREAD_RUN = """
import hashlib, json
import numpy as np
from otcl.data import SynthSpec
from otcl.harness import RunConfig, run_experiment
from otcl.losses import PreservationConfig
from otcl.model import load_checkpoint

centers = np.random.default_rng(0).random((4, 1, 784))
spec = SynthSpec(num_classes=4, modes_per_class=1, mode_centers=centers, mode_scale=0.3,
                 samples_per_class=60, seed=0)
# lr_theta 0.01, as the benchmark runs this shape: the default diverges here
mats, summary = run_experiment(RunConfig(synth=spec, num_tasks=2, classes_per_task=2,
                                         memory_size=40, out_dir="out",
                                         preservation=PreservationConfig(lr_theta=0.01)))
groups, _ = load_checkpoint("out/checkpoint_seed0.npz")
digest = hashlib.sha256(mats[0].values.tobytes())
for group in sorted(groups):
    for name in sorted(groups[group]):
        digest.update(groups[group][name].tobytes())
print(json.dumps([digest.hexdigest(), summary["environment"]["blas_threads_pinned"]]))
"""


def test_a_run_gives_the_one_thread_bytes_whatever_the_environment(tmp_path):
    """A 784 -> 400 -> 400 -> 128 run with the BLAS thread variables unset
    (numpy's OpenBLAS then starts one thread per CPU) gives the accuracy
    matrix and checkpoint bytes of a run under OPENBLAS_NUM_THREADS=1. Each
    run is its own process: the variable is read when numpy loads. On a
    1-CPU machine both runs start on one thread, and only the record is
    checked."""
    from otcl import model

    if model._openblas() is None:
        pytest.skip("numpy's bundled OpenBLAS is not loaded: a run cannot pin another BLAS")
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "PYTHONPATH")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    unset = {k: v for k, v in os.environ.items() if k not in names} | {"PYTHONPATH": src}
    outputs = []
    for i, env in enumerate((unset, unset | {"OPENBLAS_NUM_THREADS": "1"})):
        (tmp_path / str(i)).mkdir()
        proc = subprocess.run(
            [sys.executable, "-c", ONE_THREAD_RUN], cwd=tmp_path / str(i), env=env,
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    assert outputs[0] == outputs[1]
    assert outputs[0][1] == 1


NO_MASKED_ARRAYS_RUN = """
import json, sys

import numpy as np

at_import = "numpy.ma" in sys.modules

from otcl.data import SynthSpec, ring_centers, write_idx
from otcl.harness import MNIST_FILES, RunConfig, run_experiment

rng = np.random.default_rng(0)
tiles = rng.integers(0, 256, size=(4, 1, 8, 8))
for split, n in (("train", 20), ("test", 5)):
    images = np.clip(tiles + rng.integers(-12, 13, size=(4, n, 8, 8)), 0, 255)
    write_idx(MNIST_FILES[split + "_images"], MNIST_FILES[split + "_labels"],
              images.reshape(-1, 8, 8), np.repeat(np.arange(4), n))
spec = SynthSpec(4, 2, ring_centers(4, 2, radius=1.0), 0.3, 30)
tiny = dict(num_tasks=2, memory_size=20, feat_dim=8, hidden_dim=16, out_dir="out")
run_experiment(RunConfig(dataset="mnist", data_dir=".", **tiny))
run_experiment(RunConfig(synth=spec, **tiny))
print(json.dumps([at_import, "numpy.ma" in sys.modules]))
"""


def test_a_run_never_imports_masked_arrays(tmp_path):
    """An IDX run and a synthetic run, set-up included, import no
    `numpy.ma`: a plain `np.unique` would, and that import costs a fresh
    process about 5 ms before its first batch. The run is its own process,
    at one BLAS thread, so nothing imported earlier hides the import."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = os.environ | {"PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                        "MKL_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-c", NO_MASKED_ARRAYS_RUN], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    at_import, after_run = json.loads(proc.stdout.strip().splitlines()[-1])
    if at_import:
        pytest.skip("this numpy imports numpy.ma with numpy itself")
    assert not after_run


def test_a_run_holds_one_blas_thread_and_restores_the_count(tmp_path, monkeypatch):
    import otcl.harness as hz
    from otcl import model

    if model._openblas() is None:
        pytest.skip("numpy's bundled OpenBLAS is not loaded: nothing to pin")
    get, set_ = model._openblas()
    outer, during = get(), []
    load = hz._load_dataset

    def load_and_look(cfg):
        during.append(get())
        return load(cfg)

    def look_and_fail(cfg):
        during.append(get())
        raise ValueError("no data")

    try:
        set_(2)  # stays 1 where OpenBLAS started one thread
        before = get()
        monkeypatch.setattr(hz, "_load_dataset", load_and_look)
        _, summary = run_experiment(tiny_run_config(out_dir=str(tmp_path / "ok")))
        assert get() == before
        monkeypatch.setattr(hz, "_load_dataset", look_and_fail)
        with pytest.raises(ValueError, match="no data"):
            run_experiment(tiny_run_config(out_dir=str(tmp_path / "failed")))
        assert get() == before
    finally:
        set_(outer)
    assert during == [1, 1]
    assert summary["environment"]["blas_threads_pinned"] == 1
    for run in ("ok", "failed"):
        with open(tmp_path / run / "summary.json") as fh:
            assert json.load(fh)["environment"]["blas_threads_pinned"] == 1


@pytest.mark.parametrize("library", [None, object], ids=["no-library", "no-symbols"])
def test_blas_record_is_null_where_the_lookup_fails(library, tmp_path, monkeypatch):
    from otcl import model

    def cdll(path):
        if library is None:
            raise OSError(f"{path}: cannot open shared object file")
        return library()

    monkeypatch.setattr(model.ctypes, "CDLL", cdll)
    lookup = model._openblas.__wrapped__  # the lookup, not its cached result
    assert lookup() is None
    monkeypatch.setattr(model, "_openblas", lookup)
    assert model.blas_threads() is None
    _, summary = run_experiment(tiny_run_config(out_dir=str(tmp_path)))
    with open(tmp_path / "summary.json") as fh:
        written = json.load(fh)["environment"]
    assert summary["environment"]["blas_threads_pinned"] is written["blas_threads_pinned"] is None


def test_summary_keys_in_order_for_both_outcomes(tmp_path, monkeypatch):
    """A finished run's summary and a failed run's share their first three
    keys; then come the means and stds, or the error, and the wall time."""
    import otcl.harness as hz

    shared = ["config", "environment", "per_seed"]
    _, returned = run_experiment(tiny_run_config(out_dir=str(tmp_path / "ok")))
    with open(tmp_path / "ok" / "summary.json") as fh:
        written = json.load(fh)
    finished = shared + [
        "mean_avg_accuracy", "std_avg_accuracy", "mean_avg_forgetting", "std_avg_forgetting",
        "wall_clock_seconds",
    ]
    assert list(returned) == list(written) == finished

    real = hz._run_single_seed

    def flaky(cfg, seed, train, test_batches, on_row):
        if seed == 1:
            raise ValueError("synthetic mid-run failure")
        return real(cfg, seed, train, test_batches, on_row)

    monkeypatch.setattr(hz, "_run_single_seed", flaky)
    with pytest.raises(ValueError, match="mid-run failure"):
        run_experiment(tiny_run_config(out_dir=str(tmp_path / "failed"), seeds=(0, 1)))
    with open(tmp_path / "failed" / "summary.json") as fh:
        failed = json.load(fh)
    assert list(failed) == shared + ["error", "wall_clock_seconds"]
    assert list(failed["per_seed"]) == ["0"]

def test_summary_blas_is_null_where_numpy_cannot_report_it(monkeypatch):
    import otcl.harness as hz

    def show_config():
        """numpy < 1.26's signature: no mode."""

    monkeypatch.setattr(np, "show_config", show_config)
    assert hz._environment()["blas"] is None


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow on the way to the error
def test_numerics_error_carries_seed_task_and_batch(tmp_path):
    cfg = tiny_run_config(
        out_dir=str(tmp_path), seeds=(3,), otmm=OtmmConfig(n_mix_samples=8, lr_mix=1e300)
    )
    with pytest.raises(NumericsError) as info:
        run_experiment(cfg)
    err = info.value
    assert (err.seed, err.task, err.batch) == (3, 1, 1)
    assert (err.class_id, err.phase) == (0, "mixture")
    assert err.param in ("alpha", "mu", "log_sigma")
    assert str(err).startswith("seed 3 task 1 batch 1: class 0: non-finite mixture step")
    with open(tmp_path / "summary.json") as fh:
        s = json.load(fh)
    assert "seed 3 task 1 batch 1: class" in s["error"]
    with open(tmp_path / "metrics.csv") as fh:
        assert fh.read().strip() == "seed,task_index,eval_task,accuracy"


def test_a_failed_seed_does_not_end_the_experiment(tmp_path, monkeypatch):
    """Seed 3 fails at the first batch of task 2; seed 0 still runs, and
    every output of it is byte for byte that of a run of seed 0 alone."""
    import otcl.harness as hz

    real_run, real_step = hz._run_single_seed, hz.otmm_step
    running = []

    def tracked(cfg, seed, *args, **kwargs):
        running.append(seed)
        return real_run(cfg, seed, *args, **kwargs)

    def failing_in_seed_3(by_class, state, *args):
        if running[-1] == 3 and state.known() and set(by_class) - set(state.known()):
            raise NumericsError("class 0: injected", class_id=0, phase="mixture", param="alpha")
        return real_step(by_class, state, *args)

    monkeypatch.setattr(hz, "_run_single_seed", tracked)
    monkeypatch.setattr(hz, "otmm_step", failing_in_seed_3)
    spec = SynthSpec(
        num_classes=4, modes_per_class=1, mode_centers=ring_centers(4, 1, radius=4.0),
        mode_scale=0.3, samples_per_class=200, seed=0,
    )
    runs = {}
    for name, seeds in (("both", (3, 0)), ("alone", (0,))):
        cfg = tiny_run_config(
            out_dir=str(tmp_path / name), synth=spec, num_tasks=2, seeds=seeds,
            eval_every_batch=True,
        )
        if name == "alone":
            runs[name] = run_experiment(cfg)[1]
            continue
        with pytest.raises(NumericsError) as info:
            run_experiment(cfg)
        with open(tmp_path / name / "summary.json") as fh:
            runs[name] = json.load(fh)
    assert running == [3, 0, 0]
    err = info.value
    assert (err.seed, err.task, err.batch, err.class_id, err.phase, err.param) == (
        3, 2, 1, 0, "mixture", "alpha"
    )
    assert str(err) == "seed 3 task 2 batch 1: class 0: injected"

    both, alone = runs["both"], runs["alone"]
    assert list(both["per_seed"]) == ["3", "0"]
    assert both["per_seed"]["3"] == {
        "error": str(err), "seed": 3, "task": 2, "batch": 1,
        "class_id": 0, "phase": "mixture", "param": "alpha",
    }
    assert both["per_seed"]["0"] == alone["per_seed"]["0"]
    means = ["mean_avg_accuracy", "std_avg_accuracy", "mean_avg_forgetting", "std_avg_forgetting"]
    assert list(both) == ["config", "environment", "per_seed"] + means + [
        "failed", "failed_seeds", "error", "wall_clock_seconds"
    ]
    assert {k: both[k] for k in means} == {k: alone[k] for k in means}
    assert (both["failed"], both["failed_seeds"]) == (1, [3])
    assert both["error"] == repr(err)

    with open(tmp_path / "both" / "metrics.csv") as fh:
        lines = fh.read().splitlines()
    with open(tmp_path / "alone" / "metrics.csv") as fh:
        solo = fh.read().splitlines()
    assert [ln.split(",")[:3] for ln in lines[1:2]] == [["3", "1", "1"]]  # seed 3's task 1
    assert lines[:1] + lines[2:] == solo
    assert not (tmp_path / "both" / "checkpoint_seed3.npz").exists()
    assert not (tmp_path / "both" / "curve_seed3.csv").exists()
    curve = "curve_seed0.csv"
    assert (tmp_path / "both" / curve).read_bytes() == (tmp_path / "alone" / curve).read_bytes()
    # the npz zip entries carry their write time: compare the arrays
    (got, got_meta), (want, want_meta) = (
        load_checkpoint(str(tmp_path / name / "checkpoint_seed0.npz")) for name in ("both", "alone")
    )
    assert got_meta == want_meta and got.keys() == want.keys()
    for group, arrays in want.items():
        assert arrays.keys() == got[group].keys()
        for param, arr in arrays.items():
            assert got[group][param].tobytes() == arr.tobytes(), (group, param)


def test_any_other_error_ends_the_run_at_once(tmp_path, monkeypatch):
    import otcl.harness as hz

    running = []

    def broken(cfg, seed, *args, **kwargs):
        running.append(seed)
        raise KeyError("a bug, not one seed's numerics")

    monkeypatch.setattr(hz, "_run_single_seed", broken)
    with pytest.raises(KeyError):
        run_experiment(tiny_run_config(out_dir=str(tmp_path), seeds=(3, 0)))
    assert running == [3]
    with open(tmp_path / "summary.json") as fh:
        assert "a bug" in json.load(fh)["error"]


def test_missing_mnist_dir_raises_file_not_found(tmp_path):
    cfg = tiny_run_config(dataset="mnist", synth=None, data_dir=str(tmp_path / "nope"))
    with pytest.raises(FileNotFoundError):
        run_experiment(cfg)


def test_idx_dataset_runs_end_to_end(tmp_path):
    # image-shaped dataset through the IDX loader: 10 classes of constant
    # 8x8 tiles at distinct grey levels, easily separable
    from otcl.data import write_idx
    from otcl.harness import MNIST_FILES

    rng = default_rng(0)
    data_dir = tmp_path / "idx"
    data_dir.mkdir()
    patterns = rng.integers(0, 256, size=(10, 8, 8))

    def build(n_per_class):
        images, labels = [], []
        for c in range(10):
            tiles = np.clip(
                patterns[c] + rng.integers(-12, 13, size=(n_per_class, 8, 8)), 0, 255
            ).astype(np.uint8)
            images.append(tiles)
            labels += [c] * n_per_class
        return np.concatenate(images), np.array(labels)

    tr_imgs, tr_labs = build(20)
    te_imgs, te_labs = build(5)
    write_idx(data_dir / MNIST_FILES["train_images"],
              data_dir / MNIST_FILES["train_labels"], tr_imgs, tr_labs)
    write_idx(data_dir / MNIST_FILES["test_images"],
              data_dir / MNIST_FILES["test_labels"], te_imgs, te_labs)

    cfg = tiny_run_config(
        out_dir=str(tmp_path / "out"),
        dataset="mnist",
        synth=None,
        data_dir=str(data_dir),
        num_tasks=5,
        memory_size=60,
    )
    mats, summary = run_experiment(cfg)
    assert mats[0].values.shape == (5, 5)
    assert summary["mean_avg_accuracy"] >= 0.7  # far above the 0.1 chance level
    assert (tmp_path / "out" / "metrics.csv").exists()


# ------------------------------------------------------------- the learner


def ring_run_config(**overrides):
    """Two tasks of two classes on a small ring, two centroids per class."""
    spec = SynthSpec(
        num_classes=4, modes_per_class=2, mode_centers=ring_centers(4, 2, radius=1.0),
        mode_scale=0.3, samples_per_class=60, seed=0,
    )
    return tiny_run_config(synth=spec, num_tasks=2, n_centroids=2, **overrides)


def ring_run_inputs(cfg):
    from otcl.data import gen_synthetic, split_tasks

    train, test = gen_synthetic(cfg.synth)
    return train, split_tasks(test, cfg.num_tasks, cfg.classes_per_task)


def test_each_task_end_scores_from_fresh_products(monkeypatch):
    """The curve's mid-task evaluations keep first-layer products, which each
    batch's preservation step updates; `end_task` drops every one, so each
    accuracy-matrix row forms its products afresh."""
    import otcl.harness as hz

    cfg = ring_run_config(eval_every_batch=True)
    train, test_batches = ring_run_inputs(cfg)
    kept, dropped, end_task = [], [], hz.Learner.end_task

    def checked(learner, t_idx):
        kept.append(len(learner.fe._products))
        end_task(learner, t_idx)
        dropped.append(not learner.fe._products)

    monkeypatch.setattr(hz.Learner, "end_task", checked)
    hz._run_single_seed(cfg, 0, train, test_batches)
    assert kept == [1, 2] and dropped == [True, True]


def test_checkpoint_round_trip_keeps_the_group_layout(tmp_path):
    import otcl.harness as hz

    cfg = ring_run_config()
    train, test_batches = ring_run_inputs(cfg)
    _, learner = hz._run_single_seed(cfg, 0, train, test_batches)
    learner.save(str(tmp_path / "a"))
    fe, state, protos, meta = load_model(str(tmp_path / "a" / "checkpoint_seed0.npz"))

    reloaded = hz.Learner(cfg, 0, meta["input_dim"])
    reloaded.fe, reloaded.state, reloaded.protos = fe, state, protos
    reloaded.save(str(tmp_path / "b"))

    groups, meta_a = load_checkpoint(str(tmp_path / "a" / "checkpoint_seed0.npz"))
    assert set(groups) == {"extractor", "prototypes"} | {
        f"{g}_{c}" for c in range(4) for g in ("mixture", "potential")
    }
    assert meta_a == meta
    # same manifest, same arrays, same order: the file is bytewise the first
    assert (tmp_path / "b" / "checkpoint_seed0.npz").read_bytes() == (
        tmp_path / "a" / "checkpoint_seed0.npz"
    ).read_bytes()


def test_a_stored_state_saves_the_checkpoint_of_standalone_copies(tmp_path):
    # The run's mixtures and potentials are views on the transport store. Its
    # checkpoint is byte for byte the one written from standalone objects
    # holding the same values, as every checkpoint was laid out before the
    # store; that file loads back into a store and scores as the run did.
    import otcl.harness as hz
    from otcl.mixture import DualPotential
    from otcl.model import restore_params, save_checkpoint

    cfg = ring_run_config()
    train, test_batches = ring_run_inputs(cfg)
    _, learner = hz._run_single_seed(cfg, 0, train, test_batches)
    learner.save(str(tmp_path / "stored"))
    _, meta = load_checkpoint(str(tmp_path / "stored" / "checkpoint_seed0.npz"))

    state = learner.state
    groups = {"extractor": learner.fe.params, "prototypes": learner.protos.params}
    for c in state.known():
        mix, phi = ClassMixture(cfg.n_centroids, cfg.feat_dim), DualPotential(cfg.feat_dim)
        restore_params(mix.params, {n: t.data for n, t in state.mixtures[c].params.items()})
        restore_params(phi.params, {n: t.data for n, t in state.potentials[c].params.items()})
        assert not np.shares_memory(mix.params["mu"].data, state.mixture_rows)
        groups[f"mixture_{c}"], groups[f"potential_{c}"] = mix.params, phi.params
    (tmp_path / "alone").mkdir()
    save_checkpoint(str(tmp_path / "alone" / "checkpoint_seed0.npz"), groups, meta)
    assert (tmp_path / "alone" / "checkpoint_seed0.npz").read_bytes() == (
        tmp_path / "stored" / "checkpoint_seed0.npz"
    ).read_bytes()

    fe, loaded, _, _ = load_model(str(tmp_path / "alone" / "checkpoint_seed0.npz"))
    assert loaded.known() == state.known() and loaded.n_classes == 4
    assert loaded.mixture_rows.tobytes() == state.mixture_rows.tobytes()
    assert loaded.potential_rows.tobytes() == state.potential_rows.tobytes()
    assert np.shares_memory(loaded.mixtures[3].params["mu"].data, loaded.mixture_rows)
    assert hz.evaluate_tasks(test_batches, fe, loaded.mixtures) == learner.evaluate(test_batches)


def test_the_transport_step_gets_the_joint_batch_by_class(monkeypatch):
    # observe hands otmm_step the features of the stream batch and the replay
    # draw together, one array per class in ascending class order: bytewise
    # {c: feats[y == c]} of the joint batch
    import otcl.harness as hz
    from otcl.data import make_split_stream

    cfg = ring_run_config()
    train, _ = ring_run_inputs(cfg)
    stream = make_split_stream(train, cfg.num_tasks, cfg.classes_per_task, cfg.batch_size, seed=0)
    learner = hz.Learner(cfg, 0, train.features.shape[1])
    preserve, step = hz.dynamic_preservation_step, hz.otmm_step
    joint, checked = [], []

    def keep_joint(batch, replay, *args):
        joint.append((batch, replay))
        return preserve(batch, replay, *args)

    def check_by_class(by_class, state, *args):
        batch, replay = joint[-1]
        x, y = batch.features, batch.labels
        if replay is not None:
            x, y = np.concatenate([x, replay.features]), np.concatenate([y, replay.labels])
        feats = learner.fe.features_np(x)
        want = {int(c): feats[y == c] for c in np.unique(y)}
        assert list(by_class) == list(want)
        for c, rows in want.items():
            assert by_class[c].dtype == np.float64
            assert by_class[c].tobytes() == rows.tobytes()
        checked.append(len(y))
        return step(by_class, state, *args)

    monkeypatch.setattr(hz, "dynamic_preservation_step", keep_joint)
    monkeypatch.setattr(hz, "otmm_step", check_by_class)
    for t_idx, task in enumerate(stream.tasks):
        for batch in task.batches:
            learner.observe(batch)
        learner.end_task(t_idx)
    assert len(checked) == len(joint) == sum(len(task.batches) for task in stream.tasks)
    # the draws held classes that the stream batch did not
    assert any(r is not None and set(r.labels.tolist()) - set(b.labels.tolist()) for b, r in joint)


# The benchmark (perfbench/) times and counts the run by rebinding these
# `harness` module globals at run time; its probes are imported here, never
# changed.
PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
HOOKED = ("dynamic_preservation_step", "otmm_step", "evaluate_task")


@pytest.fixture
def probes(monkeypatch):
    """perfbench/probes.py, with the hooked globals restored after the test."""
    import importlib.util

    import otcl.harness as hz

    for name in HOOKED:
        monkeypatch.setattr(hz, name, getattr(hz, name))
    spec = importlib.util.spec_from_file_location(
        "perfbench_probes", os.path.join(PERFBENCH, "probes.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("eval_every_batch", [False, True])
def test_benchmark_hooks_see_every_call(probes, monkeypatch, eval_every_batch):
    import otcl.harness as hz
    from otcl.data import make_split_stream

    cfg = ring_run_config(eval_every_batch=eval_every_batch)
    train, test_batches = ring_run_inputs(cfg)
    plain, _ = hz._run_single_seed(cfg, 0, train, test_batches)

    states, evaluated, hooks = [], [], {}
    step, evaluate, make_learner = hz.otmm_step, hz.evaluate_task, hz.Learner

    def keep_state(by_class, state, *args):  # perfbench/child.py's shape
        states.append(state)
        return step(by_class, state, *args)

    def counted(*args):  # positional, as the tracer reads args[0]
        evaluated.append(len(args[0]))
        return evaluate(*args)

    def hooked_after_init(*args):
        # the hooks go in once the learner exists: a step bound before the
        # call (on the class, the instance or as a default) escapes them
        learner = make_learner(*args)
        hooks["clock"] = probes.BatchClock(hz)
        hz.otmm_step, hz.evaluate_task = keep_state, counted
        return learner

    monkeypatch.setattr(hz, "Learner", hooked_after_init)
    acc, learner = hz._run_single_seed(cfg, 0, train, test_batches)

    stream = make_split_stream(train, cfg.num_tasks, cfg.classes_per_task, cfg.batch_size, seed=0)
    per_task = [len(task.batches) for task in stream.tasks]
    clock = hooks["clock"]
    assert len(clock.pre) == len(states) == sum(per_task)
    assert clock.extractor is learner.fe
    assert all(s is learner.state for s in states)
    T = cfg.num_tasks
    per_batch = sum((t + 1) * n for t, n in enumerate(per_task)) if eval_every_batch else 0
    assert len(evaluated) == T * (T + 1) // 2 + per_batch
    assert acc.values.tobytes() == plain.values.tobytes()


def test_benchmark_stop_leaves_run_experiment(probes, tmp_path):
    import otcl.harness as hz

    clock = probes.BatchClock(hz, stop_at_batch=3)
    with pytest.raises(probes.StopRun):
        run_experiment(ring_run_config(out_dir=str(tmp_path)))
    assert len(clock.pre) == 3
    with open(tmp_path / "summary.json") as fh:
        assert json.load(fh)["error"] == "StopRun()"


STANDALONE_RUN = """
import importlib, importlib.util, pkgutil, sys
import otcl
for info in pkgutil.iter_modules(otcl.__path__):
    importlib.import_module("otcl." + info.name)
assert importlib.util.find_spec("oracles") is None
assert importlib.util.find_spec("otcl.ot_ref") is None

from otcl import autodiff, cli
from otcl.data import SynthSpec, ring_centers
from otcl.harness import RunConfig, run_experiment

def refuse(loss):
    raise AssertionError("a run built an autodiff graph")

autodiff.backward = refuse
spec = SynthSpec(num_classes=4, modes_per_class=1, mode_centers=ring_centers(4, 1, radius=4.0),
                 mode_scale=0.3, samples_per_class=60, seed=0)
run_experiment(RunConfig(synth=spec, num_tasks=2, classes_per_task=2, memory_size=20,
                         feat_dim=4, hidden_dim=8, out_dir="out"))
assert cli.main(["gen-synth", "--out", "toy.npz", "--num-classes", "4"]) == 0
sys.exit(cli.main(["eval", "--checkpoint", "out/checkpoint_seed0.npz", "--synth-npz", "toy.npz"]))
"""


def test_package_stands_alone_and_a_run_builds_no_graph(tmp_path):
    """`otcl` imports, runs and evaluates with only `src/` on the path, so no
    test oracle is shipped or needed, and no step calls `backward`: the
    tier-1 twin of the benchmark smokes' `backward_calls == 0` gate."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"} | {"PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", STANDALONE_RUN], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
