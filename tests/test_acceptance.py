"""Acceptance checklist: one test per shipping criterion, pinned tolerances.

The Split-MNIST items (a01-a04, a06) need the four IDX files. They are looked
up under $OTCL_MNIST_DIR (default: data/mnist at the repo root) and the tests
skip with instructions when the files are absent — they are real experiments,
not simulations, and cannot run without the data.

Everything here is deterministic: seeds, schedules, and tolerances are pinned.
"""

import inspect
import os
from functools import lru_cache

import numpy as np
import pytest
from numpy.random import default_rng

import oracles.graph as ad
from oracles import (draw_mixture_noise, dual_objective, finite_diff_check, gumbel_softmax_sample,
                     loss_compression, loss_separation, phi_tilde)
from oracles.ot_ref import DiscreteMeasure, exact_ot_uniform, sinkhorn_distance
from otcl.autodiff import Tensor
from otcl.data import Batch, SynthSpec, gen_synthetic, make_split_stream, ring_centers
from otcl.harness import MNIST_FILES, RunConfig, predict, run_experiment
from otcl.losses import PreservationConfig, compute_mean_prototypes
from otcl.mixture import ClassMixture, DualPotential, OtmmConfig
from otcl.model import ClassPrototypes, FeatureExtractor
from otcl.replay import (
    ReplayMemory,
    insert_random,
    insert_with_centroids,
    rebalance_quotas,
    sample_replay_batch,
)

# --------------------------------------------------------------- MNIST gate

MNIST_DIR = os.environ.get(
    "OTCL_MNIST_DIR",
    os.path.join(os.path.dirname(__file__), os.pardir, "data", "mnist"),
)


def _mnist_present() -> bool:
    return all(
        os.path.exists(os.path.join(MNIST_DIR, name)) for name in MNIST_FILES.values()
    )


needs_mnist = pytest.mark.skipif(
    not _mnist_present(),
    reason=(
        f"Split-MNIST IDX files not found in {os.path.abspath(MNIST_DIR)!r}; "
        "set OTCL_MNIST_DIR to a directory containing "
        + ", ".join(sorted(MNIST_FILES.values()))
        + " to run the end-to-end accuracy checks"
    ),
)


@lru_cache(maxsize=None)
def _split_mnist_summary(memory_size: int, seeds: tuple, random_insertion: bool):
    cfg = RunConfig(
        dataset="mnist",
        data_dir=MNIST_DIR,
        num_tasks=5,
        classes_per_task=2,
        memory_size=memory_size,
        batch_size=10,
        n_centroids=1,
        feat_dim=128,
        hidden_dim=400,
        seeds=seeds,
        random_insertion=random_insertion,
    )
    _, summary = run_experiment(cfg)
    return summary


# ------------------------------------------------- a01-a04, a06: Split-MNIST


@needs_mnist
def test_a01_split_mnist_m1500_mean_accuracy_and_runtime():
    s = _split_mnist_summary(1500, (0, 1, 2), False)
    assert s["mean_avg_accuracy"] >= 0.905
    assert s["wall_clock_seconds"] <= 1800.0


@needs_mnist
def test_a02_split_mnist_m500_mean_accuracy():
    s = _split_mnist_summary(500, (0, 1, 2), False)
    assert s["mean_avg_accuracy"] >= 0.875


@needs_mnist
def test_a03_split_mnist_m100_mean_accuracy():
    s = _split_mnist_summary(100, (0, 1, 2), False)
    assert s["mean_avg_accuracy"] >= 0.72


@needs_mnist
def test_a04_split_mnist_m1500_mean_forgetting():
    s = _split_mnist_summary(1500, (0, 1, 2), False)
    assert s["mean_avg_forgetting"] <= 0.12


@needs_mnist
def test_a06_centroid_insertion_not_worse_than_random():
    seeds = (0, 1, 2, 3, 4)
    centroid = _split_mnist_summary(500, seeds, False)
    random_ = _split_mnist_summary(500, seeds, True)
    assert centroid["mean_avg_accuracy"] >= random_["mean_avg_accuracy"]


# ------------------------------------------- a05: multi-centroid benefit


def test_a05_four_centroids_beat_one_on_multimodal_stream():
    # ten classes, four well-separated modes each, interleaved on a ring so
    # every class mean collapses toward the origin; five 2-class tasks
    spec = SynthSpec(
        num_classes=10,
        modes_per_class=4,
        mode_centers=ring_centers(10, 4, radius=1.0),
        mode_scale=0.03,
        samples_per_class=400,
        seed=0,
    )
    otmm = OtmmConfig(
        epsilon=1.0,
        tau=0.05,
        n_phi_steps=5,
        n_mix_steps=2,
        n_mix_samples=64,
        lr_phi=0.03,
        lr_mix=0.02,
    )

    def mean_acc(n_centroids):
        cfg = RunConfig(
            dataset="synth",
            synth=spec,
            num_tasks=5,
            classes_per_task=2,
            memory_size=100,
            batch_size=10,
            n_centroids=n_centroids,
            feat_dim=8,
            hidden_dim=32,
            seeds=(0, 1, 2, 3, 4),
            otmm=otmm,
        )
        _, summary = run_experiment(cfg)
        return summary["mean_avg_accuracy"]

    gap = mean_acc(4) - mean_acc(1)
    assert gap >= 0.02, f"multi-centroid gap {gap:+.4f} below 2 accuracy points"


# ------------------------------------- a07: dual value vs transport oracles


def _exact_dual_value(zb_np, atoms_np, w_np, phi, epsilon):
    """Semi-dual objective with the mixture expectation enumerated exactly."""
    zb = Tensor(zb_np)
    conj = phi_tilde(Tensor(atoms_np), zb, phi, epsilon)
    return ad.add(ad.tmean(phi.forward(zb)), ad.tsum(ad.mul(Tensor(w_np), conj)))


def _ascend_exact_dual(zb, atoms, w, epsilon, seed):
    phi = DualPotential(zb.shape[1], seed=seed)
    for lr, steps in ((0.2, 300), (0.05, 300), (0.01, 400)):
        for _ in range(steps):
            phi.params.zero_grad()
            value = _exact_dual_value(zb, atoms, w, phi, epsilon)
            ad.backward(ad.neg(value))  # ascend: descend the negation
            phi.params.step(lr)
    return float(_exact_dual_value(zb, atoms, w, phi, epsilon).data)


def test_a07_dual_matches_sinkhorn_and_sinkhorn_matches_exact():
    # part 1: potential ascent reaches the Sinkhorn value within 5% relative
    # on 20 random instances with at most 8 atoms per side, at both epsilons
    rng = default_rng(123)
    for epsilon in (0.1, 1.0):
        for i in range(20):
            n = int(rng.integers(2, 9))
            m = int(rng.integers(2, 9))
            d = int(rng.integers(2, 4))
            zb = rng.normal(size=(n, d))
            atoms = rng.normal(size=(m, d))
            w = rng.dirichlet(np.ones(m))
            sink, _ = sinkhorn_distance(
                DiscreteMeasure.uniform(zb), DiscreteMeasure(atoms, w), epsilon
            )
            dual = _ascend_exact_dual(zb, atoms, w, epsilon, seed=i)
            rel = abs(dual - sink) / abs(sink)
            assert rel <= 0.05, f"eps={epsilon} instance {i}: rel err {rel:.4f}"

    # part 2: Sinkhorn at eps=0.01 reproduces the unregularized optimum
    # (permutation enumeration) within 1% on uniform instances, n <= 5
    rng = default_rng(321)
    for i in range(10):
        n = int(rng.integers(2, 6))
        d = int(rng.integers(2, 4))
        a = rng.normal(size=(n, d))
        b = rng.normal(size=(n, d))
        b[:, 0] += 3.0  # separated clouds keep the value well away from zero
        P, Q = DiscreteMeasure.uniform(a), DiscreteMeasure.uniform(b)
        exact = exact_ot_uniform(P, Q)
        sink, _ = sinkhorn_distance(P, Q, 0.01, tol=1e-7)
        rel = abs(sink - exact) / abs(exact)
        assert rel <= 0.01, f"instance {i}: rel err {rel:.4f}"


# ----------------------------------------------- a08: gradient correctness


def test_a08_every_loss_passes_finite_difference_checks():
    tol = 1e-4
    rng = default_rng(7)

    # separation loss through the extractor and the aligned prototypes
    fe = FeatureExtractor(3, 4, seed=0, hidden=6)
    protos = ClassPrototypes(4)
    protos.init_new_classes([0, 1], seed=0)
    x = rng.normal(size=(6, 3))
    labels = np.array([0, 1, 0, 1, 1, 0])

    def sep_loss():
        return loss_separation(fe.forward(Tensor(x)), labels, protos)

    assert finite_diff_check(sep_loss, fe.params) <= tol
    assert finite_diff_check(sep_loss, protos.params) <= tol

    # compression loss toward frozen per-class mean anchors
    feats_now = fe.features_np(x)
    means = compute_mean_prototypes(feats_now, labels)

    def comp_loss():
        return loss_compression(fe.forward(Tensor(x)), labels, means)

    assert finite_diff_check(comp_loss, fe.params) <= tol

    # transport objective w.r.t. mixture weights, means, log-scales, and the
    # potential parameters, with one frozen noise draw shared by every probe
    mix = ClassMixture.from_features(rng.normal(size=(5, 3)), 3)
    phi = DualPotential(3, seed=1)
    cfg = OtmmConfig(epsilon=0.5, tau=0.4, n_mix_samples=16)
    zb = rng.normal(size=(6, 3))
    noise = draw_mixture_noise(16, 3, 3, default_rng(11))

    def dual_loss():
        return dual_objective(Tensor(zb), mix, phi, cfg, noise=noise)

    assert finite_diff_check(dual_loss, mix.params) <= tol
    assert finite_diff_check(dual_loss, phi.params) <= tol


# ------------------------------------------- a09: relaxed-sampler statistics


def test_a09_gumbel_softmax_statistics():
    alpha = Tensor(np.array([0.5, -0.3, 1.1]), requires_grad=True)
    target = np.exp(alpha.data) / np.exp(alpha.data).sum()

    # hard-argmax frequencies of 1e5 draws match the weights within 0.01
    n = 100_000
    g = -np.log(-np.log(default_rng(5).uniform(size=(n, 3))))
    y = gumbel_softmax_sample(alpha, tau=0.5, gumbel=g)
    freq = np.bincount(y.data.argmax(axis=1), minlength=3) / n
    np.testing.assert_allclose(freq, target, atol=0.01)

    # vanishing temperature: exactly one-hot at argmax(log pi + G)
    g_small = -np.log(-np.log(default_rng(6).uniform(size=(1000, 3))))
    y0 = gumbel_softmax_sample(alpha, tau=1e-9, gumbel=g_small)
    hard = np.eye(3)[(np.log(target) + g_small).argmax(axis=1)]
    assert np.array_equal(y0.data, hard)


# ------------------------------------------- a10: protocol property checks


def test_a10_stream_and_memory_protocol_invariants():
    rng = default_rng(99)

    # single-pass: every training sample enters the stream exactly once
    for _ in range(10):
        tasks = int(rng.integers(1, 4))
        cpt = int(rng.integers(1, 3))
        n_cls = tasks * cpt
        spec = SynthSpec(
            num_classes=n_cls,
            modes_per_class=1,
            mode_centers=ring_centers(n_cls, 1),
            mode_scale=0.1,
            samples_per_class=int(rng.integers(20, 60)),
            seed=int(rng.integers(1000)),
        )
        train, test = gen_synthetic(spec)
        stream = make_split_stream(train, tasks, cpt, batch_size=int(rng.integers(3, 9)),
                                   seed=int(rng.integers(1000)))
        seen = [
            row.tobytes()
            for task in stream.tasks
            for batch in task.batches
            for row in batch.features
        ]
        train_keys = [s.features.tobytes() for s in train]
        assert sorted(seen) == sorted(train_keys)  # exactly once each

        # no test-set leakage: stream contents are disjoint from held-out rows
        assert not set(seen) & {s.features.tobytes() for s in test}

    # capacity: total stored never exceeds the bound after any operation
    for trial in range(10):
        capacity = int(rng.integers(1, 15))
        mem = ReplayMemory(capacity, seed=trial)
        for _ in range(30):
            op = rng.integers(4)
            c = int(rng.integers(4))
            n = int(rng.integers(1, 6))
            feats = rng.normal(size=(n, 3))
            batch = Batch(features=feats, labels=np.full(n, c))
            if op == 0:
                cents = rng.normal(size=(2, 3))
                insert_with_centroids(mem, batch, feats, cents)
            elif op == 1:
                insert_random(mem, batch, n)
            elif op == 2:
                rebalance_quotas(mem, max(mem.classes_seen, 4))
            else:
                sample_replay_batch(mem, int(rng.integers(1, 8)), rng)
            assert mem.total() <= capacity

    # no task identity at inference: prediction takes only the input, the
    # extractor, and the per-class mixtures — and is stable under regrouping
    assert list(inspect.signature(predict).parameters) == ["x", "fe", "mixtures"]
    fe = FeatureExtractor(2, 4, seed=0, hidden=8)
    mixtures = {
        c: ClassMixture.from_features(rng.normal(size=(2, 4)), 2) for c in range(4)
    }
    xs = rng.normal(size=(30, 2))
    one_by_one = [predict(x, fe, mixtures) for x in xs]
    shuffled = rng.permutation(30)
    regrouped = [predict(xs[i], fe, mixtures) for i in shuffled]
    assert [one_by_one[i] for i in shuffled] == regrouped
