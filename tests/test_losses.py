import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import finite_diff_check, graph, loss_compression, loss_separation
from otcl import autodiff as ad
from otcl import losses as L
from otcl.autodiff import NumericsError, Tensor
from otcl.data import Batch
from otcl.model import ClassPrototypes, FeatureExtractor


def make_protos(feat_dim, class_ids, seed=0):
    p = ClassPrototypes(feat_dim)
    p.init_new_classes(class_ids, seed=seed)
    return p


def naive_separation(z, labels, protos):
    """Per-sample CE over all known prototypes, class-mean, summed."""
    known = protos.known()
    W = np.stack([protos.params[f"proto_{c}"].data[0] for c in known])
    per_class = {}
    for i, y in enumerate(labels):
        logits = W @ z[i]
        log_probs = logits - np.log(np.exp(logits - logits.max()).sum()) - logits.max()
        per_class.setdefault(int(y), []).append(-log_probs[known.index(int(y))])
    return sum(np.mean(v) for v in per_class.values())


class TestLossSeparation:
    def test_uniform_logits_give_ln_num_known_per_class(self):
        protos = make_protos(3, [0, 1])
        for c in (0, 1):
            protos.params[f"proto_{c}"].data[...] = 0.0
        z = Tensor(np.random.default_rng(0).normal(size=(4, 3)))
        loss = loss_separation(z, np.array([0, 0, 1, 1]), protos)
        assert loss.item() == pytest.approx(2 * np.log(2.0), abs=1e-12)

    def test_confident_correct_logit_drives_loss_to_zero(self):
        protos = make_protos(2, [0, 1])
        protos.params["proto_0"].data[...] = [[1000.0, 0.0]]
        protos.params["proto_1"].data[...] = [[0.0, 1000.0]]
        z = Tensor(np.eye(2))
        loss = loss_separation(z, np.array([0, 1]), protos)
        assert loss.item() == pytest.approx(0.0, abs=1e-12)

    def test_matches_naive_per_sample_oracle(self):
        rng = np.random.default_rng(1)
        protos = make_protos(5, [0, 1, 2], seed=1)
        z = rng.normal(size=(9, 5))
        labels = np.array([0, 1, 2, 0, 1, 2, 0, 0, 1])
        got = loss_separation(Tensor(z), labels, protos).item()
        assert got == pytest.approx(naive_separation(z, labels, protos), abs=1e-10)

    def test_denominator_covers_unseen_in_batch_classes(self):
        # class 2 has a prototype but no sample; it must still eat probability mass
        protos = make_protos(2, [0, 1, 2], seed=2)
        z = np.random.default_rng(3).normal(size=(4, 2))
        labels = np.array([0, 0, 1, 1])
        got = loss_separation(Tensor(z), labels, protos).item()
        assert got == pytest.approx(naive_separation(z, labels, protos), abs=1e-10)

    def test_empty_batch_rejected(self):
        protos = make_protos(2, [0])
        with pytest.raises(ValueError, match="empty"):
            loss_separation(Tensor(np.zeros((0, 2))), np.array([]), protos)

    def test_missing_prototype_rejected(self):
        protos = make_protos(2, [0])
        with pytest.raises(KeyError):
            loss_separation(Tensor(np.zeros((1, 2))), np.array([5]), protos)

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        protos = make_protos(3, [0, 1], seed=seed)
        z = rng.normal(size=(6, 3))
        labels = rng.integers(0, 2, size=6)
        assert loss_separation(Tensor(z), labels, protos).item() >= 0.0

    def test_gradients_match_finite_diff(self):
        rng = np.random.default_rng(4)
        fe = FeatureExtractor(3, feat_dim=2, seed=4, hidden=4)
        protos = make_protos(2, [0, 1], seed=4)
        x = Tensor(rng.normal(size=(5, 3)))
        labels = np.array([0, 1, 0, 1, 0])

        both = ad.ParamSet.union(fe.params, protos.params)  # the same tensors, one sweep

        def loss_fn():
            return loss_separation(fe.forward(x), labels, protos)

        assert finite_diff_check(loss_fn, both, h=1e-5) <= 1e-4


class TestSeparationRates:
    """The separation step's one update: extractor at lr_theta, new-class
    prototypes at lr_proto, old-class ones at lr_proto * clip_alpha."""

    @staticmethod
    def _step(clip_alpha, all_new=False, seed=0):
        """One separation step on a batch of new class 2 joined with replay
        rows of old classes 0 and 1; with `all_new` the stream batch is that
        joint batch itself, so no class is old and the gradients are the same."""
        rng = np.random.default_rng(seed)
        fe = FeatureExtractor(4, feat_dim=3, seed=seed, hidden=8)
        protos = make_protos(3, [0, 1, 2], seed=seed)
        new = Batch(rng.normal(size=(5, 4)), np.full(5, 2))
        replay = Batch(rng.normal(size=(6, 4)), np.array([0, 1] * 3))
        before = {n: t.data.copy() for n, t in protos.params.items()}
        if all_new:
            new, replay = L.join_batches(new, replay), None
        cfg = L.PreservationConfig(lr_proto=0.5, clip_alpha=clip_alpha, steps_l1=1, steps_l2=0)
        L.dynamic_preservation_step(new, replay, fe, protos, cfg)
        return fe, protos, before

    def test_alpha_zero_freezes_old_bitwise(self):
        fe, protos, before = self._step(clip_alpha=0.0)
        for c in (0, 1):
            assert protos.params[f"proto_{c}"].data.tobytes() == before[f"proto_{c}"].tobytes()
        assert not np.array_equal(protos.params["proto_2"].data, before["proto_2"])

    def test_alpha_one_treats_all_equally(self):
        damped = param_bytes(*self._step(clip_alpha=1.0)[:2])
        no_old = param_bytes(*self._step(clip_alpha=0.1, all_new=True)[:2])
        assert damped == no_old

    def test_alpha_tenth_scales_old_displacement_exactly(self):
        fe, protos, before = self._step(clip_alpha=0.1)
        fe_full, protos_full, _ = self._step(clip_alpha=1.0)
        moved = {c: protos.params[f"proto_{c}"].data - before[f"proto_{c}"] for c in (0, 1, 2)}
        full = {
            c: protos_full.params[f"proto_{c}"].data - before[f"proto_{c}"] for c in (0, 1, 2)
        }
        # reconstructed displacements carry one rounding of the subtraction
        for c in (0, 1):
            assert np.abs(full[c]).min() > 0
            np.testing.assert_allclose(moved[c], 0.1 * full[c], rtol=1e-12)
        # the new class and the extractor do not see the damping
        assert moved[2].tobytes() == full[2].tobytes()
        for name, t in fe.params.items():
            assert t.data.tobytes() == fe_full.params[name].data.tobytes()


class TestStepOverwritesGradients:
    """`ParamSet.step` does not zero the gradients it leaves: every closed
    form of `dynamic_preservation_step` must write each gradient it steps
    whole. With every gradient buffer poisoned with NaN before each call, a
    skipped element would reach the step's finite check and raise."""

    @staticmethod
    def _run(dims, poison, steps):
        input_dim, hidden, feat_dim = dims
        rng = np.random.default_rng(31)
        fe = FeatureExtractor(input_dim, feat_dim=feat_dim, seed=31, hidden=hidden)
        protos = ClassPrototypes(feat_dim)
        cfg = L.PreservationConfig(lr_theta=0.01, steps_l1=steps, steps_l2=steps)

        def rows(labels):
            return Batch(rng.random((len(labels), input_dim)), np.asarray(labels))

        # classes 0 and 1 twice, then class 2 and then 3 arrive while the
        # prototypes of the older classes exist and their replay rows join;
        # the last joint batch lacks class 1, whose prototype still steps
        stream = [
            (rows([0, 1] * 5), None),
            (rows([1, 0] * 5), None),
            (rows([2] * 10), rows([0, 1] * 5)),
            (rows([3, 2] * 5), rows([0, 1, 2, 0, 1])),
            (rows([3] * 10), rows([0, 2, 0])),
        ]
        for new, replay in stream:
            fresh = sorted(set(new.labels.tolist()) - set(protos.known()))
            if fresh:
                protos.init_new_classes(fresh, seed=int(rng.integers(2**31)))
            if poison:
                for t in fe.params.tensors() + protos.params.tensors():
                    t.grad.fill(np.nan)
            L.dynamic_preservation_step(new, replay, fe, protos, cfg)
        return param_bytes(fe, protos)

    @pytest.mark.parametrize("steps", [1, 2])
    @pytest.mark.parametrize("dims", [(6, 8, 3), (784, 400, 128)], ids=["small", "paper"])
    def test_poisoned_gradients_change_nothing(self, dims, steps):
        assert self._run(dims, True, steps) == self._run(dims, False, steps)


class TestMeanPrototypes:
    def test_single_sample_is_its_feature(self):
        f = np.array([[1.0, 2.0, 3.0]])
        means = L.compute_mean_prototypes(f, np.array([7]))
        np.testing.assert_array_equal(means[7], f[0])

    def test_symmetric_pair_averages_to_zero(self):
        f = np.array([[1.0, -2.0], [-1.0, 2.0]])
        means = L.compute_mean_prototypes(f, np.array([0, 0]))
        np.testing.assert_allclose(means[0], [0.0, 0.0], atol=1e-16)

    def test_matches_naive_average(self):
        rng = np.random.default_rng(5)
        f = rng.normal(size=(10, 4))
        labels = np.array([0, 1, 0, 2, 1, 0, 2, 2, 1, 0])
        means = L.compute_mean_prototypes(f, labels)
        for c in (0, 1, 2):
            rows = [f[i] for i in range(10) if labels[i] == c]
            naive = sum(rows) / len(rows)
            np.testing.assert_allclose(means[c], naive, atol=1e-12)

    def test_order_invariant(self):
        rng = np.random.default_rng(6)
        f = rng.normal(size=(8, 3))
        labels = np.array([0, 1, 0, 1, 0, 1, 0, 1])
        perm = rng.permutation(8)
        a = L.compute_mean_prototypes(f, labels)
        b = L.compute_mean_prototypes(f[perm], labels[perm])
        for c in (0, 1):
            np.testing.assert_allclose(a[c], b[c], atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            L.compute_mean_prototypes(np.zeros((0, 3)), np.array([]))


class TestLossCompression:
    def test_single_class_is_exactly_zero(self):
        rng = np.random.default_rng(7)
        z = rng.normal(size=(5, 3))
        means = {0: z.mean(axis=0)}
        loss = loss_compression(Tensor(z), np.zeros(5, dtype=int), means)
        assert loss.item() == 0.0

    def test_closed_form_two_classes_at_own_means(self):
        r2 = 3.7  # squared distance between the two anchors
        means = {0: np.array([0.0, 0.0]), 1: np.array([np.sqrt(r2), 0.0])}
        z = np.stack([means[0], means[1]])
        loss = loss_compression(Tensor(z), np.array([0, 1]), means)
        want = 2 * np.log(1 + np.exp(-r2))
        assert loss.item() == pytest.approx(want, rel=1e-12)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(8)
        z = rng.normal(size=(7, 4))
        labels = np.array([0, 1, 1, 0, 2, 2, 0])
        means = L.compute_mean_prototypes(z, labels)

        per_class = {}
        for i, y in enumerate(labels):
            d = {c: ((z[i] - m) ** 2).sum() for c, m in means.items()}
            denom = np.log(sum(np.exp(-v) for v in d.values()))
            per_class.setdefault(int(y), []).append(d[int(y)] + denom)
        want = sum(np.mean(v) for v in per_class.values())

        got = loss_compression(Tensor(z), labels, means).item()
        assert got == pytest.approx(want, abs=1e-10)

    def test_gradient_wrt_extractor_matches_finite_diff(self):
        rng = np.random.default_rng(9)
        fe = FeatureExtractor(3, feat_dim=2, seed=9, hidden=4)
        x = Tensor(rng.normal(size=(6, 3)))
        labels = np.array([0, 0, 1, 1, 0, 1])
        means = L.compute_mean_prototypes(fe.features_np(x.data), labels)

        def loss_fn():
            return loss_compression(fe.forward(x), labels, means)

        assert finite_diff_check(loss_fn, fe.params, h=1e-5) <= 1e-4

    def test_missing_mean_rejected(self):
        with pytest.raises(KeyError, match="mean"):
            loss_compression(
                Tensor(np.zeros((2, 2))), np.array([0, 1]), {0: np.zeros(2)}
            )

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            loss_compression(Tensor(np.zeros((0, 2))), np.array([]), {})

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        z = rng.normal(size=(6, 3))
        labels = rng.integers(0, 2, size=6)
        if len(np.unique(labels)) < 2:
            labels[0] = 1 - labels[0]
        means = L.compute_mean_prototypes(z, labels)
        assert loss_compression(Tensor(z), labels, means).item() >= -1e-12


class TestJoinBatches:
    def test_replay_rows_of_new_classes_dropped(self):
        new = Batch(np.ones((2, 3)), np.array([4, 5]))
        replay = Batch(
            np.arange(12.0).reshape(4, 3), np.array([1, 4, 2, 5])
        )
        joint = L.join_batches(new, replay)
        assert joint.labels.tolist() == [4, 5, 1, 2]
        np.testing.assert_array_equal(joint.features[2], replay.features[0])
        np.testing.assert_array_equal(joint.features[3], replay.features[2])

    def test_none_and_empty_replay(self):
        new = Batch(np.ones((2, 3)), np.array([0, 1]))
        assert L.join_batches(new, None) is new
        empty = Batch(np.zeros((0, 3)), np.array([], dtype=np.int64))
        assert L.join_batches(new, empty) is new

    def test_all_replay_dropped_when_classes_overlap_fully(self):
        new = Batch(np.ones((2, 3)), np.array([0, 1]))
        replay = Batch(np.zeros((2, 3)), np.array([1, 0]))
        assert L.join_batches(new, replay) is new


class TestDynamicPreservationStep:
    def _toy(self, seed=0):
        rng = np.random.default_rng(seed)
        fe = FeatureExtractor(2, feat_dim=2, seed=seed, hidden=8)
        protos = make_protos(2, [0, 1], seed=seed)
        x0 = rng.normal(loc=(-2.0, 0.0), scale=0.3, size=(5, 2))
        x1 = rng.normal(loc=(2.0, 0.0), scale=0.3, size=(5, 2))
        batch = Batch(
            np.concatenate([x0, x1]), np.array([0] * 5 + [1] * 5)
        )
        return fe, protos, batch

    def test_zero_steps_leave_model_bitwise_unchanged(self):
        fe, protos, batch = self._toy()
        cfg = L.PreservationConfig(steps_l1=0, steps_l2=0)
        before = {n: t.data.tobytes() for n, t in fe.params.items()}
        before |= {n: t.data.tobytes() for n, t in protos.params.items()}
        L.dynamic_preservation_step(batch, None, fe, protos, cfg)
        after = {n: t.data.tobytes() for n, t in fe.params.items()}
        after |= {n: t.data.tobytes() for n, t in protos.params.items()}
        assert after == before

    def test_separation_loss_decreases_on_separable_toy(self):
        fe, protos, batch = self._toy(seed=1)
        cfg = L.PreservationConfig(lr_theta=0.05, lr_proto=0.05, steps_l1=1, steps_l2=0)
        before = loss_separation(
            fe.forward(Tensor(batch.features)), batch.labels, protos
        ).item()
        L.dynamic_preservation_step(batch, None, fe, protos, cfg)
        after = loss_separation(
            fe.forward(Tensor(batch.features)), batch.labels, protos
        ).item()
        assert after < before

    def test_compression_tightens_clusters(self):
        fe, protos, batch = self._toy(seed=2)
        cfg = L.PreservationConfig(lr_theta=0.01, lr_proto=0.01, steps_l1=0, steps_l2=1)

        def within_class_spread():
            z = fe.features_np(batch.features)
            means = L.compute_mean_prototypes(z, batch.labels)
            return np.mean(
                [((z[i] - means[int(y)]) ** 2).sum() for i, y in enumerate(batch.labels)]
            )

        before = within_class_spread()
        L.dynamic_preservation_step(batch, None, fe, protos, cfg)
        assert within_class_spread() <= before + 1e-9

    def test_old_prototypes_move_less_under_clip(self):
        fe, protos, batch = self._toy(seed=3)
        protos.init_new_classes([2, 3], seed=3)
        new = Batch(
            np.random.default_rng(3).normal(size=(6, 2)), np.array([2, 3] * 3)
        )
        replay = batch  # classes 0, 1 act as the old data
        cfg = L.PreservationConfig(
            lr_theta=0.05, lr_proto=0.05, clip_alpha=0.0, steps_l1=2, steps_l2=0
        )
        before = {c: protos.params[f"proto_{c}"].data.copy() for c in protos.known()}
        L.dynamic_preservation_step(new, replay, fe, protos, cfg)
        for c in (0, 1):  # old: frozen at alpha = 0
            np.testing.assert_array_equal(protos.params[f"proto_{c}"].data, before[c])
        for c in (2, 3):  # new: must have moved
            assert not np.array_equal(protos.params[f"proto_{c}"].data, before[c])

    def test_traces_have_step_counts(self):
        fe, protos, batch = self._toy(seed=4)
        cfg = L.PreservationConfig(steps_l1=3, steps_l2=2)
        out = L.dynamic_preservation_step(batch, None, fe, protos, cfg)
        assert len(out["separation"]) == 3
        assert len(out["compression"]) == 2
        assert set(out["means"].keys()) == {0, 1}

    def test_config_validation(self):
        with pytest.raises(ValueError):
            L.PreservationConfig(lr_theta=0.0)
        with pytest.raises(ValueError):
            L.PreservationConfig(lr_proto=0.0)
        with pytest.raises(ValueError):
            L.PreservationConfig(clip_alpha=2.0)
        with pytest.raises(ValueError):
            L.PreservationConfig(steps_l1=-1)


# ------------------------------------------------- closed form vs autodiff


def reference_preservation_step(new_batch, replay_batch, fe, protos, cfg):
    """Autodiff oracle for L.dynamic_preservation_step: the same pass with
    each loss built as a graph (loss_separation, loss_compression over
    fe.forward) and back-propagated by ad.backward. The means come from the
    graph's forward too, so nothing here runs the numpy forward."""
    joint = L.join_batches(new_batch, replay_batch)
    new_classes = set(new_batch.labels.tolist())
    old_classes = [c for c in protos.known() if c not in new_classes]

    x = Tensor(joint.features)
    sep_trace, comp_trace = [], []

    for _ in range(cfg.steps_l1):
        z = fe.forward(x)
        loss = loss_separation(z, joint.labels, protos)
        sep_trace.append(loss.item())
        fe.params.zero_grad()
        protos.params.zero_grad()
        ad.backward(loss)
        fe.params.step(cfg.lr_theta)
        for c in protos.known():
            t = protos.params[f"proto_{c}"]
            factor = cfg.clip_alpha if c in old_classes else 1.0
            t.data -= cfg.lr_proto * factor * t.grad
            t.zero_grad()

    means = L.compute_mean_prototypes(fe.forward(x).data, joint.labels)

    for _ in range(cfg.steps_l2):
        z = fe.forward(x)
        loss = loss_compression(z, joint.labels, means)
        comp_trace.append(loss.item())
        fe.params.zero_grad()
        ad.backward(loss)
        fe.params.step(cfg.lr_theta)

    return {"separation": sep_trace, "compression": comp_trace, "means": means}


def class_stream(input_dim, n_steps, seed):
    """Stream batches and replay draws of a short class-incremental run.

    Three tasks of two classes over `n_steps` batches of 10 rows. Every
    fifth batch holds one class only, and the first batch of a task has no
    replay. Replay draws 8 rows from every class seen so far, the current
    ones included, so the join drops some rows and keeps others.
    """
    rng = np.random.default_rng(seed)
    centres = rng.uniform(0.0, 1.0, size=(6, input_dim))

    def rows(labels):
        noise = rng.normal(scale=0.2, size=(labels.size, input_dim))
        return Batch(np.clip(centres[labels] + noise, 0.0, 1.0), labels)

    per_task = -(-n_steps // 3)
    for s in range(n_steps):
        task = s // per_task
        pair = np.array([2 * task, 2 * task + 1])
        labels = np.full(10, pair[0]) if s % 5 == 4 else rng.choice(pair, size=10)
        replay = None
        if s % per_task:
            replay = rows(rng.integers(0, 2 * task + 2, size=8))
        yield rows(labels), replay


def twin_models(input_dim, feat_dim, hidden, seed=0):
    return [
        (FeatureExtractor(input_dim, feat_dim, seed=seed, hidden=hidden), ClassPrototypes(feat_dim))
        for _ in range(2)
    ]


def param_bytes(fe, protos):
    out = {n: t.data.tobytes() for n, t in fe.params.items()}
    out |= {n: t.data.tobytes() for n, t in protos.params.items()}
    return out


def assert_step_matches_reference(shape, steps_l1, steps_l2, clip_alpha, n_steps=21):
    input_dim, hidden, feat_dim = shape
    cfg = L.PreservationConfig(
        lr_theta=0.01, lr_proto=0.05, clip_alpha=clip_alpha, steps_l1=steps_l1, steps_l2=steps_l2
    )
    (fe, protos), (fe_ref, protos_ref) = twin_models(input_dim, feat_dim, hidden)
    for s, (batch, replay) in enumerate(class_stream(input_dim, n_steps, seed=steps_l1 + 3 * steps_l2)):
        new_ids = sorted(set(batch.labels.tolist()) - set(protos.known()))
        if new_ids:
            protos.init_new_classes(new_ids, seed=s)
            protos_ref.init_new_classes(new_ids, seed=s)
        got = L.dynamic_preservation_step(batch, replay, fe, protos, cfg)
        want = reference_preservation_step(batch, replay, fe_ref, protos_ref, cfg)
        assert param_bytes(fe, protos) == param_bytes(fe_ref, protos_ref), f"step {s}"
        assert got["means"].keys() == want["means"].keys()
        for c in want["means"]:
            assert got["means"][c].tobytes() == want["means"][c].tobytes(), f"step {s}"
        for phase in ("separation", "compression"):
            assert len(got[phase]) == len(want[phase])
            np.testing.assert_allclose(got[phase], want[phase], rtol=1e-12, atol=0)


SMALL = (8, 32, 8)
PAPER = (784, 400, 128)


@pytest.mark.parametrize("clip_alpha", [0.0, 0.1])
@pytest.mark.parametrize("steps_l2", [0, 1, 2])
@pytest.mark.parametrize("steps_l1", [0, 1, 2])
def test_step_matches_autodiff_reference_bit_for_bit(steps_l1, steps_l2, clip_alpha):
    assert_step_matches_reference(SMALL, steps_l1, steps_l2, clip_alpha)


@pytest.mark.parametrize(
    "steps_l1, steps_l2, clip_alpha", [(1, 1, 0.1), (2, 2, 0.0), (0, 2, 0.1), (2, 0, 0.0)]
)
def test_step_matches_autodiff_reference_bit_for_bit_at_paper_shape(steps_l1, steps_l2, clip_alpha):
    assert_step_matches_reference(PAPER, steps_l1, steps_l2, clip_alpha)


def closed_form_loss(value_and_grad, params):
    """Wrap a closed-form (value, grads) pair as a graph leaf whose backward
    hands out those grads, so finite_diff_check can test them against the
    closed-form value itself."""

    def loss():
        value, grads = value_and_grad()
        out = Tensor(np.array(value), _parents=tuple(params.tensors()))
        out._vjp = lambda g: tuple(g * grads[name] for name in params.names())
        return out

    return loss


def closed_form_problem(seed):
    rng = np.random.default_rng(seed)
    fe = FeatureExtractor(3, feat_dim=2, seed=seed, hidden=4)
    protos = make_protos(2, [0, 1, 2], seed=seed)
    x = rng.normal(size=(6, 3))
    labels = np.array([0, 0, 1, 1, 0, 1])
    both = ad.ParamSet.union(fe.params, protos.params)  # the same tensors, one sweep
    return fe, protos, x, labels, both


def test_closed_form_separation_gradients_pass_central_differences():
    fe, protos, x, labels, both = closed_form_problem(seed=11)

    def value_and_grad():
        z, hidden = fe.forward_np(x)
        value, gz = L.separation_value_and_grad(z, labels, protos)
        fe.backward_np(x, hidden, gz)
        grads = {name: t.grad.copy() for name, t in both.items()}
        both.zero_grad()
        return value, grads

    assert finite_diff_check(closed_form_loss(value_and_grad, both), both, h=1e-5) <= 1e-4


def test_closed_form_compression_gradients_pass_central_differences():
    fe, _, x, labels, _ = closed_form_problem(seed=12)
    means = L.compute_mean_prototypes(fe.features_np(x), labels)

    def value_and_grad():
        z, hidden = fe.forward_np(x)
        value, gz = L.compression_value_and_grad(z, labels, means)
        fe.backward_np(x, hidden, gz)
        grads = {name: t.grad.copy() for name, t in fe.params.items()}
        fe.params.zero_grad()
        return value, grads

    assert finite_diff_check(closed_form_loss(value_and_grad, fe.params), fe.params, h=1e-5) <= 1e-4


def test_features_np_is_the_training_forward():
    rng = np.random.default_rng(13)
    fe = FeatureExtractor(5, feat_dim=3, seed=13, hidden=6)
    x = rng.normal(size=(9, 5))
    np.testing.assert_array_equal(fe.features_np(x, chunk=4), fe.forward_np(x)[0])
    np.testing.assert_allclose(fe.features_np(x), fe.forward(Tensor(x)).data, rtol=0, atol=0)


# ------------------------------------------------- failures are atomic


def two_task_problem():
    """Class 0 old (replay only), class 1 new, both with prototypes."""
    rng = np.random.default_rng(14)
    fe = FeatureExtractor(4, feat_dim=3, seed=14, hidden=8)
    protos = make_protos(3, [0, 1], seed=14)
    new = Batch(rng.normal(scale=500.0, size=(6, 4)), np.ones(6, dtype=np.int64))
    replay = Batch(rng.normal(scale=500.0, size=(4, 4)), np.zeros(4, dtype=np.int64))
    return fe, protos, new, replay


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow on the way to the error
def test_nonfinite_prototype_step_writes_nothing_and_names_the_prototype():
    fe, protos, new, replay = two_task_problem()
    before = param_bytes(fe, protos)
    # the old prototype is frozen (clip 0); the new one's step overflows
    cfg = L.PreservationConfig(lr_proto=1e308, clip_alpha=0.0, steps_l1=1, steps_l2=1)
    with pytest.raises(NumericsError, match="proto_1") as info:
        L.dynamic_preservation_step(new, replay, fe, protos, cfg)
    assert (info.value.phase, info.value.param) == ("separation", "proto_1")
    assert param_bytes(fe, protos) == before
    for t in list(fe.params.tensors()) + list(protos.params.tensors()):
        assert not t.grad.any()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow on the way to the error
def test_nonfinite_separation_step_checks_prototypes_in_class_order_before_the_extractor():
    fe, _, new, replay = two_task_problem()
    protos = ClassPrototypes(3)
    protos.init_new_classes([1], seed=14)
    protos.init_new_classes([0], seed=15)  # stored after class 1
    before = param_bytes(fe, protos)
    # every prototype and extractor step overflows
    cfg = L.PreservationConfig(lr_theta=1e308, lr_proto=1e308, clip_alpha=1.0, steps_l2=0)
    with pytest.raises(NumericsError) as info:
        L.dynamic_preservation_step(new, replay, fe, protos, cfg)
    assert (info.value.phase, info.value.param) == ("separation", "proto_0")
    assert param_bytes(fe, protos) == before


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow on the way to the error
@pytest.mark.parametrize(
    "steps_l1, steps_l2, phase", [(1, 0, "separation"), (0, 1, "compression")]
)
def test_nonfinite_extractor_step_writes_nothing_and_names_the_phase(steps_l1, steps_l2, phase):
    fe, protos, new, replay = two_task_problem()
    before = param_bytes(fe, protos)
    cfg = L.PreservationConfig(lr_theta=1e308, steps_l1=steps_l1, steps_l2=steps_l2)
    with pytest.raises(NumericsError, match=phase) as info:
        L.dynamic_preservation_step(new, replay, fe, protos, cfg)
    assert info.value.phase == phase
    assert info.value.param in fe.params.names()
    assert param_bytes(fe, protos) == before


# ------------------------------------------------- oracle-path waste


def matmul_all_cotangents(a, b):
    """ad.matmul as it was before it skipped operands without gradients."""
    out = Tensor(a.data @ b.data, _parents=(a, b))
    out._vjp = lambda g: (g @ b.data.T, a.data.T @ g)
    return out


def pairwise_sqdist_all_cotangents(a, b):
    """graph.pairwise_sqdist as it was before it skipped operands without
    gradients."""
    diff = a.data[:, None, :] - b.data[None, :, :]
    out = Tensor(np.einsum("nmd,nmd->nm", diff, diff), _parents=(a, b))
    out._vjp = lambda g: (
        2.0 * np.einsum("nm,nmd->nd", g, diff),
        -2.0 * np.einsum("nm,nmd->md", g, diff),
    )
    return out


def test_skipping_constant_operands_leaves_every_grad_bitwise_unchanged(monkeypatch):
    rng = np.random.default_rng(15)
    fe = FeatureExtractor(12, feat_dim=4, seed=15, hidden=16)
    x = Tensor(rng.normal(size=(7, 12)))
    labels = np.array([0, 1, 2, 0, 1, 2, 2])
    means = L.compute_mean_prototypes(fe.features_np(x.data), labels)

    def grads():
        fe.params.zero_grad()
        ad.backward(loss_compression(fe.forward(x), labels, means))
        return {name: t.grad.tobytes() for name, t in fe.params.items()}

    skipped = grads()
    first = ad.matmul(x, fe.params["w0"])
    assert first._vjp(np.ones(first.shape))[0] is None  # the input batch
    dists = graph.pairwise_sqdist(fe.forward(x), Tensor(np.stack(list(means.values()))))
    assert dists._vjp(np.ones(dists.shape))[1] is None  # the constant anchors

    monkeypatch.setattr(ad, "matmul", matmul_all_cotangents)
    monkeypatch.setattr(graph, "pairwise_sqdist", pairwise_sqdist_all_cotangents)
    assert grads() == skipped


# ------------------------------------------------- every write is a step


@pytest.mark.parametrize("clip_alpha", [0.0, 0.5])
def test_every_preservation_write_happens_inside_param_set_step(monkeypatch, clip_alpha):
    """Each extractor or prototype value that a preservation pass changes is
    changed inside a `ParamSet.step`: the parameters read on entry to each
    step as they did on exit from the one before (or before the pass), and
    after the pass as on exit from its last step."""
    input_dim, hidden, feat_dim = SMALL
    (fe, protos), _ = twin_models(input_dim, feat_dim, hidden)
    cfg = L.PreservationConfig(
        lr_theta=0.01, lr_proto=0.05, clip_alpha=clip_alpha, steps_l1=2, steps_l2=2
    )
    step, calls = ad.ParamSet.step, []

    def recording_step(params, lr):
        entry = param_bytes(fe, protos)
        try:
            step(params, lr)
        finally:
            calls.append((entry, param_bytes(fe, protos)))

    monkeypatch.setattr(ad.ParamSet, "step", recording_step)
    moved = set()
    for s, (batch, replay) in enumerate(class_stream(input_dim, 12, seed=5)):
        new_ids = sorted(set(batch.labels.tolist()) - set(protos.known()))
        if new_ids:
            protos.init_new_classes(new_ids, seed=s)
        calls.clear()
        between = [param_bytes(fe, protos)]
        L.dynamic_preservation_step(batch, replay, fe, protos, cfg)
        assert len(calls) == cfg.steps_l1 + cfg.steps_l2
        for (entry, exit_), before in zip(calls, between + [exit_ for _, exit_ in calls]):
            assert entry == before, f"batch {s}: a value changed outside ParamSet.step"
        assert param_bytes(fe, protos) == calls[-1][1], f"batch {s}: changed after the last step"
        moved |= {n for entry, exit_ in calls for n in entry if entry[n] != exit_[n]}
    assert moved == set(fe.params.names()) | set(protos.params.names())
