import contextlib
import os
import signal
import sys

import numpy as np
import pytest

from oracles import class_logits, finite_diff_check, graph
from otcl import autodiff as ad
from otcl import model as m
from otcl.autodiff import Tensor
from otcl.data import as_float


class TestFeatureExtractor:
    def test_zero_weights_give_zero_output(self):
        fe = m.FeatureExtractor(5, feat_dim=3, seed=0)
        for _, t in fe.params.items():
            t.data[...] = 0.0
        out = fe.forward(Tensor(np.random.default_rng(0).normal(size=(4, 5))))
        np.testing.assert_array_equal(out.data, np.zeros((4, 3)))

    def test_identical_inputs_identical_outputs(self):
        fe = m.FeatureExtractor(6, feat_dim=4, seed=1)
        x = np.tile(np.linspace(0, 1, 6), (3, 1))
        out = fe.forward(Tensor(x)).data
        assert np.array_equal(out[0], out[1]) and np.array_equal(out[1], out[2])

    def test_output_dim(self):
        fe = m.FeatureExtractor(7, feat_dim=11, seed=2)
        assert fe.forward(Tensor(np.zeros((2, 7)))).shape == (2, 11)

    def test_input_dim_mismatch_rejected(self):
        fe = m.FeatureExtractor(4, feat_dim=2, seed=0)
        with pytest.raises(ValueError, match="input dim"):
            fe.forward(Tensor(np.zeros((1, 5))))
        with pytest.raises(ValueError, match="input dim"):
            fe.features_np(np.zeros((1, 5)))

    def test_feature_norm_gradient_finite_diff(self):
        # tiny copy of the real architecture so the coordinate sweep is cheap
        fe = m.FeatureExtractor(3, feat_dim=2, seed=3, hidden=4)
        x = Tensor(np.random.default_rng(4).normal(size=(3, 3)))

        def loss_fn():
            z = fe.forward(x)
            return graph.tsum(graph.mul(z, z))

        assert finite_diff_check(loss_fn, fe.params, h=1e-5) <= 1e-4

    def test_features_np_matches_graph_forward(self):
        fe = m.FeatureExtractor(8, feat_dim=5, seed=5)
        x = np.random.default_rng(6).normal(size=(9, 8))
        # one chunk -> identical BLAS calls -> bitwise equal
        np.testing.assert_array_equal(fe.features_np(x), fe.forward(Tensor(x)).data)
        # chunked matmuls may differ in the last ulp, nothing more
        np.testing.assert_allclose(
            fe.features_np(x, chunk=4), fe.forward(Tensor(x)).data,
            rtol=1e-12, atol=1e-12,
        )

    def test_empty_batch(self):
        fe = m.FeatureExtractor(3, feat_dim=2, seed=0)
        assert fe.features_np(np.zeros((0, 3))).shape == (0, 2)


class TestClassPrototypes:
    def test_unit_basis_logits(self):
        protos = m.ClassPrototypes(feat_dim=3)
        protos.init_new_classes([0, 1, 2], seed=0)
        for c in range(3):
            protos.params[f"proto_{c}"].data[...] = np.eye(3)[c]
        z = Tensor(np.eye(3)[[0]])
        logits = class_logits(z, protos)
        np.testing.assert_allclose(logits.data, [[1.0, 0.0, 0.0]])

    def test_zero_feature_zero_logits(self):
        protos = m.ClassPrototypes(feat_dim=4)
        protos.init_new_classes([0, 1], seed=1)
        logits = class_logits(Tensor(np.zeros((2, 4))), protos)
        np.testing.assert_array_equal(logits.data, np.zeros((2, 2)))

    def test_matches_naive_dot_products(self):
        rng = np.random.default_rng(2)
        protos = m.ClassPrototypes(feat_dim=6)
        protos.init_new_classes([0, 1, 2, 3], seed=2)
        z = rng.normal(size=(5, 6))
        logits = class_logits(Tensor(z), protos).data
        for i in range(5):
            for j, c in enumerate(protos.known()):
                naive = sum(
                    z[i, k] * protos.params[f"proto_{c}"].data[0, k] for k in range(6)
                )
                assert logits[i, j] == pytest.approx(naive, abs=1e-12)

    def test_linearity_in_features(self):
        rng = np.random.default_rng(3)
        protos = m.ClassPrototypes(feat_dim=5)
        protos.init_new_classes(range(3), seed=3)
        z1, z2 = rng.normal(size=(1, 5)), rng.normal(size=(1, 5))
        a, b = 2.5, -1.25
        lhs = class_logits(Tensor(a * z1 + b * z2), protos).data
        rhs = a * class_logits(Tensor(z1), protos).data + b * class_logits(
            Tensor(z2), protos
        ).data
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_incremental_init_preserves_existing_rows(self):
        protos = m.ClassPrototypes(feat_dim=4)
        protos.init_new_classes([0, 1], seed=4)
        before = {c: protos.params[f"proto_{c}"].data.copy() for c in (0, 1)}
        protos.init_new_classes([2, 3], seed=5)
        assert protos.known() == [0, 1, 2, 3]
        for c in (0, 1):
            assert protos.params[f"proto_{c}"].data.tobytes() == before[c].tobytes()

    def test_duplicate_class_rejected(self):
        protos = m.ClassPrototypes(feat_dim=2)
        protos.init_new_classes([0], seed=0)
        with pytest.raises(ValueError, match="already"):
            protos.init_new_classes([0, 1], seed=0)

    def test_same_seed_same_init(self):
        a = m.ClassPrototypes(feat_dim=8)
        b = m.ClassPrototypes(feat_dim=8)
        a.init_new_classes([0, 1], seed=9)
        b.init_new_classes([0, 1], seed=9)
        for c in (0, 1):
            assert (
                a.params[f"proto_{c}"].data.tobytes()
                == b.params[f"proto_{c}"].data.tobytes()
            )

    def test_init_std_near_tenth(self):
        protos = m.ClassPrototypes(feat_dim=2500)
        protos.init_new_classes([0, 1, 2, 3], seed=10)
        coords = np.concatenate(
            [protos.params[f"proto_{c}"].data.ravel() for c in range(4)]
        )
        assert coords.size == 10_000
        assert abs(coords.std() - m.PROTO_INIT_STD) / m.PROTO_INIT_STD < 0.05

    def test_missing_prototype_rejected(self):
        protos = m.ClassPrototypes(feat_dim=3)
        protos.init_new_classes([0], seed=0)
        with pytest.raises(KeyError, match="no prototype"):
            protos.require([0, 7])

    def test_logits_differentiable_wrt_prototypes(self):
        protos = m.ClassPrototypes(feat_dim=3)
        protos.init_new_classes([0, 1], seed=1)
        z = Tensor(np.random.default_rng(11).normal(size=(4, 3)))

        def loss_fn():
            lg = class_logits(z, protos)
            return graph.tsum(graph.mul(lg, lg))

        assert finite_diff_check(loss_fn, protos.params, h=1e-5) <= 1e-6


class TestCheckpoint:
    def test_bitwise_round_trip(self, tmp_path):
        fe = m.FeatureExtractor(6, feat_dim=4, seed=7)
        protos = m.ClassPrototypes(feat_dim=4)
        protos.init_new_classes([0, 1, 2], seed=8)
        # make values non-trivial
        fe.params["w0"].data *= np.pi

        path = tmp_path / "model.npz"
        m.save_checkpoint(
            path,
            {"extractor": fe.params, "prototypes": protos.params},
            meta={"feat_dim": 4, "classes": [0, 1, 2]},
        )

        groups, meta = m.load_checkpoint(path)
        assert meta == {"feat_dim": 4, "classes": [0, 1, 2]}
        for name, t in fe.params.items():
            assert groups["extractor"][name].tobytes() == t.data.tobytes()
        for name, t in protos.params.items():
            assert groups["prototypes"][name].tobytes() == t.data.tobytes()

        fe2 = m.FeatureExtractor(6, feat_dim=4, seed=99)
        m.restore_params(fe2.params, groups["extractor"])
        x = np.random.default_rng(12).normal(size=(3, 6))
        assert fe2.features_np(x).tobytes() == fe.features_np(x).tobytes()

    def test_restore_rejects_mismatched_names(self, tmp_path):
        fe = m.FeatureExtractor(3, feat_dim=2, seed=0)
        path = tmp_path / "model.npz"
        m.save_checkpoint(path, {"extractor": fe.params})
        groups, _ = m.load_checkpoint(path)
        other = m.ClassPrototypes(feat_dim=2)
        other.init_new_classes([0], seed=0)
        with pytest.raises(ValueError, match="names"):
            m.restore_params(other.params, groups["extractor"])

    def test_version_mismatch_rejected(self, tmp_path):
        fe = m.FeatureExtractor(3, feat_dim=2, seed=0)
        path = tmp_path / "model.npz"
        m.save_checkpoint(path, {"extractor": fe.params})
        import json

        with np.load(path) as z:
            arrays = {k: z[k] for k in z.files}
        manifest = json.loads(bytes(arrays["__manifest__"]).decode())
        manifest["version"] = 999
        arrays["__manifest__"] = np.frombuffer(
            json.dumps(manifest).encode(), dtype=np.uint8
        )
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match="version"):
            m.load_checkpoint(path)


# ---------------------------------------------------------------------------
# row spans on the thread pool

PAPER_ROW_MACS = 784 * 400 + 400 * 400 + 400 * 128  # 784 -> 400 -> 400 -> 128


class SpanRecorder:
    """The real pool, recording how many spans each split hands it."""

    def __init__(self):
        self.pool = m._span_pool()
        self.splits: list[int] = []

    def map(self, fn, spans):
        self.splits.append(len(spans))
        return self.pool.map(fn, spans)


def no_pool():
    raise AssertionError("this forward must run on the calling thread")


@pytest.fixture
def one_thread():
    """Numpy's OpenBLAS on one thread, the only setting the forward splits in."""
    with m.one_blas_thread() as pinned:
        if pinned is None:
            pytest.skip("numpy's bundled OpenBLAS is not loaded: no forward splits")
        yield


def one_call(fe, x, dtype):
    return m.mlp_forward(fe.weights(dtype), as_float(x, dtype))[0]


@pytest.mark.parametrize("workers", [2, 3, 7])
def test_split_forward_is_bytewise_the_one_call_forward(workers, one_thread, monkeypatch):
    # the worker count is set here, so a 1-CPU machine runs the split too
    monkeypatch.setattr(m, "_cpus", lambda: workers)
    recorder = SpanRecorder()
    monkeypatch.setattr(m, "_span_pool", lambda: recorder)
    fe = m.FeatureExtractor(784, 128, seed=0)
    least = -(-m._SPAN_MACS // PAPER_ROW_MACS)  # rows of the smallest span
    rng = np.random.default_rng(workers)
    for rows in (2 * least - 1, 2 * least, 401, 999, 2000):
        pixels = rng.integers(0, 256, size=(rows, 784), dtype=np.uint8)
        for x in (pixels, rng.random((rows, 784))):
            for dtype in (np.float32, np.float64):
                recorder.splits.clear()
                got = fe.features_np(x, dtype=dtype)
                assert got.dtype == dtype
                assert got.tobytes() == one_call(fe, x, dtype).tobytes(), (rows, x.dtype, dtype)
                spans = min(workers, rows // least)
                assert recorder.splits == ([spans] if spans > 1 else [])


def test_a_span_keeps_every_layer_on_the_blocked_kernels(one_thread, monkeypatch):
    """A narrow last layer (128 -> 8 here) holds the split back until each
    span's product in it is past OpenBLAS's small-matrix kernels: a span on
    them would round differently from its whole chunk."""
    monkeypatch.setattr(m, "_cpus", lambda: 2)
    recorder = SpanRecorder()
    monkeypatch.setattr(m, "_span_pool", lambda: recorder)
    fe = m.FeatureExtractor(784, 8, seed=0)
    least = m._SMALL_GEMM_MACS // (400 * 8) + 1
    rng = np.random.default_rng(0)
    for rows in (400, 2 * least - 1, 2 * least, 2000):
        x = rng.integers(0, 256, size=(rows, 784), dtype=np.uint8)
        for dtype in (np.float32, np.float64):
            recorder.splits.clear()
            assert fe.features_np(x, dtype=dtype).tobytes() == one_call(fe, x, dtype).tobytes()
            assert recorder.splits == ([2] if rows >= 2 * least else [])


def test_training_ring_and_predict_forwards_stay_on_the_calling_thread(one_thread, monkeypatch):
    from otcl.harness import predict
    from otcl.mixture import ClassMixture

    monkeypatch.setattr(m, "_cpus", lambda: 7)
    monkeypatch.setattr(m, "_span_pool", no_pool)
    rng = np.random.default_rng(1)
    paper = m.FeatureExtractor(784, 128, seed=0)
    joint = rng.random((20, 784))  # a stream batch and its replay draw
    assert paper.features_np(joint).tobytes() == paper.forward_np(joint)[0].tobytes()
    ring = m.FeatureExtractor(2, 8, seed=0, hidden=32)  # ring-k4's extractor
    for rows in (20, 160, 2000):
        x = rng.random((rows, 2))
        for dtype in (np.float32, np.float64):
            assert ring.features_np(x, dtype=dtype).tobytes() == one_call(ring, x, dtype).tobytes()
    anchors = paper.forward_np(rng.random((2, 784)))[0]
    mixtures = {c: ClassMixture.from_features(anchors[c : c + 1], 1) for c in range(2)}
    assert predict(rng.random(784), paper, mixtures) in (0, 1)


@pytest.mark.parametrize("reported", [2, None], ids=["two-threads", "no-openblas"])
def test_no_split_unless_the_blas_runs_one_thread(reported, monkeypatch):
    monkeypatch.setattr(m, "blas_threads", lambda: reported)
    monkeypatch.setattr(m, "_cpus", lambda: 2)
    monkeypatch.setattr(m, "_span_pool", no_pool)
    fe = m.FeatureExtractor(784, 128, seed=0)
    x = np.random.default_rng(2).integers(0, 256, size=(2000, 784), dtype=np.uint8)
    assert fe.features_np(x, dtype=np.float32).shape == (2000, 128)


def test_wrong_width_is_rejected_before_any_span_runs(one_thread, monkeypatch):
    monkeypatch.setattr(m, "_cpus", lambda: 7)
    monkeypatch.setattr(m, "_span_pool", no_pool)
    fe = m.FeatureExtractor(784, 128, seed=0)
    with pytest.raises(ValueError, match="^input dim 783 != expected 784$"):
        fe.features_np(np.zeros((2000, 783), dtype=np.uint8), dtype=np.float32)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this platform")
@pytest.mark.filterwarnings("ignore::DeprecationWarning")  # fork with pool threads alive
def test_a_forked_child_splits_on_its_own_pool(one_thread, monkeypatch):
    """A child forked after a split has none of the pool's threads; its own
    split must still finish (it used to wait on them forever)."""
    monkeypatch.setattr(m, "_cpus", lambda: 2)
    fe = m.FeatureExtractor(784, 128, seed=0)
    x = np.random.default_rng(3).integers(0, 256, size=(400, 784), dtype=np.uint8)
    want = fe.features_np(x, dtype=np.float32)  # makes the pool and its threads
    pid = os.fork()
    if pid == 0:  # the child: no pytest machinery, only an exit code
        code = 1
        try:
            signal.alarm(60)
            code = 0 if fe.features_np(x, dtype=np.float32).tobytes() == want.tobytes() else 2
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0, status


# ---------------------------------------------------------------------------
# one float32 weight copy per evaluation pass


def count_copies(fe, monkeypatch) -> list:
    """The dtypes `fe.weights` is asked for, one entry a call."""
    asked, weights = [], fe.weights

    def counted(dtype=np.float64):
        asked.append(np.dtype(dtype))
        return weights(dtype)

    monkeypatch.setattr(fe, "weights", counted)
    return asked


def test_an_evaluation_pass_takes_one_float32_copy(monkeypatch):
    fe = m.FeatureExtractor(784, 128, seed=0)
    asked = count_copies(fe, monkeypatch)
    x = np.random.default_rng(4).integers(0, 256, size=(3, 50, 784), dtype=np.uint8)
    per_call = [fe.features_np(rows, dtype=np.float32) for rows in x]
    assert asked == [np.dtype(np.float32)] * 3
    asked.clear()
    with fe.evaluation_pass():
        shared = [fe.features_np(rows, dtype=np.float32) for rows in x]
    assert asked == [np.dtype(np.float32)]
    for got, want in zip(shared, per_call):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("ends", ["normally", "by-an-exception"])
def test_a_write_after_the_pass_shows_in_the_float32_forward(ends):
    fe = m.FeatureExtractor(784, 128, seed=0)
    x = np.random.default_rng(5).integers(0, 256, size=(50, 784), dtype=np.uint8)
    with contextlib.suppress(KeyError), fe.evaluation_pass():
        before = fe.features_np(x, dtype=np.float32)
        if ends == "by-an-exception":
            raise KeyError("evaluation failed")
    fe.params["w0"].data *= 2.0  # in place, as restore_params writes
    after = fe.features_np(x, dtype=np.float32)
    assert after.tobytes() == one_call(fe, x, np.float32).tobytes()
    assert after.tobytes() != before.tobytes()


# ---------------------------------------------------------------------------
# the first-layer products of an evaluation pass


@pytest.mark.parametrize("rows", [1, 47, 400, 2000])
def test_a_fresh_product_read_is_bytewise_the_forward_without_products(
    rows, one_thread, monkeypatch
):
    """The first float32 read of an array in a pass forms its product span
    by span, so its features are those of a call outside any pass; 400 and
    2000 rows split into two spans, 1 and 47 rows run in one."""
    monkeypatch.setattr(m, "_cpus", lambda: 2)
    recorder = SpanRecorder()
    monkeypatch.setattr(m, "_span_pool", lambda: recorder)
    fe = m.FeatureExtractor(784, 128, seed=0)
    rng = np.random.default_rng(rows)
    for x in (rng.integers(0, 256, size=(rows, 784), dtype=np.uint8), rng.random((rows, 784))):
        want = fe.features_np(x, dtype=np.float32)
        assert not fe._products  # none outside a pass
        recorder.splits.clear()
        with fe.evaluation_pass():
            fresh = fe.features_np(x, dtype=np.float32)
            again = fe.features_np(x, dtype=np.float32)  # the product, as formed
        assert recorder.splits == ([2, 2] if rows >= 400 else [])
        assert fresh.tobytes() == want.tobytes() == again.tobytes()
        assert list(fe._products) == [id(x)]
        fe.drop_products()


def test_a_split_update_is_bytewise_the_update_on_the_calling_thread(one_thread, monkeypatch):
    """Seven pool threads (more than the cores) share the spans of a
    2000-row product under a short switch interval: every row is updated
    once, as on the calling thread."""
    from concurrent.futures import ThreadPoolExecutor

    fe = m.FeatureExtractor(784, 128, seed=4)
    rng = np.random.default_rng(9)
    x = rng.integers(0, 256, size=(2000, 784), dtype=np.uint8)
    u, v = rng.random((20, 784)), 1e-3 * rng.standard_normal((20, 400))

    def updated(workers: int) -> np.ndarray:
        monkeypatch.setattr(m, "_cpus", lambda: workers)
        fe.drop_products()
        with fe.evaluation_pass():
            fe.features_np(x, dtype=np.float32)
        fe.w0_moved(u, v)
        return fe._products[id(x)].a

    alone = updated(1)
    interval = sys.getswitchinterval()
    with ThreadPoolExecutor(max_workers=7) as pool:
        monkeypatch.setattr(m, "_span_pool", lambda: pool)
        sys.setswitchinterval(1e-6)
        try:
            split = updated(7)
        finally:
            sys.setswitchinterval(interval)
    assert split.tobytes() == alone.tobytes()


def test_a_product_no_evaluation_read_since_the_last_report_is_dropped():
    fe = m.FeatureExtractor(784, 16, seed=1, hidden=32)
    rng = np.random.default_rng(6)
    kept, unread = (rng.integers(0, 256, size=(30, 784), dtype=np.uint8) for _ in range(2))
    u, v = rng.random((20, 784)), 1e-3 * rng.standard_normal((20, 32))
    with fe.evaluation_pass():
        fe.features_np(kept, dtype=np.float32)
        fe.features_np(unread, dtype=np.float32)
        fe.features_np(rng.random((5, 784)))  # float64: no product
    assert set(fe._products) == {id(kept), id(unread)}
    fe.w0_moved(u, v)  # both were read: both are updated
    assert set(fe._products) == {id(kept), id(unread)}
    with fe.evaluation_pass():
        fe.features_np(kept, dtype=np.float32)
    fe.w0_moved(u, v)
    assert list(fe._products) == [id(kept)]
    fe.w0_moved(u, v)  # read by none since the last report
    assert not fe._products


def test_a_report_moves_a_product_as_the_step_moves_w0():
    """`w0_moved(u, v)` is the move `w0 += u.T @ v`: after it, the updated
    product serves features close to a fresh forward, and dropping the
    products gives that fresh forward bit for bit."""
    fe = m.FeatureExtractor(784, 16, seed=2, hidden=32)
    rng = np.random.default_rng(7)
    x = rng.integers(0, 256, size=(40, 784), dtype=np.uint8)
    u, v = rng.random((20, 784)), 1e-2 * rng.standard_normal((20, 32))
    with fe.evaluation_pass():
        before = fe.features_np(x, dtype=np.float32)
    fe.params["w0"].data += u.T @ v
    fe.w0_moved(u, v)
    with fe.evaluation_pass():
        updated = fe.features_np(x, dtype=np.float32)
    fresh = one_call(fe, x, np.float32)
    assert np.abs(fresh - before).max() > 100 * np.abs(fresh - updated).max()
    fe.drop_products()
    with fe.evaluation_pass():
        assert fe.features_np(x, dtype=np.float32).tobytes() == fresh.tobytes()


@pytest.mark.parametrize("dims", [[6, 5, 4, 3], [784, 400, 400, 128]])
def test_backward_returns_the_oracles_first_layer_cotangent(dims):
    """`mlp_backward` returns d(loss)/d(x @ w0 + b0), bytewise the oracle's
    (`MLP.forward`'s graph cut at that pre-activation), and writes every
    parameter gradient bytewise as `backward` of the whole graph."""
    net = m.MLP(dims, seed=3)
    rng = np.random.default_rng(8)
    x, g_out = rng.normal(size=(20, dims[0])), rng.normal(size=(20, dims[-1]))
    layers = net.weights()
    grads = [(np.empty_like(w), np.empty_like(b)) for w, b in layers]
    out, hidden = m.mlp_forward(layers, x)
    cotangent = m.mlp_backward(layers, [x, *hidden], g_out, grads)

    ad.backward(graph.tsum(graph.mul(net.forward(Tensor(x)), Tensor(g_out))))
    for (g_w, g_b), (w, b) in zip(grads, m.mlp_layers(dict(net.params.items()))):
        assert g_w.tobytes() == w.grad.tobytes() and g_b.tobytes() == b.grad.tobytes()

    pre = Tensor(ad.add(ad.matmul(Tensor(x), net.params["w0"]), net.params["b0"]).data, True)
    h = pre
    for i in range(1, len(dims) - 1):
        h = ad.add(ad.matmul(ad.relu(h), net.params[f"w{i}"]), net.params[f"b{i}"])
    ad.backward(graph.tsum(graph.mul(h, Tensor(g_out))))
    # the leaf accumulates into +0.0, which drops the sign of a zero entry
    assert (0.0 + cotangent).tobytes() == pre.grad.tobytes()
