import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otcl import autodiff as ad
from otcl.autodiff import ParamSet, Tensor


def naive_logsumexp(v):
    # direct float64 evaluation; overflows for large inputs, which is the point
    return float(np.log(np.sum(np.exp(np.asarray(v, dtype=np.float64)))))


class TestLogsumexp:
    def test_two_zeros(self):
        assert ad.logsumexp(Tensor([0.0, 0.0])).item() == pytest.approx(np.log(2.0), abs=1e-12)

    @pytest.mark.parametrize("x", [-3.7, 0.0, 12.5, 1e300, -1e300])
    def test_single_element_exact(self, x):
        assert ad.logsumexp(Tensor([x])).item() == x

    def test_matches_naive_float64(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            v = rng.uniform(-50.0, 50.0, size=100)
            got = ad.logsumexp(Tensor(v)).item()
            want = naive_logsumexp(v)
            assert abs(got - want) <= 1e-12 * abs(want)

    def test_no_overflow_at_1e300(self):
        v = np.array([1e300, 1e300 - 1.0, -1e300])
        out = ad.logsumexp(Tensor(v)).item()
        assert np.isfinite(out)
        assert out >= 1e300

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            ad.logsumexp(Tensor(np.zeros(0)))

    def test_axis_reduction(self):
        m = np.arange(6.0).reshape(2, 3)
        out = ad.logsumexp(Tensor(m), axis=1)
        want = [naive_logsumexp(m[0]), naive_logsumexp(m[1])]
        np.testing.assert_allclose(out.data, want, rtol=1e-14)


class TestSoftmax:
    def test_uniform_logits(self):
        out = ad.softmax(Tensor([0.0, 0.0, 0.0])).data
        np.testing.assert_allclose(out, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        v = rng.normal(size=11)
        base = ad.softmax(Tensor(v)).data
        shifted = ad.softmax(Tensor(v + 123.456)).data
        np.testing.assert_allclose(shifted, base, atol=1e-12)

    def test_exponentiated_ratios(self):
        out = ad.softmax(Tensor(np.log([1.0, 2.0, 3.0]))).data
        np.testing.assert_allclose(out, [1 / 6, 2 / 6, 3 / 6], rtol=1e-14)

    @given(st.lists(st.floats(-30, 30), min_size=1, max_size=16))
    def test_simplex_output(self, vals):
        out = ad.softmax(Tensor(np.array(vals))).data
        assert np.all(out > 0)
        assert abs(out.sum() - 1.0) < 1e-12


class TestBackward:
    def test_quadratic_gradient_is_p(self):
        ps = ParamSet()
        p = ps.add("p", [1.5, -2.0, 0.25])
        loss = ad.scale(ad.tsum(ad.mul(p, p)), 0.5)
        ad.backward(loss)
        np.testing.assert_allclose(p.grad, p.data, rtol=1e-15)

    def test_linear_gradient_is_coefficients(self):
        ps = ParamSet()
        p = ps.add("p", np.arange(4.0))
        a = np.array([3.0, -1.0, 0.5, 2.0])
        loss = ad.tsum(ad.mul(Tensor(a), p))
        ad.backward(loss)
        np.testing.assert_allclose(p.grad, a, rtol=1e-15)

    def test_gradients_accumulate_across_backward_calls(self):
        ps = ParamSet()
        p = ps.add("p", [2.0])
        for _ in range(3):
            ad.backward(ad.scale(ad.tsum(ad.mul(p, p)), 0.5))
        np.testing.assert_allclose(p.grad, [6.0])

    def test_shared_subexpression_counted_once_per_path(self):
        # loss = sum((p + p) * p) = 2 p^2  →  grad = 4 p
        ps = ParamSet()
        p = ps.add("p", [1.0, -3.0])
        s = ad.add(p, p)
        ad.backward(ad.tsum(ad.mul(s, p)))
        np.testing.assert_allclose(p.grad, 4.0 * p.data, rtol=1e-15)

    def test_non_scalar_loss_rejected(self):
        ps = ParamSet()
        p = ps.add("p", [1.0, 2.0])
        with pytest.raises(ValueError, match="scalar"):
            ad.backward(ad.mul(p, p))

    def test_matmul_relu_chain_finite_diff(self):
        rng = np.random.default_rng(7)
        ps = ParamSet()
        w = ps.add("w", rng.normal(size=(4, 3)))
        b = ps.add("b", rng.normal(size=(1, 3)))
        x = Tensor(rng.normal(size=(5, 4)))

        def loss_fn():
            h = ad.relu(ad.add(ad.matmul(x, w), b))
            return ad.tsum(ad.mul(h, h))

        assert ad.finite_diff_check(loss_fn, ps, h=1e-5) <= 1e-7

    def test_logsumexp_softmax_graph_finite_diff(self):
        rng = np.random.default_rng(8)
        ps = ParamSet()
        z = ps.add("z", rng.normal(size=(3, 5)))

        def loss_fn():
            s = ad.softmax(z, axis=1)
            return ad.add(ad.tsum(ad.logsumexp(z, axis=1)), ad.tsum(ad.mul(s, s)))

        assert ad.finite_diff_check(loss_fn, ps, h=1e-5) <= 1e-7

    def test_pairwise_sqdist_values_and_grads(self):
        rng = np.random.default_rng(9)
        a_np = rng.normal(size=(4, 3))
        b_np = rng.normal(size=(2, 3))
        ps = ParamSet()
        a = ps.add("a", a_np)
        b = ps.add("b", b_np)

        d = ad.pairwise_sqdist(a, b)
        want = ((a_np[:, None, :] - b_np[None, :, :]) ** 2).sum(-1)
        np.testing.assert_allclose(d.data, want, rtol=1e-13)

        weights = Tensor(rng.normal(size=(4, 2)))

        def loss_fn():
            return ad.tsum(ad.mul(ad.pairwise_sqdist(a, b), weights))

        assert ad.finite_diff_check(loss_fn, ps, h=1e-5) <= 1e-8

    def test_gather_grads(self):
        rng = np.random.default_rng(10)
        ps = ParamSet()
        m = ps.add("m", rng.normal(size=(5, 4)))
        cols = np.array([0, 3, 1, 1, 2])

        def loss_fn():
            return ad.tsum(ad.gather(ad.mul(m, m), cols))

        assert ad.finite_diff_check(loss_fn, ps, h=1e-5) <= 1e-8


class TestSgdStep:
    def test_single_step(self):
        ps = ParamSet()
        p = ps.add("p", [1.0])
        p.grad[:] = 2.0
        ps.step(0.1)
        np.testing.assert_allclose(p.data, [0.8], rtol=1e-15)
        np.testing.assert_allclose(p.grad, [0.0])

    def test_two_steps_quadratic_geometric_decay(self):
        ps = ParamSet()
        p = ps.add("p", [1.0])
        for _ in range(2):
            ad.backward(ad.scale(ad.tsum(ad.mul(p, p)), 0.5))
            ps.step(0.5)
        assert p.data[0] == pytest.approx(0.25, abs=1e-15)

    @pytest.mark.parametrize("lr", [0.0, -0.1])
    def test_nonpositive_lr_rejected(self, lr):
        ps = ParamSet()
        ps.add("p", [1.0])
        with pytest.raises(ValueError):
            ps.step(lr)

    def test_bitwise_deterministic(self):
        def run():
            ps = ParamSet()
            p = ps.add("p", np.linspace(-1, 1, 17))
            p.grad[:] = np.sin(np.arange(17.0))
            ps.step(0.037)
            return p.data.tobytes()

        assert run() == run()

    def test_nonfinite_update_raises(self):
        ps = ParamSet()
        p = ps.add("p", [1.0])
        p.grad[:] = np.inf
        with pytest.raises(ad.NumericsError):
            ps.step(0.1)

    def test_nonfinite_extractor_step_names_parameter_and_writes_nothing(self):
        # w0 is stepped before w1 in insertion order: checking before
        # writing must leave it unchanged too
        from otcl.model import FeatureExtractor

        fe = FeatureExtractor(5, 3, seed=0, hidden=4)
        rng = np.random.default_rng(0)
        for t in fe.params.tensors():
            t.grad[...] = rng.standard_normal(t.data.shape)
        fe.params["w1"].grad[1, 2] = np.inf
        before = {name: t.data.copy() for name, t in fe.params.items()}
        with pytest.raises(ad.NumericsError) as info:
            fe.params.step(0.1)
        assert info.value.param == "w1"
        for name, t in fe.params.items():
            np.testing.assert_array_equal(t.data, before[name])


class TestFiniteDiffCheck:
    def test_quadratic_error_tiny(self):
        ps = ParamSet()
        p = ps.add("p", [0.3, -0.9, 2.0])

        def loss_fn():
            return ad.scale(ad.tsum(ad.mul(p, p)), 0.5)

        assert ad.finite_diff_check(loss_fn, ps, h=1e-5) <= 1e-8

    def test_nonpositive_h_rejected(self):
        ps = ParamSet()
        ps.add("p", [1.0])
        with pytest.raises(ValueError):
            ad.finite_diff_check(lambda: ad.tsum(ps["p"]), ps, h=0.0)

    def test_detects_wrong_gradient(self):
        # a broken vjp must produce a large reported error, not a silent pass
        ps = ParamSet()
        p = ps.add("p", [1.0, 2.0])

        def loss_fn():
            out = Tensor(np.array((p.data**2).sum()), _parents=(p,))
            out._vjp = lambda g: (g * np.ones_like(p.data),)  # wrong on purpose
            return out

        assert ad.finite_diff_check(loss_fn, ps, h=1e-5) > 0.1


class TestParamSet:
    def test_duplicate_name_rejected(self):
        ps = ParamSet()
        ps.add("w", [1.0])
        with pytest.raises(ValueError, match="duplicate"):
            ps.add("w", [2.0])

    def test_nonfinite_init_rejected(self):
        ps = ParamSet()
        with pytest.raises(ad.NumericsError):
            ps.add("w", [np.nan])

    def test_grad_shape_matches_param_shape(self):
        ps = ParamSet()
        for name, shape in [("a", (3,)), ("b", (2, 5)), ("c", ())]:
            t = ps.add(name, np.zeros(shape))
            assert t.grad.shape == t.data.shape

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_step_matches_manual_update(self, seed):
        rng = np.random.default_rng(seed)
        ps = ParamSet()
        t = ps.add("p", rng.normal(size=6))
        g = rng.normal(size=6)
        t.grad[:] = g
        before = t.data.copy()
        ps.step(0.2)
        np.testing.assert_array_equal(t.data, before - 0.2 * g)
