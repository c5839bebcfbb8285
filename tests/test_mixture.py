"""Tests for the online mixture fitting through the entropic transport dual.

The expensive checks at the bottom (Sinkhorn cross-validation, two-mode
recovery) are the ones that actually certify the estimator; the rest pin the
algebra of each piece.
"""

import copy
import dataclasses

import numpy as np
import pytest

from oracles import (draw_mixture_noise, dual_objective, finite_diff_check, frozen_noise_group,
                     graph, gumbel_softmax_sample, phi_tilde, sample_mixture)
from oracles.ot_ref import DiscreteMeasure, sinkhorn_distance
from otcl import data as dt
from otcl import mixture as mx
from otcl import model
from otcl.autodiff import NumericsError, Tensor


def zeroed_potential(feat_dim: int) -> mx.DualPotential:
    """A potential that evaluates to exactly 0 everywhere."""
    phi = mx.DualPotential(feat_dim, seed=0)
    for name in phi.params.names():
        phi.params[name].data[...] = 0.0
    return phi


def dual_value_exact(z_batch, atoms, weights, phi, epsilon) -> float:
    """Semi-dual value for a mixture collapsed to a known discrete measure.

    Replaces the Monte-Carlo expectation over draws with the exact weighted
    sum over atoms, to compare against Sinkhorn without sampling error.
    """
    zb = Tensor(np.asarray(z_batch, dtype=np.float64))
    conj = phi_tilde(Tensor(np.asarray(atoms, dtype=np.float64)), zb, phi, epsilon)
    return float(phi.forward(zb).data.mean() + (np.asarray(weights) * conj.data).sum())


def reference_update_phi(z_batch, mix, phi, cfg, rng=None, noise=None):
    """Autodiff oracle for one class's potential phase (mx.update_phi):
    back-propagate the whole graph of dual_objective, keep the potential's
    gradient, drop the mixture's."""
    trace = []
    for _ in range(cfg.n_phi_steps):
        phi.params.zero_grad()
        mix.params.zero_grad()
        value = dual_objective(z_batch, mix, phi, cfg, rng=rng, noise=noise)
        trace.append(value.item())
        graph.backward(graph.neg(value))  # ascend: descend the negation
        phi.params.step(cfg.lr_phi)
        mix.params.zero_grad()
    return trace


def reference_update_mixture(z_batch, mix, phi, cfg, rng=None, noise=None):
    """Autodiff oracle for one class's mixture phase (mx.update_mixture)."""
    trace = []
    for _ in range(cfg.n_mix_steps):
        phi.params.zero_grad()
        mix.params.zero_grad()
        value = dual_objective(z_batch, mix, phi, cfg, rng=rng, noise=noise)
        trace.append(value.item())
        graph.backward(value)
        mix.params.step(cfg.lr_mix)
        phi.params.zero_grad()
    return trace


def param_arrays(params) -> dict[str, np.ndarray]:
    return {n: params[n].data.copy() for n in params.names()}


def step_alone(phase, z, mix, phi, cfg, rng=None, noise=None) -> list[float]:
    """One phase of the stacked step for a group of one class, written back."""
    z = np.asarray(z, dtype=np.float64)
    if noise is None:
        group = mx.ClassGroup([0], [z], [mix], [phi], cfg, rng, mx.NoiseBuffer())
    else:
        group = frozen_noise_group(z, mix, phi, cfg, noise)
    values = (mx.update_phi if phase == "phi" else mx.update_mixture)(group, cfg)
    group.write_back()
    return values[:, 0].tolist()


def degenerate_mixture(atoms: np.ndarray, weights: np.ndarray) -> mx.ClassMixture:
    """Mixture collapsed onto discrete atoms: sigma ~ 1e-26, pi = weights."""
    k, d = atoms.shape
    mix = mx.ClassMixture(k, d)
    mix.params["alpha"].data[...] = np.log(weights)
    mix.params["mu"].data[...] = atoms
    mix.params["log_sigma"].data[...] = -60.0
    return mix


# ---------------------------------------------------------------- config


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        mx.OtmmConfig(epsilon=0.0)
    with pytest.raises(ValueError):
        mx.OtmmConfig(tau=-0.5)
    with pytest.raises(ValueError):
        mx.OtmmConfig(n_phi_steps=-1)
    with pytest.raises(ValueError):
        mx.OtmmConfig(n_mix_samples=0)
    with pytest.raises(ValueError):
        mx.OtmmConfig(lr_mix=0.0)


# ------------------------------------------------- Gumbel-softmax draws


def test_gumbel_softmax_lands_on_simplex():
    rng = np.random.default_rng(0)
    alpha = Tensor(rng.standard_normal(5))
    for _ in range(20):
        y = gumbel_softmax_sample(alpha, tau=0.5, rng=rng)
        assert np.all(y.data > 0)
        assert abs(y.data.sum() - 1.0) <= 1e-12


def test_gumbel_softmax_zero_temperature_is_argmax():
    rng = np.random.default_rng(1)
    alpha = Tensor(np.array([0.4, -1.0, 0.9]))
    log_pi = alpha.data - np.log(np.exp(alpha.data).sum())
    for _ in range(50):
        g = draw_mixture_noise(1, 3, 1, rng).gumbel[0]
        y = gumbel_softmax_sample(alpha, tau=1e-6, gumbel=g)
        hot = np.zeros(3)
        hot[np.argmax(log_pi + g)] = 1.0
        np.testing.assert_array_equal(y.data, hot)


def test_gumbel_softmax_hard_assignment_frequencies_match_weights():
    # Gumbel-max property: argmax(log pi + G) ~ Categorical(pi). 1e5 draws,
    # binomial std ~0.0014, so the 0.01 tolerance is ~7 sigma.
    rng = np.random.default_rng(7)
    pi = np.array([0.3, 0.7])
    alpha = Tensor(np.log(pi))
    g = draw_mixture_noise(100_000, 2, 1, rng).gumbel  # (1e5, 2)
    y = gumbel_softmax_sample(alpha, tau=0.5, gumbel=g)
    freq = np.bincount(np.argmax(y.data, axis=1), minlength=2) / 100_000
    assert np.all(np.abs(freq - pi) <= 0.01)


def test_gumbel_softmax_gradient_wrt_logits():
    rng = np.random.default_rng(3)
    g = draw_mixture_noise(1, 4, 1, rng).gumbel[0]
    from oracles.graph import mul, tsum
    from otcl.autodiff import ParamSet

    params = ParamSet()
    params.add("alpha", rng.standard_normal(4))
    coeffs = Tensor(rng.standard_normal(4))

    def loss():
        y = gumbel_softmax_sample(params["alpha"], tau=0.7, gumbel=g)
        return tsum(mul(coeffs, y))

    assert finite_diff_check(loss, params) <= 1e-4


def test_gumbel_softmax_requires_positive_tau_and_noise_source():
    alpha = Tensor(np.zeros(2))
    with pytest.raises(ValueError):
        gumbel_softmax_sample(alpha, tau=0.0, rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        gumbel_softmax_sample(alpha, tau=0.5)


# ------------------------------------------------------- mixture draws


def test_single_component_zero_scale_draws_equal_centroid():
    mix = degenerate_mixture(np.array([[1.5, -2.0, 0.25]]), np.array([1.0]))
    draws, _ = sample_mixture(mix, tau=0.5, n=64, rng=np.random.default_rng(0))
    np.testing.assert_allclose(draws.data, np.tile([1.5, -2.0, 0.25], (64, 1)), atol=1e-24)


def test_degenerate_draw_frequencies_match_mixing_weights():
    pi = np.array([0.2, 0.5, 0.3])
    centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
    mix = degenerate_mixture(centers, pi)
    draws, _ = sample_mixture(mix, tau=1e-3, n=100_000, rng=np.random.default_rng(11))
    assign = np.argmin(
        ((draws.data[:, None, :] - centers[None, :, :]) ** 2).sum(-1), axis=1
    )
    freq = np.bincount(assign, minlength=3) / 100_000
    assert np.all(np.abs(freq - pi) <= 0.01)


def test_single_component_sample_mean_obeys_clt_bound():
    mix = mx.ClassMixture(1, 2)
    mix.params["mu"].data[...] = [[1.0, -2.0]]
    mix.params["log_sigma"].data[...] = np.log(0.5)
    draws, _ = sample_mixture(mix, tau=0.5, n=100_000, rng=np.random.default_rng(5))
    bound = 4 * 0.5 / np.sqrt(100_000)
    assert np.all(np.abs(draws.data.mean(axis=0) - [1.0, -2.0]) <= bound)


def test_frozen_noise_reproduces_draws_bitwise():
    rng = np.random.default_rng(9)
    mix = mx.ClassMixture(3, 4)
    mix.params["mu"].data[...] = rng.standard_normal((3, 4))
    d1, noise = sample_mixture(mix, tau=0.5, n=8, rng=rng)
    d2, _ = sample_mixture(mix, tau=0.5, n=8, noise=noise)
    np.testing.assert_array_equal(d1.data, d2.data)


def test_sample_mixture_validates_arguments():
    mix = mx.ClassMixture(2, 2)
    with pytest.raises(ValueError):
        sample_mixture(mix, tau=0.5, n=0, rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        sample_mixture(mix, tau=0.5, n=4)  # no rng, no noise
    bad = draw_mixture_noise(3, 2, 2, np.random.default_rng(0))
    with pytest.raises(ValueError):
        sample_mixture(mix, tau=0.5, n=4, noise=bad)


# --------------------------------------------------- conjugate potential


def test_conjugate_single_atom_closed_form():
    rng = np.random.default_rng(2)
    phi = mx.DualPotential(3, seed=4)
    z0 = rng.standard_normal((1, 3))
    zt = rng.standard_normal((5, 3))
    got = phi_tilde(Tensor(zt), Tensor(z0), phi, epsilon=0.7)
    want = ((zt - z0) ** 2).sum(axis=1) - phi.forward(Tensor(z0)).data[0]
    np.testing.assert_allclose(got.data, want, rtol=1e-10, atol=1e-10)


def test_conjugate_vanishes_on_batch_points_at_small_epsilon():
    # With phi = 0 the conjugate is a soft-min of squared distances; on a
    # batch point the min is 0 and the smoothing term is at most eps*ln(n).
    rng = np.random.default_rng(6)
    z = rng.standard_normal((5, 2))
    phi = zeroed_potential(2)
    vals = phi_tilde(Tensor(z.copy()), Tensor(z), phi, epsilon=1e-3)
    assert np.all(np.abs(vals.data) <= 0.01)


def test_conjugate_matches_naive_formula():
    rng = np.random.default_rng(8)
    z = rng.standard_normal((6, 3))
    zt = rng.standard_normal((4, 3))
    phi = mx.DualPotential(3, seed=1)
    eps = 0.7
    got = phi_tilde(Tensor(zt), Tensor(z), phi, eps).data
    pv = phi.forward(Tensor(z)).data
    naive = np.array(
        [
            -eps * np.log(np.mean(np.exp((-((z - t) ** 2).sum(1) + pv) / eps)))
            for t in zt
        ]
    )
    np.testing.assert_allclose(got, naive, rtol=1e-10, atol=1e-10)


def test_conjugate_rejects_empty_batch_and_bad_epsilon():
    phi = mx.DualPotential(2, seed=0)
    zt = Tensor(np.zeros((1, 2)))
    with pytest.raises(ValueError):
        phi_tilde(zt, Tensor(np.zeros((0, 2))), phi, epsilon=1.0)
    with pytest.raises(ValueError):
        phi_tilde(zt, Tensor(np.ones((2, 2))), phi, epsilon=0.0)


# ------------------------------------------------------- dual objective


def test_dual_objective_single_atom_composition():
    # phi = 0, one data point, mixture degenerate at mu: the value is exactly
    # the squared distance between them.
    z0 = np.array([[1.0, 2.0]])
    mu = np.array([[3.0, -1.0]])
    mix = degenerate_mixture(mu, np.array([1.0]))
    phi = zeroed_potential(2)
    cfg = mx.OtmmConfig(epsilon=0.5, tau=0.5, n_mix_samples=16)
    val = dual_objective(Tensor(z0), mix, phi, cfg, rng=np.random.default_rng(0))
    want = ((z0 - mu) ** 2).sum()
    np.testing.assert_allclose(val.item(), want, rtol=1e-10)


def test_dual_objective_identical_atoms_is_zero():
    a = np.array([[0.3, -0.7, 1.1]])
    mix = degenerate_mixture(a, np.array([1.0]))
    phi = zeroed_potential(3)
    cfg = mx.OtmmConfig(epsilon=1.0, tau=0.5, n_mix_samples=8)
    val = dual_objective(Tensor(a), mix, phi, cfg, rng=np.random.default_rng(0))
    assert abs(val.item()) <= 1e-10


def test_dual_objective_default_draw_count_is_batch_size():
    rng = np.random.default_rng(4)
    z = rng.standard_normal((5, 2))
    mix = mx.ClassMixture(2, 2)
    phi = mx.DualPotential(2, seed=0)
    noise = draw_mixture_noise(5, 2, 2, rng)  # matches batch size
    cfg = mx.OtmmConfig(epsilon=1.0, n_mix_samples=None)
    dual_objective(Tensor(z), mix, phi, cfg, noise=noise)  # accepts
    with pytest.raises(ValueError):
        bad = mx.OtmmConfig(epsilon=1.0, n_mix_samples=7)
        dual_objective(Tensor(z), mix, phi, bad, noise=noise)


def test_dual_objective_mixture_gradients_pass_finite_differences():
    rng = np.random.default_rng(10)
    z = rng.standard_normal((4, 3))
    mix = mx.ClassMixture(2, 3)
    mix.params["alpha"].data[...] = [0.2, -0.3]
    mix.params["mu"].data[...] = rng.standard_normal((2, 3))
    mix.params["log_sigma"].data[...] = np.log(0.7)
    phi = mx.DualPotential(3, seed=2)
    cfg = mx.OtmmConfig(epsilon=0.5, tau=0.5, n_mix_samples=6)
    noise = draw_mixture_noise(6, 2, 3, rng)

    def loss():
        return dual_objective(Tensor(z), mix, phi, cfg, noise=noise)

    assert finite_diff_check(loss, mix.params) <= 1e-4


# -------------------------------------------------- alternating updates


def test_update_phi_zero_steps_is_identity():
    rng = np.random.default_rng(0)
    z = rng.standard_normal((4, 2))
    mix = mx.ClassMixture(2, 2)
    phi = mx.DualPotential(2, seed=3)
    before = {n: phi.params[n].data.copy() for n in phi.params.names()}
    trace = step_alone("phi", z, mix, phi, mx.OtmmConfig(n_phi_steps=0), rng=rng)
    assert trace == []
    for n, v in before.items():
        np.testing.assert_array_equal(phi.params[n].data, v)


def test_update_phi_single_step_moves_parameters():
    rng = np.random.default_rng(1)
    z = rng.standard_normal((4, 2))
    mix = mx.ClassMixture(2, 2)
    mix.params["mu"].data[...] = rng.standard_normal((2, 2))
    phi = mx.DualPotential(2, seed=3)
    before = {n: phi.params[n].data.copy() for n in phi.params.names()}
    step_alone("phi", z, mix, phi, mx.OtmmConfig(n_phi_steps=1, lr_phi=0.05), rng=rng)
    assert any(not np.array_equal(phi.params[n].data, before[n]) for n in before)


def test_update_phi_frozen_noise_ascent_improves_objective():
    rng = np.random.default_rng(12)
    z = Tensor(rng.standard_normal((6, 2)))
    mix = mx.ClassMixture(2, 2)
    mix.params["mu"].data[...] = rng.standard_normal((2, 2)) + 2.0
    phi = mx.DualPotential(2, seed=5)
    cfg = mx.OtmmConfig(epsilon=1.0, tau=0.5, n_phi_steps=50, lr_phi=0.01, n_mix_samples=8)
    noise = draw_mixture_noise(8, 2, 2, rng)
    before = dual_objective(z, mix, phi, cfg, noise=noise).item()
    step_alone("phi", z.data, mix, phi, cfg, noise=noise)
    after = dual_objective(z, mix, phi, cfg, noise=noise).item()
    assert after >= before


@pytest.mark.parametrize("phase", ["phi", "mixture"])
def test_frozen_noise_group_steps_on_the_frozen_noise(phase):
    # The first value of either phase is the oracle's value on the frozen
    # noise (the mixture phase's with no potential steps before it); a group
    # stepping on the noise it drew from its own generator is off by the
    # Monte-Carlo error.
    z, mix, phi, cfg, noise = random_problem(4, 7, 16, seed=13)
    if phase == "mixture":
        cfg = dataclasses.replace(cfg, n_phi_steps=0)
    want = dual_objective(Tensor(z), mix, phi, cfg, noise=noise).item()
    group = frozen_noise_group(z, mix, phi, cfg, noise)
    got = (mx.update_phi if phase == "phi" else mx.update_mixture)(group, cfg)[0, 0]
    np.testing.assert_allclose(got, want, rtol=1e-10)


def test_update_mixture_zero_steps_is_identity():
    rng = np.random.default_rng(2)
    z = rng.standard_normal((4, 2))
    mix = mx.ClassMixture(2, 2)
    phi = mx.DualPotential(2, seed=0)
    before = {n: mix.params[n].data.copy() for n in mix.params.names()}
    trace = step_alone("mixture", z, mix, phi, mx.OtmmConfig(n_mix_steps=0), rng=rng)
    assert trace == []
    for n, v in before.items():
        np.testing.assert_array_equal(mix.params[n].data, v)


def test_update_mixture_drives_centroid_to_single_data_point():
    # K=1, sigma ~ 0, phi = 0 frozen: the value reduces to d(a, mu), whose
    # gradient is 2(mu - a); descent contracts ||mu - a|| by (1 - 2 lr) each
    # step.
    a = np.array([[2.0, -1.0]])
    mix = degenerate_mixture(np.array([[-3.0, 4.0]]), np.array([1.0]))
    phi = zeroed_potential(2)
    cfg = mx.OtmmConfig(epsilon=0.5, tau=0.5, n_mix_steps=1, lr_mix=0.1, n_mix_samples=4)
    rng = np.random.default_rng(0)
    dists = [np.linalg.norm(mix.params["mu"].data - a)]
    for _ in range(30):
        step_alone("mixture", a, mix, phi, cfg, rng=rng)
        dists.append(np.linalg.norm(mix.params["mu"].data - a))
    assert all(d2 < d1 for d1, d2 in zip(dists, dists[1:]))
    assert dists[-1] < 1e-2 * dists[0]


def test_update_mixture_leaves_potential_untouched():
    rng = np.random.default_rng(3)
    z = rng.standard_normal((4, 2))
    mix = mx.ClassMixture(2, 2)
    mix.params["mu"].data[...] = rng.standard_normal((2, 2))
    phi = mx.DualPotential(2, seed=1)
    before = {n: phi.params[n].data.copy() for n in phi.params.names()}
    step_alone("mixture", z, mix, phi, mx.OtmmConfig(n_mix_steps=3), rng=rng)
    for n, v in before.items():
        np.testing.assert_array_equal(phi.params[n].data, v)


# ------------------------------------------------------ per-class step


def make_state(**kw):
    kw.setdefault("n_components", 2)
    kw.setdefault("feat_dim", 2)
    return mx.OtmmState(**kw)


def test_step_with_empty_batch_is_a_no_op():
    state = make_state()
    report = mx.otmm_step({}, state, mx.OtmmConfig(), np.random.default_rng(0))
    assert report == {}
    assert state.known() == []


def test_step_skips_classes_with_zero_rows():
    state = make_state()
    report = mx.otmm_step(
        {3: np.zeros((0, 2))}, state, mx.OtmmConfig(), np.random.default_rng(0)
    )
    assert report == {}
    assert state.known() == []


def test_step_leaves_absent_class_bitwise_unchanged():
    rng = np.random.default_rng(4)
    state = make_state()
    cfg = mx.OtmmConfig(n_phi_steps=2, n_mix_steps=2, n_mix_samples=8)
    mx.otmm_step(
        {0: rng.standard_normal((6, 2)), 1: rng.standard_normal((6, 2)) + 3.0},
        state, cfg, rng,
    )
    frozen_mix = {n: state.mixtures[1].params[n].data.copy()
                  for n in state.mixtures[1].params.names()}
    frozen_phi = {n: state.potentials[1].params[n].data.copy()
                  for n in state.potentials[1].params.names()}
    mx.otmm_step({0: rng.standard_normal((6, 2))}, state, cfg, rng)
    for n, v in frozen_mix.items():
        np.testing.assert_array_equal(state.mixtures[1].params[n].data, v)
    for n, v in frozen_phi.items():
        np.testing.assert_array_equal(state.potentials[1].params[n].data, v)


def test_lazy_init_anchors_centroids_on_first_distinct_rows():
    state = make_state()
    cfg = mx.OtmmConfig(n_phi_steps=0, n_mix_steps=0)  # create state, no updates
    row_a, row_b = np.array([1.0, 2.0]), np.array([5.0, -1.0])
    feats = np.stack([row_a, row_a, row_b, row_a])
    mx.otmm_step({7: feats}, state, cfg, np.random.default_rng(0))
    np.testing.assert_array_equal(
        state.mixtures[7].params["mu"].data, np.stack([row_a, row_b])
    )
    assert state.known() == [7]


def test_lazy_init_jitters_when_batch_lacks_distinct_rows():
    state = make_state()
    cfg = mx.OtmmConfig(n_phi_steps=0, n_mix_steps=0)
    feats = np.tile([[2.0, 2.0]], (5, 1))
    mx.otmm_step({0: feats}, state, cfg, np.random.default_rng(0))
    mu = state.mixtures[0].params["mu"].data
    np.testing.assert_array_equal(mu[0], [2.0, 2.0])
    assert not np.array_equal(mu[1], mu[0])
    assert np.linalg.norm(mu[1] - mu[0]) < 0.1


def test_step_report_traces_have_configured_lengths():
    rng = np.random.default_rng(5)
    state = make_state()
    cfg = mx.OtmmConfig(n_phi_steps=4, n_mix_steps=2, n_mix_samples=8)
    report = mx.otmm_step({0: rng.standard_normal((5, 2))}, state, cfg, rng)
    assert len(report[0]["phi"]) == 4
    assert len(report[0]["mixture"]) == 2


def test_step_is_deterministic_under_fixed_seeds():
    def run():
        rng = np.random.default_rng(42)
        data_rng = np.random.default_rng(7)
        state = make_state(seed=3)
        cfg = mx.OtmmConfig(n_phi_steps=3, n_mix_steps=2, n_mix_samples=8)
        for _ in range(3):
            mx.otmm_step({0: data_rng.standard_normal((6, 2))}, state, cfg, rng)
        return {n: state.mixtures[0].params[n].data.copy()
                for n in state.mixtures[0].params.names()}

    a, b = run(), run()
    for n in a:
        np.testing.assert_array_equal(a[n], b[n])


def test_mixture_state_round_trips_through_checkpoint(tmp_path):
    rng = np.random.default_rng(6)
    state = make_state()
    cfg = mx.OtmmConfig(n_phi_steps=2, n_mix_steps=2, n_mix_samples=8)
    mx.otmm_step({4: rng.standard_normal((6, 2))}, state, cfg, rng)
    path = tmp_path / "mix.npz"
    model.save_checkpoint(
        str(path),
        {"mixture_4": state.mixtures[4].params, "potential_4": state.potentials[4].params},
        {"classes": [4]},
    )
    groups, meta = model.load_checkpoint(str(path))
    assert meta["classes"] == [4]
    fresh = mx.ClassMixture(2, 2)
    model.restore_params(fresh.params, groups["mixture_4"])
    for n in fresh.params.names():
        np.testing.assert_array_equal(fresh.params[n].data, state.mixtures[4].params[n].data)


# ---------------------------- stacked step against the autodiff oracle


def random_problem(k: int, n: int, n_mix_samples, seed: int = 0, hidden: int = 64, dim: int = 3, scale: float = 1.0):
    rng = np.random.default_rng(seed)
    z = scale * rng.standard_normal((n, dim))
    mix = mx.ClassMixture(k, dim)
    mix.params["alpha"].data[...] = rng.standard_normal(k)
    mix.params["mu"].data[...] = scale * rng.standard_normal((k, dim))
    mix.params["log_sigma"].data[...] = np.log(rng.uniform(0.3, 1.0, (k, dim)))
    phi = mx.DualPotential(dim, seed=seed + 1, hidden=hidden)
    cfg = mx.OtmmConfig(epsilon=0.5, tau=0.5, n_mix_samples=n_mix_samples)
    noise = draw_mixture_noise(n_mix_samples or n, k, dim, rng)
    return z, mix, phi, cfg, noise


def stacked_value_and_grads(z, mix, phi, cfg, noise):
    """Both phases' first-step values and gradients from the stacked step,
    for a group of one class with frozen noise."""
    group = frozen_noise_group(z, mix, phi, cfg, noise)
    x = mx.stacked_draws(group.mixture, cfg.tau, *group.phi_noise)[0][0]
    phi_value = mx.phi_gradient(group, cfg, x)[0]
    p = phi.forward(Tensor(z)).data[None]
    mix_value = mx.mixture_gradient(group, cfg, 0, p)[0]
    phi_grads = {name: g[0].copy() for name, g in group.potential.g.items()}
    mix_grads = {name: g[0].copy() for name, g in group.mixture.g.items()}
    return phi_value, phi_grads, mix_value, mix_grads


def gradient_rel_err(got: dict, want: dict) -> float:
    """Max-norm relative error of one side's whole gradient vector. Some
    entries are zero in exact arithmetic (b2, whose gradient sums
    d value/d p over the batch), so entries are not compared one by one."""
    assert got.keys() == want.keys()
    diff = max(np.abs(got[k] - want[k]).max() for k in want)
    scale = max(np.abs(want[k]).max() for k in want)
    return 0.0 if diff == 0 else diff / scale


def assert_matches_autodiff(z, mix, phi, cfg, noise):
    """Stacked values and gradients against graph.backward(dual_objective).

    The stacked step takes squared distances as |x|^2 + |z|^2 - 2 x.z, which
    rounds differently from the oracle's (x - z)^2: gradients agree to 1e-9
    relative over each side's whole vector, values to 1e-12 of the larger of
    the value and the mean squared feature norm, the scale the cancelling
    distance terms carry.
    """
    value = dual_objective(Tensor(z), mix, phi, cfg, noise=noise)
    graph.backward(value)
    want_phi = {name: t.grad for name, t in phi.params.items()}
    want_mix = {name: t.grad for name, t in mix.params.items()}
    phi_value, phi_grads, mix_value, mix_grads = stacked_value_and_grads(z, mix, phi, cfg, noise)
    scale = max(abs(value.item()), (z * z).sum(axis=1).mean())
    for got in (phi_value, mix_value):
        assert abs(got - value.item()) <= 1e-12 * scale
    assert gradient_rel_err(phi_grads, want_phi) <= 1e-9
    assert gradient_rel_err(mix_grads, want_mix) <= 1e-9


@pytest.mark.parametrize("n_mix_samples", [None, 64])
@pytest.mark.parametrize("n", [1, 7])
@pytest.mark.parametrize("k", [1, 4])
def test_closed_form_value_and_gradients_match_autodiff(k, n, n_mix_samples):
    assert_matches_autodiff(*random_problem(k, n, n_mix_samples, seed=10 * k + n))


@pytest.mark.parametrize("dim", [2, 8, 128])
@pytest.mark.parametrize("k", [1, 4])
def test_closed_form_matches_autodiff_at_large_feature_norms(k, dim):
    # norms up to about 50, where the matmul-form distances cancel most
    for seed in range(5):
        scale = 50.0 / np.sqrt(dim) / 2
        assert_matches_autodiff(*random_problem(k, 6, 12, seed=seed, dim=dim, scale=scale))


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


@pytest.mark.parametrize("k", [1, 4])
def test_closed_form_gradients_pass_central_differences(k):
    z, mix, phi, cfg, noise = random_problem(k, 5, 16, seed=30 + k, hidden=8)

    def phi_side():
        phi_value, phi_grads, _, _ = stacked_value_and_grads(z, mix, phi, cfg, noise)
        return phi_value, phi_grads

    def mix_side():
        _, _, mix_value, mix_grads = stacked_value_and_grads(z, mix, phi, cfg, noise)
        return mix_value, mix_grads

    assert finite_diff_check(closed_form_loss(phi_side, phi.params), phi.params) <= 1e-4
    assert finite_diff_check(closed_form_loss(mix_side, mix.params), mix.params) <= 1e-4


def reference_otmm_step(features_by_class, state, cfg, rng):
    """Per-class autodiff loop: what mx.otmm_step computes, one class at a
    time in ascending id, potential phase then mixture phase."""
    report = {}
    for c in sorted(features_by_class):
        feats = np.asarray(features_by_class[c], dtype=np.float64)
        state.ensure_class(c, feats)
        mix, phi = state.mixtures[c], state.potentials[c]
        report[c] = {
            "phi": reference_update_phi(Tensor(feats), mix, phi, cfg, rng),
            "mixture": reference_update_mixture(Tensor(feats), mix, phi, cfg, rng),
        }
    return report


def spy_on_groups(monkeypatch) -> list[list[int]]:
    """Record the class ids of every group otmm_step hands to update_phi."""
    groups = []
    real = mx.update_phi

    def spy(group, cfg):
        groups.append(list(group.ids))
        return real(group, cfg)

    monkeypatch.setattr(mx, "update_phi", spy)
    return groups


def test_otmm_step_matches_autodiff_reference(monkeypatch):
    # Four classes of 25 to 64 rows with K=4, d=12, stepped as one stacked
    # group padded to the largest class.
    data_rng = np.random.default_rng(40)
    feats = {
        0: data_rng.standard_normal((40, 12)),
        2: data_rng.standard_normal((64, 12)) + 2.0,
        5: data_rng.standard_normal((25, 12)) - 1.0,
        7: data_rng.standard_normal((50, 12)),
    }
    groups = spy_on_groups(monkeypatch)
    for n_mix_samples in (None, 64):
        cfg = mx.OtmmConfig(
            epsilon=0.5, tau=0.5, n_phi_steps=5, n_mix_steps=3, lr_phi=0.05,
            n_mix_samples=n_mix_samples,
        )
        state = mx.OtmmState(n_components=4, feat_dim=12, seed=1)
        mx.otmm_step(feats, state, cfg, np.random.default_rng(0))  # warm, non-trivial state
        ref_state = copy.deepcopy(state)

        groups.clear()
        rng, ref_rng = np.random.default_rng(41), np.random.default_rng(41)
        report = mx.otmm_step(feats, state, cfg, rng)
        ref_report = reference_otmm_step(feats, ref_state, cfg, ref_rng)
        assert groups == [[0, 2, 5, 7]]

        assert report.keys() == ref_report.keys()
        for c in report:
            for phase in ("phi", "mixture"):
                np.testing.assert_allclose(report[c][phase], ref_report[c][phase], rtol=1e-10)
            for params, ref_params in (
                (state.mixtures[c].params, ref_state.mixtures[c].params),
                (state.potentials[c].params, ref_state.potentials[c].params),
            ):
                for name in params.names():
                    np.testing.assert_allclose(
                        params[name].data, ref_params[name].data, rtol=1e-10, atol=1e-13
                    )
        assert rng.random() == ref_rng.random()  # same stream position


@pytest.mark.parametrize("n_phi_steps,n_mix_steps", [(0, 3), (5, 0)])
def test_otmm_step_with_an_empty_phase_matches_autodiff_reference(n_phi_steps, n_mix_steps):
    data_rng = np.random.default_rng(43)
    feats = {1: data_rng.standard_normal((9, 4)), 3: data_rng.standard_normal((5, 4)) + 1.0}
    state = mx.OtmmState(n_components=3, feat_dim=4, seed=1)
    warm = mx.OtmmConfig(epsilon=0.5, tau=0.5, n_mix_samples=16)
    mx.otmm_step(feats, state, warm, np.random.default_rng(0))
    ref_state = copy.deepcopy(state)

    cfg = mx.OtmmConfig(
        epsilon=0.5, tau=0.5, n_phi_steps=n_phi_steps, n_mix_steps=n_mix_steps, n_mix_samples=16
    )
    rng, ref_rng = np.random.default_rng(44), np.random.default_rng(44)
    report = mx.otmm_step(feats, state, cfg, rng)
    ref_report = reference_otmm_step(feats, ref_state, cfg, ref_rng)
    assert report.keys() == ref_report.keys()
    for c in report:
        assert (len(report[c]["phi"]), len(report[c]["mixture"])) == (n_phi_steps, n_mix_steps)
        for phase in ("phi", "mixture"):
            np.testing.assert_allclose(report[c][phase], ref_report[c][phase], rtol=1e-10)
        for params, ref_params in (
            (state.mixtures[c].params, ref_state.mixtures[c].params),
            (state.potentials[c].params, ref_state.potentials[c].params),
        ):
            for name in params.names():
                np.testing.assert_allclose(params[name].data, ref_params[name].data, rtol=1e-10, atol=1e-13)
    assert rng.random() == ref_rng.random()


def test_noise_buffer_lays_views_end_to_end_and_grows_only_when_short():
    buffer = mx.NoiseBuffer()
    a, b = buffer.views((2, 3), (4,))
    flat = buffer._flat
    assert flat.size == 10 and a.shape == (2, 3) and b.shape == (4,)
    a[...], b[...] = 1.0, 2.0
    np.testing.assert_array_equal(flat, [1.0] * 6 + [2.0] * 4)
    (c,) = buffer.views((3, 3))
    assert buffer._flat is flat and np.shares_memory(c, flat)
    buffer.views((11,))
    assert buffer._flat is not flat and buffer._flat.size == 11


def test_otmm_step_draws_every_group_into_the_state_noise_buffer(monkeypatch):
    # Three classes of 2048 draws are one group per call; it draws into the
    # state's buffer, which a later batch of the same shape reuses.
    rng = np.random.default_rng(45)
    state = make_state(seed=6)
    cfg = mx.OtmmConfig(n_phi_steps=2, n_mix_steps=2, n_mix_samples=2048)
    feats = {c: rng.standard_normal((4, 2)) for c in (0, 1, 2)}
    shared = []
    real = mx.update_phi

    def spy(group, cfg):
        noise = (*group.phi_noise, *group.mix_noise)
        shared.append(all(np.shares_memory(a, state.noise._flat) for a in noise))
        return real(group, cfg)

    monkeypatch.setattr(mx, "update_phi", spy)
    mx.otmm_step(feats, state, cfg, rng)
    flat = state.noise._flat
    mx.otmm_step(feats, state, cfg, rng)
    assert shared == [True] * 2
    assert state.noise._flat is flat


@pytest.mark.parametrize("n_mix_samples", [None, 6])
def test_stale_noise_buffer_contents_change_nothing(n_mix_samples):
    # Classes of 3, 9 and 5 rows share a group, padded to 9 rows and, with
    # one draw per row, to 9 draws. Whatever the buffer holds before a step
    # (NaN or zeros), every parameter and value comes out byte for byte the
    # same: padding is written, not left as found.
    data_rng = np.random.default_rng(46)
    batches = [
        {c: data_rng.standard_normal((n, 2)) for c, n in ((0, 3), (1, 9), (4, 5))},
        {1: data_rng.standard_normal((2, 2))},
        {0: data_rng.standard_normal((7, 2)), 4: data_rng.standard_normal((4, 2))},
    ]
    cfg = mx.OtmmConfig(n_phi_steps=3, n_mix_steps=2, n_mix_samples=n_mix_samples)
    runs = []
    for stale in (np.nan, 0.0):
        state, rng = make_state(seed=7), np.random.default_rng(47)
        reports = []
        for feats in batches:
            state.noise._flat = np.full(4096, stale)
            reports.append(mx.otmm_step(feats, state, cfg, rng))
            assert state.noise._flat.size == 4096  # every group drew into it
        params = {
            (c, name): t.data.tobytes()
            for c in state.known()
            for ps in (state.mixtures[c].params, state.potentials[c].params)
            for name, t in ps.items()
        }
        runs.append((reports, params))
    assert runs[0] == runs[1]


def test_stacked_potentials_run_the_extractor_kernel_bit_for_bit():
    # The transport step runs model.mlp_forward/mlp_backward on a _Stack of
    # potentials with a leading class axis; with equal row counts, every
    # class's values and (w, b) gradients are those of its potential run
    # alone through the same kernel, byte for byte.
    rng = np.random.default_rng(70)
    phis = [mx.DualPotential(8, seed=s) for s in (1, 2, 3, 4)]
    z = rng.standard_normal((4, 20, 8))
    g = rng.standard_normal((4, 20, 1))
    stack = mx._Stack([phi.params for phi in phis])
    layers = model.mlp_layers(stack.v)
    out, hidden = model.mlp_forward(layers, z)
    model.mlp_backward(layers, [z, *hidden], g, model.mlp_layers(stack.g))
    for c, phi in enumerate(phis):
        alone = phi.weights()
        out_c, hidden_c = model.mlp_forward(alone, z[c])
        grads_c = [(np.empty_like(w), np.empty_like(b)) for w, b in alone]
        model.mlp_backward(alone, [z[c], *hidden_c], g[c], grads_c)
        assert out[c].tobytes() == out_c.tobytes()
        for (g_w, g_b), (g_w_c, g_b_c) in zip(model.mlp_layers(stack.g), grads_c):
            assert g_w[c].tobytes() == g_w_c.tobytes()
            assert g_b[c].tobytes() == g_b_c.tobytes()


def test_class_stepped_alone_matches_it_stacked_beside_a_larger_class(monkeypatch):
    # Stacked with class 4, class 1's rows and draws are padded from 3 to 9;
    # alone, they are not. Class 1 draws its noise first either way.
    data_rng = np.random.default_rng(60)
    small, large = data_rng.standard_normal((3, 4)), data_rng.standard_normal((9, 4)) + 1.0
    cfg = mx.OtmmConfig(n_phi_steps=4, n_mix_steps=3)
    state = mx.OtmmState(n_components=3, feat_dim=4, seed=2)
    mx.otmm_step({1: small, 4: large}, state, cfg, np.random.default_rng(0))
    alone = copy.deepcopy(state)

    groups = spy_on_groups(monkeypatch)
    report = mx.otmm_step({1: small, 4: large}, state, cfg, np.random.default_rng(61))
    alone_report = mx.otmm_step({1: small}, alone, cfg, np.random.default_rng(61))
    assert groups == [[1, 4], [1]]

    for phase in ("phi", "mixture"):
        np.testing.assert_allclose(report[1][phase], alone_report[1][phase], rtol=1e-12)
    for params, alone_params in (
        (state.mixtures[1].params, alone.mixtures[1].params),
        (state.potentials[1].params, alone.potentials[1].params),
    ):
        for name in params.names():
            np.testing.assert_allclose(
                params[name].data, alone_params[name].data, rtol=1e-12, atol=1e-15
            )


def test_nonfinite_features_raise_at_origin_and_leave_class_unchanged():
    rng = np.random.default_rng(50)
    state = make_state(seed=2)
    cfg = mx.OtmmConfig(n_phi_steps=2, n_mix_steps=2, n_mix_samples=8)
    mx.otmm_step({0: rng.standard_normal((4, 2)), 5: rng.standard_normal((4, 2))}, state, cfg, rng)
    before = {
        c: (param_arrays(state.mixtures[c].params), param_arrays(state.potentials[c].params))
        for c in state.known()
    }
    bad = rng.standard_normal((4, 2))
    bad[2] = [np.nan, 1.0]
    with pytest.raises(NumericsError) as info:
        mx.otmm_step({5: bad}, state, cfg, rng)
    assert (info.value.class_id, info.value.phase) == (5, "phi")
    assert "class 5" in str(info.value) and "phi" in str(info.value)
    assert info.value.param in state.potentials[5].params
    for c, (mix_before, phi_before) in before.items():
        for name, v in mix_before.items():
            np.testing.assert_array_equal(state.mixtures[c].params[name].data, v)
        for name, v in phi_before.items():
            np.testing.assert_array_equal(state.potentials[c].params[name].data, v)


def test_failure_in_a_higher_class_writes_nothing_for_any_class(monkeypatch):
    # Classes 0 and 5 exist, 3 is new; 5 fails. The three share a group, and
    # the classes below the failing one must not be written either.
    rng = np.random.default_rng(52)
    state = make_state(seed=4)
    cfg = mx.OtmmConfig(n_phi_steps=2, n_mix_steps=2, n_mix_samples=8)
    mx.otmm_step({0: rng.standard_normal((4, 2)), 5: rng.standard_normal((6, 2))}, state, cfg, rng)
    before = {
        c: (param_arrays(state.mixtures[c].params), param_arrays(state.potentials[c].params))
        for c in state.known()
    }
    bad = rng.standard_normal((6, 2))
    bad[4] = [1.0, np.nan]
    stepped = spy_on_groups(monkeypatch)
    with pytest.raises(NumericsError) as info:
        mx.otmm_step(
            {0: rng.standard_normal((4, 2)), 3: rng.standard_normal((3, 2)), 5: bad}, state, cfg, rng
        )
    assert stepped == [[0, 3, 5]]
    assert (info.value.class_id, info.value.phase) == (5, "phi")
    assert state.known() == [0, 5]
    for c, (mix_before, phi_before) in before.items():
        for name, v in mix_before.items():
            np.testing.assert_array_equal(state.mixtures[c].params[name].data, v)
        for name, v in phi_before.items():
            np.testing.assert_array_equal(state.potentials[c].params[name].data, v)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf on the way to the error
def test_the_first_failing_group_names_the_failure(monkeypatch):
    # Class 0 fails in its mixture phase (a rate that overflows the second
    # step), class 5 in its potential phase (a NaN row). Both are one group,
    # whose every potential step runs before any mixture step, so class 5's
    # failure is named although class 0 is lower.
    rng = np.random.default_rng(53)
    state = make_state(seed=5)
    cfg = mx.OtmmConfig(n_phi_steps=2, n_mix_steps=2, n_mix_samples=2048, lr_mix=1e300)
    bad = rng.standard_normal((4, 2))
    bad[1] = [np.nan, 0.0]
    stepped = spy_on_groups(monkeypatch)
    with pytest.raises(NumericsError) as info:
        mx.otmm_step({0: rng.standard_normal((5, 2)), 5: bad}, state, cfg, rng)
    assert stepped == [[0, 5]]
    assert (info.value.class_id, info.value.phase) == (5, "phi")
    assert state.known() == []


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf on the way to the error
def test_mixture_phase_failure_rolls_back_the_whole_class_step():
    # A rate this large makes the first mixture step finite but the second
    # overflow exp(log_sigma); the potential's successful ascent steps in the
    # same call must be undone too.
    rng = np.random.default_rng(51)
    state = make_state(seed=3)
    feats = {1: rng.standard_normal((5, 2))}
    mx.otmm_step(feats, state, mx.OtmmConfig(n_mix_samples=8), rng)
    mix_before = param_arrays(state.mixtures[1].params)
    phi_before = param_arrays(state.potentials[1].params)
    cfg = mx.OtmmConfig(n_phi_steps=3, n_mix_steps=2, n_mix_samples=8, lr_mix=1e300)
    with pytest.raises(NumericsError) as info:
        mx.otmm_step(feats, state, cfg, rng)
    assert (info.value.class_id, info.value.phase) == (1, "mixture")
    for name, v in mix_before.items():
        np.testing.assert_array_equal(state.mixtures[1].params[name].data, v)
    for name, v in phi_before.items():
        np.testing.assert_array_equal(state.potentials[1].params[name].data, v)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf on the way to the error
def test_failed_first_step_does_not_add_the_class():
    state = make_state()
    bad = np.array([[0.0, 1.0], [np.inf, 0.0]])
    with pytest.raises(NumericsError):
        mx.otmm_step({4: bad}, state, mx.OtmmConfig(), np.random.default_rng(0))
    assert state.known() == []


# ------------------------------------------- agreement with the oracle


def ascend_potential_to_optimum(z, mix, phi, eps):
    """Decaying-rate ascent long enough to pin the semi-dual maximum."""
    rng = np.random.default_rng(99)
    for lr, steps in ((0.1, 400), (0.03, 400), (0.01, 600)):
        cfg = mx.OtmmConfig(
            epsilon=eps, tau=1e-3, n_phi_steps=steps, n_mix_steps=0,
            n_mix_samples=128, lr_phi=lr,
        )
        step_alone("phi", z, mix, phi, cfg, rng=rng)


@pytest.mark.parametrize("eps,seed", [(0.1, 20), (1.0, 21)])
def test_maximized_dual_matches_sinkhorn_value(eps, seed):
    # Both sides of the same transport problem: ascend the semi-dual in the
    # potential (mixture collapsed to three atoms), then compare against the
    # independent log-domain Sinkhorn solver. The final dual value is
    # evaluated by exact atom enumeration, not Monte Carlo.
    rng = np.random.default_rng(seed)
    zb = rng.standard_normal((3, 2))
    atoms = rng.standard_normal((3, 2))
    weights = rng.dirichlet(3.0 * np.ones(3))
    mix = degenerate_mixture(atoms, weights)
    phi = mx.DualPotential(2, seed=seed)

    ascend_potential_to_optimum(zb, mix, phi, eps)
    dual = dual_value_exact(zb, atoms, weights, phi, eps)

    sink, _ = sinkhorn_distance(
        DiscreteMeasure.uniform(zb), DiscreteMeasure(atoms, weights), epsilon=eps
    )
    assert abs(dual - sink) / abs(sink) <= 0.05


# --------------------------------------------------- two-mode recovery


@pytest.mark.parametrize("seed", [3, 5])
def test_stream_fitting_recovers_two_modes(seed):
    # A single class whose data alternates between two far-apart modes; after
    # 200 streamed batches both centroids must sit within 1.0 of the true
    # mode centers (under the best of the two matchings).
    #
    # The regime matters: a small Gumbel temperature removes the soft-draw
    # interpolation bias, a small mixture rate keeps the mixing weights from
    # random-walking into collapse, and a generous epsilon keeps the
    # warm-started potential's ascent stable enough to track each batch.
    true_modes = np.array([[5.0, 0.0], [-5.0, 0.0]])
    spec = dt.SynthSpec(
        num_classes=1, modes_per_class=2,
        mode_centers=np.array([[[5.0, 0.0], [-5.0, 0.0]]]),
        mode_scale=0.15, samples_per_class=25_600, seed=seed,
    )
    train, _ = dt.gen_synthetic(spec)
    stream = dt.make_split_stream(train, 1, 1, batch_size=64, seed=seed)
    cfg = mx.OtmmConfig(
        epsilon=4.0, tau=0.05, lr_phi=0.05, lr_mix=0.02,
        n_phi_steps=30, n_mix_steps=2, n_mix_samples=256,
    )
    state = mx.OtmmState(n_components=2, feat_dim=2, seed=seed)
    rng = np.random.default_rng(seed)
    for i, batch in enumerate(stream.tasks[0].batches):
        if i == 200:
            break
        mx.otmm_step({0: batch.features}, state, cfg, rng)

    mu = state.mixtures[0].centroids()
    err = min(
        np.linalg.norm(mu - true_modes, axis=1).max(),
        np.linalg.norm(mu - true_modes[::-1], axis=1).max(),
    )
    assert err < 1.0
