"""Per-class Gaussian mixtures fitted online through the entropic OT dual.

Each class keeps a K-component diagonal Gaussian mixture (mixing logits,
centroids, log-scales) and a small scalar-output MLP acting as the
Kantorovich potential of the semi-dual objective

    value = E_batch[phi(z)] + E_mixture[conjugate(z_tilde)],

where the conjugate is a soft-min over the batch at temperature epsilon.
Mixture draws use the Gumbel-softmax reparameterization so the objective is
differentiable in all mixture parameters; all noise is sampled outside the
gradient. The potential ascends the objective, the mixture descends it —
shrinking the entropic transport cost between the mixture and the class's
data as batches stream by.

The transport step (`update_phi`, `update_mixture`) computes the value and
the exact gradient of the side being updated in closed form on plain numpy
arrays; the frozen side is only evaluated. `dual_objective` builds the same
value as an autodiff graph and is the oracle those gradients are tested
against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import NumericsError, ParamSet, Tensor

POTENTIAL_WIDTH = 64


@dataclass(frozen=True)
class OtmmConfig:
    epsilon: float = 0.1  # entropic regularization of the transport cost
    tau: float = 0.5  # Gumbel-softmax temperature, fixed (no annealing)
    n_phi_steps: int = 5
    n_mix_steps: int = 3
    n_mix_samples: int | None = None  # None: match the batch size per call
    lr_phi: float = 0.05
    lr_mix: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.epsilon <= 0 or self.tau <= 0:
            raise ValueError("epsilon and tau must be positive")
        if self.n_phi_steps < 0 or self.n_mix_steps < 0:
            raise ValueError("step counts must be non-negative")
        if self.n_mix_samples is not None and self.n_mix_samples < 1:
            raise ValueError("n_mix_samples must be positive")
        if self.lr_phi <= 0 or self.lr_mix <= 0:
            raise ValueError("learning rates must be positive")


@dataclass(frozen=True)
class MixtureNoise:
    """Frozen randomness for one set of mixture draws."""

    gumbel: np.ndarray  # (n, K)
    gauss: np.ndarray  # (n, K, feat_dim)


def draw_mixture_noise(n: int, k: int, dim: int, rng: np.random.Generator) -> MixtureNoise:
    u = rng.random(size=(n, k))
    u = np.clip(u, 1e-300, None)  # u = 0 would send the Gumbel to -inf
    return MixtureNoise(
        gumbel=-np.log(-np.log(u)),
        gauss=rng.standard_normal((n, k, dim)),
    )


def _draw_noise(
    n: int, k: int, dim: int, rng: np.random.Generator | None, noise: MixtureNoise | None
) -> MixtureNoise:
    """The frozen `noise` after a shape check, else a fresh draw from `rng`."""
    if noise is None:
        if rng is None:
            raise ValueError("provide rng or frozen noise")
        return draw_mixture_noise(n, k, dim, rng)
    if noise.gumbel.shape != (n, k) or noise.gauss.shape != (n, k, dim):
        raise ValueError("noise shape does not match (n, K, feat_dim)")
    return noise


class ClassMixture:
    """Trainable K-component diagonal Gaussian mixture for one class.

    Scales live as logs so they stay strictly positive; mixing weights are a
    softmax over free logits, so they stay on the simplex.
    """

    def __init__(self, n_components: int, feat_dim: int):
        if n_components < 1:
            raise ValueError("need at least one component")
        self.n_components = n_components
        self.feat_dim = feat_dim
        self.params = ParamSet()
        self.params.add("alpha", np.zeros(n_components))
        self.params.add("mu", np.zeros((n_components, feat_dim)))
        self.params.add("log_sigma", np.full((n_components, feat_dim), np.log(0.5)))

    @staticmethod
    def from_features(features: np.ndarray, n_components: int, seed: int = 0) -> "ClassMixture":
        """Anchor centroids at the first K distinct feature rows.

        A one-pass stream cannot revisit data, so components start on real
        observations; if the batch has fewer distinct rows than K, the
        remainder are jittered copies of the first row.
        """
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2 or features.shape[0] == 0:
            raise ValueError("need a non-empty (n, feat_dim) feature array")
        mix = ClassMixture(n_components, features.shape[1])
        distinct: list[np.ndarray] = []
        for row in features:
            if not any(np.array_equal(row, d) for d in distinct):
                distinct.append(row)
            if len(distinct) == n_components:
                break
        rng = np.random.default_rng(seed)
        while len(distinct) < n_components:
            distinct.append(distinct[0] + 0.01 * rng.standard_normal(features.shape[1]))
        mix.params["mu"].data[...] = np.stack(distinct)
        return mix

    def weights(self) -> np.ndarray:
        a = self.params["alpha"].data
        e = np.exp(a - a.max())
        return e / e.sum()

    def centroids(self) -> np.ndarray:
        return self.params["mu"].data.copy()

    def scales(self) -> np.ndarray:
        return np.exp(self.params["log_sigma"].data)


class DualPotential:
    """Scalar-output ReLU MLP (feat_dim -> 64 -> 64 -> 1): the trainable
    Kantorovich potential of the semi-dual transport objective."""

    def __init__(self, feat_dim: int, seed: int = 0, hidden: int = POTENTIAL_WIDTH):
        self.feat_dim = feat_dim
        self.params = ParamSet()
        rng = np.random.default_rng(seed)
        dims = [feat_dim, hidden, hidden, 1]
        for i, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
            w = rng.standard_normal((fan_in, fan_out)) * np.sqrt(2.0 / fan_in)
            self.params.add(f"w{i}", w)
            self.params.add(f"b{i}", np.zeros((1, fan_out)))

    def forward(self, z: Tensor) -> Tensor:
        """(n, feat_dim) -> (n,) potential values."""
        h = ad.relu(ad.add(ad.matmul(z, self.params["w0"]), self.params["b0"]))
        h = ad.relu(ad.add(ad.matmul(h, self.params["w1"]), self.params["b1"]))
        out = ad.add(ad.matmul(h, self.params["w2"]), self.params["b2"])
        return ad.reshape(out, (z.shape[0],))


def gumbel_softmax_sample(
    alpha: Tensor,
    tau: float,
    rng: np.random.Generator | None = None,
    gumbel: np.ndarray | None = None,
) -> Tensor:
    """One relaxed categorical draw y = softmax((log pi + G) / tau).

    Differentiable w.r.t. the mixing logits with the noise frozen; as tau
    drops to zero, y approaches the one-hot at argmax(log pi + G), which the
    Gumbel-max property distributes according to pi.
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    k = alpha.shape[0]
    if gumbel is None:
        if rng is None:
            raise ValueError("provide rng or frozen gumbel noise")
        gumbel = draw_mixture_noise(1, k, 1, rng).gumbel[0]
    log_pi = ad.sub(alpha, ad.logsumexp(alpha))
    return ad.softmax(ad.scale(ad.add(log_pi, Tensor(gumbel)), 1.0 / tau), axis=-1)


def sample_mixture(
    mix: ClassMixture,
    tau: float,
    n: int,
    rng: np.random.Generator | None = None,
    noise: MixtureNoise | None = None,
) -> tuple[Tensor, MixtureNoise]:
    """Draw n reparameterized mixture samples: z_tilde = sum_k y_k (mu_k + eps_k * sigma_k).

    Returns the draws and the noise that produced them, so a caller can
    rebuild the identical graph (finite differences, monotonicity checks).
    """
    if n < 1:
        raise ValueError("need at least one draw")
    if tau <= 0:
        raise ValueError("tau must be positive")
    k, d = mix.n_components, mix.feat_dim
    noise = _draw_noise(n, k, d, rng, noise)

    alpha = mix.params["alpha"]
    log_pi = ad.sub(alpha, ad.logsumexp(alpha))  # (K,)
    y = ad.softmax(
        ad.scale(ad.add(log_pi, Tensor(noise.gumbel)), 1.0 / tau), axis=1
    )  # (n, K)

    sigma = ad.exp(mix.params["log_sigma"])  # (K, d)
    comps = ad.add(mix.params["mu"], ad.mul(Tensor(noise.gauss), sigma))  # (n, K, d)
    weighted = ad.mul(ad.reshape(y, (n, k, 1)), comps)
    return ad.tsum(weighted, axis=1), noise


def phi_tilde(z_tilde: Tensor, z_batch: Tensor, phi: DualPotential, epsilon: float) -> Tensor:
    """Smoothed conjugate of the potential over the empirical batch.

    For each draw: -epsilon * [logsumexp_i((-d(z_i, draw) + phi(z_i)) / epsilon) - ln n],
    with d the squared Euclidean distance. A soft-min of d - phi at
    temperature epsilon; stable via logsumexp.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    n = z_batch.shape[0]
    if n == 0:
        raise ValueError("empty feature batch")
    dists = ad.pairwise_sqdist(z_tilde, z_batch)  # (m, n)
    inner = ad.scale(ad.add(ad.neg(dists), phi.forward(z_batch)), 1.0 / epsilon)
    lse = ad.logsumexp(inner, axis=1)  # (m,)
    return ad.add(ad.scale(lse, -epsilon), Tensor(epsilon * np.log(n)))


def dual_objective(
    z_batch: Tensor,
    mix: ClassMixture,
    phi: DualPotential,
    cfg: OtmmConfig,
    rng: np.random.Generator | None = None,
    noise: MixtureNoise | None = None,
) -> Tensor:
    """Monte-Carlo semi-dual value: mean phi over the batch plus mean
    conjugate over fresh mixture draws. Scalar tensor, differentiable in both
    the potential and the mixture (noise enters as constants)."""
    n = z_batch.shape[0]
    if n == 0:
        raise ValueError("empty feature batch")
    m = cfg.n_mix_samples or n
    draws, _ = sample_mixture(mix, cfg.tau, m, rng=rng, noise=noise)
    return ad.add(
        ad.tmean(phi.forward(z_batch)),
        ad.tmean(phi_tilde(draws, z_batch, phi, cfg.epsilon)),
    )


# ---------------------------------------------------------------------------
# closed-form transport step
#
# The functions below recompute dual_objective on plain arrays, operation for
# operation, and route its gradient back by hand into one side only, in the
# order the autodiff graph sums it. The step is then bit for bit the one that
# back-propagating dual_objective would take, and runs stay reproducible
# across the two.


def _potential_forward(phi: DualPotential, z: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Input of every layer and the (n,) potential values."""
    n_layers = len(phi.params.names()) // 2
    inputs = [z]
    for i in range(n_layers):
        a = inputs[-1] @ phi.params[f"w{i}"].data + phi.params[f"b{i}"].data
        if i < n_layers - 1:
            inputs.append(np.where(a > 0, a, 0.0))
    return inputs, a.reshape(z.shape[0])


def _potential_grads(
    phi: DualPotential, inputs: list[np.ndarray], g_p: np.ndarray
) -> dict[str, np.ndarray]:
    """Back-propagate d value/d p (n,) through the ReLU layers."""
    grads = {}
    g = g_p.reshape(-1, 1)
    for i in reversed(range(len(inputs))):
        h = inputs[i]
        grads[f"w{i}"] = h.T @ g
        grads[f"b{i}"] = g.sum(axis=0, keepdims=True)
        if i:
            g = (g @ phi.params[f"w{i}"].data.T) * (h > 0)
    return grads


def _mixture_draws(mix: ClassMixture, tau: float, noise: MixtureNoise):
    """Draws x (m, d), as sample_mixture makes them, plus what the gradient
    needs: relaxed assignments y (m, K), weights pi (K,), scales (K, d) and
    component draws (m, K, d)."""
    alpha = mix.params["alpha"].data
    top = alpha.max()
    shifted = np.exp(alpha - top)
    total = shifted.sum()
    log_pi = alpha - (top + np.log(total))
    logits = (log_pi + noise.gumbel) * (1.0 / tau)
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    y = e / e.sum(axis=1, keepdims=True)
    sigma = np.exp(mix.params["log_sigma"].data)
    comps = mix.params["mu"].data + noise.gauss * sigma
    return (y[:, :, None] * comps).sum(axis=1), y, shifted / total, sigma, comps


def _soft_min(x: np.ndarray, z: np.ndarray, p: np.ndarray, epsilon: float):
    """Conjugate (m,) of the draws x against the batch z with potential
    values p, as phi_tilde computes it; the cotangent w (m, n) that the mean
    conjugate sends back to each term p_j - D_ij, w_ij = -P_ij/m with P the
    row softmax; and the differences x_i - z_j (m, n, d)."""
    m, n = x.shape[0], z.shape[0]
    if n == 0:
        raise ValueError("empty feature batch")
    diff = x[:, None, :] - z[None, :, :]
    inner = (-np.einsum("mnd,mnd->mn", diff, diff) + p) * (1.0 / epsilon)
    top = inner.max(axis=1, keepdims=True)
    shifted = np.exp(inner - top)
    total = shifted.sum(axis=1, keepdims=True)
    conj = (top + np.log(total))[:, 0] * -epsilon + epsilon * np.log(n)
    w = (1.0 / m * -epsilon) * (shifted / total) * (1.0 / epsilon)
    return conj, w, diff


def _mean(a: np.ndarray) -> float:
    return a.sum() * (1.0 / a.size)


def phi_value_and_grad(
    z: np.ndarray, mix: ClassMixture, phi: DualPotential, cfg: OtmmConfig, noise: MixtureNoise
) -> tuple[float, dict[str, np.ndarray]]:
    """Semi-dual value and its gradient in the potential's parameters, with
    the mixture and its noise fixed.

    d value/d p_j = 1/n - (1/m) sum_i P_ij, back-propagated through the MLP.
    The two terms come from the two uses of the potential (batch mean and
    conjugate); each is back-propagated on its own and the parameter
    gradients summed, as the autodiff graph does, so the sums round alike.
    """
    x = _mixture_draws(mix, cfg.tau, noise)[0]
    inputs, p = _potential_forward(phi, z)
    conj, w, _ = _soft_min(x, z, p, cfg.epsilon)
    n = z.shape[0]
    from_mean = _potential_grads(phi, inputs, np.full(n, 1.0 / n))
    from_conj = _potential_grads(phi, inputs, w.sum(axis=0))
    grads = {name: from_mean[name] + from_conj[name] for name in from_mean}
    return float(_mean(p) + _mean(conj)), grads


def mixture_value_and_grad(
    z: np.ndarray, p: np.ndarray, mix: ClassMixture, cfg: OtmmConfig, noise: MixtureNoise
) -> tuple[float, dict[str, np.ndarray]]:
    """Semi-dual value and its gradient in alpha/mu/log_sigma, with the
    potential's values p (n,) on the batch fixed.

    g_x = (2/m) sum_j P_ij (x_i - z_j), routed through the Gaussian
    reparameterization and the Gumbel-softmax.
    """
    x, y, pi, sigma, comps = _mixture_draws(mix, cfg.tau, noise)
    conj, w, diff = _soft_min(x, z, p, cfg.epsilon)
    g_x = 2.0 * np.einsum("mn,mnd->md", -w, diff)
    g_comps = y[:, :, None] * g_x[:, None, :]  # (m, K, d)
    g_y = (g_x[:, None, :] * comps).sum(axis=2)
    g_logits = y * (g_y - (g_y * y).sum(axis=1, keepdims=True)) * (1.0 / cfg.tau)
    g_log_pi = g_logits.sum(axis=0)
    grads = {
        "alpha": g_log_pi - pi * g_log_pi.sum(),
        "mu": g_comps.sum(axis=0),
        "log_sigma": (g_comps * noise.gauss).sum(axis=0) * sigma,
    }
    return float(_mean(p) + _mean(conj)), grads


def _apply_step(params: ParamSet, grads: dict[str, np.ndarray], step: float, phase: str) -> None:
    """p <- p + step * grad for every parameter, or for none: each updated
    array is checked before any is written back."""
    new = {name: t.data + step * grads[name] for name, t in params.items()}
    for name, arr in new.items():
        if not np.isfinite(arr).all():
            raise NumericsError(
                f"non-finite {phase} step for parameter {name!r}", phase=phase, param=name
            )
    for name, t in params.items():
        np.copyto(t.data, new[name])


def update_phi(
    z_batch: Tensor,
    mix: ClassMixture,
    phi: DualPotential,
    cfg: OtmmConfig,
    rng: np.random.Generator | None = None,
    noise: MixtureNoise | None = None,
) -> list[float]:
    """Gradient-ascent steps on the dual value w.r.t. the potential only.

    Fresh mixture noise per step from `rng`; pass `noise` instead to reuse
    one frozen draw across all steps (deterministic ascent).
    """
    z = z_batch.data
    m = cfg.n_mix_samples or z.shape[0]
    trace = []
    for _ in range(cfg.n_phi_steps):
        step_noise = _draw_noise(m, mix.n_components, mix.feat_dim, rng, noise)
        value, grads = phi_value_and_grad(z, mix, phi, cfg, step_noise)
        trace.append(value)
        _apply_step(phi.params, grads, cfg.lr_phi, "phi")
    return trace


def update_mixture(
    z_batch: Tensor,
    mix: ClassMixture,
    phi: DualPotential,
    cfg: OtmmConfig,
    rng: np.random.Generator | None = None,
    noise: MixtureNoise | None = None,
) -> list[float]:
    """Gradient-descent steps on the dual value w.r.t. alpha/mu/log_sigma,
    potential frozen — pulls the mixture toward the class's data."""
    z = z_batch.data
    m = cfg.n_mix_samples or z.shape[0]
    p = _potential_forward(phi, z)[1]
    trace = []
    for _ in range(cfg.n_mix_steps):
        step_noise = _draw_noise(m, mix.n_components, mix.feat_dim, rng, noise)
        value, grads = mixture_value_and_grad(z, p, mix, cfg, step_noise)
        trace.append(value)
        _apply_step(mix.params, grads, -cfg.lr_mix, "mixture")
    return trace


class OtmmState:
    """All per-class mixtures and potentials, created lazily on first sight.

    Init seeds derive from (seed, class id), so a rerun with the same stream
    builds bitwise-identical state regardless of class arrival order.
    """

    def __init__(self, n_components: int, feat_dim: int, seed: int = 0):
        if n_components < 1:
            raise ValueError("need at least one component")
        self.n_components = n_components
        self.feat_dim = feat_dim
        self.seed = seed
        self.mixtures: dict[int, ClassMixture] = {}
        self.potentials: dict[int, DualPotential] = {}

    def ensure_class(self, class_id: int, features: np.ndarray) -> None:
        if class_id in self.mixtures:
            return
        self.mixtures[class_id] = ClassMixture.from_features(
            features, self.n_components, seed=np.random.default_rng((self.seed, class_id)).integers(2**31),
        )
        self.potentials[class_id] = DualPotential(
            self.feat_dim, seed=np.random.default_rng((self.seed, class_id, 1)).integers(2**31),
        )

    def known(self) -> list[int]:
        return sorted(self.mixtures)


def otmm_step(
    features_by_class: dict[int, np.ndarray],
    state: OtmmState,
    cfg: OtmmConfig,
    rng: np.random.Generator,
) -> dict[int, dict[str, list[float]]]:
    """One alternating update per class present in the joint batch.

    Features must arrive detached (plain arrays). Classes not in the batch
    are untouched; classes seen for the first time get their mixture anchored
    on this batch's features. Returns per-class objective traces.

    A non-finite update raises NumericsError with the class id, phase and
    parameter, and leaves that class's state as it was before the call.
    """
    report: dict[int, dict[str, list[float]]] = {}
    for c in sorted(features_by_class):
        feats = np.asarray(features_by_class[c], dtype=np.float64)
        if feats.shape[0] == 0:
            continue
        is_new = c not in state.mixtures
        state.ensure_class(c, feats)
        z = Tensor(feats)
        mix, phi = state.mixtures[c], state.potentials[c]
        tensors = mix.params.tensors() + phi.params.tensors()
        saved = [t.data.copy() for t in tensors]
        try:
            report[c] = {
                "phi": update_phi(z, mix, phi, cfg, rng),
                "mixture": update_mixture(z, mix, phi, cfg, rng),
            }
        except NumericsError as err:
            # leave the class as it was before this call
            if is_new:
                del state.mixtures[c], state.potentials[c]
            for t, data in zip(tensors, saved):
                np.copyto(t.data, data)
            raise NumericsError(
                f"class {c}: {err}", class_id=c, phase=err.phase, param=err.param
            ) from err
    return report


def split_by_class(features: np.ndarray, labels: np.ndarray) -> dict[int, np.ndarray]:
    """Group detached feature rows by label for the per-class updates."""
    labels = np.asarray(labels)
    return {int(c): features[labels == c] for c in np.unique(labels)}
