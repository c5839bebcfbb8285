"""Test oracles: reference implementations the shipped code is held to.

Nothing under `src/` imports this package. `ot_ref` holds exact and Sinkhorn
transport solvers, and `graph` the reverse-mode op set. Here, on graphs of
those ops: the central-difference check `finite_diff_check`, the
preservation losses of `otcl.losses`, and the semi-dual transport objective
of `otcl.mixture` with its frozen noise. The closed-form updates of
`dynamic_preservation_step` and `otmm_step` are tested against `backward` of
these graphs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from otcl.autodiff import ParamSet, Tensor
from otcl.losses import _class_weights
from otcl.mixture import ClassGroup, ClassMixture, DualPotential, NoiseBuffer, OtmmConfig, _gumbel
from otcl.model import ClassPrototypes

from . import graph


def finite_diff_check(loss_fn, params: ParamSet, h: float = 1e-5, tol: float = 1e-4) -> float:
    """Max relative error between analytic and central-difference gradients.

    `loss_fn` must rebuild the loss graph from the current parameter values
    on every call and be deterministic (freeze any noise outside it). `tol`
    is the conventional pass threshold; the raw error is returned so callers
    assert `result <= tol` themselves.
    """
    if h <= 0:
        raise ValueError("step size must be positive")
    params.zero_grad()
    graph.backward(loss_fn())
    analytic = {name: t.grad.copy() for name, t in params.items()}
    params.zero_grad()

    worst = 0.0
    for name, t in params.items():
        flat = t.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = loss_fn().item()
            flat[i] = orig - h
            down = loss_fn().item()
            flat[i] = orig
            numeric = (up - down) / (2.0 * h)
            ref = analytic[name].reshape(-1)[i]
            # floor the denominator: a gradient that is legitimately zero
            # (e.g. cancelled by symmetry) still shows ~1e-10 of central
            # difference rounding noise, which is not a gradient error
            scale = max(abs(ref), abs(numeric), 1e-6)
            worst = max(worst, abs(ref - numeric) / scale)
    return worst


def stack_prototypes(protos: ClassPrototypes) -> Tensor:
    """Prototype matrix (classes, feat_dim) as a differentiable stack."""
    if not protos.class_ids:
        raise ValueError("no classes initialized")
    return graph.concat_rows(*(protos.params[f"proto_{c}"] for c in protos.class_ids))


def class_logits(z: Tensor, protos: ClassPrototypes) -> Tensor:
    """Logit matrix (n, classes), column order = ascending class id."""
    w = stack_prototypes(protos)
    return graph.matmul(z, graph.transpose(w))


def loss_separation(z: Tensor, labels: np.ndarray, protos: ClassPrototypes) -> Tensor:
    """Sum over present classes of the class-mean cross-entropy.

    Logits cover every class with a prototype, so new-class samples push old
    prototypes through the normalizer even when no old sample is present.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size == 0:
        raise ValueError("empty batch")
    protos.require(labels.tolist())
    known = protos.known()
    col = {c: j for j, c in enumerate(known)}
    logits = class_logits(z, protos)
    true_col = np.array([col[int(c)] for c in labels])
    nll = graph.sub(graph.logsumexp(logits, axis=1), graph.gather(logits, true_col))
    return graph.tsum(graph.mul(nll, Tensor(_class_weights(labels))))


def loss_compression(z: Tensor, labels: np.ndarray, means: dict[int, np.ndarray]) -> Tensor:
    """Pull samples toward their class mean, push from other classes' means.

    Per sample: ||z - mean_own||^2 + logsumexp_c(-||z - mean_c||^2) over the
    classes present in the batch; per-class mean, summed over classes. The
    means are constants — no gradient reaches them.
    """
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size == 0:
        raise ValueError("empty batch")
    present = sorted(int(c) for c in np.unique(labels))
    missing = [c for c in present if c not in means]
    if missing:
        raise KeyError(f"no mean prototype for classes {missing}")
    anchors = Tensor(np.stack([means[c] for c in present]))
    col = {c: j for j, c in enumerate(present)}
    own_col = np.array([col[int(c)] for c in labels])

    dists = graph.pairwise_sqdist(z, anchors)
    own = graph.gather(dists, own_col)
    repel = graph.logsumexp(graph.neg(dists), axis=1)
    per_sample = graph.add(own, repel)
    return graph.tsum(graph.mul(per_sample, Tensor(_class_weights(labels))))


@dataclass(frozen=True)
class MixtureNoise:
    """Frozen randomness for one set of mixture draws."""

    gumbel: np.ndarray  # (n, K)
    gauss: np.ndarray  # (n, K, feat_dim)


def draw_mixture_noise(n: int, k: int, dim: int, rng: np.random.Generator) -> MixtureNoise:
    return MixtureNoise(
        gumbel=_gumbel(rng.random(size=(n, k))),
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
    log_pi = graph.sub(alpha, graph.logsumexp(alpha))
    return graph.softmax(graph.scale(graph.add(log_pi, Tensor(gumbel)), 1.0 / tau), axis=-1)


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
    log_pi = graph.sub(alpha, graph.logsumexp(alpha))  # (K,)
    y = graph.softmax(
        graph.scale(graph.add(log_pi, Tensor(noise.gumbel)), 1.0 / tau), axis=1
    )  # (n, K)

    sigma = graph.exp(mix.params["log_sigma"])  # (K, d)
    comps = graph.add(mix.params["mu"], graph.mul(Tensor(noise.gauss), sigma))  # (n, K, d)
    weighted = graph.mul(graph.reshape(y, (n, k, 1)), comps)
    return graph.tsum(weighted, axis=1), noise


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
    dists = graph.pairwise_sqdist(z_tilde, z_batch)  # (m, n)
    inner = graph.scale(graph.add(graph.neg(dists), phi.forward(z_batch)), 1.0 / epsilon)
    lse = graph.logsumexp(inner, axis=1)  # (m,)
    return graph.add(graph.scale(lse, -epsilon), Tensor(epsilon * np.log(n)))


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
    return graph.add(
        graph.tmean(phi.forward(z_batch)),
        graph.tmean(phi_tilde(draws, z_batch, phi, cfg.epsilon)),
    )


def frozen_noise_group(
    z: np.ndarray, mix: ClassMixture, phi: DualPotential, cfg: OtmmConfig, noise: MixtureNoise
) -> ClassGroup:
    """A `ClassGroup` of one class whose every step reuses the frozen
    `noise`, in place of the noise the group drew from its generator."""
    group = ClassGroup([0], [z], [mix], [phi], cfg, np.random.default_rng(0), NoiseBuffer())
    m, k = cfg.n_mix_samples or z.shape[0], mix.n_components
    noise = _draw_noise(m, k, mix.feat_dim, None, noise)
    n_steps = cfg.n_phi_steps + cfg.n_mix_steps
    # copies: stacked_draws turns the Gumbel noise into assignments in place,
    # and update_phi its phase's Gaussian noise into draws
    gumbel = np.broadcast_to(noise.gumbel.T, (n_steps, 1, k, m)).copy()
    gauss = np.broadcast_to(noise.gauss, (n_steps, 1, *noise.gauss.shape)).copy()
    group.phi_noise = gumbel[: cfg.n_phi_steps], gauss[: cfg.n_phi_steps]
    group.mix_noise = gumbel[cfg.n_phi_steps :], gauss[cfg.n_phi_steps :]
    return group
