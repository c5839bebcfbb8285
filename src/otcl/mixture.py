"""Per-class Gaussian mixtures fitted online through the entropic OT dual.

Each class keeps a K-component diagonal Gaussian mixture (mixing logits,
centroids, log-scales) and a small scalar-output `model.MLP` acting as the
Kantorovich potential of the semi-dual objective

    value = E_batch[phi(z)] + E_mixture[conjugate(z_tilde)],

where the conjugate is a soft-min over the batch at temperature epsilon.
Mixture draws use the Gumbel-softmax reparameterization so the objective is
differentiable in all mixture parameters; all noise is sampled outside the
gradient. The potential ascends the objective, the mixture descends it —
shrinking the entropic transport cost between the mixture and the class's
data as batches stream by.

The transport step runs on plain numpy arrays, one pass per batch rather
than per class. A `ClassGroup` stacks the features and draws of every class
in the batch along a leading class axis, padded to the largest class and
masked, and gathers their parameters from the state's class-indexed rows.
`update_phi` and `update_mixture` then take every phase step once for all
of them, with the value and exact gradient of the side being updated in
closed form; the frozen side is only evaluated. The stacked potentials run
through the extractor's kernel, `model.mlp_forward`/`mlp_backward`, class
axis leading. The group draws all of its noise before its first step, in
the order a per-class loop would (`_draw_group_noise`), into a buffer that
the state keeps from batch to batch (`NoiseBuffer`). Every step's new
values are checked for finite values per class, and nothing is scattered
back until both phases have stepped: a non-finite step leaves every class
as it was.
The tests hold those gradients to `dual_objective`, which builds the same
value as an autodiff graph in `tests/oracles/`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import NumericsError, ParamSet, Tensor
from .model import MLP, mlp_backward, mlp_forward, mlp_layers

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

    def __post_init__(self):
        if self.epsilon <= 0 or self.tau <= 0:
            raise ValueError("epsilon and tau must be positive")
        if self.n_phi_steps < 0 or self.n_mix_steps < 0:
            raise ValueError("step counts must be non-negative")
        if self.n_mix_samples is not None and self.n_mix_samples < 1:
            raise ValueError("n_mix_samples must be positive")
        if self.lr_phi <= 0 or self.lr_mix <= 0:
            raise ValueError("learning rates must be positive")


def _gumbel(u: np.ndarray) -> np.ndarray:
    """-log(-log(u)), in place."""
    np.maximum(u, 1e-300, out=u)  # u = 0 would send the Gumbel to -inf
    for op in (np.log, np.negative, np.log, np.negative):
        op(u, out=u)
    return u


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

    def centroids(self) -> np.ndarray:
        return self.params["mu"].data.copy()


class DualPotential(MLP):
    """Scalar-output ReLU MLP (feat_dim -> 64 -> 64 -> 1): the trainable
    Kantorovich potential of the semi-dual transport objective."""

    def __init__(self, feat_dim: int, seed: int = 0, hidden: int = POTENTIAL_WIDTH):
        super().__init__([feat_dim, hidden, hidden, 1], seed)

    def forward(self, z: Tensor) -> Tensor:
        """(n, feat_dim) -> (n,) potential values."""
        return ad.reshape(super().forward(z), (z.shape[0],))


# ---------------------------------------------------------------------------
# class-stacked transport step
#
# The classes of a batch are stepped as one group, stacked along a leading
# class axis (C, ...) and padded to the largest class: padded feature rows
# get -inf in the soft-min and zero weight in every mean, padded draws zero
# weight. Every phase step is then one pass of batched array calls for the
# whole batch. The value is the oracle `dual_objective`'s, with squared
# distances taken as |x|^2 + |z|^2 - 2 x.z, so steps agree with it up to
# rounding. A class's values round by the batch's padded row count
# (OpenBLAS's matrix-vector kernel takes rows in blocks of 4), so a class
# stepped beside a larger one moves by a few ulps against it stepped alone.


class _Stack:
    """One parameter set per class, stacked: row c of `value` (C, size) holds
    every parameter of class c, laid end to end as `shapes` lists them, `grad`
    has the same layout, and `v` / `g` map each name to its (C, *shape) view."""

    def __init__(self, value: np.ndarray, shapes: dict[str, tuple[int, ...]]):
        self.value = value
        self.grad = np.empty_like(value)
        self.v = dict(zip(shapes, _end_to_end(self.value, shapes.values())))
        self.g = dict(zip(shapes, _end_to_end(self.grad, shapes.values())))

    def advance(self, lr: float, ids: list[int], phase: str) -> None:
        """value + lr * grad for every class, or for none: the new values are
        computed in the gradient buffer, which becomes the value buffer only
        if every class's are finite (`ParamSet.step` swaps the same way)."""
        new = self.grad
        new *= lr
        new += self.value
        finite = np.isfinite(new).all(axis=1)
        if not finite.all():
            i = int(np.argmin(finite))  # ids ascend: the lowest failing class
            name = next(n for n, g in self.g.items() if not np.isfinite(g[i]).all())
            raise NumericsError(
                f"class {ids[i]}: non-finite {phase} step for parameter {name!r}",
                class_id=ids[i], phase=phase, param=name,
            )
        self.value, self.grad = self.grad, self.value
        self.v, self.g = self.g, self.v


def _end_to_end(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """Views (..., *shape) of `flat` (..., size), laid end to end along its last axis."""
    views, start = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(flat[..., start : start + size].reshape(*flat.shape[:-1], *shape))
        start += size
    return views


class NoiseBuffer:
    """A float64 buffer that `otmm_step` draws each batch's noise into.

    `views(*shapes)` lays one array per shape end to end in it, growing it
    first if they do not fit; they hold whatever was there before and are
    valid until the next call. Kept by the `OtmmState`, the buffer lives as
    long as the run. Noise arrays of each batch's own made glibc hand the
    heap top back to the kernel and fault it in again: a fresh process
    stepping the a05 stream took 26K to 56K minor page faults in its 320
    batches (input seeds 1-3), and about 3K with this buffer."""

    def __init__(self):
        self._flat = np.empty(0)

    def views(self, *shapes: tuple[int, ...]) -> list[np.ndarray]:
        size = sum(math.prod(shape) for shape in shapes)
        if self._flat.size < size:
            self._flat = np.empty(size)
        return _end_to_end(self._flat, shapes)


def _draw_group_noise(
    ms: list[int], k: int, dim: int, n_steps: int, rng: np.random.Generator, buffer: NoiseBuffer
):
    """Gumbel (n_steps, C, K, M) and Gaussian (n_steps, C, M, K, dim) noise
    in `buffer`, drawn class by class and, per class, step by step, each
    draw as the oracle draw_mixture_noise(m, k, dim, rng) makes it. Draws
    past a class's m are padding (the Gumbel of u = 0.5, a zero Gaussian).
    The Gumbel noise is stored components-first, so that softmaxes over K
    reduce a leading axis."""
    shape = (n_steps, len(ms), max(ms), k)
    gumbel, gauss, u = buffer.views((n_steps, len(ms), k, max(ms)), (*shape, dim), shape)
    for i, m in enumerate(ms):
        u[:, i, m:] = 0.5
        gauss[:, i, m:] = 0.0
        for s in range(n_steps):
            rng.random(out=u[s, i, :m])
            rng.standard_normal(out=gauss[s, i, :m])
    np.copyto(gumbel, _gumbel(u).swapaxes(2, 3))
    return gumbel, gauss


class ClassGroup:
    """Classes stepped together by `update_phi` and `update_mixture`.

    Features are zero-padded to the group's most rows N and draws to its most
    draws M; `row_w` (C, N) and `draw_w` (C, M) are 1/n and 1/m on a class's
    real rows and draws and 0 on padding. The parameter stacks are a gather
    of the classes' rows of `state`'s stores, which `otmm_step` scatters
    back. All noise of both phases is drawn here, into `state.noise`, in the
    order a per-class step draws it: class by class in the given (ascending)
    order, n_phi_steps then n_mix_steps draws per class.
    """

    def __init__(
        self,
        ids: list[int],
        features: list[np.ndarray],
        state: "OtmmState",
        cfg: OtmmConfig,
        rng: np.random.Generator,
    ):
        ns = [f.shape[0] for f in features]  # each positive (`otmm_step` drops empty classes)
        ms = [cfg.n_mix_samples or n for n in ns]
        k, dim = state.n_components, state.feat_dim
        self.ids = list(ids)
        self.z = np.zeros((len(ns), max(ns), dim))
        self.row_w = np.zeros((len(ns), max(ns)))
        self.draw_w = np.zeros((len(ns), max(ms)))
        for i, (f, n, m) in enumerate(zip(features, ns, ms)):
            self.z[i, :n] = f
            self.row_w[i, :n] = 1.0 / n
            self.draw_w[i, :m] = 1.0 / m
        self.log_n = np.log(ns)[:, None]
        self.z2 = 2.0 * self.z
        # -|z|^2, and -inf on padded rows so that no plan sends them mass
        z_sq = np.einsum("cnd,cnd->cn", self.z, self.z)
        self.neg_z_sq = np.where(self.row_w > 0, -z_sq, -np.inf)
        self.mixture = _Stack(state.mixture_rows[self.ids], state.mixture_shapes)
        self.potential = _Stack(state.potential_rows[self.ids], state.potential_shapes)

        n_steps = cfg.n_phi_steps + cfg.n_mix_steps
        gumbel, gauss = _draw_group_noise(ms, k, dim, n_steps, rng, state.noise)
        self.phi_noise = gumbel[: cfg.n_phi_steps], gauss[: cfg.n_phi_steps]
        self.mix_noise = gumbel[cfg.n_phi_steps :], gauss[cfg.n_phi_steps :]


def stacked_draws(
    mixture: _Stack, tau: float, gumbel: np.ndarray, gauss: np.ndarray, out: np.ndarray | None = None
):
    """Draws x (..., C, M, d), as the oracle sample_mixture makes them,
    from Gumbel (..., C, K, M) and Gaussian (..., C, M, K, d) noise; the
    leading axes may hold several steps. Also returns what the gradient
    needs: relaxed assignments y (..., C, K, M), computed in the `gumbel`
    buffer (no step reads its Gumbel noise twice), weights pi (C, K), scales
    (C, K, d) and component draws (..., C, M, K, d), written to `out` if
    given (which may be `gauss` itself)."""
    alpha = mixture.v["alpha"]
    top = alpha.max(axis=1, keepdims=True)
    shifted = np.exp(alpha - top)
    total = shifted.sum(axis=1, keepdims=True)
    logits = np.add(gumbel, (alpha - (top + np.log(total)))[:, :, None], out=gumbel)
    logits *= 1.0 / tau
    logits -= logits.max(axis=-2, keepdims=True)
    y = np.exp(logits, out=logits)
    y /= y.sum(axis=-2, keepdims=True)
    sigma = np.exp(mixture.v["log_sigma"])
    comps = np.multiply(gauss, sigma[:, None], out=out)
    comps += mixture.v["mu"][:, None]
    x = np.einsum("...ckm,...cmkd->...cmd", y, comps)
    return x, y, shifted / total, sigma, comps


def _plan(x: np.ndarray, q: np.ndarray, group: ClassGroup, epsilon: float):
    """Transposed plan P^T (C, N, M), whose column i is draw i's softmax over
    its class's rows, and the conjugate (C, M) of every draw, given
    q = p - |z|^2 (C, N).

    (p_j - D_ij) / epsilon differs from (q_j + 2 z_j.x_i) / epsilon by
    |x_i|^2 / epsilon, constant in a column: it leaves P alone and comes back
    in the conjugate. Rows run along axis 1 so that the softmax reduces a
    leading axis."""
    a = np.matmul(group.z2, x.transpose(0, 2, 1))
    a += q[:, :, None]
    a *= 1.0 / epsilon
    top = a.max(axis=1)
    a -= top[:, None, :]
    np.exp(a, out=a)
    total = a.sum(axis=1)
    a /= total[:, None, :]
    conj = np.einsum("cmd,cmd->cm", x, x) - epsilon * (top + np.log(total)) + epsilon * group.log_n
    return a, conj


def _value(group: ClassGroup, p: np.ndarray, conj: np.ndarray) -> np.ndarray:
    """Per-class semi-dual value: mean potential plus mean conjugate."""
    return np.einsum("cn,cn->c", group.row_w, p) + np.einsum("cm,cm->c", group.draw_w, conj)


def phi_gradient(group: ClassGroup, cfg: OtmmConfig, x: np.ndarray) -> np.ndarray:
    """(C,) semi-dual values against the mixture draws x (C, M, d); leaves
    each class's gradient in its potential's parameters in
    group.potential.g.

    d value/d p_j = 1/n - (1/m) sum_i P_ij, back-propagated once through
    the potential.
    """
    layers = mlp_layers(group.potential.v)
    p, hidden = mlp_forward(layers, group.z)
    p = p[:, :, 0]
    plan_t, conj = _plan(x, p + group.neg_z_sq, group, cfg.epsilon)
    g_p = group.row_w[:, :, None] - np.matmul(plan_t, group.draw_w[:, :, None])
    mlp_backward(layers, [group.z, *hidden], g_p, mlp_layers(group.potential.g))
    return _value(group, p, conj)


def mixture_gradient(group: ClassGroup, cfg: OtmmConfig, step: int, p: np.ndarray) -> np.ndarray:
    """(C,) semi-dual values with the mixture phase's draw `step`, given the
    potential values p (C, N) on the features; leaves each class's gradient
    in alpha/mu/log_sigma in group.mixture.g.

    g_x = 2 (rowsum(P) x - P z) / m, routed through the Gaussian
    reparameterization and the Gumbel-softmax.
    """
    gumbel, gauss = group.mix_noise[0][step], group.mix_noise[1][step]
    x, y, pi, sigma, comps = stacked_draws(group.mixture, cfg.tau, gumbel, gauss)
    plan_t, conj = _plan(x, p + group.neg_z_sq, group, cfg.epsilon)
    value = _value(group, p, conj)
    g_x = x  # x is not needed past the plan: reuse its buffer
    g_x *= plan_t.sum(axis=1)[:, :, None]
    g_x -= np.matmul(plan_t.transpose(0, 2, 1), group.z)
    g_x *= 2.0 * group.draw_w[:, :, None]
    g = group.mixture.g
    np.matmul(y, g_x, out=g["mu"])
    np.einsum("ckm,cmd,cmkd->ckd", y, g_x, gauss, out=g["log_sigma"])
    g["log_sigma"] *= sigma
    g_y = np.einsum("cmd,cmkd->ckm", g_x, comps)
    g_y -= (g_y * y).sum(axis=1, keepdims=True)
    g_y *= y
    g_log_pi = g_y.sum(axis=2)
    g_log_pi *= 1.0 / cfg.tau
    np.multiply(pi, g_log_pi.sum(axis=1, keepdims=True), out=g["alpha"])
    np.subtract(g_log_pi, g["alpha"], out=g["alpha"])
    return value


def update_phi(group: ClassGroup, cfg: OtmmConfig) -> np.ndarray:
    """n_phi_steps gradient-ascent steps on every class's dual value w.r.t.
    its potential only. Returns the (n_phi_steps, C) values before each
    step."""
    # The mixtures stay fixed in this phase: draw for every step at once,
    # turning the phase's Gaussian noise into component draws in place.
    gumbel, gauss = group.phi_noise
    xs = stacked_draws(group.mixture, cfg.tau, gumbel, gauss, out=gauss)[0]
    values = np.empty((cfg.n_phi_steps, len(group.ids)))
    for s in range(cfg.n_phi_steps):
        values[s] = phi_gradient(group, cfg, xs[s])
        group.potential.advance(cfg.lr_phi, group.ids, "phi")
    return values


def update_mixture(group: ClassGroup, cfg: OtmmConfig) -> np.ndarray:
    """n_mix_steps gradient-descent steps on every class's dual value w.r.t.
    alpha/mu/log_sigma, potentials frozen — pulls each mixture toward its
    class's data. Returns the (n_mix_steps, C) values before each step."""
    p = mlp_forward(mlp_layers(group.potential.v), group.z)[0][:, :, 0]
    values = np.empty((cfg.n_mix_steps, len(group.ids)))
    for s in range(cfg.n_mix_steps):
        values[s] = mixture_gradient(group, cfg, s, p)
        group.mixture.advance(-cfg.lr_mix, group.ids, "mixture")
    return values


class OtmmState:
    """All per-class mixtures and potentials, created lazily on first sight,
    and the `NoiseBuffer` that `otmm_step` draws their noise into.

    Init seeds derive from (seed, class id), so a rerun with the same stream
    builds bitwise-identical state regardless of class arrival order.

    Row c of `mixture_rows` (n_classes, K (1 + 2d)) and of `potential_rows`
    (n_classes, P) holds class c's parameters as a `_Stack` row lays them, in
    the shapes of the first class stored; `mixtures[c]` and `potentials[c]`
    are views on it. Their tensors have no gradient buffer: nothing steps
    them, as `ParamSet.step` would swap the views away. A `copy.deepcopy`'s
    objects are standalone arrays that do not follow its stores.
    """

    def __init__(self, n_components: int, feat_dim: int, n_classes: int, seed: int = 0):
        self.n_components = n_components
        self.feat_dim = feat_dim
        self.n_classes = n_classes
        self.seed = seed
        self.mixtures: dict[int, ClassMixture] = {}
        self.potentials: dict[int, DualPotential] = {}
        self.mixture_shapes = self.mixture_rows = None  # laid out by the first class stored
        self.potential_shapes = self.potential_rows = None
        self.noise = NoiseBuffer()

    def ensure_class(self, class_id: int, features: np.ndarray) -> None:
        if class_id in self.mixtures:
            return
        if not 0 <= class_id < self.n_classes:  # before a negative id reaches the seeds
            raise ValueError(f"class id {class_id} outside the store of {self.n_classes} classes")
        mix_seed = np.random.default_rng((self.seed, class_id)).integers(2**31)
        phi_seed = np.random.default_rng((self.seed, class_id, 1)).integers(2**31)
        mixture = ClassMixture.from_features(features, self.n_components, seed=mix_seed)
        self.add_class(class_id, mixture, DualPotential(self.feat_dim, seed=phi_seed))

    def add_class(self, class_id: int, mixture: ClassMixture, potential: DualPotential) -> None:
        """Copy a class's parameters, whole, into row `class_id` of the stores."""
        if not 0 <= class_id < self.n_classes:
            raise ValueError(f"class id {class_id} outside the store of {self.n_classes} classes")
        if self.mixture_rows is None:
            self.mixture_shapes, self.mixture_rows = _layout(mixture.params, self.n_classes)
            self.potential_shapes, self.potential_rows = _layout(potential.params, self.n_classes)
        _store(mixture.params, self.mixture_rows[class_id], self.mixture_shapes)
        _store(potential.params, self.potential_rows[class_id], self.potential_shapes)
        self.mixtures[class_id], self.potentials[class_id] = mixture, potential

    def known(self) -> list[int]:
        return sorted(self.mixtures)


def _layout(params: ParamSet, n_classes: int) -> tuple[dict[str, tuple[int, ...]], np.ndarray]:
    """The shapes of `params` and a zeroed store of n_classes rows of them."""
    shapes = {name: t.shape for name, t in params.items()}
    return shapes, np.zeros((n_classes, sum(math.prod(shape) for shape in shapes.values())))


def _store(params: ParamSet, row: np.ndarray, shapes: dict[str, tuple[int, ...]]) -> None:
    """Copy `params` into `row` and make each tensor's data its slot there."""
    for t, slot in zip(params.tensors(), _end_to_end(row, shapes.values())):
        np.copyto(slot, t.data)
        t.data, t.grad = slot, None


def otmm_step(
    features_by_class: dict[int, np.ndarray],
    state: OtmmState,
    cfg: OtmmConfig,
    rng: np.random.Generator,
) -> dict[int, dict[str, list[float]]]:
    """One alternating update per class present in the joint batch.

    Features must arrive detached (plain arrays). Classes not in the batch
    are untouched; classes seen for the first time get their mixture anchored
    on this batch's features. Every class of the call is stepped in one
    ClassGroup, each phase once, drawing its noise into `state.noise`. That
    noise is the step's transient memory: C·M·(n_phi_steps + n_mix_steps)·
    K·(d+2)·8 bytes for C classes of at most M draws each, and a joint batch
    holds at most twice the batch size in classes. The stepped rows are
    scattered back to the stores. Returns per-class objective traces.

    A non-finite update raises NumericsError with the class id, phase and
    parameter of the lowest-id failing class at the first failing step, and
    every potential step comes before every mixture step. Nothing is then
    scattered for any class, and classes first seen in this call are removed.
    """
    feats = {}
    for c in sorted(features_by_class):
        f = np.asarray(features_by_class[c], dtype=np.float64)
        if f.shape[0]:
            feats[c] = f
    if not feats:
        return {}
    new = [c for c in feats if c not in state.mixtures]
    for c, f in feats.items():
        state.ensure_class(c, f)
    ids = list(feats)
    try:
        group = ClassGroup(ids, list(feats.values()), state, cfg, rng)
        phi_values = update_phi(group, cfg)
        mix_values = update_mixture(group, cfg)
    except NumericsError:
        for c in new:
            del state.mixtures[c], state.potentials[c]
        raise
    state.mixture_rows[ids] = group.mixture.value
    state.potential_rows[ids] = group.potential.value
    return {
        c: {"phi": phi_values[:, i].tolist(), "mixture": mix_values[:, i].tolist()}
        for i, c in enumerate(ids)
    }
