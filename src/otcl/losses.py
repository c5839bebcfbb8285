"""Dynamic preservation: separate classes with a prototype cross-entropy,
then compress each class around its (frozen) per-batch mean.

The two phases run per incoming joint batch (stream batch plus replay draw):

1. separation — cross-entropy of inner-product logits against every class
   seen so far, averaged within each class present and summed over classes;
   the feature extractor takes full steps while prototype rows of old
   classes step at a damped rate (clip factor). Prototypes and extractor
   move in one checked `ParamSet.step`, with a rate per parameter.
2. compression — per-class means of the current features become constant
   anchors; samples are pulled to their own anchor and pushed from the rest.
   Only the extractor moves here.

`dynamic_preservation_step` computes each loss and its gradients in closed
form on numpy arrays (`separation_value_and_grad`,
`compression_value_and_grad`, `FeatureExtractor.backward_np`). The oracles
`loss_separation` and `loss_compression` in `tests/oracles/` build the same
losses as autodiff graphs; the closed forms keep their summation order, so
every update is bit for bit the one `backward` of the oracle would give.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import NumericsError, ParamSet
from .data import Batch, class_rows
from .model import ClassPrototypes, FeatureExtractor


@dataclass(frozen=True)
class PreservationConfig:
    lr_theta: float = 0.05
    lr_proto: float = 0.05
    clip_alpha: float = 0.1  # damping on old-class prototype steps
    steps_l1: int = 1
    steps_l2: int = 1

    def __post_init__(self):
        if self.lr_theta <= 0 or self.lr_proto <= 0:
            raise ValueError("learning rates must be positive")
        if not 0.0 <= self.clip_alpha <= 1.0:
            raise ValueError("clip_alpha must lie in [0, 1]")
        if self.steps_l1 < 0 or self.steps_l2 < 0:
            raise ValueError("step counts must be non-negative")


def _class_columns(labels: np.ndarray) -> tuple[list[int], np.ndarray, np.ndarray]:
    """The classes present, ascending (`data.class_rows`), each row's column
    among them, and each row's weight 1/count(its class), so that
    sum(w_i * v_i) is the per-class mean of v summed over those classes."""
    by_class = class_rows(labels)
    column = np.empty(labels.size, dtype=np.int64)
    weights = np.empty(labels.size)
    for j, rows in enumerate(by_class.values()):
        column[rows] = j
        weights[rows] = 1.0 / rows.size
    return list(by_class), column, weights


def compute_mean_prototypes(features: np.ndarray, labels: np.ndarray) -> dict[int, np.ndarray]:
    """Per-class feature means of the joint batch; detached constants."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size == 0:
        raise ValueError("empty batch")
    features = np.asarray(features, dtype=np.float64)
    return {c: features[rows].mean(axis=0) for c, rows in class_rows(labels).items()}


def join_batches(new_batch: Batch, replay_batch: Batch | None) -> Batch:
    """Stack the stream batch with the replay draw, never mixing classes:
    replay rows whose label already appears in the stream batch are dropped."""
    if replay_batch is None or len(replay_batch) == 0:
        return new_batch
    new_classes = set(new_batch.labels.tolist())
    keep = ~np.isin(replay_batch.labels, sorted(new_classes))
    if not keep.any():
        return new_batch
    return Batch(
        np.concatenate([new_batch.features, replay_batch.features[keep]]),
        np.concatenate([new_batch.labels, replay_batch.labels[keep]]),
    )


def separation_value_and_grad(
    z: np.ndarray, labels: np.ndarray, protos: ClassPrototypes
) -> tuple[float, np.ndarray]:
    """`loss_separation` on plain arrays: its value and its gradient with
    respect to `z`; the gradient of every prototype row is written into
    that row's `.grad`."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size == 0:
        raise ValueError("empty batch")
    protos.require(labels.tolist())
    known = protos.known()
    rows = [protos.params[f"proto_{c}"] for c in known]
    w = np.concatenate([t.data for t in rows], axis=0)
    true_col = np.searchsorted(known, labels)
    _, _, weights = _class_columns(labels)
    idx = np.arange(labels.size)

    logits = z @ w.T
    m = logits.max(axis=1, keepdims=True)
    shifted = np.exp(logits - m)
    total = shifted.sum(axis=1, keepdims=True)
    lse = (m + np.log(total))[:, 0]
    value = float(((lse - logits[idx, true_col]) * weights).sum())

    # d/dlogits: softmax from the log-sum-exp, minus the one-hot of the
    # gathered logit, each weighted; summed as the graph sums its two paths
    g_logits = weights[:, None] * (shifted / total)
    picked = np.zeros_like(g_logits)
    picked[idx, true_col] = -weights
    g_logits += picked
    g_w = (z.T @ g_logits).T
    for j, t in enumerate(rows):
        t.grad[0] = g_w[j]
    return value, g_logits @ w


def compression_value_and_grad(
    z: np.ndarray, labels: np.ndarray, means: dict[int, np.ndarray]
) -> tuple[float, np.ndarray]:
    """`loss_compression` on plain arrays: its value and its gradient with
    respect to `z` (the means are constants)."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size == 0:
        raise ValueError("empty batch")
    present, own_col, weights = _class_columns(labels)
    missing = [c for c in present if c not in means]
    if missing:
        raise KeyError(f"no mean prototype for classes {missing}")
    anchors = np.stack([means[c] for c in present])
    idx = np.arange(labels.size)

    diff = z[:, None, :] - anchors[None, :, :]
    dists = np.einsum("nmd,nmd->nm", diff, diff)
    neg = -dists
    m = neg.max(axis=1, keepdims=True)
    shifted = np.exp(neg - m)
    total = shifted.sum(axis=1, keepdims=True)
    repel = (m + np.log(total))[:, 0]
    value = float(((dists[idx, own_col] + repel) * weights).sum())

    # d/ddists: the one-hot of the own anchor minus the softmin over anchors,
    # each weighted; summed as the graph sums its two paths
    g_dists = np.zeros_like(dists)
    g_dists[idx, own_col] = weights
    g_dists += -(weights[:, None] * (shifted / total))
    return value, 2.0 * np.einsum("nm,nmd->nd", g_dists, diff)


def _step(params: ParamSet, lr, phase: str) -> None:
    """`params.step(lr)` with the phase added to a failure (which writes
    nothing and drops every pending gradient of `params`)."""
    try:
        params.step(lr)
    except NumericsError as err:
        raise NumericsError(
            f"non-finite {phase} step for parameter {err.param!r}",
            phase=phase, param=err.param,
        ) from err


def dynamic_preservation_step(
    new_batch: Batch,
    replay_batch: Batch | None,
    fe: FeatureExtractor,
    protos: ClassPrototypes,
    cfg: PreservationConfig,
) -> dict:
    """One preservation pass over a joint batch; returns loss traces.

    Runs `steps_l1` separation updates (extractor at `lr_theta`, new-class
    prototypes at `lr_proto`, old-class ones at `lr_proto * clip_alpha`, all
    in one `ParamSet.step`), freezes the per-class means of the resulting
    features, then runs `steps_l2` compression updates on the extractor
    alone.

    After the last step, one `fe.w0_moved` call reports the pass's move of
    `w0`, the joint rows and minus `lr_theta` times the sum of the steps'
    first-layer cotangents, so the evaluation's first-layer products follow
    it.

    A separation step whose new extractor or prototype values are not all
    finite writes none of them (prototypes are checked first), and a
    compression step likewise; either raises `NumericsError` with the
    `phase` ('separation' or 'compression') and the `param` it found, with
    nothing reported: the error ends the seed, and its extractor with it.
    """
    joint = join_batches(new_batch, replay_batch)
    new_classes = set(new_batch.labels.tolist())
    # prototypes in class order, then the extractor: the order of the checks
    rows = {f"proto_{c}": protos.params[f"proto_{c}"] for c in protos.known()}
    separation = ParamSet.union(rows, fe.params)
    rates = {
        f"proto_{c}": cfg.lr_proto * (1.0 if c in new_classes else cfg.clip_alpha)
        for c in protos.known()
    } | dict.fromkeys(fe.params, cfg.lr_theta)

    x = np.asarray(joint.features, dtype=np.float64)
    sep_trace, comp_trace = [], []
    cotangents = []  # each extractor step's first-layer cotangent

    for _ in range(cfg.steps_l1):
        z, hidden = fe.forward_np(x)
        value, gz = separation_value_and_grad(z, joint.labels, protos)
        sep_trace.append(value)
        cotangents.append(fe.backward_np(x, hidden, gz))
        _step(separation, rates, "separation")

    # the means are frozen from the features the first compression step sees
    z, hidden = fe.forward_np(x)
    means = compute_mean_prototypes(z, joint.labels)

    for step in range(cfg.steps_l2):
        if step:
            z, hidden = fe.forward_np(x)
        value, gz = compression_value_and_grad(z, joint.labels, means)
        comp_trace.append(value)
        cotangents.append(fe.backward_np(x, hidden, gz))
        _step(fe.params, cfg.lr_theta, "compression")

    if cotangents:
        # every step moved w0 by x.T @ (-lr_theta * its cotangent)
        fe.w0_moved(x, -cfg.lr_theta * sum(cotangents))
    return {"separation": sep_trace, "compression": comp_trace, "means": means}
