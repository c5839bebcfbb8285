"""The one ReLU MLP, the feature extractor, and the prototype logit head.

`MLP` is both the extractor (input -> 400 -> 400 -> feat_dim) and each
class's transport potential (`mixture.DualPotential`). `mlp_forward` and
`mlp_backward` are its numpy forward and backward over any leading axes:
(n, d) rows for the extractor, a class-stacked batch for the potentials.
`MLP.forward`, over the autodiff tensors, is their test oracle. Training
runs on the float64 parameters; evaluation asks `features_np` for float32,
the same kernel on a float32 copy of the weights. Class logits are pure
inner products against one trainable prototype row per class seen so far —
no bias, no normalization.
"""

from __future__ import annotations

import json

import numpy as np

from . import autodiff as ad
from .autodiff import ParamSet, Tensor

HIDDEN_WIDTH = 400
DEFAULT_FEAT_DIM = 128
PROTO_INIT_STD = 0.1  # prototypes start as N(0, 0.01 I) draws

CHECKPOINT_VERSION = 1

Layers = list[tuple[np.ndarray, np.ndarray]]


class MLP:
    """ReLU MLP dims[0] -> ... -> dims[-1], linear last layer; owns its
    parameters `w{i}` (fan_in, fan_out) and `b{i}` (1, fan_out) in a ParamSet."""

    def __init__(self, dims: list[int], seed: int = 0):
        if min(dims) < 1:
            raise ValueError("dimensions must be positive")
        self.dims = list(dims)
        self.params = ParamSet()
        rng = np.random.default_rng(seed)
        for i, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
            # Kaiming-style scaling keeps ReLU activations from dying or blowing up
            w = rng.standard_normal((fan_in, fan_out)) * np.sqrt(2.0 / fan_in)
            self.params.add(f"w{i}", w)
            self.params.add(f"b{i}", np.zeros((1, fan_out)))

    def forward(self, x: Tensor) -> Tensor:
        """Differentiable forward pass: (n, dims[0]) -> (n, dims[-1])."""
        if x.shape[-1] != self.dims[0]:
            raise ValueError(f"input dim {x.shape[-1]} != expected {self.dims[0]}")
        n_layers = len(self.dims) - 1
        h = x
        for i in range(n_layers):
            h = ad.add(ad.matmul(h, self.params[f"w{i}"]), self.params[f"b{i}"])
            if i < n_layers - 1:
                h = ad.relu(h)
        return h

    def weights(self, dtype=np.float64) -> Layers:
        """Each layer's `(w, b)`: the parameter arrays, or a copy in `dtype`."""
        p = self.params
        return [
            (p[f"w{i}"].data.astype(dtype, copy=False), p[f"b{i}"].data.astype(dtype, copy=False))
            for i in range(len(self.dims) - 1)
        ]


def mlp_forward(layers: Layers, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Outputs and ReLU outputs (for `mlp_backward`) of the `(w, b)` layers
    on `x`. Leading axes broadcast: a stack of networks is one batched pass."""
    *relu_layers, (w_out, b_out) = layers
    hidden = []
    h = x
    for w, b in relu_layers:
        h = np.matmul(h, w)
        h += b
        np.maximum(h, 0.0, out=h)
        hidden.append(h)
    out = np.matmul(h, w_out)
    out += b_out
    return out, hidden


def mlp_backward(layers: Layers, inputs: list[np.ndarray], g: np.ndarray, grads: Layers) -> None:
    """Write d(loss)/d(w, b) into the `(w, b)` buffers `grads`, given the
    cotangent `g` of the outputs and `inputs` = (x, *hidden) of every layer.
    Bit for bit the autodiff graph of `MLP.forward`; d/dx is never formed."""
    for i in reversed(range(len(layers))):
        g_w, g_b = grads[i]
        np.sum(g, axis=-2, keepdims=True, out=g_b)
        np.matmul(inputs[i].swapaxes(-1, -2), g, out=g_w)
        if i:
            g = np.matmul(g, layers[i][0].swapaxes(-1, -2))
            g *= inputs[i] > 0


class FeatureExtractor(MLP):
    """The contraction feature extractor: input -> hidden -> hidden -> feat_dim."""

    def __init__(
        self, input_dim: int, feat_dim: int = DEFAULT_FEAT_DIM, seed: int = 0,
        hidden: int = HIDDEN_WIDTH,
    ):
        super().__init__([input_dim, hidden, hidden, feat_dim], seed)
        self.input_dim = input_dim
        self.feat_dim = feat_dim

    def forward_np(self, x: np.ndarray, weights: Layers | None = None):
        """`mlp_forward` on (n, input_dim) rows, by default of the parameters."""
        if x.shape[-1] != self.input_dim:
            raise ValueError(f"input dim {x.shape[-1]} != expected {self.input_dim}")
        return mlp_forward(self.weights() if weights is None else weights, x)

    def backward_np(self, x: np.ndarray, hidden: list[np.ndarray], gz: np.ndarray) -> None:
        """`mlp_backward` into each `.grad`, given `forward_np(x)`'s `hidden`."""
        p = self.params
        grads = [(p[f"w{i}"].grad, p[f"b{i}"].grad) for i in range(len(self.dims) - 1)]
        mlp_backward(self.weights(), [x, *hidden], gz, grads)

    def features_np(self, x: np.ndarray, chunk: int = 4096, dtype=np.float64) -> np.ndarray:
        """Inference-only forward pass on raw arrays (no graph, chunked).

        The default float64 is bit for bit `forward_np`, the training
        forward. Evaluation asks for float32: the weights are copied to
        float32 once per call and the rows chunk by chunk, so no float32
        copy of `x` is kept.
        """
        x = np.asarray(x)
        weights = self.weights(dtype)
        # an empty batch still makes one (empty) chunk: same input check
        outs = [
            self.forward_np(x[i : i + chunk].astype(dtype, copy=False), weights)[0]
            for i in range(0, max(x.shape[0], 1), chunk)
        ]
        return outs[0] if len(outs) == 1 else np.concatenate(outs, axis=0)


class ClassPrototypes:
    """One trainable direction per class; logits are plain dot products.

    Rows live in their own ParamSet, one `proto_<c>` row per class, so the
    separation step can give each row its own rate.
    """

    def __init__(self, feat_dim: int):
        self.feat_dim = feat_dim
        self.params = ParamSet()
        self.class_ids: list[int] = []

    def init_new_classes(self, new_ids, seed: int) -> None:
        """Add N(0, 0.01 I) rows for unseen classes; existing rows untouched."""
        new_ids = list(new_ids)
        dupes = set(new_ids) & set(self.class_ids)
        if dupes:
            raise ValueError(f"classes already initialized: {sorted(dupes)}")
        if len(set(new_ids)) != len(new_ids):
            raise ValueError("duplicate ids in request")
        rng = np.random.default_rng(seed)
        for c in sorted(new_ids):
            row = rng.standard_normal(self.feat_dim) * PROTO_INIT_STD
            self.params.add(f"proto_{c}", row.reshape(1, -1))
            self.class_ids.append(c)
        self.class_ids.sort()

    def known(self) -> list[int]:
        return list(self.class_ids)

    def require(self, class_ids) -> None:
        missing = sorted(set(class_ids) - set(self.class_ids))
        if missing:
            raise KeyError(f"no prototype for classes {missing}")

    def stack(self) -> Tensor:
        """Prototype matrix (classes, feat_dim) as a differentiable stack."""
        if not self.class_ids:
            raise ValueError("no classes initialized")
        return ad.concat_rows(*(self.params[f"proto_{c}"] for c in self.class_ids))


def class_logits(z: Tensor, protos: ClassPrototypes) -> Tensor:
    """Logit matrix (n, classes), column order = ascending class id."""
    w = protos.stack()
    return ad.matmul(z, ad.transpose(w))


# ---------------------------------------------------------------------------
# checkpointing


def save_checkpoint(path, named_params: dict[str, ParamSet], meta: dict | None = None):
    """Dump every ParamSet to one npz plus a JSON header; bitwise float64."""
    arrays = {}
    manifest = {"version": CHECKPOINT_VERSION, "groups": {}, "meta": meta or {}}
    for group, ps in named_params.items():
        manifest["groups"][group] = ps.names()
        for name, t in ps.items():
            arrays[f"{group}::{name}"] = t.data
    arrays["__manifest__"] = np.frombuffer(
        json.dumps(manifest, sort_keys=True).encode(), dtype=np.uint8
    )
    np.savez(path, **arrays)


def load_checkpoint(path) -> tuple[dict[str, dict[str, np.ndarray]], dict]:
    """Read back {group: {param: array}} and the stored metadata."""
    with np.load(path) as z:
        manifest = json.loads(bytes(z["__manifest__"]).decode())
        if manifest.get("version") != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {manifest.get('version')}")
        groups: dict[str, dict[str, np.ndarray]] = {}
        for group, names in manifest["groups"].items():
            groups[group] = {name: z[f"{group}::{name}"].copy() for name in names}
    return groups, manifest["meta"]


def restore_params(ps: ParamSet, stored: dict[str, np.ndarray]) -> None:
    """Overwrite a ParamSet's values in place from a checkpoint group."""
    if set(stored) != set(ps.names()):
        raise ValueError("parameter names do not match checkpoint")
    for name, arr in stored.items():
        if arr.shape != ps[name].data.shape:
            raise ValueError(f"shape mismatch for {name}")
        ps[name].data[...] = arr
