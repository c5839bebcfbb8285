"""Feature extractor and per-class prototype logit head.

The extractor is a plain ReLU MLP (input -> 400 -> 400 -> feat_dim). It
trains on plain numpy arrays: `forward_np` is the one numpy definition of
the network (inference goes through it too, via `features_np`) and
`backward_np` writes the parameter gradients in place. `forward`, over the
autodiff tensors, is the oracle the tests check both against. Class logits
are pure inner products against one trainable prototype row per class seen
so far — no bias, no normalization.
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


class FeatureExtractor:
    """Two-hidden-layer ReLU MLP; owns its parameters in a ParamSet."""

    def __init__(
        self,
        input_dim: int,
        feat_dim: int = DEFAULT_FEAT_DIM,
        seed: int = 0,
        hidden: int = HIDDEN_WIDTH,
    ):
        if input_dim < 1 or feat_dim < 1 or hidden < 1:
            raise ValueError("dimensions must be positive")
        self.input_dim = input_dim
        self.feat_dim = feat_dim
        self.params = ParamSet()
        rng = np.random.default_rng(seed)
        dims = [input_dim, hidden, hidden, feat_dim]
        for i, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
            # Kaiming-style scaling keeps ReLU activations from dying or blowing up
            w = rng.standard_normal((fan_in, fan_out)) * np.sqrt(2.0 / fan_in)
            self.params.add(f"w{i}", w)
            self.params.add(f"b{i}", np.zeros((1, fan_out)))

    def forward(self, x: Tensor) -> Tensor:
        """Differentiable batch forward pass: (n, input_dim) -> (n, feat_dim)."""
        if x.shape[-1] != self.input_dim:
            raise ValueError(
                f"input dim {x.shape[-1]} != expected {self.input_dim}"
            )
        h = ad.relu(ad.add(ad.matmul(x, self.params["w0"]), self.params["b0"]))
        h = ad.relu(ad.add(ad.matmul(h, self.params["w1"]), self.params["b1"]))
        return ad.add(ad.matmul(h, self.params["w2"]), self.params["b2"])

    def forward_np(self, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """Graph-free forward pass: features (n, feat_dim) and the two ReLU
        outputs, which `backward_np` takes (their positive entries are the
        ReLU masks)."""
        if x.shape[-1] != self.input_dim:
            raise ValueError(f"input dim {x.shape[-1]} != expected {self.input_dim}")
        p = self.params
        hidden = []
        h = x
        for i in (0, 1):
            h = h @ p[f"w{i}"].data
            h += p[f"b{i}"].data
            np.maximum(h, 0.0, out=h)
            hidden.append(h)
        z = h @ p["w2"].data
        z += p["b2"].data
        return z, hidden

    def backward_np(self, x: np.ndarray, hidden: list[np.ndarray], gz: np.ndarray) -> None:
        """Write d(loss)/d(parameter) into every parameter's `.grad`, given
        the cotangent `gz` of the features of `x` and the `hidden` outputs
        of `forward_np(x)`.

        Each product and sum is the one the autodiff graph of `forward`
        computes, so the gradients are bit for bit those of `ad.backward`.
        The gradient of the input batch is never formed.
        """
        p = self.params
        inputs = (x, *hidden)
        g = gz
        for i in (2, 1, 0):
            np.sum(g, axis=0, keepdims=True, out=p[f"b{i}"].grad)
            np.matmul(inputs[i].T, g, out=p[f"w{i}"].grad)
            if i:
                g = g @ p[f"w{i}"].data.T
                g *= inputs[i] > 0

    def features_np(self, x: np.ndarray, chunk: int = 4096) -> np.ndarray:
        """Inference-only forward pass on raw arrays (no graph, chunked)."""
        x = np.asarray(x, dtype=np.float64)
        # an empty batch still makes one (empty) chunk: same input check
        outs = [
            self.forward_np(x[i : i + chunk])[0]
            for i in range(0, max(x.shape[0], 1), chunk)
        ]
        return outs[0] if len(outs) == 1 else np.concatenate(outs, axis=0)


class ClassPrototypes:
    """One trainable direction per class; logits are plain dot products.

    Rows live in their own ParamSet so the losses can treat prototype
    gradients differently from extractor gradients.
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
