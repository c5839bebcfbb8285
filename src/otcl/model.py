"""The one ReLU MLP, the feature extractor, and the prototype logit head.

`MLP` is both the extractor (input -> 400 -> 400 -> feat_dim) and each
class's transport potential (`mixture.DualPotential`). `mlp_forward` and
`mlp_backward` are its numpy forward and backward over any leading axes:
(n, d) rows for the extractor, a class-stacked batch for the potentials.
`MLP.forward`, over the autodiff tensors, is their test oracle. Training
runs on the float64 parameters; evaluation asks `features_np` for float32,
the same kernel on a float32 copy of the weights. Inside
`FeatureExtractor.evaluation_pass`, while the parameters stay as they are,
that copy is taken once and shared by every call; outside one, each call
takes its own.

A float32 pass also serves the first layer from products that outlive it:
for each held-out row array it reads, the extractor keeps `as_float(x) @ w0`
in float32, before the bias, formed on the first read with the GEMM calls
of a plain forward. The preservation step reports each call's move of `w0`
as two factors (`w0_moved(u, v)`: the joint rows, and minus the rate times
the summed first-layer cotangents that `mlp_backward` returns), and each
product read since the previous report takes the rank-≤20 update
`(x @ u.T) @ v`; the others are dropped, and `drop_products` drops them
all (the harness does at every task end). So the products stay right only
while every write to `w0` is reported: `ParamSet.step` in the preservation
step is reported, and `restore_params` writes `w0` only on a fresh extractor
(`harness.load_model`).

Class logits are pure inner products against one trainable prototype row
per class seen so far — no bias, no normalization; their
graph (`class_logits`) is built only by the test oracles in
`tests/oracles/`.

A forward large enough to pay for it (`features_np`, mostly evaluation)
runs its rows as contiguous spans, at most one per CPU, on a thread pool
made on the first split. Each span is the one-call forward of its rows, so
the features are bit for bit those of one call. It splits only where
numpy's bundled OpenBLAS reports one thread (`run_experiment` pins it
there); elsewhere the forward runs on the calling thread, as the training
forward always does.
"""

from __future__ import annotations

import contextlib
import ctypes
import dataclasses
import functools
import json
import os

import numpy as np

from . import autodiff as ad
from .autodiff import ParamSet, Tensor
from .data import as_float

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
        return mlp_layers({n: t.data.astype(dtype, copy=False) for n, t in self.params.items()})


def mlp_layers(arrays: dict[str, np.ndarray]) -> Layers:
    """Each layer's `(w, b)` of arrays named as an `MLP`'s parameters (values or grads)."""
    return [(arrays[f"w{i}"], arrays[f"b{i}"]) for i in range(len(arrays) // 2)]


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


def mlp_backward(
    layers: Layers, inputs: list[np.ndarray], g: np.ndarray, grads: Layers
) -> np.ndarray:
    """Write d(loss)/d(w, b) into the `(w, b)` buffers `grads`, given the
    cotangent `g` of the outputs and `inputs` = (x, *hidden) of every layer.
    Bit for bit the autodiff graph of `MLP.forward`; d/dx is never formed.
    Returns the cotangent of the first layer's pre-activation `x @ w0 + b0`,
    of which d/dw0 is `x`'s transpose times it."""
    for i in reversed(range(len(layers))):
        g_w, g_b = grads[i]
        np.sum(g, axis=-2, keepdims=True, out=g_b)
        np.matmul(inputs[i].swapaxes(-1, -2), g, out=g_w)
        if i:
            g = np.matmul(g, layers[i][0].swapaxes(-1, -2))
            g *= inputs[i] > 0
    return g


# ---------------------------------------------------------------------------
# the forward's threads

# A span pays for its handoff to a pool thread from about this many
# multiply-adds. At the paper shape (784 -> 400 -> 400 -> 128, 524,800 a
# row), float32, one BLAS thread, 2-vCPU Xeon, medians of 200 calls: 64 rows
# took 0.45 ms in one call and in two spans alike, 96 rows (two spans of
# 25.2M) 0.61 ms in one call and 0.50 ms in two, and 20 rows 0.24 against
# 0.32 ms.
_SPAN_MACS = 25_000_000
# OpenBLAS runs a product of at most this many multiply-adds (M * N * K) on
# its small-matrix kernels, which round differently from its blocked ones
# (scipy-openblas 0.3.31, x86-64): a two-span forward at 784 -> 400 -> 400
# -> 8 differed from one call exactly where a span's last layer was at or
# under it and the whole chunk's over it. Every layer of a span stays above
# it, so a span runs the kernels its chunk would.
_SMALL_GEMM_MACS = 1_000_000


@functools.cache
def _openblas():
    """`(get, set)` of the thread count of the OpenBLAS that numpy's wheel
    bundles, through ctypes; None where there is no such library or it
    lacks them (another BLAS, an older wheel)."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    try:
        name = next(f for f in os.listdir(libs) if f.startswith("libscipy_openblas64_"))
        lib = ctypes.CDLL(os.path.join(libs, name))
        get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (OSError, StopIteration, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


def blas_threads() -> int | None:
    """The thread count numpy's OpenBLAS reports; None where it cannot."""
    lib = _openblas()
    return None if lib is None else lib[0]()


@contextlib.contextmanager
def one_blas_thread():
    """Run the block on one OpenBLAS thread, then restore the previous count,
    on success or failure. Yields 1, or None where the count cannot be set,
    and then changes nothing."""
    lib = _openblas()
    if lib is None:
        yield None
        return
    get, set_ = lib
    previous = get()
    set_(1)
    try:
        yield 1
    finally:
        set_(previous)


def _cpus() -> int:
    """CPUs this process may run on: the most spans a forward splits into."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on macOS or Windows
        return os.cpu_count() or 1


@functools.cache
def _span_pool():
    """The forward's thread pool, made (and its module imported) on the
    first split: a run that never splits pays for neither."""
    from concurrent.futures import ThreadPoolExecutor

    if hasattr(os, "register_at_fork"):
        # a forked child has none of the pool's threads, and would wait on
        # them forever: it makes its own pool on its first split
        os.register_at_fork(after_in_child=_span_pool.cache_clear)
    return ThreadPoolExecutor(max_workers=_cpus(), thread_name_prefix="otcl-forward")


@dataclasses.dataclass(eq=False)
class _Product:
    """A held-out row array's first-layer product `as_float(rows) @ w0`, in
    float32, before the bias; `read` if an evaluation read it since the last
    move of `w0` was reported."""

    rows: np.ndarray
    a: np.ndarray
    read: bool = True


class FeatureExtractor(MLP):
    """The contraction feature extractor: input -> hidden -> hidden -> feat_dim."""

    def __init__(
        self, input_dim: int, feat_dim: int = DEFAULT_FEAT_DIM, seed: int = 0,
        hidden: int = HIDDEN_WIDTH,
    ):
        super().__init__([input_dim, hidden, hidden, feat_dim], seed)
        self.input_dim = input_dim
        self.feat_dim = feat_dim
        self._pass_weights: dict | None = None  # dtype -> weights, in a pass
        self._products: dict[int, _Product] = {}  # id(rows) -> its product

    @contextlib.contextmanager
    def evaluation_pass(self):
        """Share one copy of the weights per dtype among the `features_np`
        calls of the block, taken on the first call that asks for it and
        dropped when the block ends, normally or by an exception. Nothing
        may write the parameters inside the block (no step, no restore):
        the calls would not see it.

        A float32 call in the block also serves the first layer of its row
        array from that array's product (`as_float(x) @ w0`, before the
        bias), which outlives the block: the first read forms it, span by
        span with the GEMM calls of a plain forward, so its features are
        bit for bit those of a call outside any pass; a later read runs only
        the bias, the ReLU and the layers after it. A product stays right
        only while every write to `w0` is reported (`w0_moved`) or followed
        by `drop_products`: the preservation step reports its moves, and
        `restore_params` writes `w0` only on a fresh extractor
        (`harness.load_model`). The rows of a kept array must not change.
        """
        self._pass_weights = {}
        try:
            yield
        finally:
            self._pass_weights = None

    def w0_moved(self, u: np.ndarray, v: np.ndarray) -> None:
        """`w0` moved by `u.T @ v` (the rows stepped on, and minus the rate
        times the summed first-layer cotangents): every product an
        evaluation read since the last report takes `(x @ u.T) @ v` in
        float32, about (input + hidden) * len(u) multiply-adds a row instead
        of input * hidden, and every other product is dropped. The update
        runs in the spans of a forward of the same rows, on the pool where
        that forward would split. The float32 updates drift from a fresh
        product; `drop_products` bounds how many accumulate."""
        self._products = {k: p for k, p in self._products.items() if p.read}
        if not self._products:
            return
        u32 = u.astype(np.float32).T
        # pixel rows enter the forward as v/255 (`data.as_float`): the 1/255
        # goes into u instead, which saves a pass over the rows
        u32_pixels = (u / 255.0).astype(np.float32).T
        v32 = v.astype(np.float32)
        work = [(p, rows) for p in self._products.values() for rows in self._spans(0, len(p.rows))]

        def update(items: list[tuple[_Product, slice]]) -> None:
            for p, rows in items:
                x, a = p.rows[rows], p.a[rows]
                ut = u32_pixels if x.dtype == np.uint8 else u32
                a += (x.astype(np.float32, copy=False) @ ut) @ v32

        if len(work) == len(self._products):  # no product splits
            update(work)
        else:  # one share of the spans per CPU, each on a pool thread
            n = _cpus()
            for _ in _span_pool().map(update, [work[k::n] for k in range(n)]):
                pass
        for p in self._products.values():
            p.read = False

    def drop_products(self) -> None:
        """Forget every first-layer product: the next read of each array
        forms it afresh, bit for bit."""
        self._products = {}

    def _weights_for(self, dtype) -> Layers:
        """`weights(dtype)`, or the copy of the open evaluation pass."""
        shared = self._pass_weights
        if shared is None:
            return self.weights(dtype)
        key = np.dtype(dtype)
        if key not in shared:
            shared[key] = self.weights(dtype)
        return shared[key]

    def _product_for(self, x: np.ndarray, dtype) -> tuple[_Product | None, bool]:
        """The product a `features_np` call reads and whether it is new (to
        be formed by the call); no product outside a float32 pass."""
        if self._pass_weights is None or np.dtype(dtype) != np.float32:
            return None, False
        product = self._products.get(id(x))
        if product is not None:
            product.read = True
            return product, False
        return _Product(x, np.empty((x.shape[0], self.dims[1]), np.float32)), True

    def _check_width(self, x: np.ndarray) -> None:
        if x.shape[-1] != self.input_dim:
            raise ValueError(f"input dim {x.shape[-1]} != expected {self.input_dim}")

    def forward_np(self, x: np.ndarray):
        """`mlp_forward` of the parameters on (n, input_dim) rows."""
        self._check_width(x)
        return mlp_forward(self.weights(), x)

    def backward_np(self, x: np.ndarray, hidden: list[np.ndarray], gz: np.ndarray) -> np.ndarray:
        """`mlp_backward` into each `.grad`, given `forward_np(x)`'s `hidden`;
        returns its first-layer cotangent."""
        grads = mlp_layers({n: t.grad for n, t in self.params.items()})
        return mlp_backward(self.weights(), [x, *hidden], gz, grads)

    def features_np(self, x: np.ndarray, chunk: int = 4096, dtype=np.float64) -> np.ndarray:
        """Inference-only forward pass on raw arrays (no graph, chunked).

        The default float64 is bit for bit `forward_np`, the training
        forward. Evaluation asks for float32: the weights are copied to
        float32 once per call, or once per `evaluation_pass`, and the rows
        chunk by chunk, so no float32 copy of `x` is kept. uint8 rows are
        IDX pixels: each chunk is scaled to v/255 in `dtype` as it is cast
        (`data.as_float`). In a float32 pass the first layer comes from the
        array's product (`evaluation_pass`), which a failed call leaves
        unformed.

        A chunk large enough to pay for it (`_spans`) runs as contiguous
        row spans, one per CPU at most, on the thread pool, and the spans'
        outputs are joined in order. Each span is the same call on its own
        rows, so every row's features are bit for bit those of one call,
        and no more than `chunk` rows are in flight at once. The width is
        checked before any span runs.
        """
        x = np.asarray(x)
        self._check_width(x)
        weights = self._weights_for(dtype)
        product, fresh = self._product_for(x, dtype)
        (w0, b0), after = weights[0], weights[1:]

        def forward(rows: slice) -> np.ndarray:
            if product is None:
                return mlp_forward(weights, as_float(x[rows], dtype))[0]
            a = product.a[rows]
            if fresh:
                np.matmul(as_float(x[rows], dtype), w0, out=a)
            h = a + b0
            np.maximum(h, 0.0, out=h)
            return mlp_forward(after, h)[0]

        outs = []
        # an empty batch still makes one (empty) chunk
        for i in range(0, max(x.shape[0], 1), chunk):
            spans = self._spans(i, min(i + chunk, x.shape[0]))
            run = map if len(spans) == 1 else _span_pool().map
            outs.extend(run(forward, spans))
        if fresh:  # every span has formed its rows
            self._products[id(x)] = product
        return outs[0] if len(outs) == 1 else np.concatenate(outs, axis=0)

    def _spans(self, start: int, stop: int) -> list[slice]:
        """Rows start..stop as contiguous spans of near-equal size: one per
        CPU at most, each of at least `_SPAN_MACS` multiply-adds and of more
        than `_SMALL_GEMM_MACS` in every layer. One span unless numpy's
        OpenBLAS reports one thread: its own threads and these never stack."""
        sizes = [a * b for a, b in zip(self.dims[:-1], self.dims[1:])]
        least = max(-(-_SPAN_MACS // sum(sizes)), _SMALL_GEMM_MACS // min(sizes) + 1)
        n = (stop - start) // least
        if n < 2 or blas_threads() != 1:
            return [slice(start, stop)]
        n = min(n, _cpus())
        cuts = [start + (stop - start) * k // n for k in range(n + 1)]
        return [slice(a, b) for a, b in zip(cuts, cuts[1:])]


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
    """Overwrite a ParamSet's values in place from a checkpoint group.
    Only on a fresh extractor: a write to `w0` is not reported to its
    first-layer products (`FeatureExtractor.evaluation_pass`)."""
    if set(stored) != set(ps.names()):
        raise ValueError("parameter names do not match checkpoint")
    for name, arr in stored.items():
        if arr.shape != ps[name].data.shape:
            raise ValueError(f"shape mismatch for {name}")
        ps[name].data[...] = arr
