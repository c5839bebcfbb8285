"""Reverse-mode autodiff over dense float64 numpy arrays.

The op set is deliberately closed: matrix products and transposes, ReLU,
elementwise add/sub/neg/mul/scale/exp, reshapes, reductions
(sum/mean/logsumexp/softmax), a one-column-per-row gather, row concatenation
and pairwise squared distances. Every loss in this package is a composition
of these, so gradients can be checked coordinate-by-coordinate against
central finite differences. Stochastic inputs (Gumbel and Gaussian draws)
enter the graph as constants, which keeps backward deterministic.

Training builds no graph: the transport step (`mixture`) and the
preservation step (`losses`, `model`) compute their gradients in closed form
on numpy arrays. The graphs of their losses, built from these primitives,
are the oracles the tests hold them to; they live in `tests/oracles/`, with
the central-difference check `finite_diff_check`. `ParamSet` holds every
trainable array with its gradient buffer and takes the checked SGD step, at
one rate or at a rate per parameter; `ParamSet.union` steps several sets as
one. The step
computes and checks each new value in the gradient buffer, one cache-sized
block at a time, then swaps the two buffers and zeroes the new gradient.
"""

from __future__ import annotations

import numpy as np


class NumericsError(RuntimeError):
    """A non-finite value reached, or was about to reach, parameter state.

    `class_id`, `phase` and `param` say where, when the raiser knows; the
    harness adds the `seed`, `task` and `batch` (1-based) it was running.
    """

    def __init__(
        self, message: str, *, class_id=None, phase=None, param=None, seed=None, task=None, batch=None
    ):
        super().__init__(message)
        self.class_id = class_id
        self.phase = phase
        self.param = param
        self.seed = seed
        self.task = task
        self.batch = batch


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tensor:
    """A float64 array node in a reverse-mode graph.

    Leaf tensors created with ``requires_grad=True`` own a gradient
    accumulator of the same shape. Interior nodes carry a closure that
    routes the incoming cotangent to their parents.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad=False, _parents=(), _vjp=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad or any(p.requires_grad for p in _parents)
        self.grad = np.zeros_like(self.data) if (requires_grad and _vjp is None) else None
        self._parents = _parents
        self._vjp = _vjp

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError("item() on non-scalar tensor")
        return float(self.data.reshape(()))

    def zero_grad(self):
        if self.grad is not None:
            self.grad.fill(0.0)


# ---------------------------------------------------------------------------
# primitives


def add(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data + b.data, _parents=(a, b))
    out._vjp = lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape))
    return out


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data - b.data, _parents=(a, b))
    out._vjp = lambda g: (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape))
    return out


def neg(a: Tensor) -> Tensor:
    out = Tensor(-a.data, _parents=(a,))
    out._vjp = lambda g: (-g,)
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = Tensor(a.data * b.data, _parents=(a, b))
    out._vjp = lambda g: (
        _unbroadcast(g * b.data, a.shape),
        _unbroadcast(g * a.data, b.shape),
    )
    return out


def scale(a: Tensor, s: float) -> Tensor:
    out = Tensor(a.data * s, _parents=(a,))
    out._vjp = lambda g: (g * s,)
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError("matmul expects 2-D operands")
    out = Tensor(a.data @ b.data, _parents=(a, b))
    out._vjp = lambda g: (
        g @ b.data.T if a.requires_grad else None,
        a.data.T @ g if b.requires_grad else None,
    )
    return out


def transpose(a: Tensor) -> Tensor:
    out = Tensor(a.data.T, _parents=(a,))
    out._vjp = lambda g: (g.T,)
    return out


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0
    out = Tensor(np.where(mask, a.data, 0.0), _parents=(a,))
    out._vjp = lambda g: (g * mask,)
    return out


def exp(a: Tensor) -> Tensor:
    val = np.exp(a.data)
    out = Tensor(val, _parents=(a,))
    out._vjp = lambda g: (g * val,)
    return out


def reshape(a: Tensor, shape) -> Tensor:
    out = Tensor(a.data.reshape(shape), _parents=(a,))
    out._vjp = lambda g: (g.reshape(a.shape),)
    return out


def tsum(a: Tensor, axis=None, keepdims=False) -> Tensor:
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims), _parents=(a,))

    def vjp(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).copy(),)

    out._vjp = vjp
    return out


def tmean(a: Tensor, axis=None, keepdims=False) -> Tensor:
    n = a.data.size if axis is None else a.shape[axis]
    if n == 0:
        raise ValueError("empty reduction")
    return scale(tsum(a, axis=axis, keepdims=keepdims), 1.0 / n)


def logsumexp(a: Tensor, axis=None, keepdims=False) -> Tensor:
    """Stable log-sum-exp; exact for a single element, safe up to |x| ~ 1e300."""
    if a.data.size == 0:
        raise ValueError("empty reduction")
    m = a.data.max(axis=axis, keepdims=True)
    shifted = np.exp(a.data - m)
    total = shifted.sum(axis=axis, keepdims=True)
    val = m + np.log(total)
    soft = shifted / total
    if not keepdims:
        val = val.reshape(()) if axis is None else np.squeeze(val, axis=axis)
    out = Tensor(val, _parents=(a,))

    def vjp(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (g * soft,)

    out._vjp = vjp
    return out


def softmax(a: Tensor, axis=-1) -> Tensor:
    """Shift-invariant softmax along `axis`; outputs are strictly positive."""
    m = a.data.max(axis=axis, keepdims=True)
    e = np.exp(a.data - m)
    y = e / e.sum(axis=axis, keepdims=True)
    out = Tensor(y, _parents=(a,))

    def vjp(g):
        inner = (g * y).sum(axis=axis, keepdims=True)
        return (y * (g - inner),)

    out._vjp = vjp
    return out


def gather(a: Tensor, index: np.ndarray) -> Tensor:
    """Pick one column per row of a 2-D tensor: out[i] = a[i, index[i]]."""
    index = np.asarray(index, dtype=np.int64)
    rows_idx = np.arange(a.shape[0])
    out = Tensor(a.data[rows_idx, index], _parents=(a,))

    def vjp(g):
        ga = np.zeros_like(a.data)
        np.add.at(ga, (rows_idx, index), g)
        return (ga,)

    out._vjp = vjp
    return out


def concat_rows(*tensors: Tensor) -> Tensor:
    """Concatenate 2-D tensors along axis 0; backward splits the cotangent."""
    if not tensors:
        raise ValueError("nothing to concatenate")
    if any(t.data.ndim != 2 for t in tensors):
        raise ValueError("concat_rows expects 2-D operands")
    out = Tensor(np.concatenate([t.data for t in tensors], axis=0), _parents=tensors)
    sizes = [t.shape[0] for t in tensors]
    bounds = np.cumsum([0] + sizes)

    def vjp(g):
        return tuple(g[bounds[i] : bounds[i + 1]] for i in range(len(sizes)))

    out._vjp = vjp
    return out


def pairwise_sqdist(a: Tensor, b: Tensor) -> Tensor:
    """Squared Euclidean distances between row sets: out[i, j] = ||a_i - b_j||^2.

    Computed from explicit differences rather than the dot-product identity so
    small distances stay exact; operand sizes here are batch-scale.
    """
    diff = a.data[:, None, :] - b.data[None, :, :]
    out = Tensor(np.einsum("nmd,nmd->nm", diff, diff), _parents=(a, b))

    def vjp(g):
        ga = 2.0 * np.einsum("nm,nmd->nd", g, diff) if a.requires_grad else None
        gb = -2.0 * np.einsum("nm,nmd->md", g, diff) if b.requires_grad else None
        return (ga, gb)

    out._vjp = vjp
    return out


# ---------------------------------------------------------------------------
# reverse pass


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into every reachable leaf's `.grad`.

    A primitive's vjp returns None for an operand that needs no gradient
    (an input batch, a constant), which is skipped.

    The loss must be scalar and built from the primitives above; anything
    else in the graph simply does not exist, so unsupported structures fail
    at construction time rather than here. Leaves not reachable from the
    loss keep their accumulators untouched.
    """
    if loss.data.size != 1:
        raise ValueError("backward expects a scalar loss")
    if not loss.requires_grad:
        return

    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))

    cotangent: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(topo):
        g = cotangent.pop(id(node), None)
        if g is None:
            continue
        if node._vjp is None:
            if node.grad is None:
                node.grad = np.zeros_like(node.data)
            node.grad += g.reshape(node.data.shape)
            continue
        for parent, pg in zip(node._parents, node._vjp(g)):
            if pg is None or not parent.requires_grad:
                continue
            acc = cotangent.get(id(parent))
            if acc is None:
                cotangent[id(parent)] = np.array(pg, dtype=np.float64, copy=True)
            else:
                acc += pg


# ---------------------------------------------------------------------------
# parameters


# Elements per block of `ParamSet.step` (512 KB of float64, inside L2): on a
# 2-vCPU Xeon a paper-shape step took 1.61 ms whole-array and 1.16/1.09/1.10/
# 1.19 ms in blocks of 16K/32K/64K/128K (medians of 60 steps).
_STEP_BLOCK = 1 << 16


def _new_value_is_finite(data: np.ndarray, grad: np.ndarray, rate) -> bool:
    """Overwrite `grad` with data + (-rate) * grad, block by block, checking
    each block while it is in cache; False at the first non-finite block."""
    if grad.size <= _STEP_BLOCK:
        grad *= -rate
        grad += data
        return bool(np.isfinite(grad).all())
    # both buffers are C-contiguous (ParamSet.add, zeros_like): flat views
    new, old = grad.reshape(-1), data.reshape(-1)
    for start in range(0, new.size, _STEP_BLOCK):
        block = new[start : start + _STEP_BLOCK]
        block *= -rate
        block += old[start : start + _STEP_BLOCK]
        if not np.isfinite(block).all():
            return False
    return True


class ParamSet:
    """Named trainable tensors, each paired with a same-shape gradient slot."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def add(self, name: str, value) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter name: {name}")
        arr = np.array(value, dtype=np.float64)
        if not np.isfinite(arr).all():
            raise NumericsError(f"non-finite initial value for parameter {name!r}")
        t = Tensor(arr, requires_grad=True)
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __iter__(self):
        return iter(self._params)

    def items(self):
        return self._params.items()

    def names(self):
        return list(self._params)

    def tensors(self):
        return list(self._params.values())

    def zero_grad(self):
        for t in self._params.values():
            t.zero_grad()

    @classmethod
    def union(cls, *groups) -> "ParamSet":
        """One set over the same `Tensor` objects as `groups` (ParamSets or
        name -> Tensor maps), in the order given; names must not repeat."""
        out = cls()
        for group in groups:
            for name, t in group.items():
                if name in out._params:
                    raise ValueError(f"duplicate parameter name: {name}")
                out._params[name] = t
        return out

    def step(self, lr):
        """One SGD step: p <- p - lr * grad, then zero the accumulators.

        `lr` is one positive rate for every parameter, or a {name: rate} map
        with a non-negative rate for each (0 leaves that parameter in place).
        Each new value is computed in its gradient buffer (p + (-lr) * grad,
        bit for bit p - lr * grad) and checked block by block in insertion
        order; only when every one is finite does each `Tensor` swap its data
        and gradient buffers (as `mixture._Stack.advance` swaps its stacks),
        so the arrays are replaced, not copied into. A non-finite step leaves
        all parameters unchanged and names the first non-finite one. Either
        way every gradient is zeroed.
        """
        if not isinstance(lr, dict):
            if lr <= 0:
                raise ValueError("learning rate must be positive")
            lr = dict.fromkeys(self._params, lr)
        elif lr.keys() != self._params.keys():
            raise ValueError("need exactly one learning rate per parameter")
        elif any(r < 0 for r in lr.values()):
            raise ValueError("learning rates must be non-negative")
        for name, t in self._params.items():
            if not _new_value_is_finite(t.data, t.grad, lr[name]):
                self.zero_grad()
                raise NumericsError(
                    f"non-finite values in parameter {name!r} after step", param=name
                )
        for t in self._params.values():
            t.data, t.grad = t.grad, t.data
            t.grad.fill(0.0)

