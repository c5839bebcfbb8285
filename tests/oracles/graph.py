"""The reverse-mode graph op set the oracles build their losses from.

`otcl.autodiff` keeps only the graph core that the package or the benchmark
reaches: `Tensor`, `add`, `matmul` and `relu` (`MLP.forward`), `reshape`
(`DualPotential.forward`) and `backward` (hooked by the benchmark). They are
re-exported here, next to the rest of the op set:
subtraction and negation, elementwise products and scaling, transposes,
`exp`, reductions (sum/mean/logsumexp/softmax), a one-column-per-row gather,
row concatenation and pairwise squared distances. Every graph oracle is a
composition of these, so its gradients can be checked coordinate by
coordinate against central finite differences. Stochastic inputs (Gumbel
and Gaussian draws) enter a graph as constants, which keeps backward
deterministic.
"""

from __future__ import annotations

import numpy as np

# the package's graph core, re-exported so that an oracle reads every op from here
from otcl.autodiff import Tensor, _unbroadcast, add, backward, matmul, relu, reshape


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

def transpose(a: Tensor) -> Tensor:
    out = Tensor(a.data.T, _parents=(a,))
    out._vjp = lambda g: (g.T,)
    return out


def exp(a: Tensor) -> Tensor:
    val = np.exp(a.data)
    out = Tensor(val, _parents=(a,))
    out._vjp = lambda g: (g * val,)
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
