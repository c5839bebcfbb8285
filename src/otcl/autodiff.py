"""Trainable parameters and the reverse-mode graph core over float64 arrays.

`ParamSet` holds every trainable array as a `Tensor` leaf with its gradient
buffer and takes the checked SGD step, at one rate or at a rate per
parameter; `ParamSet.union` steps several sets as one. The step computes and
checks each new value in the gradient buffer, one cache-sized block at a
time, then swaps the two buffers. It does not zero the new gradient buffer,
which holds the old values: a stepped gradient is an output, written whole
by the closed form that computes it (`mlp_backward` with `out=`, the
separation gradient into every prototype row), as `mixture._Stack.advance`
also leaves its gradient stack. A caller that accumulates into `.grad`, as
`backward` does, calls `zero_grad()` first. A non-finite value raises
`NumericsError`.

Training builds no graph: the transport step (`mixture`) and the
preservation step (`losses`, `model`) compute their gradients in closed form
on numpy arrays. The graph core here is what `MLP.forward` (`add`, `matmul`,
`relu`) and `DualPotential.forward` (`reshape`) are built from, plus
`backward`. The rest of the op set, and the graph-built losses and transport
objective that the closed forms are held to, live with the test oracles in
`tests/oracles/`.
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


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError("matmul expects 2-D operands")
    out = Tensor(a.data @ b.data, _parents=(a, b))
    out._vjp = lambda g: (
        g @ b.data.T if a.requires_grad else None,
        a.data.T @ g if b.requires_grad else None,
    )
    return out


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0
    out = Tensor(np.where(mask, a.data, 0.0), _parents=(a,))
    out._vjp = lambda g: (g * mask,)
    return out


def reshape(a: Tensor, shape) -> Tensor:
    out = Tensor(a.data.reshape(shape), _parents=(a,))
    out._vjp = lambda g: (g.reshape(a.shape),)
    return out


# ---------------------------------------------------------------------------
# reverse pass


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into every reachable leaf's `.grad`.

    A primitive's vjp returns None for an operand that needs no gradient
    (an input batch, a constant), which is skipped.

    The loss must be scalar and built from graph ops (the primitives above
    or the oracles' `graph` module); an op that does not exist cannot enter
    the graph, so unsupported structures fail at construction time rather
    than here. Leaves not reachable from the loss keep their accumulators
    untouched.
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
            raise NumericsError(f"non-finite initial value for parameter {name!r}", param=name)
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
        """One SGD step: p <- p - lr * grad.

        `lr` is one positive rate for every parameter, or a {name: rate} map
        with a non-negative rate for each (0 leaves that parameter in place).
        Each new value is computed in its gradient buffer (p + (-lr) * grad,
        bit for bit p - lr * grad) and checked block by block in insertion
        order; only when every one is finite does each `Tensor` swap its data
        and gradient buffers (as `mixture._Stack.advance` swaps its stacks),
        so the arrays are replaced, not copied into. The new gradient buffers
        hold the old values and are not zeroed: the next closed form writes
        every element, and a caller that accumulates (`backward`) calls
        `zero_grad()` first. A non-finite step leaves all parameters
        unchanged, zeroes every gradient and names the first non-finite one.
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
