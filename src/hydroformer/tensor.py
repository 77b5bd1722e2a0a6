"""Minimal dense tensors with reverse-mode automatic differentiation.

Everything is float64 and 2-D or smaller; just enough machinery to express
the forecasting model and train it.
Every op validates that finite inputs produce finite outputs.
"""

import numpy as np

from . import kernels
from .errors import NumericError, ShapeError

ACTIVATIONS = ("tanh", "relu", "sigmoid", "leaky_relu", "elu", "softplus")

_LEAKY_SLOPE = 0.01


class Tensor:
    """A numpy array plus an optional gradient and a backward closure.

    Data is immutable by convention after construction; only .grad mutates
    (accumulation during backward, reset via zero_grad).
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward_fn", "_backward_done")

    def __init__(self, data, requires_grad=False, _parents=(), _backward_fn=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = tuple(_parents)
        self._backward_fn = _backward_fn
        self._backward_done = False

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def zero_grad(self):
        self.grad = None

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, other)
        return mul(self, other)

    def __matmul__(self, other):
        return matmul(self, other)

    def backward(self):
        backward(self)


def _check_finite(arr, opname):
    if not np.isfinite(arr).all():
        raise NumericError(f"{opname} produced non-finite values")


def _make(data, parents, backward_fn, opname):
    _check_finite(data, opname)
    rg = any(p.requires_grad for p in parents)
    return Tensor(data, requires_grad=rg, _parents=parents,
                  _backward_fn=backward_fn if rg else None)


# ---------------------------------------------------------------------------
# ops

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.data.shape} x {b.data.shape}")
    out = a.data @ b.data

    def bwd(g):
        return g @ b.data.T, a.data.T @ g

    return _make(out, (a, b), bwd, "matmul")


def transpose(a: Tensor) -> Tensor:
    def bwd(g):
        return (g.T,)

    return _make(a.data.T, (a,), bwd, "transpose")


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"add: shape mismatch {a.data.shape} vs {b.data.shape}")

    def bwd(g):
        return g, g

    return _make(a.data + b.data, (a, b), bwd, "add")


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"sub: shape mismatch {a.data.shape} vs {b.data.shape}")

    def bwd(g):
        return g, -g

    return _make(a.data - b.data, (a, b), bwd, "sub")


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"mul: shape mismatch {a.data.shape} vs {b.data.shape}")

    def bwd(g):
        return g * b.data, g * a.data

    return _make(a.data * b.data, (a, b), bwd, "mul")


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def bwd(g):
        return (g * c,)

    return _make(a.data * c, (a,), bwd, "scale")


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """Broadcast a length-n bias row over the m rows of an m-by-n matrix."""
    if x.data.ndim != 2 or b.data.shape != (x.data.shape[1],):
        raise ShapeError(f"add_bias: {x.data.shape} + bias {b.data.shape}")

    def bwd(g):
        return g, g.sum(axis=0)

    return _make(x.data + b.data, (x, b), bwd, "add_bias")


def concat_cols(parts) -> Tensor:
    parts = tuple(parts)
    rows = parts[0].data.shape[0]
    if any(p.data.ndim != 2 or p.data.shape[0] != rows for p in parts):
        raise ShapeError("concat_cols: parts must be 2-D with equal row counts")
    widths = [p.data.shape[1] for p in parts]
    splits = np.cumsum(widths)[:-1]

    def bwd(g):
        return tuple(np.split(g, splits, axis=1))

    return _make(np.concatenate([p.data for p in parts], axis=1), parts, bwd, "concat_cols")


def activation(x: Tensor, kind: str) -> Tensor:
    if kind == "tanh":
        y = np.tanh(x.data)
        dydx = 1.0 - y * y
    elif kind == "relu":
        y = np.maximum(x.data, 0.0)
        dydx = (x.data > 0).astype(x.data.dtype)
    elif kind == "sigmoid":
        y = 1.0 / (1.0 + np.exp(-x.data))
        dydx = y * (1.0 - y)
    elif kind == "leaky_relu":
        y = np.where(x.data > 0, x.data, _LEAKY_SLOPE * x.data)
        dydx = np.where(x.data > 0, 1.0, _LEAKY_SLOPE)
    elif kind == "elu":
        y = np.where(x.data > 0, x.data, np.expm1(x.data))
        dydx = np.where(x.data > 0, 1.0, np.exp(np.minimum(x.data, 0.0)))
    elif kind == "softplus":
        y = np.logaddexp(0.0, x.data)
        dydx = 1.0 / (1.0 + np.exp(-x.data))
    else:
        raise ValueError(f"unknown activation {kind!r}; expected one of {ACTIVATIONS}")

    def bwd(g):
        return (g * dydx,)

    return _make(y, (x,), bwd, f"activation[{kind}]")


def masked_softmax(scores: Tensor, mask: np.ndarray) -> Tensor:
    """Row-wise softmax over unmasked entries. Masked entries get weight
    exactly 0 and zero gradient; the mask is a constant, not differentiated."""
    mask = np.asarray(mask, dtype=bool)
    if scores.data.ndim != 2 or mask.shape != scores.data.shape:
        raise ShapeError(f"masked_softmax: scores {scores.data.shape} vs mask {mask.shape}")
    if not mask.any(axis=1).all():
        bad = int(np.flatnonzero(~mask.any(axis=1))[0])
        raise ValueError(f"masked_softmax: row {bad} is fully masked")
    w = kernels.masked_softmax_forward(scores.data, mask)

    def bwd(g):
        return (kernels.masked_softmax_backward(w, g),)

    return _make(w, (scores,), bwd, "masked_softmax")


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize each row of x over the last axis to zero mean / unit variance
    (population variance), then apply the gamma/beta affine."""
    d = x.data.shape[-1]
    if d == 0:
        raise ShapeError("layer_norm: empty last dimension")
    if gamma.data.shape != (d,) or beta.data.shape != (d,):
        raise ShapeError(f"layer_norm: gamma/beta must have shape ({d},)")
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv
    out = gamma.data * xhat + beta.data

    def bwd(g):
        dxhat = g * gamma.data
        dx = inv * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                    - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
        axes = tuple(range(g.ndim - 1))
        return dx, (g * xhat).sum(axis=axes), g.sum(axis=axes)

    return _make(out, (x, gamma, beta), bwd, "layer_norm")


def mse(pred: Tensor, target: Tensor) -> Tensor:
    if pred.data.shape != target.data.shape:
        raise ShapeError(f"mse: shape mismatch {pred.data.shape} vs {target.data.shape}")
    diff = pred.data - target.data
    n = diff.size

    def bwd(g):
        gd = g * 2.0 * diff / n
        return gd, -gd

    return _make(np.array(np.mean(diff * diff)), (pred, target), bwd, "mse")


def tensor_sum(x: Tensor) -> Tensor:
    def bwd(g):
        return (np.full_like(x.data, float(g)),)

    return _make(np.array(x.data.sum()), (x,), bwd, "sum")


# ---------------------------------------------------------------------------
# backward pass

def backward(loss: Tensor) -> None:
    """Reverse-mode sweep from a scalar loss; populates .grad on every
    requires_grad tensor reachable from it. Gradients accumulate additively
    across multiple uses of the same tensor and across backward calls
    (reset with zero_grad)."""
    if loss.data.size != 1:
        raise ShapeError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    if loss._backward_done:
        raise RuntimeError("backward already called on this loss; rebuild the graph")
    loss._backward_done = True

    topo = []
    seen = set()
    stack = [(loss, False)]
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
            if p.requires_grad:
                stack.append((p, False))

    pending = {id(loss): np.ones_like(loss.data)}
    for node in reversed(topo):
        g = pending.pop(id(node), None)
        if g is None:
            continue
        if node.grad is None:
            node.grad = g
        else:
            node.grad = node.grad + g
        if node._backward_fn is None:
            continue
        for parent, pg in zip(node._parents, node._backward_fn(g)):
            if not parent.requires_grad or pg is None:
                continue
            if id(parent) in pending:
                pending[id(parent)] = pending[id(parent)] + pg
            else:
                pending[id(parent)] = pg
