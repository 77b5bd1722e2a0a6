"""Minimal dense tensors with reverse-mode automatic differentiation.

Everything is float64. Matrix-shaped ops take rows on the second-to-last
axis and features on the last; any leading axes are a batch, so one sample
(L x d) and a stack of samples (B x L x d) run the same code. Every op
validates that finite inputs produce finite outputs.

`backward` sweeps op nodes in reverse creation order, freeing the graph as
it goes: only leaves (tensors no op made) keep a `.grad`. Inside `no_grad()`
ops record nothing at all.
"""

import heapq
import itertools
from contextlib import contextmanager

import numpy as np

from . import kernels
from .errors import NumericError, ShapeError

ACTIVATIONS = ("tanh", "relu", "sigmoid", "leaky_relu", "elu", "softplus")

_LEAKY_SLOPE = 0.01


class Tensor:
    """A numpy array plus an optional gradient and a backward closure.

    The constructor makes leaves; op nodes come only from the ops. Parameters
    change in place, only between graphs; other data never changes. .grad
    accumulates on leaves (reset via zero_grad); an op node holds one only
    during a backward sweep.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward_fn",
                 "_backward_done", "_seq")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backward_fn = None
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

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, other)
        return mul(self, other)

    def __matmul__(self, other):
        return matmul(self, other)


def _check_finite(arr, opname):
    if not np.isfinite(arr).all():
        raise NumericError(f"{opname} produced non-finite values")


_grad_enabled = True
_next_seq = itertools.count()  # creation numbers of recorded op nodes; see backward


@contextmanager
def no_grad():
    """Scope in which ops record no parents and no backward closure; the
    previous state is restored on exit, also when the body raises. The
    state is process-wide: the package runs in one thread."""
    global _grad_enabled
    previous, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = previous


def _make(data, parents, backward_fn, opname):
    """The Tensor an op made: data is already a float64 array and parents a
    tuple, so the slots are set directly, without __init__'s conversions.
    Only an op with an input that requires grad is recorded, outside no_grad."""
    _check_finite(data, opname)
    out = Tensor.__new__(Tensor)
    out.data, out.grad, out._backward_done = data, None, False
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad, out._parents, out._backward_fn = True, parents, backward_fn
        out._seq = next(_next_seq)
    else:
        out.requires_grad, out._parents, out._backward_fn = False, (), None
    return out


# ---------------------------------------------------------------------------
# ops

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """(..., m, k) @ (k, n): the rows of every batch item in one GEMM."""
    if a.data.ndim < 2 or b.data.ndim != 2 or a.data.shape[-1] != b.data.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.data.shape} x {b.data.shape}")
    a2 = a.data.reshape(-1, b.data.shape[0])
    out = (a2 @ b.data).reshape(a.data.shape[:-1] + b.data.shape[1:])

    def bwd(g):
        g2 = g.reshape(a2.shape[0], -1)
        return (g2 @ b.data.T).reshape(a.data.shape), a2.T @ g2

    return _make(out, (a, b), bwd, "matmul")


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b as one op: (..., m, k) @ (k, n) plus b broadcast as in
    add_bias, a length-n bias row or an m x n table over the batch."""
    if x.data.ndim < 2 or w.data.ndim != 2 or x.data.shape[-1] != w.data.shape[0]:
        raise ShapeError(f"linear: incompatible shapes {x.data.shape} x {w.data.shape}")
    out_shape = x.data.shape[:-1] + w.data.shape[1:]
    if out_shape[len(out_shape) - b.data.ndim:] != b.data.shape:
        raise ShapeError(f"linear: {out_shape} + bias {b.data.shape}")
    x2 = x.data.reshape(-1, w.data.shape[0])
    out = (x2 @ w.data).reshape(out_shape) + b.data

    def bwd(g):
        g2 = g.reshape(x2.shape[0], -1)
        return ((g2 @ w.data.T).reshape(x.data.shape), x2.T @ g2,
                g.reshape((-1,) + b.data.shape).sum(axis=0))

    return _make(out, (x, w, b), bwd, "linear")


def transpose(a: Tensor) -> Tensor:
    def bwd(g):
        return (g.T,)

    return _make(a.data.T, (a,), bwd, "transpose")


def swap_leading(a: Tensor) -> Tensor:
    """Exchange the two leading axes of a 3-D tensor, as a view."""
    if a.data.ndim != 3:
        raise ShapeError(f"swap_leading: need a 3-D tensor, got {a.data.shape}")

    def bwd(g):
        return (g.swapaxes(0, 1),)

    return _make(a.data.swapaxes(0, 1), (a,), bwd, "swap_leading")


def last_row(a: Tensor) -> Tensor:
    """The last row of every matrix of a, keeping the row axis: (..., 1, n),
    as a view. Backward places the gradient in that row, zeros elsewhere."""
    if a.data.ndim < 2:
        raise ShapeError(f"last_row: need at least 2 axes, got {a.data.shape}")

    def bwd(g):
        out = np.zeros_like(a.data)
        out[..., -1:, :] = g
        return (out,)

    return _make(a.data[..., -1:, :], (a,), bwd, "last_row")


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
    """Broadcast b over the leading axes of x: a length-n bias row over the
    rows of (..., m, n), or an m x n table over the batch of (..., m, n)."""
    if x.data.ndim < 2 or x.data.shape[x.data.ndim - b.data.ndim:] != b.data.shape:
        raise ShapeError(f"add_bias: {x.data.shape} + bias {b.data.shape}")

    def bwd(g):
        return g, g.reshape((-1,) + b.data.shape).sum(axis=0)

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


def _split_heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    """... x rows x d -> ... x n_heads x rows x d_head; head h is column block h."""
    *lead, rows, d = x.shape
    return x.reshape(*lead, rows, n_heads, d // n_heads).swapaxes(-2, -3)


def _merge_heads(x: np.ndarray) -> np.ndarray:
    *lead, n_heads, rows, d_head = x.shape
    return x.swapaxes(-2, -3).reshape(*lead, rows, n_heads * d_head)


def _same_batch(a: np.ndarray, b: np.ndarray) -> bool:
    """Both at least 2-D with equal leading (batch) axes."""
    return a.ndim >= 2 and b.ndim == a.ndim and a.shape[:-2] == b.shape[:-2]


def head_scores(q: Tensor, k: Tensor, n_heads: int, c: float = 1.0) -> Tensor:
    """Per-head c * Q_h K_h^T with head h the column block h of q and k,
    stacked as row blocks: (..., n_heads * Lq, Lk) for q (..., Lq, d),
    k (..., Lk, d). c multiplies the product, after the GEMM."""
    if (not _same_batch(q.data, k.data) or q.data.shape[-1] != k.data.shape[-1]
            or q.data.shape[-1] % n_heads):
        raise ShapeError(f"head_scores: shapes {q.data.shape}, {k.data.shape}, {n_heads} heads")
    qh, kh = _split_heads(q.data, n_heads), _split_heads(k.data, n_heads)
    out_shape = q.data.shape[:-2] + (-1, k.data.shape[-2])
    c = float(c)

    def bwd(g):
        gh = (g * c).reshape(kh.shape[:-2] + (-1, kh.shape[-2]))
        return (_merge_heads(np.matmul(gh, kh)),
                _merge_heads(np.matmul(gh.swapaxes(-1, -2), qh)))

    out = np.matmul(qh, kh.swapaxes(-1, -2)).reshape(out_shape) * c
    return _make(out, (q, k), bwd, "head_scores")


def head_mix(w: Tensor, v: Tensor, n_heads: int) -> Tensor:
    """Row block h of w (..., n_heads * Lq, Lk) times column block h of v
    (..., Lk, d), the products placed side by side: (..., Lq, d)."""
    if (not _same_batch(w.data, v.data) or w.data.shape[-1] != v.data.shape[-2]
            or w.data.shape[-2] % n_heads or v.data.shape[-1] % n_heads):
        raise ShapeError(f"head_mix: shapes {w.data.shape}, {v.data.shape}, {n_heads} heads")
    wh = w.data.reshape(w.data.shape[:-2] + (n_heads, -1, w.data.shape[-1]))
    vh = _split_heads(v.data, n_heads)

    def bwd(g):
        gh = _split_heads(g, n_heads)
        return (np.matmul(gh, vh.swapaxes(-1, -2)).reshape(w.data.shape),
                _merge_heads(np.matmul(wh.swapaxes(-1, -2), gh)))

    return _make(_merge_heads(np.matmul(wh, vh)), (w, v), bwd, "head_mix")


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
    """Softmax over the unmasked entries of each row (last axis). Masked
    entries get weight exactly 0 and zero gradient; the mask is a constant,
    not differentiated. The mask has the shape of scores, or of their last
    two axes to be shared by every batch item."""
    mask = np.asarray(mask, dtype=bool)
    if scores.data.ndim < 2 or mask.shape not in (scores.data.shape, scores.data.shape[-2:]):
        raise ShapeError(f"masked_softmax: scores {scores.data.shape} vs mask {mask.shape}")
    if not mask.any(axis=-1).all():
        bad = np.argwhere(~mask.any(axis=-1))[0].tolist()
        raise ValueError(f"masked_softmax: row {bad} is fully masked")
    w = kernels.masked_softmax_forward(scores.data, mask)

    def bwd(g):
        return (kernels.masked_softmax_backward(w, g),)

    return _make(w, (scores,), bwd, "masked_softmax")


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, residual: Tensor | None = None,
               eps: float = 1e-5) -> Tensor:
    """Normalize each row of x (of x + residual, when given) over the last
    axis to zero mean / unit variance (population variance), then apply the
    gamma/beta affine. x and residual get the same gradient."""
    d = x.data.shape[-1]
    if d == 0:
        raise ShapeError("layer_norm: empty last dimension")
    if gamma.data.shape != (d,) or beta.data.shape != (d,):
        raise ShapeError(f"layer_norm: gamma/beta must have shape ({d},)")
    if residual is None:
        inp, parents = x.data, (x, gamma, beta)
    else:
        if residual.data.shape != x.data.shape:
            raise ShapeError(f"layer_norm: residual {residual.data.shape} vs {x.data.shape}")
        inp, parents = x.data + residual.data, (x, gamma, beta, residual)
    # np.mean's and np.var's sums and divisions with the row centred once,
    # so mean, variance and x-hat equal theirs bit for bit
    centred = inp - inp.sum(axis=-1, keepdims=True) / d
    var = np.square(centred).sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + eps)
    xhat = centred * inv
    out = gamma.data * xhat + beta.data

    def bwd(g):
        dxhat = g * gamma.data
        dx = inv * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                    - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
        axes = tuple(range(g.ndim - 1))
        return dx, (g * xhat).sum(axis=axes), g.sum(axis=axes), dx

    return _make(out, parents, bwd, "layer_norm")


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
    """Reverse-mode sweep from a scalar loss; adds the gradient into .grad of
    every leaf (a requires_grad tensor no op made) reachable from it.
    Gradients accumulate additively across multiple uses of the same tensor
    and across backward calls (reset with zero_grad).

    Op nodes are swept in reverse creation order, which is topological: an
    op's inputs exist before it, so a node is swept after all its consumers.
    A node that has received gradient waits on a max-heap of creation
    numbers, with the sum in its own .grad slot. Each swept node drops its
    .grad, parents and backward closure, releasing intermediate arrays
    early. A later backward that reaches a swept node raises RuntimeError
    rather than silently losing gradients; leaf gradients are added only
    after the sweep, so that error leaves every leaf's .grad unchanged."""
    if loss.data.size != 1:
        raise ShapeError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    if loss._backward_done:
        raise RuntimeError("backward already called on this loss; rebuild the graph")
    heap, leaves = [], []

    def send(node, g):
        if node._backward_fn is None:
            if node._backward_done:
                raise RuntimeError("backward reached a graph an earlier backward "
                                   "already freed; rebuild the graph")
            leaves.append((node, g))
        elif node.grad is None:
            node.grad = g
            heapq.heappush(heap, (-node._seq, node))
        else:
            node.grad = node.grad + g

    send(loss, np.ones_like(loss.data))
    loss._backward_done = True
    while heap:
        node = heapq.heappop(heap)[1]
        g, fn, parents = node.grad, node._backward_fn, node._parents
        node.grad, node._backward_fn, node._parents, node._backward_done = None, None, (), True
        for parent, pg in zip(parents, fn(g)):
            if parent.requires_grad:
                send(parent, pg)
    for leaf, g in leaves:
        leaf.grad = g if leaf.grad is None else leaf.grad + g
