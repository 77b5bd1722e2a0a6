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
import math
from contextlib import contextmanager

import numpy as np

from . import kernels
from .errors import NumericError, ShapeError

_LEAKY_SLOPE = 0.01

# kind -> (y(x), dy/dx from the input x or the output y). Ops call the slope
# in backward, so a no_grad pass never computes it.
_ACTIVATIONS = {
    "tanh": (np.tanh, lambda x, y: 1.0 - y * y),
    "relu": (lambda x: np.maximum(x, 0.0), lambda x, y: (x > 0).astype(x.dtype)),
    "sigmoid": (lambda x: 1.0 / (1.0 + np.exp(-x)), lambda x, y: y * (1.0 - y)),
    "leaky_relu": (lambda x: np.where(x > 0, x, _LEAKY_SLOPE * x),
                   lambda x, y: np.where(x > 0, 1.0, _LEAKY_SLOPE)),
    "elu": (lambda x: np.where(x > 0, x, np.expm1(x)),
            lambda x, y: np.where(x > 0, 1.0, np.exp(np.minimum(x, 0.0)))),
    "softplus": (lambda x: np.logaddexp(0.0, x), lambda x, y: 1.0 / (1.0 + np.exp(-x))),
}
ACTIVATIONS = tuple(_ACTIVATIONS)


def _activation_fns(kind: str):
    fns = _ACTIVATIONS.get(kind)
    if fns is None:
        raise ValueError(f"unknown activation {kind!r}; expected one of {ACTIVATIONS}")
    return fns


class Tensor:
    """A numpy array plus an optional gradient and a backward closure.

    The constructor makes leaves; op nodes come only from the ops. Parameters
    change in place, only between graphs; other data never changes. .grad
    accumulates on leaves, in place once set; an op node holds one only
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

    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, other)
        return mul(self, other)

    def __matmul__(self, other):
        return matmul(self, other)


def _check_finite(arr, opname):
    """NumericError unless every element of arr is finite. A finite sum rules
    out NaN and inf in one pass; only a non-finite sum, which finite values
    can also give by overflowing (numpy then warns), is checked element by
    element."""
    if not math.isfinite(np.add.reduce(arr, axis=None)) and not np.isfinite(arr).all():
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


def grad_enabled() -> bool:
    """Whether ops record the tape here: False inside no_grad."""
    return _grad_enabled


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


def _affine(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    """x @ w + b for linear and mlp, and x as rows (x2) for their backward."""
    if x.ndim < 2 or w.ndim != 2 or x.shape[-1] != w.shape[0]:
        raise ShapeError(f"linear: incompatible shapes {x.shape} x {w.shape}")
    out_shape = x.shape[:-1] + w.shape[1:]
    if out_shape[len(out_shape) - b.ndim:] != b.shape:
        raise ShapeError(f"linear: {out_shape} + bias {b.shape}")
    x2 = x.reshape(-1, w.shape[0])
    return (x2 @ w).reshape(out_shape) + b, x2


def _affine_grads(g: np.ndarray, x: np.ndarray, x2: np.ndarray, w: np.ndarray,
                  b: np.ndarray):
    """Gradients of x @ w + b for x, w and b, given the output gradient g."""
    g2 = g.reshape(x2.shape[0], -1)
    return (g2 @ w.T).reshape(x.shape), x2.T @ g2, g.reshape((-1,) + b.shape).sum(axis=0)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b as one op: (..., m, k) @ (k, n) plus b broadcast as in
    add_bias, a length-n bias row or an m x n table over the batch."""
    out, x2 = _affine(x.data, w.data, b.data)

    def bwd(g):
        return _affine_grads(g, x.data, x2, w.data, b.data)

    return _make(out, (x, w, b), bwd, "linear")


def mlp(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor, kind: str) -> Tensor:
    """linear(x, w1, b1) -> activation(kind) -> linear(., w2, b2) as one op,
    bit for bit that chain in its output and every gradient. The hidden
    pre-activation is checked for finite values as well as the output.

    The tape keeps only the pre-activation: backward recomputes the hidden
    activation from it with the same ufuncs, so it equals the forward's."""
    pre, x2 = _affine(x.data, w1.data, b1.data)
    _check_finite(pre, "mlp hidden layer")
    act, slope = _activation_fns(kind)
    out, _ = _affine(act(pre), w2.data, b2.data)

    def bwd(g):
        h = act(pre)
        gh, gw2, gb2 = _affine_grads(g, h, h.reshape(-1, w2.data.shape[0]), w2.data, b2.data)
        return (gw2, gb2) + _affine_grads(gh * slope(pre, h), x.data, x2, w1.data, b1.data)

    # parents in the order the chain sent their gradients (the second
    # linear's first), so an input used twice sums them in the same order
    return _make(out, (w2, b2, x, w1, b1), bwd, "mlp")


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


def _scores(q: np.ndarray, k: np.ndarray, n_heads: int, c: float):
    """c * Q_h K_h^T of every head as row blocks, and q and k split into
    heads, which backward keeps."""
    if not _same_batch(q, k) or q.shape[-1] != k.shape[-1] or q.shape[-1] % n_heads:
        raise ShapeError(f"head_scores: shapes {q.shape}, {k.shape}, {n_heads} heads")
    qh, kh = _split_heads(q, n_heads), _split_heads(k, n_heads)
    s = np.matmul(qh, kh.swapaxes(-1, -2)).reshape(q.shape[:-2] + (-1, k.shape[-2])) * c
    return s, qh, kh


def _scores_grads(g: np.ndarray, qh: np.ndarray, kh: np.ndarray, c: float):
    """Gradients of _scores for q and k, given the scores' gradient g."""
    gh = (g * c).reshape(kh.shape[:-2] + (-1, kh.shape[-2]))
    return _merge_heads(np.matmul(gh, kh)), _merge_heads(np.matmul(gh.swapaxes(-1, -2), qh))


def head_scores(q: Tensor, k: Tensor, n_heads: int, c: float = 1.0) -> Tensor:
    """Per-head c * Q_h K_h^T with head h the column block h of q and k,
    stacked as row blocks: (..., n_heads * Lq, Lk) for q (..., Lq, d),
    k (..., Lk, d). c multiplies the product, after the GEMM."""
    c = float(c)
    out, qh, kh = _scores(q.data, k.data, n_heads, c)

    def bwd(g):
        return _scores_grads(g, qh, kh, c)

    return _make(out, (q, k), bwd, "head_scores")


def attention_core(q: Tensor, k: Tensor, v: Tensor, n_heads: int, c: float = 1.0,
                   allowed: np.ndarray | None = None, k_sparse: int | None = None) -> Tensor:
    """Attention of every head as one op. The scores head_scores(q, k,
    n_heads, c), (..., n_heads * Lq, Lk), go through a softmax over each
    row's entries that `allowed` keeps (a mask of the scores' last two axes,
    shared by the batch; None keeps all) and, with k_sparse, only those >=
    the k_sparse-th largest of them (ties kept). Row block h of the weights
    then mixes column block h of v (..., Lk, d); the blocks side by side
    give (..., Lq, d).

    Bit for bit the chain head_scores -> kernels.topk_keep -> masked_softmax
    -> head mix, in its output and every gradient. The scores are checked
    for finite values as well as the output."""
    c = float(c)
    s, qh, kh = _scores(q.data, k.data, n_heads, c)
    _check_finite(s, "attention scores")
    rows, cols = s.shape[-2:]
    if k_sparse is not None and k_sparse < 1:
        raise ValueError(f"attention_core: k_sparse must be >= 1, got {k_sparse}")
    if cols == 0:
        raise ShapeError(f"attention_core: no keys, {k.data.shape}")
    if allowed is None:
        allowed = np.ones((rows, cols), dtype=bool)
    elif allowed.shape != (rows, cols):
        raise ShapeError(f"attention_core: mask {allowed.shape} for scores {s.shape}")
    elif not allowed.any(axis=-1).all():
        raise ValueError("attention_core: a row of the mask allows no entry")
    if k_sparse is not None:
        allowed = kernels.topk_keep(s, k_sparse, allowed)
    if not _same_batch(s, v.data) or v.data.shape[-2] != cols or v.data.shape[-1] % n_heads:
        raise ShapeError(f"attention_core: values {v.data.shape} for scores {s.shape}, "
                         f"{n_heads} heads")
    w = kernels.masked_softmax_forward(s, allowed)
    wh = w.reshape(w.shape[:-2] + (n_heads, -1, cols))
    vh = _split_heads(v.data, n_heads)

    def bwd(g):
        gh = _split_heads(g, n_heads)
        gw = np.matmul(gh, vh.swapaxes(-1, -2)).reshape(w.shape)
        return ((_merge_heads(np.matmul(wh.swapaxes(-1, -2), gh)),)
                + _scores_grads(kernels.masked_softmax_backward(w, gw), qh, kh, c))

    # parents in the order the chain sent their gradients (v's first), so an
    # input used twice sums them in the same order
    return _make(_merge_heads(np.matmul(wh, vh)), (v, q, k), bwd, "attention_core")


def activation(x: Tensor, kind: str) -> Tensor:
    act, slope = _activation_fns(kind)
    y = act(x.data)

    def bwd(g):
        return (g * slope(x.data, y),)

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
        # np.mean's sum and division, written out as in the forward
        dx = inv * (dxhat - dxhat.sum(axis=-1, keepdims=True) / d
                    - xhat * ((dxhat * xhat).sum(axis=-1, keepdims=True) / d))
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
    Gradients accumulate across uses and backward calls, in place in a leaf's
    .grad; a leaf without one gets a copy, as add sends one array to both inputs.

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
        if leaf.grad is None:
            leaf.grad = g.copy()
        else:
            leaf.grad += g
