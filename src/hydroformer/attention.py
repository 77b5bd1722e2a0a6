"""Scaled dot-product attention, explicit top-k sparse attention, causal
masking, and multi-head composition. One function, attend, serves dense and
sparse attention, every head count and every batch size: head h's scores are
row block h of one stacked (n_heads * Lq) x Lk matrix per batch item, and
masks of that matrix's shape are shared by every item of a batch. Scores,
top-k, softmax and the head mix run as one tape op, tensor.attention_core.
multi_head projects only the queries and the output; the model projects keys
and values in one place, TransformerModel._kv."""

import math

import numpy as np

from . import kernels
from .errors import ShapeError
from .tensor import Tensor, attention_core, head_scores, matmul


def default_k(length: int) -> int:
    """Runtime default sparsity: keep a quarter of the row, at least one."""
    return max(1, math.ceil(length / 4))


def _scale(q: Tensor, n_heads: int) -> float:
    return 1.0 / math.sqrt(q.data.shape[-1] // n_heads)


def attention_scores(q: Tensor, k: Tensor, n_heads: int = 1) -> Tensor:
    """P = Q_h K_h^T / sqrt(d_head) per head, heads stacked as row blocks."""
    return head_scores(q, k, n_heads, _scale(q, n_heads))


def topk_mask(scores: np.ndarray, k: int, allowed: np.ndarray | None = None) -> np.ndarray:
    """Boolean keep mask of the scores' shape: per row (last axis), entries
    >= the k-th largest value survive. Scores are one matrix or a batch of
    matrices stacked on leading axes.

    Ties at the threshold are all kept, so a row may keep more than k entries.
    When `allowed` is given the threshold is computed among allowed entries
    only and forbidden entries are never kept. `allowed` has the scores'
    shape, or the shape of their last two axes to be shared by every batch
    item.
    """
    if k < 1:
        raise ValueError(f"topk_mask: k must be >= 1, got {k}")
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim < 2 or scores.shape[-1] == 0:
        raise ShapeError(f"topk_mask: need scores with at least 2 axes and non-empty "
                         f"rows, got {scores.shape}")
    if allowed is None:
        allowed = np.ones(scores.shape[-2:], dtype=bool)
    else:
        allowed = np.asarray(allowed, dtype=bool)
        if allowed.shape not in (scores.shape, scores.shape[-2:]):
            raise ShapeError("topk_mask: allowed mask shape mismatch")
        if not allowed.any(axis=-1).all():
            raise ValueError("topk_mask: a row has no allowed entries")
    return kernels.topk_keep(scores, k, allowed)


def causal_mask(length: int) -> np.ndarray:
    """Position (i, j) allowed iff j <= i."""
    if length < 1:
        raise ValueError("causal_mask: length must be >= 1")
    return np.tril(np.ones((length, length), dtype=bool))


def attend(q: Tensor, k: Tensor, v: Tensor, k_sparse: int | None = None,
           causal: bool = False, n_heads: int = 1) -> Tensor:
    """softmax(Mask(Q_h K_h^T / sqrt(d_head), k_sparse)) V_h per head, heads
    concatenated on the columns. k_sparse None is dense attention; otherwise
    only the top-k scores per row survive the softmax, which equals dense
    attention when k_sparse >= the number of keys."""
    # one (n_heads * Lq) x Lk mask serves every batch item; a non-square
    # causal mask fails attention_core's shape check
    allowed = np.tile(causal_mask(q.data.shape[-2]), (n_heads, 1)) if causal else None
    return attention_core(q, k, v, n_heads, _scale(q, n_heads), allowed, k_sparse)


def multi_head(q_in: Tensor, k: Tensor, v: Tensor, weights, n_heads: int,
               k_sparse: int | None = None, causal: bool = False) -> Tensor:
    """weights = (wq, wo), each d x d; k and v are keys and values already
    projected (model._kv). Head h reads column block h of q_in @ wq, k and v;
    the heads' outputs are mixed by wo."""
    wq, wo = weights
    return matmul(attend(matmul(q_in, wq), k, v, k_sparse, causal, n_heads), wo)
