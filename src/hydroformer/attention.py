"""Scaled dot-product attention, explicit top-k sparse attention, causal
masking, and multi-head composition. One path serves every head count and
batch size: head h's scores are row block h of one stacked (n_heads * Lq) x Lk
matrix per batch item, and masks of that matrix's shape are shared by every
item of a batch."""

import math

import numpy as np

from . import kernels
from .errors import ShapeError
from .tensor import Tensor, head_mix, head_scores, masked_softmax, matmul


def default_k(length: int) -> int:
    """Runtime default sparsity: keep a quarter of the row, at least one."""
    return max(1, math.ceil(length / 4))


def attention_scores(q: Tensor, k: Tensor, n_heads: int = 1) -> Tensor:
    """P = Q_h K_h^T / sqrt(d_head) per head, heads stacked as row blocks."""
    return head_scores(q, k, n_heads, 1.0 / math.sqrt(q.data.shape[-1] // n_heads))


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


def _attend(q: Tensor, k: Tensor, v: Tensor, k_sparse: int | None, causal: bool,
            n_heads: int = 1) -> Tensor:
    p = attention_scores(q, k, n_heads)
    # one (n_heads * Lq) x Lk mask serves every batch item; a non-square
    # causal mask fails the shape checks of topk_mask and masked_softmax
    if causal:
        allowed = np.tile(causal_mask(q.data.shape[-2]), (n_heads, 1))
    else:
        allowed = np.ones(p.data.shape[-2:], dtype=bool)
    if k_sparse is not None:
        allowed = topk_mask(p.data, k_sparse, allowed)
    return head_mix(masked_softmax(p, allowed), v, n_heads)


def dense_attention(q: Tensor, k: Tensor, v: Tensor, causal: bool = False) -> Tensor:
    """softmax(Q K^T / sqrt(d_k)) V."""
    return _attend(q, k, v, None, causal)


def sparse_attention(q: Tensor, k: Tensor, v: Tensor, k_sparse: int,
                     causal: bool = False) -> Tensor:
    """softmax(Mask(P, k)) V: only the top-k scores per row survive the
    softmax. Equals dense_attention when k >= number of keys."""
    return _attend(q, k, v, k_sparse, causal)


def multi_head(q_in: Tensor, k_in: Tensor, v_in: Tensor, weights, n_heads: int,
               k_sparse: int | None = None, causal: bool = False) -> Tensor:
    """weights = (wq, wk, wv, wo), each d x d; head h projects with column
    block h of wq, wk and wv. k_sparse None is dense attention.

    wk and wv None take k_in and v_in as keys and values already projected:
    a cross-attention K/V made once per rollout, or a rollout's decoder
    self-attention K/V kept from earlier steps."""
    wq, wk, wv, wo = weights
    k = k_in if wk is None else matmul(k_in, wk)
    v = v_in if wv is None else matmul(v_in, wv)
    return matmul(_attend(matmul(q_in, wq), k, v, k_sparse, causal, n_heads), wo)
