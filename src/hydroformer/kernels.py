"""Hot inner-loop kernels of attention, each one vectorised numpy function
over the rows (last axis) of a score array: one L x L matrix or a batch of
them stacked on leading axes (float64, CPU)."""

import numpy as np


def get_backend() -> str:
    """Name of the kernel implementation, recorded in benchmark run records."""
    return "numpy"


def masked_softmax_forward(scores: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Row softmax over unmasked entries; masked entries get weight exactly 0.
    The mask broadcasts against the scores.

    Callers must guarantee every row has at least one unmasked entry.
    """
    neg = np.where(mask, scores, -np.inf)
    mx = neg.max(axis=-1, keepdims=True)
    e = np.where(mask, np.exp(scores - mx), 0.0)
    return e / e.sum(axis=-1, keepdims=True)


def masked_softmax_backward(weights: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    dot = (weights * grad_out).sum(axis=-1, keepdims=True)
    return weights * (grad_out - dot)


def topk_keep(scores: np.ndarray, k: int, allowed: np.ndarray) -> np.ndarray:
    """Per-row boolean keep mask: allowed entries >= the k-th largest allowed
    value of their row. Ties at the threshold are all kept. `allowed`
    broadcasts against the scores; the result has the scores' shape.

    Forbidden entries sort first as -inf, so a row with fewer than k allowed
    entries gets threshold -inf and keeps all of them.
    """
    n = scores.shape[-1]
    thresh = np.sort(np.where(allowed, scores, -np.inf), axis=-1)[..., n - min(k, n)]
    return allowed & (scores >= thresh[..., None])
