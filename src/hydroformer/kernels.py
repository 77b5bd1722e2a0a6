"""Hot inner-loop kernels of attention, each one vectorised numpy function
over the rows (last axis) of a score array: one L x L matrix or a batch of
them stacked on leading axes (float64, CPU). masked_softmax_forward is
attention's whole softmax, top-k included, in one call; topk_keep gives the
top-k keep mask on its own."""

import numpy as np


def get_backend() -> str:
    """Name of the kernel implementation, recorded in benchmark run records."""
    return "numpy"


def _ranked(scores: np.ndarray, allowed: np.ndarray | None) -> np.ndarray:
    """Each row's scores in ascending order, forbidden entries first as -inf:
    a new array, sorted in place."""
    ranked = np.array(scores) if allowed is None else np.where(allowed, scores, -np.inf)
    ranked.sort(axis=-1)
    return ranked


def masked_softmax_forward(scores: np.ndarray, mask: np.ndarray | None = None,
                           k: int | None = None) -> np.ndarray:
    """Row softmax over the entries `mask` allows (None allows all) or, with
    k, over those of them >= the k-th largest allowed value of their row
    (ties at the threshold all kept; a row with fewer than k allowed entries
    keeps all of them). Other entries get weight exactly 0. The mask
    broadcasts against the scores.

    Bit for bit the softmax over the mask topk_keep(scores, k, mask) gives.
    The row max is the last column of the top-k sort, which always keeps a
    row's allowed maximum. Scores minus the max are clamped at 0 before exp,
    so a forbidden entry above the max cannot overflow, and the keep mask
    multiplies the result. Callers must guarantee every row has at least one
    allowed entry.
    """
    if k is not None:
        e = _ranked(scores, mask)           # becomes the weights, in place
        n = e.shape[-1]
        keep = scores >= e[..., n - min(k, n), None]
        if mask is not None:
            keep &= mask
        mx = e[..., -1:].copy()         # e is overwritten next
    elif mask is not None:
        e = np.where(mask, scores, -np.inf)
        keep, mx = mask, e.max(axis=-1, keepdims=True)
    else:
        e, keep, mx = np.empty_like(scores), None, scores.max(axis=-1, keepdims=True)
    np.subtract(scores, mx, out=e)
    if keep is not None:
        np.minimum(e, 0.0, out=e)
    np.exp(e, out=e)
    if keep is not None:
        e *= keep
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


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
    thresh = _ranked(scores, allowed)[..., n - min(k, n)]
    return allowed & (scores >= thresh[..., None])
