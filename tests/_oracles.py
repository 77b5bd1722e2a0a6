"""Independent straight-line numpy references used as test oracles.

These deliberately avoid the package's tensor/attention code paths: plain
numpy, no masking kernels, no autograd. The one exception is ref_rollout,
the per-window rollout loop, which drives the model's own forward pieces.
"""

import numpy as np

from hydroformer.data import TARGET_INDEX
from hydroformer.tensor import no_grad


def ref_masked_softmax(scores, mask):
    scores = np.asarray(scores, dtype=np.float64)
    out = np.zeros_like(scores)
    for i in range(scores.shape[0]):
        kept = np.flatnonzero(mask[i])
        e = np.exp(scores[i, kept] - scores[i, kept].max())
        out[i, kept] = e / e.sum()
    return out


def ref_dense_attention(q, k, v):
    p = q @ k.T / np.sqrt(q.shape[1])
    mask = np.ones(p.shape, dtype=bool)
    return ref_masked_softmax(p, mask) @ v


def ref_masked_softmax_backward(weights, grad_out):
    out = np.zeros_like(weights)
    for i in range(weights.shape[0]):
        dot = sum(weights[i, j] * grad_out[i, j] for j in range(weights.shape[1]))
        for j in range(weights.shape[1]):
            out[i, j] = weights[i, j] * (grad_out[i, j] - dot)
    return out


def ref_topk_mask(p, kk, allowed=None):
    """Per row, keep allowed entries >= the kk-th largest allowed value (all of
    them when fewer than kk are allowed); ties at the threshold are kept."""
    if allowed is None:
        allowed = np.ones(p.shape, dtype=bool)
    keep = np.zeros(p.shape, dtype=bool)
    for i in range(p.shape[0]):
        vals = sorted((p[i, j] for j in range(p.shape[1]) if allowed[i, j]), reverse=True)
        thresh = vals[min(kk, len(vals)) - 1]
        for j in range(p.shape[1]):
            keep[i, j] = allowed[i, j] and p[i, j] >= thresh
    return keep


def ref_sparse_attention(q, k, v, kk):
    p = q @ k.T / np.sqrt(q.shape[1])
    return ref_masked_softmax(p, ref_topk_mask(p, kk)) @ v


def ref_multi_head(q_in, k_in, v_in, wq, wk, wv, wo, kk=None, causal=False):
    """wq, wk, wv are lists of per-head d_model x d_head projections."""
    heads = []
    for i in range(len(wq)):
        q, k, v = q_in @ wq[i], k_in @ wk[i], v_in @ wv[i]
        p = q @ k.T / np.sqrt(q.shape[1])
        allowed = np.ones(p.shape, dtype=bool)
        if causal:
            allowed = np.tril(allowed)
        if kk is not None:
            allowed = ref_topk_mask(p, kk, allowed)
        heads.append(ref_masked_softmax(p, allowed) @ v)
    return np.concatenate(heads, axis=1) @ wo


def ref_layer_norm(x, gamma, beta, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return gamma * (x - mu) / np.sqrt(var + eps) + beta


def ref_rollout(model, window, horizon):
    """A model's greedy rollout for one L x F window, one step at a time with
    the decoder input rebuilt from a list of floats (H x 1). Unlike the
    references above it runs the model's own forward pieces: it is the oracle
    for the rollout loop, not for the layers."""
    with no_grad():
        memory = model.encoder_forward(model.embed_encoder(window))
        dec = [float(window[-1, TARGET_INDEX])]
        preds = []
        for t in range(horizon):
            emb = model.embed_decoder(np.array(dec, dtype=np.float64)[:, None])
            out = model.output_head(model.decoder_forward(emb, memory))
            preds.append(float(out.data[t, 0]))
            dec.append(preds[-1])
    return np.array(preds)[:, None]
