"""Independent straight-line numpy references used as test oracles.

These deliberately avoid the package's tensor/attention code paths: plain
numpy, no masking kernels, no autograd. ref_attention_core_and_grads and
ref_mlp_and_grads give the fused ops' outputs and hand-derived gradients
that way, per batch item and per head; they are attention_core's and mlp's
only oracle. The exceptions are ref_rollout, the per-window rollout loop,
which drives the model's own forward pieces, and ref_backward, a second
sweep over the package's own tape. ref_layer_norm_backward writes
layer_norm's gradient with np.mean, which layer_norm must equal bit for
bit. The Shapley references walk coalitions one at a time through a
per-call dict cache.
ref_adam_step updates parameters tensor by tensor, with per-name moments.
ref_write_table and ref_cell_values are the per-cell CSV writer and row
parser; ref_glorot_flat draws a model's initial weights with
Generator.uniform, block by block in _layout's order.
"""

import csv
import math

import numpy as np

from hydroformer.data import FEATURE_COLUMNS, TARGET_INDEX
from hydroformer.errors import ConfigError, NumericError, ShapeError
from hydroformer.explain import EXACT_CAP, Explanation
from hydroformer.model import _layout
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


def ref_linear(x, w, b):
    """x @ w + b, each batch item's GEMM on its own."""
    x = np.asarray(x, dtype=np.float64)
    rows = [xi @ w for xi in x.reshape((-1,) + x.shape[-2:])]
    return np.array(rows).reshape(x.shape[:-1] + w.shape[1:]) + b


def ref_layer_norm(x, gamma, beta, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return gamma * (x - mu) / np.sqrt(var + eps) + beta


def ref_layer_norm_backward(x, gamma, g, eps=1e-5):
    """layer_norm's gradient for x given the output gradient g, with
    np.mean as the row means."""
    centred = x - x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(np.square(centred).mean(axis=-1, keepdims=True) + eps)
    xhat = centred * inv
    dxhat = g * gamma
    return inv * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                  - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))


def ref_attention_core_and_grads(q, k, v, n_heads, c, allowed, k_sparse, g):
    """attention_core's output and the gradients of q, k and v for the output
    gradient g, one batch item and one head at a time: head h is column block
    h of q, k and v, and row block h of `allowed` (None allows every key)."""
    lq, lk = q.shape[-2], k.shape[-2]
    dq, dv = q.shape[-1] // n_heads, v.shape[-1] // n_heads
    if allowed is None:
        allowed = np.ones((n_heads * lq, lk), dtype=bool)
    out = np.zeros(q.shape[:-1] + v.shape[-1:])
    gq, gk, gv = np.zeros(q.shape), np.zeros(k.shape), np.zeros(v.shape)
    for b in np.ndindex(q.shape[:-2]):
        for h in range(n_heads):
            qc, vc = slice(h * dq, (h + 1) * dq), slice(h * dv, (h + 1) * dv)
            qh, kh, vh, gh = q[b][:, qc], k[b][:, qc], v[b][:, vc], g[b][:, vc]
            s = c * (qh @ kh.T)
            keep = allowed[h * lq:(h + 1) * lq]
            if k_sparse is not None:
                keep = ref_topk_mask(s, k_sparse, keep)
            w = ref_masked_softmax(s, keep)
            out[b][:, vc] = w @ vh
            gv[b][:, vc] += w.T @ gh
            gs = c * ref_masked_softmax_backward(w, gh @ vh.T)
            gq[b][:, qc] += gs @ kh
            gk[b][:, qc] += gs.T @ qh
    return out, [gq, gk, gv]


# kind -> (y(x), dy/dx from the input x and the output y)
_REF_ACTIVATIONS = {
    "tanh": (np.tanh, lambda x, y: 1.0 - y * y),
    "relu": (lambda x: np.maximum(x, 0.0), lambda x, y: (x > 0).astype(np.float64)),
}


def ref_mlp_and_grads(x, w1, b1, w2, b2, kind, g):
    """mlp's output and the gradients of x, w1, b1, w2 and b2 for the output
    gradient g, one batch item at a time. b2 is a bias row or a table of
    the output's last two axes, as in linear."""
    act, slope = _REF_ACTIVATIONS[kind]
    out = np.zeros(x.shape[:-1] + w2.shape[1:])
    gx, gw1, gb1 = np.zeros(x.shape), np.zeros(w1.shape), np.zeros(b1.shape)
    gw2, gb2 = np.zeros(w2.shape), np.zeros(b2.shape)
    for b in np.ndindex(x.shape[:-2]):
        xb, gb = x[b], g[b]
        pre = xb @ w1 + b1
        hidden = act(pre)
        out[b] = hidden @ w2 + b2
        gw2 += hidden.T @ gb
        gb2 += gb.sum(axis=0) if b2.ndim == 1 else gb
        gpre = (gb @ w2.T) * slope(pre, hidden)
        gx[b] = gpre @ w1.T
        gw1 += xb.T @ gpre
        gb1 += gpre.sum(axis=0)
    return out, [gx, gw1, gb1, gw2, gb2]


def ref_positional_table(max_len, d_model):
    """The sinusoid table of max_len rows: even columns sin(pos / 10000^(2i/d)),
    odd cos."""
    pos = np.arange(max_len)[:, None].astype(np.float64)
    i = np.arange(0, d_model, 2).astype(np.float64)
    angle = pos / np.power(10000.0, i / d_model)
    table = np.zeros((max_len, d_model))
    table[:, 0::2] = np.sin(angle)
    table[:, 1::2] = np.cos(angle[:, : table[:, 1::2].shape[1]])
    return table


def ref_rollout(model, window, horizon):
    """A model's greedy rollout for one L x F window, one step at a time with
    the decoder input rebuilt from a list of floats (H x 1). Unlike the
    references above it runs the model's own forward pieces: it is the oracle
    for the rollout loop, not for the layers. Every step projects the memory
    to cross-attention K/V again and runs every decoder row through every
    layer and the head."""
    with no_grad():
        memory = model.encoder_forward(model.embed_encoder(window))
        dec = [float(window[-1, TARGET_INDEX])]
        preds = []
        for t in range(horizon):
            emb = model.embed_decoder(np.array(dec, dtype=np.float64)[:, None])
            out = model.output_head(model.decoder_forward(emb, model.cross_kv(memory)))
            preds.append(float(out.data[t, 0]))
            dec.append(preds[-1])
    return np.array(preds)[:, None]


def ref_backward(loss) -> None:
    """backward as a two-phase sweep: a depth-first pass lists the nodes
    reachable from the loss in topological order, and the reverse pass keeps
    each node's pending gradient in a dict keyed by id(). It adds into and
    frees the graph as backward does, and raises the same errors; leaves get
    their summed gradient when the reverse pass reaches them."""
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
            if p._backward_done:
                raise RuntimeError("backward reached a graph an earlier backward "
                                   "already freed; rebuild the graph")
            if p.requires_grad:
                stack.append((p, False))

    pending = {id(loss): np.ones_like(loss.data)}
    while topo:
        node = topo.pop()
        g = pending.pop(id(node), None)
        fn, parents = node._backward_fn, node._parents
        if fn is None:
            if g is not None:
                node.grad = g if node.grad is None else node.grad + g
            continue
        node._backward_fn, node._parents, node._backward_done = None, (), True
        if g is None:
            continue
        for parent, pg in zip(parents, fn(g)):
            if not parent.requires_grad or pg is None:
                continue
            if id(parent) in pending:
                pending[id(parent)] = pending[id(parent)] + pg
            else:
                pending[id(parent)] = pg


def ref_adam_step(params, grads, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Step t (counted from 1) of bias-corrected Adam as a loop over name->
    array dicts: params and the moments m and v are updated entry by entry,
    and a parameter whose gradient is None is skipped."""
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    for name, p in params.items():
        g = grads[name]
        if g is None:
            continue
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for parameter {name}")
        m[name] *= beta1
        m[name] += (1.0 - beta1) * g
        v[name] *= beta2
        v[name] += (1.0 - beta2) * g * g
        params[name] = p - lr * (m[name] / bc1) / (np.sqrt(v[name] / bc2) + eps)


def _ref_masked_value(vf, bitmask, cache):
    val = cache.get(bitmask)
    if val is None:
        keep = np.array([(bitmask >> j) & 1 for j in range(vf.n_features)], dtype=bool)
        hybrid = np.where(keep, vf.instance, vf.baseline)
        val = float(vf.predict(hybrid))
        cache[bitmask] = val
    return val


def ref_exact_shapley(vf, allow_large: bool = False) -> Explanation:
    """Exact Shapley values as a walk over every subset and every feature
    outside it, each coalition evaluated on first visit."""
    n = vf.n_features
    if n > EXACT_CAP and not allow_large:
        raise ConfigError(f"exact enumeration over {n} features exceeds cap {EXACT_CAP}; "
                          f"pass allow_large=True (or use sampled_shapley)")
    cache = {}
    full = (1 << n) - 1
    weights = [math.factorial(s) * math.factorial(n - s - 1) / math.factorial(n)
               for s in range(n)]
    phis = np.zeros(n)
    for subset in range(1 << n):
        if subset == full:
            continue
        size = bin(subset).count("1")
        v_s = _ref_masked_value(vf, subset, cache)
        w = weights[size]
        for i in range(n):
            bit = 1 << i
            if subset & bit:
                continue
            phis[i] += w * (_ref_masked_value(vf, subset | bit, cache) - v_s)
    return Explanation(phi0=_ref_masked_value(vf, 0, cache), phis=phis,
                       fx=_ref_masked_value(vf, full, cache), estimator="exact",
                       std_errors=np.zeros(n), n_evaluations=len(cache),
                       feature_names=vf.feature_names)


def ref_sampled_shapley(vf, m: int, seed: int = 0) -> Explanation:
    """Permutation Monte Carlo Shapley values as a walk over each drawn
    order's prefixes, each coalition evaluated on first visit."""
    if m < 2:
        raise ConfigError(f"sampled_shapley needs m >= 2 permutations, got {m}")
    n = vf.n_features
    rng = np.random.default_rng(seed)
    cache = {}
    marginals = np.zeros((m, n))
    for p in range(m):
        order = rng.permutation(n)
        bitmask = 0
        prev = _ref_masked_value(vf, bitmask, cache)
        for i in order:
            bitmask |= 1 << int(i)
            cur = _ref_masked_value(vf, bitmask, cache)
            marginals[p, i] = cur - prev
            prev = cur
    phis = marginals.mean(axis=0)
    se = marginals.std(axis=0, ddof=1) / math.sqrt(m)
    return Explanation(phi0=_ref_masked_value(vf, 0, cache), phis=phis,
                       fx=_ref_masked_value(vf, (1 << n) - 1, cache),
                       estimator="sampled", std_errors=se, n_evaluations=len(cache),
                       feature_names=vf.feature_names)


def ref_write_table(series, path):
    """The data file through csv.writer, with one np.isnan and one float()
    per cell: a float as its repr, NaN as an empty cell."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(["date"] + list(FEATURE_COLUMNS))
        for d, row in zip(series.dates, series.values):
            writer.writerow([d.isoformat()] + ["" if np.isnan(v) else repr(float(v))
                                               for v in row])


def ref_cell_values(cells):
    """One row's value cells parsed one by one: (values, None), an empty or
    whitespace-only cell as NaN; or (None, (cell, column)) for the first cell
    that is neither empty nor a finite number."""
    vals = []
    for name, cell in zip(FEATURE_COLUMNS, cells):
        if cell.strip() == "":
            vals.append(math.nan)
            continue
        try:
            val = float(cell)
        except ValueError:
            return None, (cell, name)
        if not math.isfinite(val):
            return None, (cell, name)
        vals.append(val)
    return vals, None


def ref_glorot_flat(config, seed):
    """A seeded model's parameter vector: every block of _layout's draws made
    with rng.uniform(-limit, limit) into its own array, layer-norm gammas
    one, the arrays joined in sorted-name order."""
    shapes, draws = _layout(config)
    arrays = {name: np.zeros(shape) for name, shape in shapes.items()}
    rng = np.random.default_rng(seed)
    for name, cols in draws:
        shape = arrays[name][:, cols].shape
        limit = math.sqrt(6.0 / sum(shape))
        arrays[name][:, cols] = rng.uniform(-limit, limit, size=shape)
    for name, arr in arrays.items():
        if name.endswith(".gamma"):
            arr[...] = 1.0
    return np.concatenate([arrays[name].ravel() for name in sorted(arrays)])
