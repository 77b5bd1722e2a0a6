"""Wall-clock benchmark of dense vs sparse attention (forward + backward)
across sequence lengths and sparsity levels.

Timings are measured honestly: warmup iterations excluded, min and median
over repeats reported, plus a correctness column checking sparse == dense
when k >= L. No asymptotic claim is made.
"""

import time
from dataclasses import dataclass

import numpy as np

from .attention import default_k, dense_attention, sparse_attention
from .tensor import Tensor, backward, tensor_sum


@dataclass
class BenchRow:
    length: int
    k: int | None                  # None = dense
    mode: str
    median_s: float
    min_s: float
    equal_to_dense: bool | None    # only checked when k >= L


def _one_pass(q, k, v, k_sparse):
    qt = Tensor(q, requires_grad=True)
    kt = Tensor(k, requires_grad=True)
    vt = Tensor(v, requires_grad=True)
    if k_sparse is None:
        out = dense_attention(qt, kt, vt)
    else:
        out = sparse_attention(qt, kt, vt, k_sparse)
    backward(tensor_sum(out))
    return out.data


def bench_attention(lengths, ks, d_k: int = 64, repeats: int = 5,
                    warmup: int = 2, seed: int = 0) -> list:
    """ks entries are ints or the strings "L/4" / "L" (resolved per length;
    "L/4" is the model's default_k, ceil(L/4))."""
    rows = []
    for length in lengths:
        rng = np.random.default_rng(seed)
        q = rng.standard_normal((length, d_k))
        k = rng.standard_normal((length, d_k))
        v = rng.standard_normal((length, d_k))
        dense_out = _one_pass(q, k, v, None)
        resolved = [None] + [_resolve_k(spec, length) for spec in ks]
        for k_sparse in resolved:
            for _ in range(warmup):
                out = _one_pass(q, k, v, k_sparse)
            times = []
            for _ in range(repeats):
                t0 = time.perf_counter()
                out = _one_pass(q, k, v, k_sparse)
                times.append(time.perf_counter() - t0)
            equal = None
            if k_sparse is not None and k_sparse >= length:
                equal = bool(np.max(np.abs(out - dense_out)) <= 1e-12)
            rows.append(BenchRow(
                length=length, k=k_sparse,
                mode="dense" if k_sparse is None else "sparse",
                median_s=float(np.median(times)), min_s=float(min(times)),
                equal_to_dense=equal))
    return rows


def _resolve_k(spec, length: int) -> int:
    if spec == "L":
        return length
    if spec == "L/4":
        return default_k(length)
    return spec


def rows_to_text(rows) -> str:
    lines = ["length\tk\tmode\tmedian_s\tmin_s\tequal_to_dense"]
    for r in rows:
        eq = "" if r.equal_to_dense is None else ("pass" if r.equal_to_dense else "FAIL")
        lines.append(f"{r.length}\t{'' if r.k is None else r.k}\t{r.mode}"
                     f"\t{r.median_s:.6g}\t{r.min_s:.6g}\t{eq}")
    return "\n".join(lines) + "\n"
