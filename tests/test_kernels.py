import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hydroformer import kernels
from hydroformer.attention import attend, causal_mask, topk_mask
from hydroformer.tensor import Tensor

from _oracles import ref_masked_softmax, ref_masked_softmax_backward, ref_topk_mask


def _random_case(seed, m=7, n=9):
    rng = np.random.default_rng(seed)
    scores = rng.uniform(-4, 4, (m, n))
    mask = rng.random((m, n)) < 0.5
    mask[:, 0] = True
    return scores, mask


@pytest.mark.parametrize("seed", range(5))
def test_numpy_kernel_matches_oracle_on_softmax(seed):
    scores, mask = _random_case(seed)
    got = kernels.masked_softmax_forward(scores, mask)
    assert np.allclose(got, ref_masked_softmax(scores, mask), rtol=0, atol=1e-15)


@pytest.mark.parametrize("seed", range(5))
def test_numpy_kernel_matches_oracle_on_softmax_backward(seed):
    scores, mask = _random_case(seed)
    grad = np.random.default_rng(seed + 100).standard_normal(scores.shape)
    w = kernels.masked_softmax_forward(scores, mask)
    assert np.allclose(kernels.masked_softmax_backward(w, grad),
                       ref_masked_softmax_backward(w, grad), rtol=0, atol=1e-14)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("k", [1, 3, 20])
def test_numpy_kernel_matches_oracle_on_topk(seed, k):
    scores, mask = _random_case(seed)
    assert np.array_equal(kernels.topk_keep(scores, k, mask), ref_topk_mask(scores, k, mask))


def test_softmax_rows_sum_to_one():
    scores, mask = _random_case(42)
    w = kernels.masked_softmax_forward(scores, mask)
    assert np.allclose(w.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(w[~mask] == 0.0)


@st.composite
def topk_cases(draw):
    """(scores, k, allowed): 1x1 to 12x12, integer scores in [-3, 3] (ties)
    or floats, an all-true, causal or random mask with >= 1 key per row."""
    kind = draw(st.sampled_from(["all", "causal", "random"]))
    m = draw(st.integers(1, 12))
    n = m if kind == "causal" else draw(st.integers(1, 12))
    if draw(st.booleans()):
        elements = st.integers(-3, 3).map(float)
    else:
        elements = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
    scores = draw(hnp.arrays(np.float64, (m, n), elements=elements))
    if kind == "all":
        allowed = np.ones((m, n), dtype=bool)
    elif kind == "causal":
        allowed = causal_mask(m)
    else:
        allowed = draw(hnp.arrays(np.bool_, (m, n)))
        allowed[np.arange(m), draw(hnp.arrays(np.int64, m, elements=st.integers(0, n - 1)))] = True
    return scores, draw(st.integers(1, 15)), allowed


@settings(max_examples=400, deadline=None)
@given(topk_cases())
def test_topk_matches_per_row_oracle(case):
    scores, k, allowed = case
    want = ref_topk_mask(scores, k, allowed)
    assert np.array_equal(kernels.topk_keep(scores, k, allowed), want)
    assert np.array_equal(topk_mask(scores, k, allowed), want)


@st.composite
def batched_topk_cases(draw):
    """(scores, k, allowed) with scores 1-4 x m x n and integer (tied) or
    float values; allowed has the scores' shape or is one m x n mask shared
    by the batch, every row with >= 1 allowed key."""
    b, m, n = draw(st.integers(1, 4)), draw(st.integers(1, 8)), draw(st.integers(1, 8))
    if draw(st.booleans()):
        elements = st.integers(-3, 3).map(float)
    else:
        elements = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
    scores = draw(hnp.arrays(np.float64, (b, m, n), elements=elements))
    shape = draw(st.sampled_from([(b, m, n), (m, n)]))
    allowed = draw(hnp.arrays(np.bool_, shape))
    allowed[..., 0] = True
    return scores, draw(st.integers(1, 10)), allowed


@settings(max_examples=200, deadline=None)
@given(batched_topk_cases())
def test_topk_on_batched_scores_matches_per_row_oracle(case):
    scores, k, allowed = case
    full = np.broadcast_to(allowed, scores.shape)
    want = np.stack([ref_topk_mask(s, k, a) for s, a in zip(scores, full)])
    assert np.array_equal(topk_mask(scores, k, allowed), want)


def test_softmax_kernels_on_batched_scores_match_per_matrix():
    rng = np.random.default_rng(7)
    scores = rng.uniform(-4, 4, (3, 5, 6))
    mask = rng.random((5, 6)) < 0.5
    mask[:, 0] = True
    grad = rng.standard_normal(scores.shape)
    w = kernels.masked_softmax_forward(scores, mask)
    back = kernels.masked_softmax_backward(w, grad)
    for i in range(3):
        assert np.array_equal(w[i], kernels.masked_softmax_forward(scores[i], mask))
        assert np.array_equal(back[i], kernels.masked_softmax_backward(w[i], grad[i]))


def test_forbidden_score_far_above_the_max_does_not_overflow():
    """A causal row whose masked future score exceeds the allowed max by more
    than 709: exp of the difference would overflow, so it must never run."""
    scores, mask = np.array([[0.0, 800.0]]), np.array([[True, False]])
    q, k, v = Tensor([[1.0], [1.0]]), Tensor([[0.0], [800.0]]), Tensor([[2.0], [3.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w = kernels.masked_softmax_forward([[0.0, 800.0]], [[True, False]])
        out = attend(q, k, v, causal=True).data
    assert np.array_equal(w, ref_masked_softmax(scores, mask))
    assert np.array_equal(out, ref_masked_softmax(q.data @ k.data.T, causal_mask(2)) @ v.data)


def _per_matrix(fn, scores, mask):
    """fn(scores_i, mask_i) on every m x n matrix of a batch, stacked back;
    mask None allows every entry, a 2-D mask is shared by the batch."""
    full = np.ones(scores.shape, dtype=bool) if mask is None else np.broadcast_to(
        mask, scores.shape)
    m, n = scores.shape[-2:]
    out = [fn(s, a) for s, a in zip(scores.reshape(-1, m, n), full.reshape(-1, m, n))]
    return np.stack(out).reshape(scores.shape)


@st.composite
def softmax_topk_cases(draw):
    """(scores, mask, k): scores m x n or a batch of 1-3 of them, integer
    (tied) or float values; mask None, one m x n mask shared by the batch,
    or a mask of the scores' shape, every row with >= 1 allowed entry; k
    up to n + 2, so some rows have fewer than k allowed entries."""
    m, n = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    shape = tuple(draw(st.lists(st.integers(1, 3), max_size=1))) + (m, n)
    if draw(st.booleans()):
        elements = st.integers(-3, 3).map(float)
    else:
        elements = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
    scores = draw(hnp.arrays(np.float64, shape, elements=elements))
    kind = draw(st.sampled_from(["none", "shared", "full"]))
    mask = None
    if kind != "none":
        mask = draw(hnp.arrays(np.bool_, (m, n) if kind == "shared" else shape))
        rows = mask.reshape(-1, n)
        rows[np.arange(len(rows)),
             draw(hnp.arrays(np.int64, len(rows), elements=st.integers(0, n - 1)))] = True
    return scores, mask, draw(st.integers(1, n + 2))


@settings(max_examples=400, deadline=None)
@given(softmax_topk_cases())
def test_topk_softmax_matches_softmax_over_the_keep_mask_and_the_oracle(case):
    scores, mask, k = case
    got = kernels.masked_softmax_forward(scores, mask, k)
    allowed = np.ones(scores.shape[-2:], dtype=bool) if mask is None else mask
    assert np.array_equal(
        got, kernels.masked_softmax_forward(scores, kernels.topk_keep(scores, k, allowed)))
    want = _per_matrix(lambda s, a: ref_masked_softmax(s, ref_topk_mask(s, k, a)), scores, mask)
    assert np.allclose(got, want, rtol=0, atol=1e-15)
    assert np.allclose(kernels.masked_softmax_forward(scores, mask),
                       _per_matrix(ref_masked_softmax, scores, mask), rtol=0, atol=1e-15)
