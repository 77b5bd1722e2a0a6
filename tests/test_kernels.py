import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hydroformer import kernels
from hydroformer.attention import causal_mask, topk_mask

from _oracles import ref_masked_softmax, ref_masked_softmax_backward, ref_topk_mask


def _random_case(seed, m=7, n=9):
    rng = np.random.default_rng(seed)
    scores = rng.uniform(-4, 4, (m, n))
    mask = rng.random((m, n)) < 0.5
    mask[:, 0] = True
    return scores, mask


# The test_backends_agree_* ids are kept stable for the test history; each
# checks the numpy kernel against the straight-loop reference in _oracles.

@pytest.mark.parametrize("seed", range(5))
def test_backends_agree_on_softmax(seed):
    scores, mask = _random_case(seed)
    got = kernels.masked_softmax_forward(scores, mask)
    assert np.allclose(got, ref_masked_softmax(scores, mask), rtol=0, atol=1e-15)


@pytest.mark.parametrize("seed", range(5))
def test_backends_agree_on_softmax_backward(seed):
    scores, mask = _random_case(seed)
    grad = np.random.default_rng(seed + 100).standard_normal(scores.shape)
    w = kernels.masked_softmax_forward(scores, mask)
    assert np.allclose(kernels.masked_softmax_backward(w, grad),
                       ref_masked_softmax_backward(w, grad), rtol=0, atol=1e-14)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("k", [1, 3, 20])
def test_backends_agree_on_topk(seed, k):
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
