import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hydroformer.attention import (attend, attention_scores, causal_mask, default_k,
                                   multi_head, topk_mask)
from hydroformer.errors import ShapeError
from hydroformer.tensor import Tensor, backward, masked_softmax, matmul, mul, tensor_sum

from _oracles import (ref_dense_attention, ref_multi_head, ref_sparse_attention,
                      ref_topk_mask)
from gradcheck import grad_check


def t(data):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=True)


class TestScores:
    def test_hand_case(self):
        p = attention_scores(t([[1.0, 0.0]]), t([[1.0, 0.0]]))
        assert p.data[0, 0] == pytest.approx(1 / math.sqrt(2), abs=1e-15)

    def test_orthogonal_rows_give_zero(self):
        q = t([[1.0, 0.0]])
        k = t([[0.0, 1.0], [0.0, 2.0]])
        assert np.array_equal(attention_scores(q, k).data, [[0.0, 0.0]])

    def test_linearity_in_q(self):
        rng = np.random.default_rng(0)
        q = rng.standard_normal((3, 4))
        k = rng.standard_normal((5, 4))
        p1 = attention_scores(t(q), t(k)).data
        p2 = attention_scores(t(3.0 * q), t(k)).data
        assert np.allclose(p2, 3.0 * p1, atol=1e-12)

    def test_dk_mismatch(self):
        with pytest.raises(ShapeError):
            attention_scores(t(np.zeros((2, 3))), t(np.zeros((2, 4))))


class TestTopkMask:
    def test_hand_case(self):
        keep = topk_mask(np.array([[0.5, 2.0, 1.0]]), 2)
        assert keep.tolist() == [[False, True, True]]

    def test_k_geq_n_keeps_all(self):
        p = np.random.default_rng(1).standard_normal((3, 4))
        assert topk_mask(p, 4).all()
        assert topk_mask(p, 9).all()

    def test_ties_at_threshold_all_kept(self):
        keep = topk_mask(np.array([[1.0, 1.0, 1.0]]), 1)
        assert keep.all()

    def test_exactly_k_when_distinct(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            p = rng.permutation(12).reshape(3, 4).astype(float)  # distinct per row
            for k in (1, 2, 3):
                assert (topk_mask(p, k).sum(axis=1) == k).all()

    def test_order_statistics(self):
        rng = np.random.default_rng(3)
        p = rng.standard_normal((5, 8))
        keep = topk_mask(p, 3)
        for i in range(5):
            assert p[i][keep[i]].min() >= p[i][~keep[i]].max()

    def test_matches_reference(self):
        rng = np.random.default_rng(4)
        p = rng.standard_normal((6, 7))
        for k in (1, 3, 7):
            assert np.array_equal(topk_mask(p, k), ref_topk_mask(p, k))

    def test_k_below_one_rejected(self):
        with pytest.raises(ValueError):
            topk_mask(np.ones((1, 3)), 0)

    def test_allowed_restriction(self):
        p = np.array([[9.0, 1.0, 2.0]])
        allowed = np.array([[False, True, True]])
        keep = topk_mask(p, 1, allowed)
        # threshold computed among allowed entries only; 9.0 is forbidden
        assert keep.tolist() == [[False, False, True]]

    def test_default_k(self):
        assert default_k(4) == 1
        assert default_k(30) == 8
        assert default_k(1) == 1


class TestCausalMask:
    def test_length_one(self):
        assert causal_mask(1).tolist() == [[True]]

    def test_lower_triangular(self):
        m = causal_mask(3)
        assert m.sum() == 6
        assert not m[0, 1] and m[2, 0]

    def test_composed_with_topk(self):
        rng = np.random.default_rng(5)
        for length in (2, 3, 5):
            p = rng.standard_normal((length, length))
            for k in (1, 2):
                keep = topk_mask(p, k, causal_mask(length))
                for i in range(length):
                    assert keep[i].sum() >= min(k, i + 1)
                    assert not keep[i, i + 1:].any()


class TestDenseAttention:
    def test_single_key_returns_v_row(self):
        v = np.array([[3.0, -1.0]])
        out = attend(t([[5.0, 5.0]]), t([[0.1, 0.2]]), t(v))
        assert np.allclose(out.data, v, atol=1e-15)

    def test_identical_keys_give_column_mean(self):
        rng = np.random.default_rng(6)
        k = np.tile(rng.standard_normal((1, 4)), (5, 1))
        v = rng.standard_normal((5, 3))
        out = attend(t(rng.standard_normal((2, 4))), t(k), t(v))
        assert np.allclose(out.data, v.mean(axis=0), atol=1e-12)

    def test_matches_reference(self):
        rng = np.random.default_rng(7)
        q, k, v = (rng.standard_normal((3, 4)) for _ in range(3))
        out = attend(t(q), t(k), t(v))
        assert np.allclose(out.data, ref_dense_attention(q, k, v), atol=1e-12)

    def test_row_count_mismatch(self):
        with pytest.raises(ShapeError):
            attend(t(np.zeros((2, 3))), t(np.zeros((4, 3))), t(np.zeros((5, 3))))

    def test_causal_needs_square_scores(self):
        with pytest.raises(ShapeError):
            attend(t(np.zeros((2, 3))), t(np.zeros((4, 3))), t(np.zeros((4, 3))),
                   causal=True)

    def test_kv_permutation_invariance(self):
        rng = np.random.default_rng(8)
        q, k, v = rng.standard_normal((3, 4)), rng.standard_normal((5, 4)), rng.standard_normal((5, 4))
        perm = rng.permutation(5)
        a = attend(t(q), t(k), t(v)).data
        b = attend(t(q), t(k[perm]), t(v[perm])).data
        assert np.allclose(a, b, atol=1e-12)


class TestSparseAttention:
    def test_degenerates_to_dense(self):
        rng = np.random.default_rng(9)
        q, k, v = (rng.standard_normal((4, 5)) for _ in range(3))
        dense = attend(t(q), t(k), t(v)).data
        for kk in (4, 10):
            sparse = attend(t(q), t(k), t(v), kk).data
            assert np.max(np.abs(sparse - dense)) <= 1e-12

    def test_k_one_returns_argmax_row(self):
        rng = np.random.default_rng(10)
        q, k = rng.standard_normal((3, 4)), rng.standard_normal((5, 4))
        v = rng.standard_normal((5, 2))
        p = q @ k.T
        out = attend(t(q), t(k), t(v), 1).data
        for i in range(3):
            assert np.allclose(out[i], v[np.argmax(p[i])], atol=1e-15)

    def test_matches_reference(self):
        rng = np.random.default_rng(11)
        q, k, v = (rng.standard_normal((4, 4)) for _ in range(3))
        out = attend(t(q), t(k), t(v), 2).data
        assert np.allclose(out, ref_sparse_attention(q, k, v, 2), atol=1e-12)

    def test_weight_rows_stochastic_and_supported_on_kept(self):
        rng = np.random.default_rng(12)
        q, k = rng.standard_normal((5, 6)), rng.standard_normal((7, 6))
        p = q @ k.T / math.sqrt(6)
        keep = topk_mask(p, 3)
        w = masked_softmax(Tensor(p), keep)
        assert np.allclose(w.data.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(w.data[~keep] == 0.0)

    def test_grad_through_topk_and_softmax(self):
        rng = np.random.default_rng(13)
        q, k, v = (rng.uniform(-2, 2, (4, 3)) for _ in range(3))

        def fn(ts):
            return tensor_sum(attend(ts[0], ts[1], ts[2], 2))

        assert grad_check(fn, [q, k, v]).ok(1e-4)

    def test_full_block_grad_check(self):
        rng = np.random.default_rng(14)
        q, k, v = (rng.uniform(-2, 2, (4, 8)) for _ in range(3))

        def fn(ts):
            return tensor_sum(attend(ts[0], ts[1], ts[2]))

        assert grad_check(fn, [q, k, v]).ok(1e-4)


class TestMultiHead:
    def _params(self, rng, d_model):
        return tuple(t(rng.standard_normal((d_model, d_model))) for _ in range(4))

    def test_single_head_identity_projection(self):
        rng = np.random.default_rng(15)
        d = 4
        wq, wk, wv, _ = self._params(rng, d)
        x = rng.standard_normal((3, d))
        out = multi_head(t(x), matmul(t(x), wk), matmul(t(x), wv), (wq, t(np.eye(d))), 1)
        single = attend(Tensor(x @ wq.data), Tensor(x @ wk.data), Tensor(x @ wv.data))
        assert np.allclose(out.data, single.data, atol=1e-12)

    def test_sparse_k_geq_length_equals_dense(self):
        rng = np.random.default_rng(16)
        d = 6
        wq, wk, wv, wo = self._params(rng, d)
        x = t(rng.standard_normal((5, d)))
        k, v = matmul(x, wk), matmul(x, wv)
        dense = multi_head(x, k, v, (wq, wo), 2)
        sparse = multi_head(x, k, v, (wq, wo), 2, k_sparse=5)
        assert np.array_equal(dense.data, sparse.data)

    def test_two_head_reference(self):
        rng = np.random.default_rng(17)
        d = 8
        params = self._params(rng, d)
        x = rng.standard_normal((4, d))
        out = multi_head(t(x), matmul(t(x), params[1]), matmul(t(x), params[2]),
                         (params[0], params[3]), 2)
        wq, wk, wv = (np.hsplit(w.data, 2) for w in params[:3])
        ref = ref_multi_head(x, x, x, wq, wk, wv, params[3].data)
        assert np.allclose(out.data, ref, atol=1e-12)

    @pytest.mark.parametrize("mode", ["dense", "sparse", "causal", "causal_sparse"])
    @pytest.mark.parametrize("n_heads", [1, 2, 4])
    def test_matches_per_head_oracle(self, n_heads, mode):
        rng = np.random.default_rng(20 + n_heads)
        d = 8
        params = self._params(rng, d)
        causal = mode.startswith("causal")
        k_sparse = 2 if mode.endswith("sparse") else None
        q_in = rng.standard_normal((6 if causal else 5, d))
        kv_in = q_in if causal else rng.standard_normal((7, d))
        out = multi_head(t(q_in), matmul(t(kv_in), params[1]), matmul(t(kv_in), params[2]),
                         (params[0], params[3]), n_heads, k_sparse=k_sparse, causal=causal)
        wq, wk, wv = (np.hsplit(w.data, n_heads) for w in params[:3])
        ref = ref_multi_head(q_in, kv_in, kv_in, wq, wk, wv, params[3].data,
                             kk=k_sparse, causal=causal)
        assert np.max(np.abs(out.data - ref)) <= 1e-12

    @pytest.mark.parametrize("batch", [(), (3,)])
    @pytest.mark.parametrize("k_sparse", [None, 1, 2, 9])
    @pytest.mark.parametrize("n_heads", [1, 2, 4])
    def test_newest_row_and_projected_kv_match_oracle(self, n_heads, k_sparse, batch):
        """Keys and values projected from the memory give the cross-attention
        oracle; with the last query row alone and no mask, keys and values
        projected from every row give the causal self-attention oracle's
        last row, as a decoder step with cached K/V computes it."""
        rng = np.random.default_rng(30 + n_heads)
        d = 8
        params = self._params(rng, d)
        wq, wk, wv = (np.hsplit(w.data, n_heads) for w in params[:3])
        wo = params[3].data
        x, memory = rng.standard_normal(batch + (6, d)), rng.standard_normal(batch + (7, d))
        newest = multi_head(t(x[..., -1:, :]), t(x @ params[1].data), t(x @ params[2].data),
                            (params[0], params[3]), n_heads, k_sparse=k_sparse).data
        k, v = t(memory @ params[1].data), t(memory @ params[2].data)
        cross = multi_head(t(x), k, v, (params[0], params[3]), n_heads,
                           k_sparse=k_sparse).data
        assert newest.shape == batch + (1, d)
        for i in np.ndindex(batch):
            want = ref_multi_head(x[i], x[i], x[i], wq, wk, wv, wo, kk=k_sparse, causal=True)
            assert np.max(np.abs(newest[i] - want[-1:])) <= 1e-12
            want = ref_multi_head(x[i], memory[i], memory[i], wq, wk, wv, wo, kk=k_sparse)
            assert np.max(np.abs(cross[i] - want)) <= 1e-12

    def test_causal_future_invariance(self):
        rng = np.random.default_rng(18)
        d = 4
        wq, wk, wv, wo = self._params(rng, d)

        def self_attention(x):
            x = t(x)
            return multi_head(x, matmul(x, wk), matmul(x, wv), (wq, wo), 2, causal=True).data

        x = rng.standard_normal((5, d))
        base = self_attention(x)
        bumped = x.copy()
        bumped[3:] += rng.standard_normal((2, d))
        out = self_attention(bumped)
        assert np.array_equal(base[:3], out[:3])

    def test_width_mismatch(self):
        rng = np.random.default_rng(19)
        params = self._params(rng, 4)
        with pytest.raises(ShapeError):
            multi_head(t(np.zeros((3, 6))), t(np.zeros((3, 4))), t(np.zeros((3, 4))),
                       (params[0], params[3]), 1)

    def test_bad_config(self):
        rng = np.random.default_rng(19)
        x = t(np.zeros((3, 6)))
        with pytest.raises(ValueError):
            multi_head(x, x, x, self._params(rng, 6)[:2], 4)
        x = t(np.zeros((3, 4)))
        with pytest.raises(ValueError):
            multi_head(x, x, x, self._params(rng, 4)[:2], 2, k_sparse=0)


def _multi_head_step(q_in, kv_in, weights, coef, n_heads, k_sparse, causal):
    """Output and the gradients of sum(out * coef) for q_in, kv_in and the
    four weights, on a fresh graph."""
    leaves = [t(q_in), t(kv_in)] + [t(w) for w in weights]
    q, kv, wq, wk, wv, wo = leaves
    out = multi_head(q, matmul(kv, wk), matmul(kv, wv), (wq, wo), n_heads,
                     k_sparse=k_sparse, causal=causal)
    backward(tensor_sum(mul(out, Tensor(coef))))
    return out.data, [leaf.grad for leaf in leaves]


@settings(max_examples=60, deadline=None)
@given(batch=st.integers(1, 5), n_heads=st.sampled_from([1, 2, 4]),
       mode=st.sampled_from(["dense", "sparse", "causal", "causal_sparse"]),
       length=st.integers(1, 6), k=st.integers(1, 8), seed=st.integers(0, 2**16))
def test_batched_multi_head_matches_per_sample_graphs(batch, n_heads, mode, length, k,
                                                      seed):
    """One B x L x d graph gives each item's output and the summed per-item
    gradients of the 2-D graphs to <= 1e-12."""
    rng = np.random.default_rng(seed)
    d = 8
    causal = mode.startswith("causal")
    k_sparse = k if mode.endswith("sparse") else None
    weights = [rng.uniform(-1, 1, (d, d)) for _ in range(4)]
    q_in = rng.uniform(-1, 1, (batch, length, d))
    kv_in = q_in if causal else rng.uniform(-1, 1, (batch, length + 1, d))
    coef = rng.uniform(-1, 1, (batch, length, d))
    out, grads = _multi_head_step(q_in, kv_in, weights, coef, n_heads, k_sparse, causal)
    want_grads = [np.zeros_like(g) for g in grads]
    for i in range(batch):
        out_i, grads_i = _multi_head_step(q_in[i], kv_in[i], weights, coef[i], n_heads,
                                          k_sparse, causal)
        assert np.max(np.abs(out[i] - out_i)) <= 1e-12
        for j, g in enumerate(grads_i):
            if j < 2:
                want_grads[j][i] = g
            else:
                want_grads[j] += g
    for got, want in zip(grads, want_grads):
        assert np.max(np.abs(got - want)) <= 1e-12


def test_batched_causal_needs_square_scores():
    rng = np.random.default_rng(21)
    x = t(rng.standard_normal((2, 3, 4)))
    memory = t(rng.standard_normal((2, 5, 4)))
    for k_sparse in (None, 2):
        with pytest.raises(ShapeError):
            multi_head(x, memory, memory, [t(np.eye(4)) for _ in range(2)], 2,
                       k_sparse=k_sparse, causal=True)
