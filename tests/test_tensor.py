import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hydroformer.errors import NumericError, ShapeError
from hydroformer import tensor as T
from hydroformer.tensor import (ACTIVATIONS, Tensor, activation, add, add_bias,
                                attention_core, backward, concat_cols, head_scores,
                                layer_norm, linear, masked_softmax, matmul, mlp, mse, mul,
                                no_grad, scale, sub, swap_leading, tensor_sum, transpose)

from _memory import traced
from _oracles import (head_mix, ref_attention_core, ref_attention_core_and_grads,
                      ref_backward, ref_layer_norm, ref_layer_norm_backward, ref_linear,
                      ref_masked_softmax, ref_mlp, ref_mlp_and_grads)
from gradcheck import grad_check


def t(data, grad=True):
    return Tensor(np.array(data, dtype=np.float64), requires_grad=grad)


def no_residual(x):
    """A constant zero residual, for a layer norm of x alone: x + 0.0 is x
    bit for bit, and a constant gets no gradient."""
    return Tensor(np.zeros_like(x.data))


class TestMatmul:
    def test_identity(self):
        eye = np.eye(2)
        assert np.array_equal(matmul(t(eye), t(eye)).data, eye)

    def test_hand_case(self):
        out = matmul(t([[1, 2], [3, 4]]), t([[1], [1]]))
        assert np.array_equal(out.data, [[3], [7]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            matmul(t(np.zeros((2, 3))), t(np.zeros((2, 3))))

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        a = rng.uniform(-2, 2, (3, 4))
        b = rng.uniform(-2, 2, (4, 2))
        report = grad_check(lambda ts: tensor_sum(matmul(ts[0], ts[1])), [a, b])
        assert report.ok(1e-4)


class TestElementwise:
    def test_add_identity(self):
        x = np.array([[1.0, -2.0]])
        assert np.array_equal(add(t(x), t(np.zeros_like(x))).data, x)

    def test_mul_hand(self):
        assert np.array_equal(mul(t([[1, 2]]), t([[3, 4]])).data, [[3, 8]])

    def test_sub_self_cancellation(self):
        x = t([[1.5, -0.5]])
        assert np.array_equal(sub(x, x).data, [[0, 0]])

    def test_shape_mismatch(self):
        for op in (add, sub, mul):
            with pytest.raises(ShapeError):
                op(t([[1, 2]]), t([[1, 2, 3]]))

    def test_scale(self):
        assert np.array_equal(scale(t([[2, 4]]), 0.5).data, [[1, 2]])

    @pytest.mark.parametrize("op", [add, sub, mul])
    def test_grads(self, op):
        rng = np.random.default_rng(1)
        a, b = rng.uniform(-2, 2, (2, 3)), rng.uniform(-2, 2, (2, 3))
        report = grad_check(lambda ts: tensor_sum(mul(op(ts[0], ts[1]), ts[0])), [a, b])
        assert report.ok(1e-4)


class TestActivation:
    def test_tanh_zero(self):
        assert activation(t([[0.0]]), "tanh").data[0, 0] == 0.0

    def test_relu_definition(self):
        out = activation(t([[-3.0, 3.0]]), "relu")
        assert np.array_equal(out.data, [[0.0, 3.0]])

    def test_tanh_one(self):
        assert activation(t([[1.0]]), "tanh").data[0, 0] == pytest.approx(
            0.7615941559557649, abs=1e-15)

    def test_tanh_strictly_inside_unit_interval(self):
        out = activation(t([[-15.0, 15.0, 3.0]]), "tanh").data
        assert np.all(np.abs(out) < 1.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown activation"):
            activation(t([[1.0]]), "swish")

    def test_kinds_are_the_models(self):
        """The FFN's relu and the nonlinear head's tanh."""
        assert ACTIVATIONS == ("tanh", "relu")

    @pytest.mark.parametrize("kind", ACTIVATIONS)
    def test_grads(self, kind):
        rng = np.random.default_rng(2)
        # keep away from relu's kink, where FD is invalid
        x = rng.uniform(-2, 2, (3, 3))
        x[np.abs(x) < 0.1] += 0.2
        report = grad_check(lambda ts: tensor_sum(activation(ts[0], kind)), [x])
        assert report.ok(1e-4)


class TestMaskedSoftmax:
    def test_constant_row_symmetry(self):
        out = masked_softmax(t([[2.0, 2.0, 2.0]]), np.ones((1, 3), bool))
        assert np.allclose(out.data, 1 / 3, atol=1e-15)

    def test_hand_row(self):
        out = masked_softmax(t([[1.0, 2.0, 3.0]]), np.ones((1, 3), bool))
        assert np.allclose(out.data, [[0.09003057, 0.24472847, 0.66524096]], atol=1e-7)

    def test_single_survivor(self):
        out = masked_softmax(t([[5.0, -1.0]]), np.array([[True, False]]))
        assert np.array_equal(out.data, [[1.0, 0.0]])

    def test_rows_sum_to_one_and_masked_exactly_zero(self):
        rng = np.random.default_rng(3)
        scores = rng.uniform(-5, 5, (6, 7))
        mask = rng.random((6, 7)) < 0.6
        mask[:, 0] = True
        out = masked_softmax(t(scores), mask)
        assert np.allclose(out.data.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(out.data[~mask] == 0.0)
        assert np.allclose(out.data, ref_masked_softmax(scores, mask), atol=1e-14)

    def test_fully_masked_row_is_error_not_nan(self):
        with pytest.raises(ValueError, match="fully masked"):
            masked_softmax(t([[1.0, 2.0]]), np.zeros((1, 2), bool))

    def test_masked_positions_get_zero_gradient(self):
        scores = t([[1.0, 2.0, 3.0]])
        mask = np.array([[True, False, True]])
        backward(tensor_sum(mul(masked_softmax(scores, mask), t([[1.0, 5.0, 2.0]], grad=False))))
        assert scores.grad[0, 1] == 0.0

    def test_grad(self):
        rng = np.random.default_rng(4)
        scores = rng.uniform(-2, 2, (3, 4))
        mask = np.ones((3, 4), bool)
        mask[0, 2] = False
        coef = rng.uniform(-1, 1, (3, 4))

        def fn(ts):
            return tensor_sum(mul(masked_softmax(ts[0], mask), Tensor(coef)))

        assert grad_check(fn, [scores]).ok(1e-4)


class TestLayerNorm:
    def test_constant_row_collapses_to_zero(self):
        x = t([[4.0, 4.0, 4.0]])
        out = layer_norm(x, t(np.ones(3)), t(np.zeros(3)), no_residual(x))
        assert np.allclose(out.data, 0.0, atol=1e-12)

    def test_hand_normalization(self):
        x = t([[1.0, 3.0]])
        out = layer_norm(x, t(np.ones(2)), t(np.zeros(2)), no_residual(x), eps=1e-15)
        assert np.allclose(out.data, [[-1.0, 1.0]], atol=1e-6)

    def test_affine_collapse(self):
        beta = np.array([7.0, 7.0, 7.0])
        x = t([[1.0, 5.0, 2.0]])
        out = layer_norm(x, t(np.zeros(3)), t(beta), no_residual(x))
        assert np.array_equal(out.data, [beta])

    def test_mean_and_variance(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(-2, 2, (4, 8))
        xt = t(x)
        out = layer_norm(xt, t(np.ones(8)), t(np.zeros(8)), no_residual(xt), eps=1e-12).data
        assert np.all(np.abs(out.mean(axis=1)) < 1e-10)
        assert np.allclose(out.var(axis=1), 1.0, atol=1e-6)

    def test_grad(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(-2, 2, (3, 5))
        g = rng.uniform(0.5, 1.5, 5)
        b = rng.uniform(-1, 1, 5)
        coef = rng.uniform(-1, 1, (3, 5))

        def fn(ts):
            return tensor_sum(mul(layer_norm(ts[0], ts[1], ts[2], no_residual(ts[0])),
                                  Tensor(coef)))

        assert grad_check(fn, [x, g, b]).ok(1e-4)


class TestMse:
    def test_zero_when_equal(self):
        assert float(mse(t([[1.0], [2.0]]), t([[1.0], [2.0]])).data) == 0.0

    def test_hand_case(self):
        assert float(mse(t([[1.0], [2.0]]), t([[2.0], [4.0]])).data) == 2.5

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            mse(t([[1.0]]), t([[1.0], [2.0]]))

    def test_grad(self):
        rng = np.random.default_rng(7)
        p = rng.uniform(-2, 2, (4, 1))
        y = rng.uniform(-2, 2, (4, 1))
        assert grad_check(lambda ts: mse(ts[0], Tensor(y)), [p]).ok(1e-4)


class TestBackward:
    def test_sum_gives_ones(self):
        x = t([1.0, 2.0, 3.0])
        backward(tensor_sum(x))
        assert np.array_equal(x.grad, [1, 1, 1])

    def test_square_sum(self):
        x = t([1.0, 2.0])
        backward(tensor_sum(mul(x, x)))
        assert np.array_equal(x.grad, [2, 4])

    def test_accumulation_over_reuse(self):
        y = t([1.0, 2.0])
        backward(add(tensor_sum(y), tensor_sum(y)))
        assert np.array_equal(y.grad, [2, 2])

    def test_non_scalar_rejected(self):
        with pytest.raises(ShapeError):
            backward(t([1.0, 2.0]))

    def test_double_backward_rejected(self):
        loss = tensor_sum(t([1.0]))
        backward(loss)
        with pytest.raises(RuntimeError):
            backward(loss)

    def test_in_place_accumulation_keeps_a_shared_gradient_apart(self):
        # add sends one array to both parents; a later in-place add into a
        # must not reach b
        a, b = t([1.0, 2.0]), t([3.0, 4.0])
        backward(tensor_sum(add(a, b)))
        backward(tensor_sum(scale(a, 2.0)))
        assert np.array_equal(b.grad, [1, 1])
        assert np.array_equal(a.grad, [3, 3])

    def test_linearity_of_accumulation(self):
        rng = np.random.default_rng(8)
        base = rng.uniform(-2, 2, 5)
        x1 = t(base)
        backward(add(tensor_sum(mul(x1, x1)), tensor_sum(x1)))
        x2 = t(base)
        backward(tensor_sum(mul(x2, x2)))
        backward(tensor_sum(x2))
        assert np.allclose(x1.grad, x2.grad, atol=1e-15)

    def test_sweep_keeps_grads_on_leaves_only_and_frees_the_graph(self):
        x = t([1.0, 2.0])
        h = mul(x, x)
        loss = tensor_sum(h)
        backward(loss)
        assert np.array_equal(x.grad, [2, 4])
        assert h.grad is None and loss.grad is None
        for node in (h, loss):
            assert node._parents == () and node._backward_fn is None

    def test_backward_into_a_swept_shared_subgraph_raises(self):
        x = t([1.0, 2.0])
        shared = mul(x, x)
        backward(tensor_sum(shared))
        with pytest.raises(RuntimeError, match="freed"):
            backward(tensor_sum(scale(shared, 2.0)))
        assert np.array_equal(x.grad, [2, 4])

    @pytest.mark.parametrize("live_last", [True, False])
    def test_freed_graph_error_leaves_a_leaf_on_a_live_path_unchanged(self, live_last):
        # the sweep runs in reverse creation order, so the path built last
        # reaches x or the swept node first
        x = t([1.0, 2.0])
        shared = mul(x, x)
        backward(tensor_sum(shared))
        terms = [lambda: tensor_sum(scale(shared, 2.0)), lambda: tensor_sum(scale(x, 3.0))]
        if not live_last:
            terms.reverse()
        loss = add(terms[0](), terms[1]())
        with pytest.raises(RuntimeError, match="freed"):
            backward(loss)
        assert np.array_equal(x.grad, [2, 4])

    def test_leaf_grads_accumulate_across_separate_graphs(self):
        # both graphs share the leaf w and exist before either is swept
        w = t([[0.5, -1.0], [2.0, 0.25]])
        xs = [np.array([[1.0, 2.0]]), np.array([[-3.0, 0.5]])]
        losses = [tensor_sum(activation(matmul(Tensor(x), w), "tanh")) for x in xs]
        for loss in losses:
            backward(loss)
        expect = sum(x.T @ (1 - np.tanh(x @ w.data) ** 2) for x in xs)
        assert np.allclose(w.grad, expect, rtol=0, atol=1e-15)


_DAG_OPS = ("add", "mul", "scale", "matmul", "activation", "layer_norm")


def _build_dag(plan, seed):
    """A random graph of 3 x 3 tensors from a drawn plan. Leaves: x (used by
    every graph at least twice), w (which already holds a .grad), a constant
    c that requires no grad, and gamma and beta, which every layer_norm
    shares. The hub, the last op of the plan, gets exactly `fanout`
    consumers. Every node that nothing consumes joins the loss.
    Returns (leaves, op nodes, loss)."""
    steps, fanout, hub_partners = plan
    rng = np.random.default_rng(seed)
    x, w = t(rng.uniform(-1, 1, (3, 3))), t(rng.uniform(-1, 1, (3, 3)))
    c = t(rng.uniform(-1, 1, (3, 3)), grad=False)
    gamma, beta = t(rng.uniform(0.5, 1.5, 3)), t(rng.uniform(-1, 1, 3))
    w.grad = rng.uniform(-1, 1, (3, 3))
    leaves, nodes, ops = [x, w, c, gamma, beta], [x, w, c], []
    consumers = {}

    def apply(kind, i, j, k):
        a, b = nodes[i], nodes[j]
        if kind == "scale":
            out, used = scale(a, 0.5 + k), {i}
        elif kind == "activation":
            out, used = activation(a, ACTIVATIONS[k % len(ACTIVATIONS)]), {i}
        elif kind == "layer_norm":
            if k % 2:
                out, used = layer_norm(a, gamma, beta, b), {i, j}
            else:
                out, used = layer_norm(a, gamma, beta, no_residual(a)), {i}
        else:
            out, used = {"add": add, "mul": mul, "matmul": matmul}[kind](a, b), {i, j}
        for u in used:
            consumers[u] = consumers.get(u, 0) + 1
        nodes.append(out)
        ops.append(out)

    for kind, i, j, k in steps:
        apply(kind, i % len(nodes), j % len(nodes), k)
    hub = len(nodes) - 1
    for n, (kind, j) in enumerate(hub_partners[:fanout]):
        # j < hub keeps the partner from being the hub or one of its consumers
        apply(kind, hub, j % hub, n)
    terms = [tensor_sum(mul(nodes[i], c)) for i in range(len(nodes))
             if i not in consumers and nodes[i].requires_grad]
    terms += [tensor_sum(mul(x, w)), tensor_sum(scale(x, -0.75))]
    ops += terms
    loss = terms[0]
    for term in terms[1:]:
        loss = add(loss, term)
        ops.append(loss)
    return leaves, ops, loss


_STEPS = st.lists(st.tuples(st.sampled_from(_DAG_OPS), st.integers(0, 50),
                            st.integers(0, 50), st.integers(0, 11)), min_size=1, max_size=10)
_PARTNERS = st.lists(st.tuples(st.sampled_from(("add", "mul", "matmul")), st.integers(0, 50)),
                     min_size=4, max_size=4)


class TestBackwardDags:
    """backward against ref_backward, the two-phase DFS sweep, on random
    graphs of the ops the model uses."""

    @settings(max_examples=150, deadline=None)
    @given(plan=st.tuples(_STEPS, st.integers(1, 4), _PARTNERS),
           seed=st.integers(0, 2**16))
    def test_leaf_grads_match_the_dfs_oracle_and_the_graph_is_freed(self, plan, seed):
        leaves, ops, loss = _build_dag(plan, seed)
        ref_leaves, _, ref_loss = _build_dag(plan, seed)
        assert np.array_equal(loss.data, ref_loss.data)
        backward(loss)
        ref_backward(ref_loss)
        for leaf, ref in zip(leaves, ref_leaves):
            assert (leaf.grad is None) == (ref.grad is None)
            if ref.grad is not None:
                # summation order differs at nodes with several consumers:
                # 1e-12 relative to the largest entry, absolute below 1
                size = max(1.0, float(np.max(np.abs(ref.grad))))
                assert np.max(np.abs(leaf.grad - ref.grad)) <= 1e-12 * size
        assert leaves[2].grad is None
        for node in ops:
            assert node.grad is None and node._parents == ()


class TestNoGrad:
    def _graph(self, rng):
        x = t(rng.uniform(-1, 1, (2, 4, 6)))
        w, g, b = t(rng.uniform(-1, 1, (6, 6))), t(np.ones(6)), t(np.zeros(6))
        mixed = attention_core(matmul(x, w), x, x, 2, 0.5, None, 3)
        hidden = mlp(mixed, w, b, w, b, "relu")
        act = activation(hidden, "tanh")
        return layer_norm(act, g, b, no_residual(act))

    def test_outputs_equal_taped_bit_for_bit_and_carry_no_parents(self):
        taped = self._graph(np.random.default_rng(0))
        with no_grad():
            free = self._graph(np.random.default_rng(0))
        assert np.array_equal(taped.data, free.data)
        assert taped._parents and taped.requires_grad
        assert free._parents == () and free._backward_fn is None
        assert not free.requires_grad

    def test_scope_restored_after_exception(self):
        with pytest.raises(ShapeError):
            with no_grad():
                matmul(t(np.zeros((2, 3))), t(np.zeros((2, 3))))
        assert T._grad_enabled
        assert matmul(t(np.eye(2)), t(np.eye(2)))._parents

    def test_nested_scopes_restore_the_outer_state(self):
        with no_grad():
            with no_grad():
                pass
            assert not T._grad_enabled
        assert T._grad_enabled


class TestBatched:
    """Ops on a leading batch axis: each batch item matches the 2-D op, and
    gradients pass finite differences."""

    def test_matmul_rows_of_every_item_match_2d(self):
        rng = np.random.default_rng(30)
        a, b = rng.uniform(-1, 1, (3, 4, 5)), rng.uniform(-1, 1, (5, 2))
        out = matmul(t(a), t(b)).data
        for i in range(3):
            assert np.allclose(out[i], a[i] @ b, rtol=0, atol=1e-15)

    def test_matmul_grad(self):
        rng = np.random.default_rng(31)
        a, b = rng.uniform(-2, 2, (2, 3, 4)), rng.uniform(-2, 2, (4, 2))
        coef = rng.uniform(-1, 1, (2, 3, 2))
        fn = lambda ts: tensor_sum(mul(matmul(ts[0], ts[1]), Tensor(coef)))
        assert grad_check(fn, [a, b]).ok(1e-4)

    @pytest.mark.parametrize("bias_shape", [(4,), (3, 4)])
    def test_add_bias_grad(self, bias_shape):
        rng = np.random.default_rng(32)
        x, b = rng.uniform(-1, 1, (2, 3, 4)), rng.uniform(-1, 1, bias_shape)
        assert np.array_equal(add_bias(t(x), t(b)).data, x + b)
        fn = lambda ts: tensor_sum(mul(add_bias(ts[0], ts[1]), ts[0]))
        assert grad_check(fn, [x, b]).ok(1e-4)

    def test_add_bias_rejects_non_trailing_shapes(self):
        with pytest.raises(ShapeError):
            add_bias(t(np.zeros((2, 3, 4))), t(np.zeros((2, 4))))

    def test_swap_leading_grad(self):
        rng = np.random.default_rng(39)
        x, coef = rng.uniform(-1, 1, (2, 3, 4)), rng.uniform(-1, 1, (3, 2, 4))
        assert np.array_equal(swap_leading(t(x)).data, x.transpose(1, 0, 2))
        fn = lambda ts: tensor_sum(mul(swap_leading(ts[0]), Tensor(coef)))
        assert grad_check(fn, [x]).ok(1e-4)
        with pytest.raises(ShapeError):
            swap_leading(t(np.zeros((3, 4))))

    @pytest.mark.parametrize("n_heads", [1, 2, 3])
    def test_head_scores_grad(self, n_heads):
        rng = np.random.default_rng(33 + n_heads)
        q, k = rng.uniform(-1, 1, (2, 3, 6)), rng.uniform(-1, 1, (2, 4, 6))
        out = head_scores(t(q), t(k), n_heads).data
        for i in range(2):
            assert np.array_equal(out[i], head_scores(t(q[i]), t(k[i]), n_heads).data)
        coef = rng.uniform(-1, 1, (2, n_heads * 3, 4))
        fn = lambda ts: tensor_sum(mul(head_scores(ts[0], ts[1], n_heads), Tensor(coef)))
        assert grad_check(fn, [q, k]).ok(1e-4)

    @pytest.mark.parametrize("n_heads", [1, 2, 3])
    def test_head_mix_grad(self, n_heads):
        rng = np.random.default_rng(36 + n_heads)
        w, v = rng.uniform(-1, 1, (2, n_heads * 3, 4)), rng.uniform(-1, 1, (2, 4, 6))
        out = head_mix(t(w), t(v), n_heads).data
        for i in range(2):
            assert np.array_equal(out[i], head_mix(t(w[i]), t(v[i]), n_heads).data)
        coef = rng.uniform(-1, 1, (2, 3, 6))
        fn = lambda ts: tensor_sum(mul(head_mix(ts[0], ts[1], n_heads), Tensor(coef)))
        assert grad_check(fn, [w, v]).ok(1e-4)

    def test_attention_core_shape_error_names_it(self):
        q, k = t(np.zeros((2, 4))), t(np.zeros((3, 6)))
        with pytest.raises(ShapeError, match=r"^attention_core: shapes \(2, 4\), \(3, 6\)"):
            attention_core(q, k, t(np.zeros((3, 6))), 1)

    def test_head_ops_reject_mismatched_batches(self):
        with pytest.raises(ShapeError):
            head_scores(t(np.zeros((2, 3, 4))), t(np.zeros((3, 3, 4))), 2)
        with pytest.raises(ShapeError):
            head_scores(t(np.zeros((2, 3, 4))), t(np.zeros((3, 4))), 2)
        with pytest.raises(ShapeError):
            head_mix(t(np.zeros((2, 4, 3))), t(np.zeros((3, 4))), 2)

    @pytest.mark.parametrize("shared", [True, False])
    def test_masked_softmax_grad(self, shared):
        rng = np.random.default_rng(40)
        scores = rng.uniform(-2, 2, (2, 3, 4))
        mask = rng.random((3, 4) if shared else (2, 3, 4)) < 0.6
        mask[..., 0] = True
        full = np.broadcast_to(mask, scores.shape)
        out = masked_softmax(t(scores), mask).data
        for i in range(2):
            assert np.allclose(out[i], ref_masked_softmax(scores[i], full[i]), atol=1e-14)
        coef = rng.uniform(-1, 1, (2, 3, 4))
        fn = lambda ts: tensor_sum(mul(masked_softmax(ts[0], mask), Tensor(coef)))
        assert grad_check(fn, [scores]).ok(1e-4)

    def test_masked_softmax_rejects_other_mask_shapes(self):
        with pytest.raises(ShapeError):
            masked_softmax(t(np.zeros((2, 3, 4))), np.ones((3, 3), bool))
        with pytest.raises(ShapeError):
            masked_softmax(t(np.zeros((2, 3, 4))), np.ones((1, 3, 4), bool))
        mask = np.ones((2, 3, 4), bool)
        mask[1, 2] = False
        with pytest.raises(ValueError, match="fully masked"):
            masked_softmax(t(np.zeros((2, 3, 4))), mask)

    def test_layer_norm_grad(self):
        rng = np.random.default_rng(41)
        x = rng.uniform(-2, 2, (2, 3, 5))
        g, b = rng.uniform(0.5, 1.5, 5), rng.uniform(-1, 1, 5)
        coef = rng.uniform(-1, 1, (2, 3, 5))
        fn = lambda ts: tensor_sum(mul(layer_norm(ts[0], ts[1], ts[2], no_residual(ts[0])),
                                       Tensor(coef)))
        assert grad_check(fn, [x, g, b]).ok(1e-4)


def _fused_cases(rng, lead):
    """(name, leaf arrays, fused op, its unfused composition) for each fused
    op on a batch with leading shape `lead`."""
    x = rng.uniform(-2, 2, lead + (3, 6))
    row, table = rng.uniform(-1, 1, 4), rng.uniform(-1, 1, (3, 4))
    w = rng.uniform(-1, 1, (6, 4))
    g, b = rng.uniform(0.5, 1.5, 6), rng.uniform(-1, 1, 6)
    r = rng.uniform(-2, 2, lead + (3, 6))
    k, v = rng.uniform(-1, 1, lead + (5, 6)), rng.uniform(-1, 1, lead + (5, 6))
    w1, b1 = rng.uniform(-1, 1, (6, 5)), rng.uniform(-1, 1, 5)
    w2, b2 = rng.uniform(-1, 1, (5, 4)), rng.uniform(-1, 1, (3, 4))
    attention = []
    for n_heads in (1, 2):
        causal = np.tile(np.tril(np.ones((3, 3), bool)), (n_heads, 1))
        for k_sparse in (None, 2):
            args = (n_heads, 0.37, None, k_sparse)
            attention.append((f"attention_core_h{n_heads}_k{k_sparse}", [x, k, v],
                              lambda a, args=args: attention_core(*a, *args),
                              lambda a, args=args: ref_attention_core(*a, *args)))
            # causal self-attention with q, k and v one leaf, which sums its
            # three gradients
            args = (n_heads, 0.37, causal, k_sparse)
            attention.append((f"attention_core_causal_h{n_heads}_k{k_sparse}", [x],
                              lambda a, args=args: attention_core(a[0], a[0], a[0], *args),
                              lambda a, args=args: ref_attention_core(a[0], a[0], a[0],
                                                                      *args)))
    mlps = [(f"mlp_{kind}", [x, w1, b1, w2, b2], lambda a, kind=kind: mlp(*a, kind),
             lambda a, kind=kind: ref_mlp(*a, kind)) for kind in ACTIVATIONS]
    return attention + mlps + [
        ("linear_row", [x, w, row], lambda a: linear(*a),
         lambda a: add_bias(matmul(a[0], a[1]), a[2])),
        ("linear_table", [x, w, table], lambda a: linear(*a),
         lambda a: add_bias(matmul(a[0], a[1]), a[2])),
        ("layer_norm_residual", [x, g, b, r], lambda a: layer_norm(*a),
         lambda a: layer_norm(add(a[0], a[3]), a[1], a[2], no_residual(a[0]))),
        ("head_scores_scaled", [x, k], lambda a: head_scores(a[0], a[1], 2, 0.37),
         lambda a: scale(head_scores(a[0], a[1], 2), 0.37)),
    ]


def _value_and_grads(op, arrays, coef):
    leaves = [t(a) for a in arrays]
    out = op(leaves)
    backward(tensor_sum(mul(out, Tensor(coef))))
    return out.data, [leaf.grad for leaf in leaves]


@st.composite
def _plain_numpy_cases(draw):
    """(n_heads, Lq, Lk, query/key head width, value head width, k_sparse,
    mask) for attention_core: 1-3 heads, 1-6 query and key rows, k None or
    1 to Lk + 1, and no mask, a random one or a causal self-attention mask,
    whose q, k and v are one array (Lq = Lk, equal head widths)."""
    mask = draw(st.sampled_from(["none", "causal", "random"]))
    lq, dq = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    lk, dv = (lq, dq) if mask == "causal" else (draw(st.integers(1, 6)), draw(st.integers(1, 3)))
    return (draw(st.integers(1, 3)), lq, lk, dq, dv, draw(st.none() | st.integers(1, lk + 1)),
            mask)


# leading shape -> (_plain_numpy_cases case, tied, seed)
_PLAIN_NUMPY_EXAMPLES = {(): ((1, 3, 5, 6, 6, None, "none"), False, 47),
                         (2,): ((2, 3, 3, 3, 3, 2, "causal"), False, 48),
                         (2, 3): ((2, 3, 5, 3, 3, 2, "random"), True, 49)}


def _check_against_plain_numpy(lead, case, tied, seed):
    """attention_core and mlp against references that share no code with
    them, in the output and every gradient. tied draws q and k from small
    integers, so scores tie exactly at the top-k threshold; the causal case
    is self-attention with q, k and v one leaf, whose gradient is the sum of
    the three."""
    n_heads, lq, lk, dq, dv, k_sparse, mask = case
    rng = np.random.default_rng(seed)
    if tied:
        x = rng.integers(-2, 3, lead + (lq, n_heads * dq)).astype(np.float64)
        k = rng.integers(-2, 3, lead + (lk, n_heads * dq)).astype(np.float64)
    else:
        x = rng.uniform(-2, 2, lead + (lq, n_heads * dq))
        k = rng.uniform(-1, 1, lead + (lk, n_heads * dq))
    v = rng.uniform(-1, 1, lead + (lk, n_heads * dv))
    allowed = None
    if mask == "causal":
        allowed = np.tile(np.tril(np.ones((lq, lq), bool)), (n_heads, 1))
    elif mask == "random":
        allowed = rng.random((n_heads * lq, lk)) < 0.5
        allowed[np.arange(n_heads * lq), rng.integers(0, lk, n_heads * lq)] = True
    args = (n_heads, 0.37, allowed, k_sparse)
    g_att = rng.uniform(-1, 1, lead + (lq, n_heads * dv))
    cases = []  # (leaf arrays, output gradient, fused op, reference output and grads)
    if mask == "causal":
        out, grads = ref_attention_core_and_grads(x, x, x, *args, g_att)
        cases.append(([x], g_att, lambda a: attention_core(a[0], a[0], a[0], *args),
                      (out, [sum(grads)])))
    else:
        cases.append(([x, k, v], g_att, lambda a: attention_core(*a, *args),
                      ref_attention_core_and_grads(x, k, v, *args, g_att)))
    # mlp on x, with Lk hidden units and v's width out
    w1, b1 = rng.uniform(-1, 1, (n_heads * dq, lk)), rng.uniform(-1, 1, lk)
    w2 = rng.uniform(-1, 1, (lk, n_heads * dv))
    for kind in ACTIVATIONS:
        for b2 in (rng.uniform(-1, 1, n_heads * dv), rng.uniform(-1, 1, (lq, n_heads * dv))):
            arrays = [x, w1, b1, w2, b2]
            cases.append((arrays, g_att, lambda a, kind=kind: mlp(*a, kind),
                          ref_mlp_and_grads(*arrays, kind, g_att)))
    for i, (arrays, g, fused, (ref_out, ref_grads)) in enumerate(cases):
        out, grads = _value_and_grads(fused, arrays, g)
        assert np.allclose(out, ref_out, rtol=0, atol=1e-12), i
        for grad, ref_grad in zip(grads, ref_grads, strict=True):
            assert np.allclose(grad, ref_grad, rtol=0, atol=1e-12), i


class TestFused:
    """linear, layer_norm with a residual, head_scores with a scale c,
    attention_core and mlp are single ops for matmul -> add_bias, add ->
    layer_norm, head_scores -> scale, head_scores -> top-k -> masked_softmax
    -> head_mix and linear -> activation -> linear; each equals that
    composition bit for bit."""

    @settings(max_examples=30, deadline=None)
    @given(lead=st.lists(st.integers(1, 3), max_size=2).map(tuple),
           seed=st.integers(0, 2**16))
    def test_equal_to_the_unfused_composition(self, lead, seed):
        rng = np.random.default_rng(seed)
        for name, arrays, fused, composed in _fused_cases(rng, lead):
            with no_grad():
                coef = rng.uniform(-1, 1, fused([Tensor(a) for a in arrays]).data.shape)
            f_out, f_grads = _value_and_grads(fused, arrays, coef)
            c_out, c_grads = _value_and_grads(composed, arrays, coef)
            assert np.array_equal(f_out, c_out), name
            for fg, cg in zip(f_grads, c_grads):
                assert np.array_equal(fg, cg), name

    @pytest.mark.parametrize("lead", list(_PLAIN_NUMPY_EXAMPLES))
    def test_attention_core_and_mlp_match_plain_numpy(self, lead):
        """The plain-numpy check on one pinned case per leading shape: no
        mask, a causal mask and a random mask with tied scores."""
        _check_against_plain_numpy(lead, *_PLAIN_NUMPY_EXAMPLES[lead])

    @settings(max_examples=200, deadline=None)
    @given(lead=st.lists(st.integers(1, 3), max_size=2).map(tuple), case=_plain_numpy_cases(),
           tied=st.booleans(), seed=st.integers(0, 2**16))
    def test_attention_core_and_mlp_match_plain_numpy_on_drawn_cases(self, lead, case, tied,
                                                                     seed):
        _check_against_plain_numpy(lead, case, tied, seed)

    @pytest.mark.parametrize("lead", [(), (2,)])
    @pytest.mark.parametrize("bias_shape", [(4,), (3, 4)])
    def test_linear_matches_oracle_and_grad(self, lead, bias_shape):
        rng = np.random.default_rng(42)
        x, w = rng.uniform(-2, 2, lead + (3, 5)), rng.uniform(-1, 1, (5, 4))
        b = rng.uniform(-1, 1, bias_shape)
        assert np.allclose(linear(t(x), t(w), t(b)).data, ref_linear(x, w, b),
                           rtol=0, atol=1e-14)
        coef = rng.uniform(-1, 1, lead + (3, 4))
        fn = lambda ts: tensor_sum(mul(linear(ts[0], ts[1], ts[2]), Tensor(coef)))
        assert grad_check(fn, [x, w, b]).ok(1e-4)

    def test_linear_rejects_bad_shapes(self):
        with pytest.raises(ShapeError, match="linear"):
            linear(t(np.zeros((2, 3))), t(np.zeros((2, 4))), t(np.zeros(4)))
        with pytest.raises(ShapeError, match="bias"):
            linear(t(np.zeros((2, 3, 4))), t(np.zeros((4, 5))), t(np.zeros((2, 5))))

    @pytest.mark.parametrize("lead", [(), (2,)])
    def test_layer_norm_residual_matches_oracle_and_grad(self, lead):
        rng = np.random.default_rng(43)
        x, r = rng.uniform(-2, 2, lead + (3, 5)), rng.uniform(-2, 2, lead + (3, 5))
        g, b = rng.uniform(0.5, 1.5, 5), rng.uniform(-1, 1, 5)
        out = layer_norm(t(x), t(g), t(b), t(r)).data
        assert np.allclose(out, ref_layer_norm(x + r, g, b), rtol=0, atol=1e-14)
        coef = rng.uniform(-1, 1, lead + (3, 5))
        fn = lambda ts: tensor_sum(mul(layer_norm(ts[0], ts[1], ts[2], ts[3]),
                                       Tensor(coef)))
        assert grad_check(fn, [x, g, b, r]).ok(1e-4)
        with pytest.raises(ShapeError, match="residual"):
            layer_norm(t(x), t(g), t(b), t(r[..., :2, :]))

    def test_layer_norm_matches_numpy_mean_and_var_bit_for_bit(self):
        x = np.random.default_rng(44).uniform(-3, 3, (4, 7, 9))
        mu, var = x.mean(axis=-1, keepdims=True), x.var(axis=-1, keepdims=True)
        expect = (x - mu) * (1.0 / np.sqrt(var + 1e-5))
        xt = t(x)
        out = layer_norm(xt, t(np.ones(9)), t(np.zeros(9)), no_residual(xt))
        assert np.array_equal(out.data, expect)

    @pytest.mark.parametrize("d", [3, 5, 7, 32])
    def test_layer_norm_grad_equals_np_mean_formula_bit_for_bit(self, d):
        rng = np.random.default_rng(46 + d)
        x, coef = rng.uniform(-3, 3, (2, 4, d)), rng.uniform(-1, 1, (2, 4, d))
        gamma = rng.uniform(0.5, 1.5, d)
        leaf = t(x)
        out = layer_norm(leaf, t(gamma), t(np.zeros(d)), no_residual(leaf))
        backward(tensor_sum(mul(out, Tensor(coef))))
        assert np.array_equal(leaf.grad, ref_layer_norm_backward(x, gamma, coef))

    def test_attention_core_rejects_what_the_chain_rejects(self):
        z = np.zeros
        causal = np.tril(np.ones((3, 3), bool))
        empty_row = np.ones((3, 5), bool)
        empty_row[1] = False
        cases = [  # q, k, v, n_heads, allowed, k_sparse
            (z((3, 4)), z((5, 6)), z((5, 4)), 1, None, None),          # widths
            (z((3, 6)), z((5, 6)), z((5, 6)), 4, None, None),          # heads
            (z((2, 3, 4)), z((3, 5, 4)), z((3, 5, 4)), 2, None, None),  # batches
            (z((3, 4)), z((5, 4)), z((4, 4)), 2, None, None),          # value rows
            (z((3, 4)), z((5, 4)), z((5, 3)), 2, None, None),          # value heads
            (z((3, 4)), z((5, 4)), z((5, 4)), 1, causal, None),        # mask shape
            (z((3, 4)), z((5, 4)), z((5, 4)), 1, causal, 2),
            (z((3, 4)), z((5, 4)), z((5, 4)), 1, empty_row, None),     # masked row
            (z((3, 4)), z((5, 4)), z((5, 4)), 1, None, 0),             # k < 1
            (z((3, 4)), z((0, 4)), z((0, 4)), 1, None, None),          # no keys
            (z((3, 4)), z((0, 4)), z((0, 4)), 1, None, 2),
        ]
        for q, k, v, n_heads, allowed, k_sparse in cases:
            args = (t(q), t(k), t(v), n_heads, 1.0, allowed, k_sparse)
            with pytest.raises(ValueError) as chain:
                ref_attention_core(*args)
            with pytest.raises(type(chain.value)):
                attention_core(*args)

    def test_mlp_rejects_what_the_chain_rejects(self):
        z = np.zeros
        cases = [  # x, w1, b1, w2, b2, kind
            (z((3, 6)), z((5, 4)), z(4), z((4, 2)), z(2), "relu"),
            (z((3, 6)), z((6, 4)), z(5), z((4, 2)), z(2), "relu"),
            (z((3, 6)), z((6, 4)), z(4), z((5, 2)), z(2), "relu"),
            (z((3, 6)), z((6, 4)), z(4), z((4, 2)), z((2, 2)), "relu"),
            (z((3, 6)), z((6, 4)), z(4), z((4, 2)), z(2), "swish"),
        ]
        for case in cases:
            args = [t(a) for a in case[:5]] + [case[5]]
            with pytest.raises(ValueError) as chain:
                ref_mlp(*args)
            with pytest.raises(type(chain.value)) as fused:
                mlp(*args)
            assert str(fused.value) == str(chain.value)

    @pytest.mark.parametrize("kind", ACTIVATIONS)
    def test_mlp_tape_keeps_only_the_pre_activation(self, kind):
        """Of the arrays of the hidden layer's size, a recorded mlp keeps
        the pre-activation alone: its live bytes are its output, one hidden
        array and less than a tenth of another (the node and its closure)."""
        rng = np.random.default_rng(45)
        x = t(rng.uniform(-1, 1, (4, 50, 8)))
        w1, b1 = t(rng.uniform(-1, 1, (8, 100))), t(rng.uniform(-1, 1, 100))
        w2, b2 = t(rng.uniform(-1, 1, (100, 8))), t(rng.uniform(-1, 1, 8))
        hidden = 4 * 50 * 100 * 8
        out, live, _ = traced(lambda: mlp(x, w1, b1, w2, b2, kind))
        assert out.requires_grad
        assert out.data.nbytes + hidden <= live < out.data.nbytes + hidden + hidden // 10

    @pytest.mark.parametrize("n_heads", [1, 2, 3])
    def test_scaled_head_scores_grad(self, n_heads):
        rng = np.random.default_rng(45 + n_heads)
        q, k = rng.uniform(-1, 1, (2, 3, 6)), rng.uniform(-1, 1, (2, 4, 6))
        coef = rng.uniform(-1, 1, (2, n_heads * 3, 4))
        fn = lambda ts: tensor_sum(mul(head_scores(ts[0], ts[1], n_heads, 0.37),
                                       Tensor(coef)))
        assert grad_check(fn, [q, k]).ok(1e-4)


class TestFiniteGuard:
    @settings(max_examples=200, deadline=None)
    @given(arr=hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0,
                                                       max_side=4)))
    @example(arr=np.array([1e308, 1e308]))
    @example(arr=np.array([np.inf, -np.inf]))
    @example(arr=np.array(np.nan))
    @example(arr=np.array(-np.inf))
    @example(arr=np.array(1e308))
    def test_raises_iff_an_element_is_nan_or_inf(self, arr):
        bad = any(math.isnan(x) or math.isinf(x) for x in arr.flat)
        with np.errstate(over="ignore", invalid="ignore"):
            if bad:
                with pytest.raises(NumericError, match="^op produced non-finite"):
                    T._check_finite(arr, "op")
            else:
                T._check_finite(arr, "op")

    @settings(max_examples=200, deadline=None)
    @given(arr=hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0,
                                                       max_side=4)))
    @example(arr=np.array([np.nan, 1.0]))
    @example(arr=np.array([[1.0, np.inf], [-np.inf, 2.0]]))
    @example(arr=np.array([1e200, -3e154, 2.0]))      # squares overflow, values finite
    @example(arr=np.array([1e300, np.nan]))
    def test_all_finite_agrees_with_isfinite(self, arr):
        with np.errstate(over="ignore", invalid="ignore"):
            assert T.all_finite(arr) is bool(np.isfinite(arr).all())

    def test_all_finite_makes_no_temporary(self):
        arr = np.ones(1 << 17)
        _, _, peak = traced(lambda: T.all_finite(arr))
        assert peak < 4096, peak

    def test_overflow_raises(self):
        big = t([[1e308]])
        with np.errstate(over="ignore"), pytest.raises(NumericError):
            mul(big, big)

    def test_finite_values_with_overflowing_sum_pass(self):
        with np.errstate(over="ignore"):     # the guard's sum of squares overflows
            assert np.array_equal(scale(t([1e308, 1e308]), 1.0).data, [1e308, 1e308])
        with np.errstate(over="ignore"), pytest.raises(NumericError):
            scale(t([1e308]), 10.0)

    def test_finite_inputs_never_produce_nan(self):
        rng = np.random.default_rng(9)
        x = t(rng.uniform(-2, 2, (3, 3)))
        out = activation(matmul(x, x), "tanh")
        assert np.all(np.isfinite(out.data))


class TestMisc:
    def test_transpose_grad(self):
        rng = np.random.default_rng(10)
        a = rng.uniform(-1, 1, (2, 3))
        b = rng.uniform(-1, 1, (2, 3))
        fn = lambda ts: tensor_sum(matmul(transpose(ts[0]), Tensor(b)))
        assert grad_check(fn, [a]).ok(1e-4)

    def test_add_bias_grad(self):
        rng = np.random.default_rng(11)
        x = rng.uniform(-1, 1, (3, 4))
        b = rng.uniform(-1, 1, 4)
        fn = lambda ts: tensor_sum(mul(add_bias(ts[0], ts[1]), ts[0]))
        assert grad_check(fn, [x, b]).ok(1e-4)

    def test_concat_cols_grad(self):
        rng = np.random.default_rng(12)
        a = rng.uniform(-1, 1, (3, 2))
        b = rng.uniform(-1, 1, (3, 3))
        coef = rng.uniform(-1, 1, (3, 5))
        fn = lambda ts: tensor_sum(mul(concat_cols([ts[0], ts[1]]), Tensor(coef)))
        assert grad_check(fn, [a, b]).ok(1e-4)

    @pytest.mark.parametrize("n_heads", [1, 2, 3])
    def test_head_scores_blocks_and_grad(self, n_heads):
        rng = np.random.default_rng(14 + n_heads)
        q, k = rng.uniform(-1, 1, (3, 6)), rng.uniform(-1, 1, (4, 6))
        blocks = zip(np.hsplit(q, n_heads), np.hsplit(k, n_heads))
        expect = np.vstack([qh @ kh.T for qh, kh in blocks])
        assert np.allclose(head_scores(t(q), t(k), n_heads).data, expect, atol=1e-15)
        coef = rng.uniform(-1, 1, (n_heads * 3, 4))
        fn = lambda ts: tensor_sum(mul(head_scores(ts[0], ts[1], n_heads), Tensor(coef)))
        assert grad_check(fn, [q, k]).ok(1e-4)

    @pytest.mark.parametrize("n_heads", [1, 2, 3])
    def test_head_mix_blocks_and_grad(self, n_heads):
        rng = np.random.default_rng(17 + n_heads)
        w, v = rng.uniform(-1, 1, (n_heads * 3, 4)), rng.uniform(-1, 1, (4, 6))
        blocks = zip(np.vsplit(w, n_heads), np.hsplit(v, n_heads))
        expect = np.hstack([wh @ vh for wh, vh in blocks])
        assert np.allclose(head_mix(t(w), t(v), n_heads).data, expect, atol=1e-15)
        coef = rng.uniform(-1, 1, (3, 6))
        fn = lambda ts: tensor_sum(mul(head_mix(ts[0], ts[1], n_heads), Tensor(coef)))
        assert grad_check(fn, [w, v]).ok(1e-4)

    def test_head_ops_reject_indivisible_widths(self):
        with pytest.raises(ShapeError):
            head_scores(t(np.zeros((2, 6))), t(np.zeros((3, 6))), 4)
        with pytest.raises(ShapeError):
            head_mix(t(np.zeros((4, 3))), t(np.zeros((3, 6))), 4)

    def test_tanh_chain_depth_three(self):
        rng = np.random.default_rng(13)
        x = rng.uniform(-2, 2, (2, 3))

        def fn(ts):
            h = ts[0]
            for _ in range(3):
                h = activation(h, "tanh")
            return tensor_sum(h)

        assert grad_check(fn, [x]).max_rel_error < 1e-4
