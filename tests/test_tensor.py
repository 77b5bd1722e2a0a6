import math

import numpy as np
import pytest

from hydroformer.errors import NumericError, ShapeError
from hydroformer.gradcheck import grad_check
from hydroformer.tensor import (Tensor, activation, add, add_bias, backward,
                                concat_cols, layer_norm, masked_softmax, matmul,
                                mse, mul, scale, sub, tensor_sum, transpose)

from _oracles import ref_masked_softmax


def t(data, grad=True):
    return Tensor(np.array(data, dtype=np.float64), requires_grad=grad)


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

    @pytest.mark.parametrize("kind", ["tanh", "relu", "sigmoid", "leaky_relu",
                                      "elu", "softplus"])
    def test_grads(self, kind):
        rng = np.random.default_rng(2)
        # keep away from relu/leaky/elu kinks where FD is invalid
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
        out = layer_norm(t([[4.0, 4.0, 4.0]]), t(np.ones(3)), t(np.zeros(3)))
        assert np.allclose(out.data, 0.0, atol=1e-12)

    def test_hand_normalization(self):
        out = layer_norm(t([[1.0, 3.0]]), t(np.ones(2)), t(np.zeros(2)), eps=1e-15)
        assert np.allclose(out.data, [[-1.0, 1.0]], atol=1e-6)

    def test_affine_collapse(self):
        beta = np.array([7.0, 7.0, 7.0])
        out = layer_norm(t([[1.0, 5.0, 2.0]]), t(np.zeros(3)), t(beta))
        assert np.array_equal(out.data, [beta])

    def test_mean_and_variance(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(-2, 2, (4, 8))
        out = layer_norm(t(x), t(np.ones(8)), t(np.zeros(8)), eps=1e-12).data
        assert np.all(np.abs(out.mean(axis=1)) < 1e-10)
        assert np.allclose(out.var(axis=1), 1.0, atol=1e-6)

    def test_grad(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(-2, 2, (3, 5))
        g = rng.uniform(0.5, 1.5, 5)
        b = rng.uniform(-1, 1, 5)
        coef = rng.uniform(-1, 1, (3, 5))

        def fn(ts):
            return tensor_sum(mul(layer_norm(ts[0], ts[1], ts[2]), Tensor(coef)))

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

    def test_linearity_of_accumulation(self):
        rng = np.random.default_rng(8)
        base = rng.uniform(-2, 2, 5)
        x1 = t(base)
        backward(add(tensor_sum(mul(x1, x1)), tensor_sum(x1)))
        x2 = t(base)
        backward(tensor_sum(mul(x2, x2)))
        backward(tensor_sum(x2))
        assert np.allclose(x1.grad, x2.grad, atol=1e-15)


class TestFiniteGuard:
    def test_overflow_raises(self):
        big = t([[1e308]])
        with np.errstate(over="ignore"), pytest.raises(NumericError):
            mul(big, big)

    def test_finite_values_with_overflowing_sum_pass(self):
        assert np.array_equal(scale(t([1e308, 1e308]), 1.0).data, [1e308, 1e308])
        with np.errstate(over="ignore"), pytest.raises(NumericError):
            scale(t([1e308]), 10.0)

    def test_finite_inputs_never_produce_nan(self):
        rng = np.random.default_rng(9)
        x = t(rng.uniform(-2, 2, (3, 3)))
        out = activation(matmul(x, x), "softplus")
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

    def test_tanh_chain_depth_three(self):
        rng = np.random.default_rng(13)
        x = rng.uniform(-2, 2, (2, 3))

        def fn(ts):
            h = ts[0]
            for _ in range(3):
                h = activation(h, "tanh")
            return tensor_sum(h)

        assert grad_check(fn, [x]).max_rel_error < 1e-4
