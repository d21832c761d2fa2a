"""Unit tests for the autograd Tensor."""

import numpy as np
import pytest

from repro.nn.tensor import Tensor, where


def grads_of(expr, *tensors):
    expr.backward()
    return [t.grad for t in tensors]


class TestConstruction:
    def test_from_list_promotes_to_float(self):
        t = Tensor([1, 2, 3])
        assert t.dtype.kind == "f"
        assert t.shape == (3,)

    def test_from_array_keeps_float_dtype(self):
        t = Tensor(np.zeros(3, dtype=np.float32))
        assert t.dtype == np.float32

    def test_rejects_string_payloads(self):
        with pytest.raises(TypeError):
            Tensor(np.array(["a", "b"]))

    def test_repr_mentions_requires_grad(self):
        assert "requires_grad" in repr(Tensor([1.0], requires_grad=True))
        assert "requires_grad" not in repr(Tensor([1.0]))

    def test_shape_and_ndim(self):
        t = Tensor(np.zeros((4, 5)))
        assert t.shape == (4, 5)
        assert t.ndim == 2


class TestArithmetic:
    def test_add_backward_both_sides(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        ga, gb = grads_of((a + b).sum(), a, b)
        assert np.allclose(ga, [1, 1])
        assert np.allclose(gb, [1, 1])

    def test_add_broadcast_reduces_grad(self):
        a = Tensor(np.ones((3, 2)), requires_grad=True)
        b = Tensor(np.ones(2), requires_grad=True)
        (a + b).sum().backward()
        assert b.grad.shape == (2,)
        assert np.allclose(b.grad, [3, 3])

    def test_mul_backward_product_rule(self):
        a = Tensor([2.0, 3.0], requires_grad=True)
        b = Tensor([5.0, 7.0], requires_grad=True)
        (a * b).sum().backward()
        assert np.allclose(a.grad, [5, 7])
        assert np.allclose(b.grad, [2, 3])

    def test_neg(self):
        a = Tensor([1.0, -2.0], requires_grad=True)
        (-a).sum().backward()
        assert np.allclose(a.grad, [-1, -1])

    def test_grad_accumulates_across_uses(self):
        a = Tensor([2.0], requires_grad=True)
        (a * a + a).sum().backward()
        assert np.allclose(a.grad, [5.0])   # 2a + 1


class TestUnaryOps:
    def test_exp_log_inverse_grads(self):
        a = Tensor([0.5, 1.5], requires_grad=True)
        a.exp().sum().backward()
        assert np.allclose(a.grad, np.exp([0.5, 1.5]))
        b = Tensor([0.5, 1.5], requires_grad=True)
        b.log().sum().backward()
        assert np.allclose(b.grad, [2.0, 1 / 1.5])

    def test_abs_grad(self):
        b = Tensor([-3.0, 3.0], requires_grad=True)
        b.abs().sum().backward()
        assert np.allclose(b.grad, [-1, 1])

    def test_sigmoid_range_and_grad(self):
        a = Tensor([0.0], requires_grad=True)
        out = a.sigmoid()
        assert np.allclose(out.data, [0.5])
        out.sum().backward()
        assert np.allclose(a.grad, [0.25])

    def test_relu_zeroes_negatives(self):
        a = Tensor([-1.0, 2.0], requires_grad=True)
        out = a.relu()
        assert np.allclose(out.data, [0, 2])
        out.sum().backward()
        assert np.allclose(a.grad, [0, 1])


class TestReductions:
    def test_sum_axis_keepdims(self):
        a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        out = a.sum(axis=1, keepdims=True)
        assert out.shape == (2, 1)
        out.backward(np.ones((2, 1)))
        assert np.allclose(a.grad, np.ones((2, 3)))

    def test_sum_negative_axis(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        a.sum(axis=-1).sum().backward()
        assert np.allclose(a.grad, np.ones((2, 3)))

    def test_mean_scales_gradient(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        a.mean().backward()
        assert np.allclose(a.grad, np.full((2, 3), 1 / 6))


class TestShapes:
    def test_reshape_roundtrip_grad(self):
        a = Tensor(np.arange(6.0), requires_grad=True)
        a.reshape(2, 3).sum().backward()
        assert a.grad.shape == (6,)

    def test_flatten_keeps_batch(self):
        a = Tensor(np.zeros((4, 2, 3)))
        assert a.flatten().shape == (4, 6)

    def test_getitem_scatter_grad(self):
        a = Tensor(np.arange(5.0), requires_grad=True)
        a[1:3].sum().backward()
        assert np.allclose(a.grad, [0, 1, 1, 0, 0])

    def test_getitem_fancy_index_accumulates(self):
        a = Tensor(np.zeros(3), requires_grad=True)
        a[np.array([0, 0, 2])].sum().backward()
        assert np.allclose(a.grad, [2, 0, 1])


class TestMatmul:
    def test_matrix_matrix(self):
        a = Tensor(np.array([[1.0, 2.0]]), requires_grad=True)
        b = Tensor(np.array([[3.0], [4.0]]), requires_grad=True)
        out = a.matmul(b)
        assert np.allclose(out.data, [[11.0]])
        out.sum().backward()
        assert np.allclose(a.grad, [[3, 4]])
        assert np.allclose(b.grad, [[1], [2]])

    def test_vector_matrix(self):
        a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        b = Tensor(np.eye(2), requires_grad=True)
        out = a.matmul(b)
        assert out.shape == (2,)
        out.sum().backward()
        assert a.grad.shape == (2,)
        assert b.grad.shape == (2, 2)

    def test_matrix_vector(self):
        a = Tensor(np.ones((3, 2)), requires_grad=True)
        b = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        out = a.matmul(b)
        assert out.shape == (3,)
        out.sum().backward()
        assert np.allclose(b.grad, [3, 3])

    def test_vector_vector_dot(self):
        a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        b = Tensor(np.array([3.0, 4.0]), requires_grad=True)
        out = a.matmul(b)
        assert out.item() == 11.0
        out.backward()
        assert np.allclose(a.grad, [3, 4])

    def test_batched_matmul_unbroadcasts_weight_grad(self):
        a = Tensor(np.ones((5, 3, 2)), requires_grad=True)
        w = Tensor(np.ones((2, 4)), requires_grad=True)
        a.matmul(w).sum().backward()
        assert w.grad.shape == (2, 4)
        assert np.allclose(w.grad, np.full((2, 4), 15))


class TestBackwardProtocol:
    def test_backward_requires_grad(self):
        with pytest.raises(RuntimeError):
            Tensor([1.0]).backward()

    def test_backward_nonscalar_needs_grad_argument(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError):
            (a * 2).backward()

    def test_backward_with_explicit_grad(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        (a * 2).backward(np.array([1.0, 10.0]))
        assert np.allclose(a.grad, [2.0, 20.0])

    def test_zero_grad(self):
        a = Tensor([1.0], requires_grad=True)
        (a * 1).sum().backward()
        a.zero_grad()
        assert a.grad is None

    def test_deep_chain_does_not_recurse(self):
        # Iterative topological sort must survive graphs deeper than the
        # Python recursion limit.
        a = Tensor([1.0], requires_grad=True)
        out = a
        for _ in range(3000):
            out = out + 1.0
        out.sum().backward()
        assert np.allclose(a.grad, [1.0])

    def test_diamond_graph_accumulates_once_per_path(self):
        a = Tensor([1.0], requires_grad=True)
        b = a * 2
        c = a * 3
        (b + c).sum().backward()
        assert np.allclose(a.grad, [5.0])


class TestCombinators:
    def test_where_routes_gradient(self):
        cond = np.array([True, False])
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([10.0, 20.0], requires_grad=True)
        out = where(cond, a, b)
        assert np.allclose(out.data, [1, 20])
        out.sum().backward()
        assert np.allclose(a.grad, [1, 0])
        assert np.allclose(b.grad, [0, 1])


class TestDtypes:
    """A tensor's dtype survives scalar operands and every unary op."""

    SCALAR_OPS = [
        lambda t: t + 2, lambda t: t - 0.5, lambda t: t * np.float64(0.5),
        lambda t: t * np.asarray(0.25), lambda t: t.mean(),
        lambda t: t.mean(axis=0), lambda t: t.relu(), lambda t: t.sigmoid(),
        lambda t: t.abs(), lambda t: t.exp(), lambda t: t.log(),
    ]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("op", range(len(SCALAR_OPS)))
    def test_value_and_gradient_keep_dtype(self, dtype, op):
        data = np.random.default_rng(op).random((3, 4)) + 0.1
        x = Tensor(data.astype(dtype), requires_grad=True)
        out = self.SCALAR_OPS[op](x)
        assert out.dtype == dtype
        out.sum().backward()
        assert x.grad.dtype == dtype

    def test_scalar_operand_rounds_to_the_tensor_dtype(self):
        x = Tensor(np.ones(2, np.float32))
        np.testing.assert_array_equal((x * 0.1).data,
                                      np.ones(2, np.float32) * np.float32(0.1))

    def test_integer_input_becomes_float64(self):
        assert Tensor([1, 2]).dtype == np.float64
        assert Tensor(np.arange(3)).dtype == np.float64
