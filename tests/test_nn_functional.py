"""Unit tests for conv/pool primitives and their gradients."""

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.tensor import Tensor


def numeric_grad(func, array, eps=1e-6):
    grad = np.zeros_like(array)
    it = np.nditer(array, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        array[idx] += eps
        up = func()
        array[idx] -= 2 * eps
        down = func()
        array[idx] += eps
        grad[idx] = (up - down) / (2 * eps)
    return grad


def reference_conv2d(x: Tensor, weight: Tensor, bias: Tensor = None,
                     stride=1, padding=0) -> Tensor:
    """The im2col/col2im convolution that ``F.conv2d`` replaced, kept as
    the reference its output and gradients are checked against."""
    batch, _, height, width = x.shape
    out_channels, in_channels, kh, kw = weight.shape
    if x.shape[1] != in_channels:
        raise ValueError(f"input has {x.shape[1]} channels, weight expects {in_channels}")
    out_h, out_w = F.conv_output_shape(height, width, (kh, kw), stride, padding)

    cols = F.im2col_array(x.data, (kh, kw), stride, padding)         # (B, CKK, L)
    w2 = weight.data.reshape(out_channels, -1)                       # (OC, CKK)
    out_data = np.matmul(w2, cols)                                   # (B, OC, L)
    if bias is not None:
        out_data = out_data + bias.data.reshape(1, -1, 1)
    out_data = out_data.reshape(batch, out_channels, out_h, out_w)

    parents = (x, weight) if bias is None else (x, weight, bias)
    out = x._make_child(out_data, parents, "conv2d")
    if out.requires_grad:

        def backward(grad: np.ndarray) -> None:
            g2 = grad.reshape(batch, out_channels, -1)               # (B, OC, L)
            if weight.requires_grad:
                gw = np.matmul(g2, cols.transpose(0, 2, 1)).sum(axis=0)
                weight._accumulate(gw.reshape(weight.shape))
            if bias is not None and bias.requires_grad:
                bias._accumulate(g2.sum(axis=(0, 2)))
            if x.requires_grad:
                gcols = np.matmul(w2.T, g2)                          # (B, CKK, L)
                x._accumulate(F.col2im_array(gcols, x.shape, (kh, kw), stride, padding))

        out._backward = backward
    return out


class TestIm2Col:
    def test_shapes(self):
        x = np.arange(2 * 3 * 5 * 5, dtype=float).reshape(2, 3, 5, 5)
        cols = F.im2col_array(x, (3, 3))
        assert cols.shape == (2, 3 * 9, 9)

    def test_stride_and_padding_shapes(self):
        x = np.zeros((1, 1, 6, 6))
        cols = F.im2col_array(x, (3, 3), stride=2, padding=1)
        assert cols.shape == (1, 9, 9)

    def test_known_window_content(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        cols = F.im2col_array(x, (2, 2))
        # First window is the top-left 2x2 block.
        assert np.allclose(cols[0, :, 0], [0, 1, 4, 5])

    def test_col2im_is_adjoint_of_im2col(self):
        # <im2col(x), y> == <x, col2im(y)> for all x, y — the defining
        # property that makes col2im the correct conv gradient.
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 3, 6, 6))
        cols = F.im2col_array(x, (3, 3), stride=2, padding=1)
        y = rng.standard_normal(cols.shape)
        lhs = float((cols * y).sum())
        back = F.col2im_array(y, x.shape, (3, 3), stride=2, padding=1)
        rhs = float((x * back).sum())
        assert abs(lhs - rhs) < 1e-9

    def test_output_shape_validation(self):
        with pytest.raises(ValueError):
            F.conv_output_shape(2, 2, (5, 5))


class TestConv2d:
    def test_identity_kernel(self):
        x = Tensor(np.arange(9.0).reshape(1, 1, 3, 3))
        w = Tensor(np.ones((1, 1, 1, 1)))
        out = F.conv2d(x, w)
        assert np.allclose(out.data, x.data)

    def test_channel_mismatch_raises(self):
        x = Tensor(np.zeros((1, 2, 4, 4)))
        w = Tensor(np.zeros((1, 3, 3, 3)))
        with pytest.raises(ValueError):
            F.conv2d(x, w)

    def test_matches_naive_convolution(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((1, 2, 4, 4))
        w = rng.standard_normal((3, 2, 2, 2))
        out = F.conv2d(Tensor(x), Tensor(w)).data
        for oc in range(3):
            for i in range(3):
                for j in range(3):
                    expected = (x[0, :, i:i + 2, j:j + 2] * w[oc]).sum()
                    assert abs(out[0, oc, i, j] - expected) < 1e-9

    def test_gradients_numeric(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.standard_normal((2, 2, 5, 5)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 2, 3, 3)) * 0.4, requires_grad=True)
        b = Tensor(rng.standard_normal(3), requires_grad=True)

        def value():
            out = F.conv2d(Tensor(x.data), Tensor(w.data), Tensor(b.data),
                           padding=1)
            return float((out * out).sum().data)

        out = F.conv2d(x, w, b, padding=1)
        (out * out).sum().backward()
        for tensor in (x, w, b):
            approx = numeric_grad(value, tensor.data)
            assert np.allclose(tensor.grad, approx, atol=1e-4)

    @pytest.mark.parametrize("padding", [(3, 1), (1, 3), (-1, 0)],
                             ids=["rows", "columns", "negative"])
    def test_padding_must_be_smaller_than_the_kernel(self, padding):
        x = Tensor(np.zeros((1, 2, 6, 6)))
        w = Tensor(np.zeros((4, 2, 3, 3)))
        with pytest.raises(ValueError, match="padding"):
            F.conv2d(x, w, padding=padding)


#: Every conv layer of the image models as (C_in, C_out, H, W): DCSNet's
#: decoder and the fig5 classifier, for digits (1x28x28) and signs
#: (3x32x32); all 3x3 with padding 1.
MODEL_LAYERS = {
    "dcsnet-digits-32to16": (32, 16, 14, 14),
    "dcsnet-digits-16to8": (16, 8, 28, 28),
    "dcsnet-digits-8to8": (8, 8, 28, 28),
    "dcsnet-digits-8to1": (8, 1, 28, 28),
    "dcsnet-signs-32to16": (32, 16, 16, 16),
    "dcsnet-signs-16to8": (16, 8, 32, 32),
    "dcsnet-signs-8to8": (8, 8, 32, 32),
    "dcsnet-signs-8to3": (8, 3, 32, 32),
    "classifier-digits-1to8": (1, 8, 28, 28),
    "classifier-digits-8to16": (8, 16, 14, 14),
    "classifier-signs-3to8": (3, 8, 32, 32),
    "classifier-signs-8to16": (8, 16, 16, 16),
}
CONV_CASES = [pytest.param((2, c_in, h, w), (c_out, c_in, 3, 3), (1, 1), id=name)
              for name, (c_in, c_out, h, w) in MODEL_LAYERS.items()]
#: The 2x3 kernel with padding (1, 0) of tests/test_nn_gradcheck.py.
CONV_CASES.append(pytest.param((2, 2, 5, 6), (3, 2, 2, 3), (1, 0),
                               id="gradcheck-2x3"))

#: The largest difference of an output or gradient, over the largest
#: magnitude of the reference's, may be 32 eps of the dtype.  Both sides
#: sum the same products in different orders; over these shapes that
#: moves a result by at most ~5 eps, in float32 and in float64.
TOLERANCE_EPS = 32


class TestConv2dMatchesReference:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64],
                             ids=["float32", "float64"])
    @pytest.mark.parametrize("x_shape,w_shape,padding", CONV_CASES)
    def test_output_and_gradients(self, x_shape, w_shape, padding, dtype):
        rng = np.random.default_rng(11)
        arrays = [rng.standard_normal(x_shape),
                  rng.standard_normal(w_shape) * 0.3,
                  rng.standard_normal(w_shape[0])]
        upstream = None
        results = []
        for conv in (F.conv2d, reference_conv2d):
            x, w, b = (Tensor(a.astype(dtype), requires_grad=True)
                       for a in arrays)
            out = conv(x, w, b, padding=padding)
            if upstream is None:
                upstream = rng.standard_normal(out.shape).astype(dtype)
            out.backward(upstream)
            results.append([out.data, x.grad, w.grad, b.grad])
        tolerance = TOLERANCE_EPS * np.finfo(dtype).eps
        for name, new, ref in zip(("output", "input grad", "weight grad",
                                   "bias grad"), *results):
            assert new.dtype == ref.dtype == dtype, name
            assert new.shape == ref.shape, name
            error = np.abs(new - ref).max() / np.abs(ref).max()
            assert error <= tolerance, (name, error)


class TestConvTranspose2d:
    def test_upsamples_spatially(self):
        x = Tensor(np.ones((1, 1, 3, 3)))
        w = Tensor(np.ones((1, 1, 2, 2)))
        out = F.conv_transpose2d(x, w, stride=2)
        assert out.shape == (1, 1, 6, 6)

    def test_inverse_shape_of_conv(self):
        rng = np.random.default_rng(3)
        # A stride-2 3x3 convolution with padding 1 maps 8x8 to 4x4.
        assert F.conv_output_shape(8, 8, (3, 3), 2, 1) == (4, 4)
        down = Tensor(rng.standard_normal((1, 6, 4, 4)))
        up = F.conv_transpose2d(down, Tensor(rng.standard_normal((6, 4, 4, 4))),
                                stride=2, padding=1)
        assert up.shape == (1, 4, 8, 8)

    def test_gradients_numeric(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.standard_normal((1, 2, 3, 3)), requires_grad=True)
        w = Tensor(rng.standard_normal((2, 2, 2, 2)) * 0.4, requires_grad=True)

        def value():
            out = F.conv_transpose2d(Tensor(x.data), Tensor(w.data), stride=2)
            return float((out * out).sum().data)

        out = F.conv_transpose2d(x, w, stride=2)
        (out * out).sum().backward()
        for tensor in (x, w):
            approx = numeric_grad(value, tensor.data)
            assert np.allclose(tensor.grad, approx, atol=1e-4)

    def test_bias_added_per_output_channel_and_its_gradient(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.standard_normal((2, 2, 3, 3)))
        w = Tensor(rng.standard_normal((2, 3, 2, 2)))
        bias = Tensor(np.array([1.0, -2.0, 0.5]), requires_grad=True)
        plain = F.conv_transpose2d(x, w, stride=2)
        out = F.conv_transpose2d(x, w, bias=bias, stride=2)
        np.testing.assert_allclose(out.data - plain.data,
                                   np.broadcast_to(bias.data.reshape(
                                       1, 3, 1, 1), out.shape))
        upstream = rng.standard_normal(out.shape)
        (out * Tensor(upstream)).sum().backward()
        np.testing.assert_allclose(bias.grad, upstream.sum(axis=(0, 2, 3)))

    def test_channel_mismatch_raises(self):
        with pytest.raises(ValueError, match="channels"):
            F.conv_transpose2d(Tensor(np.ones((1, 2, 3, 3))),
                               Tensor(np.ones((3, 1, 2, 2))))

    def test_empty_output_rejected(self):
        with pytest.raises(ValueError, match="empty output"):
            F.conv_transpose2d(Tensor(np.ones((1, 1, 1, 1))),
                               Tensor(np.ones((1, 1, 1, 1))), padding=1)


class TestPooling:
    def test_max_pool_values(self):
        x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
        out = F.max_pool2d(x, 2)
        assert np.allclose(out.data, [[[[4.0]]]])

    def test_max_pool_grad_goes_to_argmax(self):
        x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]), requires_grad=True)
        F.max_pool2d(x, 2).sum().backward()
        assert np.allclose(x.grad, [[[[0, 0], [0, 1]]]])

    def test_strided_pooling_shape(self):
        x = Tensor(np.zeros((2, 3, 8, 8)))
        assert F.max_pool2d(x, 2).shape == (2, 3, 4, 4)
        assert F.max_pool2d(x, (2, 2), stride=(4, 4)).shape == (2, 3, 2, 2)


class TestUpsample:
    def test_nearest_repeat(self):
        x = Tensor(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
        out = F.upsample2d(x, 2)
        assert out.shape == (1, 1, 4, 4)
        assert np.allclose(out.data[0, 0, :2, :2], 1.0)

    def test_grad_sums_window(self):
        x = Tensor(np.ones((1, 1, 2, 2)), requires_grad=True)
        F.upsample2d(x, 3).sum().backward()
        assert np.allclose(x.grad, np.full((1, 1, 2, 2), 9.0))

    def test_scale_validation(self):
        with pytest.raises(ValueError):
            F.upsample2d(Tensor(np.zeros((1, 1, 2, 2))), 0)


class TestSoftmax:
    def test_rows_sum_to_one(self):
        x = Tensor(np.random.default_rng(0).standard_normal((4, 7)))
        out = F.log_softmax(x, axis=1)
        assert np.allclose(np.exp(out.data).sum(axis=1), 1.0)

    def test_shift_invariance(self):
        x = np.array([[1.0, 2.0, 3.0]])
        a = F.log_softmax(Tensor(x)).data
        b = F.log_softmax(Tensor(x + 1000.0)).data
        assert np.allclose(a, b)

    def test_log_softmax_matches_log_of_softmax(self):
        x = np.random.default_rng(1).standard_normal((3, 5))
        softmax = np.exp(x) / np.exp(x).sum(axis=-1, keepdims=True)
        assert np.allclose(F.log_softmax(Tensor(x)).data, np.log(softmax))
