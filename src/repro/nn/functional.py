"""Array-level neural-network primitives and their autograd wrappers.

The pure-numpy helpers (:func:`im2col_array`, :func:`col2im_array`) do the
data movement that pooling and the transposed convolution need;
:func:`conv2d`, stride 1 only, copies its columns as whole padded rows
instead (:func:`_padded_rows`) and needs no fold.  The public functions
(:func:`conv2d`, :func:`max_pool2d`, :func:`upsample2d`) operate on
:class:`~repro.nn.tensor.Tensor` objects and register backward closures,
so they compose with the rest of the autograd graph.

All spatial operators use the NCHW layout: ``(batch, channels, height,
width)``.
"""

from __future__ import annotations

from typing import Tuple, Union

import numpy as np

from .tensor import Tensor

IntPair = Union[int, Tuple[int, int]]


def _pair(value: IntPair) -> Tuple[int, int]:
    if isinstance(value, tuple):
        return value
    return (int(value), int(value))


def conv_output_shape(height: int, width: int, kernel: IntPair,
                      stride: IntPair = 1, padding: IntPair = 0) -> Tuple[int, int]:
    """Return the spatial output shape of a convolution / pooling op."""
    kh, kw = _pair(kernel)
    sh, sw = _pair(stride)
    ph, pw = _pair(padding)
    out_h = (height + 2 * ph - kh) // sh + 1
    out_w = (width + 2 * pw - kw) // sw + 1
    if out_h <= 0 or out_w <= 0:
        raise ValueError(
            f"kernel {kernel} with stride {stride}, padding {padding} does not fit "
            f"input of size {(height, width)}")
    return out_h, out_w


def im2col_array(x: np.ndarray, kernel: IntPair, stride: IntPair = 1,
                 padding: IntPair = 0) -> np.ndarray:
    """Unfold sliding windows of ``x`` into columns.

    Parameters
    ----------
    x:
        Input of shape ``(B, C, H, W)``.

    Returns
    -------
    np.ndarray
        Array of shape ``(B, C * kh * kw, out_h * out_w)`` where each
        column holds one receptive field.
    """
    batch, channels, height, width = x.shape
    kh, kw = _pair(kernel)
    sh, sw = _pair(stride)
    ph, pw = _pair(padding)
    out_h, out_w = conv_output_shape(height, width, (kh, kw), (sh, sw), (ph, pw))
    if ph or pw:
        x = np.pad(x, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    cols = np.empty((batch, channels, kh, kw, out_h, out_w), dtype=x.dtype)
    for i in range(kh):
        i_end = i + sh * out_h
        for j in range(kw):
            j_end = j + sw * out_w
            cols[:, :, i, j] = x[:, :, i:i_end:sh, j:j_end:sw]
    return cols.reshape(batch, channels * kh * kw, out_h * out_w)


def col2im_array(cols: np.ndarray, x_shape: Tuple[int, int, int, int],
                 kernel: IntPair, stride: IntPair = 1,
                 padding: IntPair = 0) -> np.ndarray:
    """Fold columns back onto the input grid, accumulating overlaps.

    This is the exact adjoint of :func:`im2col_array`, which makes it the
    gradient of im2col and the forward of a transposed convolution.
    """
    batch, channels, height, width = x_shape
    kh, kw = _pair(kernel)
    sh, sw = _pair(stride)
    ph, pw = _pair(padding)
    out_h, out_w = conv_output_shape(height, width, (kh, kw), (sh, sw), (ph, pw))
    cols = cols.reshape(batch, channels, kh, kw, out_h, out_w)
    padded = np.zeros((batch, channels, height + 2 * ph, width + 2 * pw),
                      dtype=cols.dtype)
    for i in range(kh):
        i_end = i + sh * out_h
        for j in range(kw):
            j_end = j + sw * out_w
            padded[:, :, i:i_end:sh, j:j_end:sw] += cols[:, :, i, j]
    if ph or pw:
        return padded[:, :, ph:ph + height, pw:pw + width]
    return padded


def _padded_rows(x: np.ndarray, kh: int, kw: int, ph: int,
                 pw: int) -> Tuple[np.ndarray, int, int, int]:
    """Columns of a stride-1 convolution, one row of the padded width each.

    ``x`` is zero-padded once into a flat ``(B, C, Hp * Wp + kw - 1)``
    buffer, so tap ``(i, j)``'s column block is the contiguous run of
    ``out_h * Wp`` values starting at ``i * Wp + j``.  Returns
    ``(cols, out_h, out_w, Wp)`` with ``cols`` of shape
    ``(B, C * kh * kw, out_h * Wp)``: column ``r * Wp + q`` holds the
    receptive field of output ``(r, q)`` for ``q < out_w``, and the
    ``Wp - out_w`` trailing columns of each row read across the row end
    (zeros of the padding and of the tail, or neighbouring inputs), so
    they are finite wherever ``x`` is.
    """
    batch, channels, height, width = x.shape
    hp, wp = height + 2 * ph, width + 2 * pw
    out_h, out_w = conv_output_shape(height, width, (kh, kw), 1, (ph, pw))
    flat = np.zeros((batch, channels, hp * wp + kw - 1), dtype=x.dtype)
    grid = flat[:, :, :hp * wp].reshape(batch, channels, hp, wp)
    grid[:, :, ph:ph + height, pw:pw + width] = x
    length = out_h * wp
    cols = np.empty((batch, channels, kh * kw, length), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            start = i * wp + j
            cols[:, :, i * kw + j] = flat[:, :, start:start + length]
    return cols.reshape(batch, -1, length), out_h, out_w, wp


def conv2d(x: Tensor, weight: Tensor, bias: Tensor = None,
           padding: IntPair = 0) -> Tensor:
    """2-D cross-correlation (the deep-learning "convolution"), stride 1.

    Parameters
    ----------
    x:
        Input tensor ``(B, C_in, H, W)``.
    weight:
        Filter tensor ``(C_out, C_in, kh, kw)``.
    bias:
        Optional bias ``(C_out,)``.
    padding:
        Zeros added on each side, per axis; smaller than the kernel
        (``ValueError`` otherwise), so that the input gradient is the
        same convolution of the output gradient padded by
        ``kernel - 1 - padding``.

    Returns
    -------
    Tensor
        Output ``(B, C_out, out_h, out_w)``.

    The columns come from :func:`_padded_rows`, and one GEMM per sample
    gives output rows of the padded width whose trailing columns are
    dropped.  The weight gradient multiplies the same columns by the
    output gradient with zeros in those columns; the input gradient is
    the flipped, transposed kernel run over the padded output gradient.
    """
    batch, _, height, width = x.shape
    out_channels, in_channels, kh, kw = weight.shape
    if x.shape[1] != in_channels:
        raise ValueError(f"input has {x.shape[1]} channels, weight expects {in_channels}")
    ph, pw = _pair(padding)
    if not (0 <= ph < kh and 0 <= pw < kw):
        raise ValueError(f"padding {(ph, pw)} must be non-negative and smaller "
                         f"than the kernel {(kh, kw)}")

    cols, out_h, out_w, wp = _padded_rows(x.data, kh, kw, ph, pw)  # (B, CKK, out_h*Wp)
    w2 = weight.data.reshape(out_channels, -1)                       # (OC, CKK)
    wide = np.matmul(w2, cols).reshape(batch, out_channels, out_h, wp)
    if bias is None:
        out_data = np.ascontiguousarray(wide[..., :out_w])
    else:
        out_data = wide[..., :out_w] + bias.data.reshape(1, -1, 1, 1)

    parents = (x, weight) if bias is None else (x, weight, bias)
    out = x._make_child(out_data, parents, "conv2d")
    if out.requires_grad:

        def backward(grad: np.ndarray) -> None:
            if weight.requires_grad:
                g_wide = np.zeros((batch, out_channels, out_h, wp), dtype=grad.dtype)
                g_wide[..., :out_w] = grad
                gw = np.matmul(g_wide.reshape(batch, out_channels, -1),
                               cols.transpose(0, 2, 1)).sum(axis=0)
                weight._accumulate(gw.reshape(weight.shape))
            if bias is not None and bias.requires_grad:
                bias._accumulate(grad.sum(axis=(0, 2, 3)))
            if x.requires_grad:
                flipped = w2.reshape(weight.shape)[:, :, ::-1, ::-1]
                flipped = flipped.transpose(1, 0, 2, 3).reshape(in_channels, -1)
                gcols, _, _, gwp = _padded_rows(grad, kh, kw, kh - 1 - ph,
                                                kw - 1 - pw)
                gx = np.matmul(flipped, gcols).reshape(batch, in_channels,
                                                       height, gwp)
                x._accumulate(gx[..., :width])

        out._backward = backward
    return out


def conv_transpose2d(x: Tensor, weight: Tensor, bias: Tensor = None,
                     stride: IntPair = 1, padding: IntPair = 0) -> Tensor:
    """2-D transposed convolution (a.k.a. deconvolution).

    Parameters
    ----------
    x:
        Input tensor ``(B, C_in, H, W)``.
    weight:
        Filter tensor ``(C_in, C_out, kh, kw)`` — note the PyTorch-style
        transposed layout.

    Returns
    -------
    Tensor
        Output ``(B, C_out, (H-1)*sh - 2*ph + kh, (W-1)*sw - 2*pw + kw)``.
    """
    batch, in_channels, height, width = x.shape
    if weight.shape[0] != in_channels:
        raise ValueError(f"input has {in_channels} channels, weight expects {weight.shape[0]}")
    _, out_channels, kh, kw = weight.shape
    sh, sw = _pair(stride)
    ph, pw = _pair(padding)
    out_h = (height - 1) * sh - 2 * ph + kh
    out_w = (width - 1) * sw - 2 * pw + kw
    if out_h <= 0 or out_w <= 0:
        raise ValueError("transposed convolution produces an empty output")

    # Forward of conv-transpose == backward-input of a conv with the same
    # geometry, so reuse col2im: scatter W^T x into the (larger) output.
    w2 = weight.data.reshape(in_channels, -1)                        # (IC, OC*KK)
    x2 = x.data.reshape(batch, in_channels, -1)                      # (B, IC, L)
    cols = np.matmul(w2.T, x2)                                       # (B, OC*KK, L)
    out_data = col2im_array(cols, (batch, out_channels, out_h, out_w),
                            (kh, kw), (sh, sw), (ph, pw))
    if bias is not None:
        out_data = out_data + bias.data.reshape(1, -1, 1, 1)

    parents = (x, weight) if bias is None else (x, weight, bias)
    out = x._make_child(out_data, parents, "conv_transpose2d")
    if out.requires_grad:

        def backward(grad: np.ndarray) -> None:
            gcols = im2col_array(grad, (kh, kw), (sh, sw), (ph, pw))  # (B, OC*KK, L)
            if x.requires_grad:
                gx = np.matmul(w2, gcols)                             # (B, IC, L)
                x._accumulate(gx.reshape(x.shape))
            if weight.requires_grad:
                gw = np.matmul(x2, gcols.transpose(0, 2, 1)).sum(axis=0)
                weight._accumulate(gw.reshape(weight.shape))
            if bias is not None and bias.requires_grad:
                bias._accumulate(grad.sum(axis=(0, 2, 3)))

        out._backward = backward
    return out


def max_pool2d(x: Tensor, kernel: IntPair, stride: IntPair = None) -> Tensor:
    """Max pooling over non-overlapping (or strided) windows."""
    stride = stride if stride is not None else kernel
    batch, channels, height, width = x.shape
    kh, kw = _pair(kernel)
    out_h, out_w = conv_output_shape(height, width, (kh, kw), stride, 0)

    flat = x.data.reshape(batch * channels, 1, height, width)
    cols = im2col_array(flat, (kh, kw), stride, 0)                   # (BC, KK, L)
    arg = cols.argmax(axis=1)                                        # (BC, L)
    gathered = np.take_along_axis(cols, arg[:, None, :], axis=1)[:, 0, :]
    out_data = gathered.reshape(batch, channels, out_h, out_w)

    out = x._make_child(out_data, (x,), "max_pool2d")
    if out.requires_grad:

        def backward(grad: np.ndarray) -> None:
            gflat = grad.reshape(batch * channels, 1, -1)
            gcols = np.zeros_like(cols)
            np.put_along_axis(gcols, arg[:, None, :], gflat, axis=1)
            gx = col2im_array(gcols, flat.shape, (kh, kw), stride, 0)
            x._accumulate(gx.reshape(x.shape))

        out._backward = backward
    return out


def upsample2d(x: Tensor, scale: int = 2) -> Tensor:
    """Nearest-neighbour upsampling of the last two axes by ``scale``."""
    if scale < 1:
        raise ValueError("scale must be >= 1")
    out_data = x.data.repeat(scale, axis=-2).repeat(scale, axis=-1)
    out = x._make_child(out_data, (x,), "upsample2d")
    if out.requires_grad:
        batch, channels, height, width = x.shape

        def backward(grad: np.ndarray) -> None:
            g = grad.reshape(batch, channels, height, scale, width, scale)
            x._accumulate(g.sum(axis=(3, 5)))

        out._backward = backward
    return out


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    shift = Tensor(x.data.max(axis=axis, keepdims=True))
    shifted = x - shift
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()
