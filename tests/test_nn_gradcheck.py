"""One table of every differentiable op in ``repro.nn``, checked two ways.

Each entry draws its inputs from a seeded generator and maps them to an
output tensor.  Every input requires a gradient, and the backward pass
starts from a fixed random upstream gradient, so each output element
carries its own weight.  Inputs keep clear of the points where an op
has no derivative (zero for ``abs``/``relu``, a residual of
``HUBER_DELTA`` for Huber, tied maxima for pooling).

* ``test_gradient_matches_central_differences``: in float64, every
  input's gradient equals the central-difference derivative of the
  weighted output sum.
* ``test_float32_tracks_float64``: fed float32 inputs, the op keeps
  float32 in its value and in every gradient, and both agree with the
  float64 run to float32 precision.  The image figures train in float32
  (``experiments.common.IMAGE_DTYPE``), so a single op that widened to
  float64 would silently change their arithmetic.
"""

from typing import Callable, List, NamedTuple

import numpy as np
import pytest

from repro.nn import HuberLoss, MSELoss, Tensor, where
from repro.nn import functional as F
from repro.nn.batched import _batched_affine, _gather_rows
from repro.nn.losses import HUBER_DELTA, CrossEntropyLoss


class Op(NamedTuple):
    name: str
    inputs: Callable[[np.random.Generator], List[np.ndarray]]
    apply: Callable[..., Tensor]


def normal(*shape):
    return lambda rng: [rng.standard_normal(shape)]


def away_from_zero(rng, shape, low=0.1):
    """Values of magnitude in ``[low, 1)`` with random signs."""
    return rng.choice([-1.0, 1.0], size=shape) * rng.uniform(low, 1.0, shape)


def huber_pair(rng):
    """A prediction and a target whose residuals avoid the Huber kink."""
    prediction = rng.standard_normal((3, 4))
    size = rng.choice([0.5, 2.0], size=(3, 4)) * HUBER_DELTA
    residual = away_from_zero(rng, (3, 4), low=0.2) * size
    return [prediction, prediction - residual]


def huber_stack(rng):
    prediction, target = huber_pair(rng)
    extra, extra_target = huber_pair(rng)
    return [np.stack([prediction, extra]), np.stack([target, extra_target])]


def distinct(*shape):
    """A shuffled ramp: no two entries tie, whatever the dtype."""
    return lambda rng: [rng.permutation(np.prod(shape)).reshape(shape) / 8.0]


OPS = [
    Op("add-broadcast", lambda rng: [rng.standard_normal((3, 4)),
                                     rng.standard_normal(4)],
       lambda a, b: a + b),
    Op("sub", lambda rng: [rng.standard_normal((3, 4)),
                           rng.standard_normal((3, 4))],
       lambda a, b: a - b),
    Op("mul-broadcast", lambda rng: [rng.standard_normal((3, 4)),
                                     rng.standard_normal((3, 1))],
       lambda a, b: a * b),
    Op("neg", normal(3, 4), lambda a: -a),
    Op("exp", normal(3, 4), lambda a: a.exp()),
    Op("log", lambda rng: [rng.uniform(0.5, 2.0, (3, 4))], lambda a: a.log()),
    Op("abs", lambda rng: [away_from_zero(rng, (3, 4))], lambda a: a.abs()),
    Op("sigmoid", normal(3, 4), lambda a: a.sigmoid()),
    Op("relu", lambda rng: [away_from_zero(rng, (3, 4))], lambda a: a.relu()),
    Op("sum-axis-keepdims", normal(3, 4),
       lambda a: a.sum(axis=1, keepdims=True)),
    Op("sum-negative-axis", normal(2, 3, 4), lambda a: a.sum(axis=-2)),
    Op("mean-axis", normal(3, 4), lambda a: a.mean(axis=0)),
    Op("reshape", normal(3, 4), lambda a: a.reshape(2, 6)),
    Op("flatten", normal(2, 3, 2), lambda a: a.flatten()),
    Op("getitem-slice", normal(4, 5), lambda a: a[1:, ::2]),
    Op("getitem-repeated-rows", normal(4, 3), lambda a: a[[0, 2, 2]]),
    Op("matmul", lambda rng: [rng.standard_normal((3, 4)),
                              rng.standard_normal((4, 2))],
       lambda a, b: a.matmul(b)),
    Op("matmul-batched", lambda rng: [rng.standard_normal((2, 3, 4)),
                                      rng.standard_normal((4, 2))],
       lambda a, b: a.matmul(b)),
    Op("matmul-vector", lambda rng: [rng.standard_normal(4),
                                     rng.standard_normal((4, 2))],
       lambda a, b: a.matmul(b)),
    Op("where-broadcast", lambda rng: [rng.standard_normal((3, 4)),
                                       rng.standard_normal(4)],
       lambda a, b: where(np.arange(12).reshape(3, 4) % 3 == 0, a, b)),
    Op("conv2d", lambda rng: [rng.standard_normal((2, 2, 5, 6)),
                              rng.standard_normal((3, 2, 2, 3)) * 0.4,
                              rng.standard_normal(3)],
       lambda x, w, b: F.conv2d(x, w, b, padding=(1, 0))),
    Op("conv-transpose2d", lambda rng: [rng.standard_normal((1, 2, 3, 3)),
                                        rng.standard_normal((2, 3, 2, 2)) * 0.4,
                                        rng.standard_normal(3)],
       lambda x, w, b: F.conv_transpose2d(x, w, b, stride=(2, 1),
                                          padding=(1, 0))),
    Op("max-pool2d", distinct(1, 2, 4, 6), lambda x: F.max_pool2d(x, 2)),
    Op("upsample2d", normal(1, 2, 2, 3), lambda x: F.upsample2d(x, 2)),
    Op("log-softmax", normal(3, 5), lambda x: F.log_softmax(x, axis=1)),
    Op("mse", lambda rng: [rng.standard_normal((3, 4)),
                           rng.standard_normal((3, 4))],
       lambda p, t: MSELoss()(p, t)),
    Op("huber", huber_pair, lambda p, t: HuberLoss()(p, t)),
    Op("cross-entropy", normal(4, 5),
       lambda logits: CrossEntropyLoss()(logits, np.array([0, 4, 2, 2]))),
    Op("mse-per-cluster", lambda rng: [rng.standard_normal((2, 3, 4)),
                                       rng.standard_normal((2, 3, 4))],
       lambda p, t: MSELoss().per_cluster(p, t)),
    Op("huber-per-cluster", huber_stack,
       lambda p, t: HuberLoss().per_cluster(p, t)),
    Op("batched-affine", lambda rng: [rng.standard_normal((2, 3, 4)),
                                      rng.standard_normal((2, 4, 5)),
                                      rng.standard_normal((2, 1, 5))],
       _batched_affine),
    Op("gather-rows", normal(4, 2, 3),
       lambda stacked: _gather_rows(stacked, np.array([3, 0, 2]))),
]


def run(op: Op, arrays: List[np.ndarray], upstream_seed: int = 7):
    """The op's output and each input's gradient under a random upstream."""
    tensors = [Tensor(array, requires_grad=True) for array in arrays]
    out = op.apply(*tensors)
    upstream = np.random.default_rng(upstream_seed).standard_normal(out.shape)
    out.backward(upstream.astype(out.dtype))
    return out, [tensor.grad for tensor in tensors], upstream


def central_difference(op: Op, arrays: List[np.ndarray], upstream: np.ndarray,
                       which: int, eps: float = 1e-6) -> np.ndarray:
    def objective():
        out = op.apply(*[Tensor(array) for array in arrays])
        return float((out.data * upstream).sum())

    array = arrays[which]
    grad = np.zeros_like(array)
    for idx in np.ndindex(array.shape):
        saved = array[idx]
        array[idx] = saved + eps
        up = objective()
        array[idx] = saved - eps
        down = objective()
        array[idx] = saved
        grad[idx] = (up - down) / (2 * eps)
    return grad


@pytest.mark.parametrize("op", OPS, ids=[op.name for op in OPS])
def test_gradient_matches_central_differences(op):
    arrays = op.inputs(np.random.default_rng(0))
    _, grads, upstream = run(op, [a.copy() for a in arrays])
    for which, grad in enumerate(grads):
        assert grad is not None and grad.shape == arrays[which].shape
        expected = central_difference(op, arrays, upstream, which)
        np.testing.assert_allclose(grad, expected, rtol=1e-5, atol=1e-7)


@pytest.mark.parametrize("op", OPS, ids=[op.name for op in OPS])
def test_float32_tracks_float64(op):
    arrays = op.inputs(np.random.default_rng(1))
    out64, grads64, _ = run(op, arrays)
    out32, grads32, _ = run(op, [a.astype(np.float32) for a in arrays])
    assert out32.dtype == np.float32
    np.testing.assert_allclose(out32.data, out64.data, rtol=1e-5, atol=1e-5)
    for grad32, grad64 in zip(grads32, grads64):
        assert grad32.dtype == np.float32
        np.testing.assert_allclose(grad32, grad64, rtol=1e-4, atol=1e-5)
