"""Adam, the one optimiser every model in this repository trains with.

OrcoDCS, the DCSNet baseline, the downstream classifier and every
stacked fleet (:class:`~repro.nn.batched.FleetAdam`) use Adam with bias
correction; :class:`Optimizer` is the base they share.

:class:`Adam` updates ``param.data`` **in place** (and so does
:class:`~repro.nn.batched.FleetAdam`): an array obtained from
``param.data`` before a step sees the step.  Take snapshots with
``param.data.copy()``.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Tuple

import numpy as np

from .tensor import Tensor


class Optimizer:
    """Base optimiser over a flat list of parameters."""

    def __init__(self, params: Iterable[Tensor], lr: float):
        self.params: List[Tensor] = list(params)
        if not self.params:
            raise ValueError("optimizer received no parameters")
        if not 0.0 < lr < math.inf:
            raise ValueError(f"learning rate must be finite and positive, "
                             f"got {lr}")
        self.lr = float(lr)

    def zero_grad(self) -> None:
        for param in self.params:
            param.zero_grad()

    def step(self) -> None:
        raise NotImplementedError


#: Adam's moment decay rates and the denominator's epsilon: the settings
#: of Kingma & Ba (2015), which every model here trains with.
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

#: Bytes per array in one block of the in-place Adam kernel: 64K
#: float32 or 32K float64 elements.  Sized in bytes, not elements, so a
#: float32 model walks blocks as large as a float64 one.
BLOCK_BYTES = 256 * 1024

#: Per-dtype pair of flat scratch buffers used by :func:`adam_update`.
AdamScratch = Dict[np.dtype, Tuple[np.ndarray, np.ndarray]]


def adam_scratch(params: Iterable[Tensor], rows: int = 1) -> AdamScratch:
    """Scratch for :func:`adam_update` over ``params``.

    Two flat buffers per parameter dtype, each as long as the largest
    block any of those parameters needs: ``min(chunk, size)`` elements
    for a plain parameter, ``rows`` rows of at most ``chunk // rows``
    columns (at least one) for a slice-stacked one, where ``chunk`` is
    :data:`BLOCK_BYTES` over the dtype's item size.
    """
    sizes: Dict[np.dtype, int] = {}
    for param in params:
        chunk = BLOCK_BYTES // param.data.itemsize
        block = rows * min(param.data.size // rows, max(1, chunk // rows))
        sizes[param.data.dtype] = max(sizes.get(param.data.dtype, 0), block)
    return {dtype: (np.empty(n, dtype), np.empty(n, dtype))
            for dtype, n in sizes.items()}


def adam_update(data: np.ndarray, grad: np.ndarray, m: np.ndarray,
                v: np.ndarray, scratch: AdamScratch, lr: float, bias1, bias2,
                rows: int = 1) -> None:
    """One Adam step of a parameter's ``data``, ``m`` and ``v``, in place.

    Every element goes through the operations of the reference
    expression, in its order (``g`` is ``grad``; the betas and eps are
    :data:`BETA1`, :data:`BETA2` and :data:`EPS`)::

        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + ((1 - beta2) * g) * g
        p = p - (lr * (m / bias1)) / (sqrt(v / bias2) + eps)

    so blocking changes no bit of the result.  The arrays are viewed as
    ``rows`` rows (one per fleet slice; ``bias1``/``bias2`` are then
    ``(rows, 1)`` arrays, otherwise scalars) and walked in column blocks
    that fit the scratch from :func:`adam_scratch`.  ``m`` and ``v``
    must be C-contiguous; ``grad`` is only read.  A ``data`` array that
    is not C-contiguous is updated through a contiguous copy that is
    written back.
    """
    p = data if data.flags.c_contiguous else np.ascontiguousarray(data)
    whole = (p.reshape(rows, -1),
             np.ascontiguousarray(grad).reshape(rows, -1),
             m.reshape(rows, -1), v.reshape(rows, -1))
    buf1, buf2 = scratch[p.dtype]
    cols, width = whole[0].shape[1], buf1.size // rows
    # A parameter that fits one block skips the slicing, whose per-call
    # cost is comparable to the update of a small fleet parameter.
    blocks = ([whole] if cols <= width else
              [[a[:, j:j + width] for a in whole]
               for j in range(0, cols, width)])
    for pc, g, mc, vc in blocks:
        s1 = buf1[:pc.size].reshape(pc.shape)
        s2 = buf2[:pc.size].reshape(pc.shape)
        mc *= BETA1
        np.multiply(g, 1.0 - BETA1, out=s2)
        mc += s2
        vc *= BETA2
        np.multiply(g, 1.0 - BETA2, out=s2)
        s2 *= g
        vc += s2
        np.divide(vc, bias2, out=s2)
        np.sqrt(s2, out=s2)
        s2 += EPS
        np.divide(mc, bias1, out=s1)
        s1 *= lr
        s1 /= s2
        pc -= s1
    if p is not data:
        data[...] = p


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015) with bias correction.

    The betas and eps are Kingma & Ba's defaults (:data:`BETA1`,
    :data:`BETA2`, :data:`EPS`), with no weight decay; the learning
    rate is the one setting, and one that is not finite and positive
    raises ``ValueError``.  :meth:`step` runs :func:`adam_update`:
    ``param.data`` changes in place, and the working memory is one
    scratch of ``min(BLOCK_BYTES // itemsize, largest param)`` elements
    per dtype, allocated once here.
    """

    def __init__(self, params: Iterable[Tensor], lr: float = 1e-3):
        super().__init__(params, lr)
        self._m = [np.zeros(p.data.shape, p.data.dtype) for p in self.params]
        self._v = [np.zeros(p.data.shape, p.data.dtype) for p in self.params]
        self._t = 0
        self._scratch = adam_scratch(self.params)

    def step(self) -> None:
        self._t += 1
        bias1 = 1.0 - BETA1 ** self._t
        bias2 = 1.0 - BETA2 ** self._t
        for param, m, v in zip(self.params, self._m, self._v):
            if param.grad is None:
                continue
            adam_update(param.data, param.grad, m, v, self._scratch, self.lr,
                        bias1, bias2)
