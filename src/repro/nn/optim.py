"""First-order optimisers and learning-rate schedules.

The paper trains with stochastic gradient descent (Sec. III-B); Adam and
RMSProp are provided because the follow-up classifier and the DCSNet
baseline converge substantially faster with adaptive steps, and because a
complete framework needs them anyway.

:class:`Adam` updates ``param.data`` **in place** (and so does
:class:`~repro.nn.batched.FleetAdam`): an array obtained from
``param.data`` before a step sees the step.  Take snapshots with
:meth:`~repro.nn.layers.Module.state_dict` or ``param.data.copy()``.
The other optimisers rebind ``param.data`` to a new array.
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
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.lr = float(lr)

    def zero_grad(self) -> None:
        for param in self.params:
            param.zero_grad()

    def step(self) -> None:
        raise NotImplementedError


class SGD(Optimizer):
    """SGD with optional momentum, Nesterov acceleration and weight decay."""

    def __init__(self, params: Iterable[Tensor], lr: float = 0.01,
                 momentum: float = 0.0, nesterov: bool = False,
                 weight_decay: float = 0.0):
        super().__init__(params, lr)
        if momentum < 0:
            raise ValueError("momentum must be non-negative")
        if nesterov and momentum == 0:
            raise ValueError("nesterov momentum requires momentum > 0")
        self.momentum = momentum
        self.nesterov = nesterov
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        for param, velocity in zip(self.params, self._velocity):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            if self.momentum:
                velocity *= self.momentum
                velocity += grad
                update = grad + self.momentum * velocity if self.nesterov else velocity
            else:
                update = grad
            param.data = param.data - self.lr * update


#: Elements per block of the in-place Adam kernel.  One 16K-element
#: block of param, grad, m, v and the two scratch buffers (6 x 128 KiB
#: in float64) stays resident in L2 across the update's passes.
CHUNK = 1 << 14

#: Per-dtype pair of flat scratch buffers used by :func:`adam_update`.
AdamScratch = Dict[np.dtype, Tuple[np.ndarray, np.ndarray]]


def adam_scratch(params: Iterable[Tensor], rows: int = 1) -> AdamScratch:
    """Scratch for :func:`adam_update` over ``params``.

    Two flat buffers per parameter dtype, each as long as the largest
    block any of those parameters needs: ``min(CHUNK, size)`` elements
    for a plain parameter, ``rows`` rows of at most ``CHUNK // rows``
    columns (at least one) for a slice-stacked one.
    """
    sizes: Dict[np.dtype, int] = {}
    for param in params:
        block = rows * min(param.data.size // rows, max(1, CHUNK // rows))
        sizes[param.data.dtype] = max(sizes.get(param.data.dtype, 0), block)
    return {dtype: (np.empty(n, dtype), np.empty(n, dtype))
            for dtype, n in sizes.items()}


def adam_update(data: np.ndarray, grad: np.ndarray, m: np.ndarray,
                v: np.ndarray, scratch: AdamScratch, lr: float, beta1: float,
                beta2: float, eps: float, weight_decay: float, bias1, bias2,
                rows: int = 1) -> None:
    """One Adam step of a parameter's ``data``, ``m`` and ``v``, in place.

    Every element goes through the operations of the reference
    expression, in its order::

        g = grad + weight_decay * p            (only if weight_decay)
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
        if weight_decay:
            np.multiply(pc, weight_decay, out=s1)
            s1 += g
            g = s1
        mc *= beta1
        np.multiply(g, 1.0 - beta1, out=s2)
        mc += s2
        vc *= beta2
        np.multiply(g, 1.0 - beta2, out=s2)
        s2 *= g
        vc += s2
        np.divide(vc, bias2, out=s2)
        np.sqrt(s2, out=s2)
        s2 += eps
        np.divide(mc, bias1, out=s1)
        s1 *= lr
        s1 /= s2
        pc -= s1
    if p is not data:
        data[...] = p


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015) with bias correction.

    :meth:`step` runs :func:`adam_update`: ``param.data`` changes in
    place, and the working memory is one scratch of
    ``min(CHUNK, largest param)`` elements per dtype, allocated once here.
    """

    def __init__(self, params: Iterable[Tensor], lr: float = 1e-3,
                 betas=(0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0):
        super().__init__(params, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._m = [np.zeros(p.data.shape, p.data.dtype) for p in self.params]
        self._v = [np.zeros(p.data.shape, p.data.dtype) for p in self.params]
        self._t = 0
        self._scratch = adam_scratch(self.params)

    def step(self) -> None:
        self._t += 1
        bias1 = 1.0 - self.beta1 ** self._t
        bias2 = 1.0 - self.beta2 ** self._t
        for param, m, v in zip(self.params, self._m, self._v):
            if param.grad is None:
                continue
            adam_update(param.data, param.grad, m, v, self._scratch, self.lr,
                        self.beta1, self.beta2, self.eps, self.weight_decay,
                        bias1, bias2)


class RMSProp(Optimizer):
    """RMSProp with exponentially decayed squared-gradient average."""

    def __init__(self, params: Iterable[Tensor], lr: float = 1e-3,
                 alpha: float = 0.99, eps: float = 1e-8,
                 weight_decay: float = 0.0):
        super().__init__(params, lr)
        self.alpha = alpha
        self.eps = eps
        self.weight_decay = weight_decay
        self._sq = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        for param, sq in zip(self.params, self._sq):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            sq *= self.alpha
            sq += (1.0 - self.alpha) * grad * grad
            param.data = param.data - self.lr * grad / (np.sqrt(sq) + self.eps)


class AdaGrad(Optimizer):
    """AdaGrad: per-parameter learning rates from accumulated squares."""

    def __init__(self, params: Iterable[Tensor], lr: float = 0.01,
                 eps: float = 1e-10):
        super().__init__(params, lr)
        self.eps = eps
        self._acc = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        for param, acc in zip(self.params, self._acc):
            if param.grad is None:
                continue
            acc += param.grad * param.grad
            param.data = param.data - self.lr * param.grad / (np.sqrt(acc) + self.eps)


class LRScheduler:
    """Base learning-rate schedule; mutates ``optimizer.lr`` on :meth:`step`."""

    def __init__(self, optimizer: Optimizer):
        self.optimizer = optimizer
        self.base_lr = optimizer.lr
        self.epoch = 0

    def get_lr(self) -> float:
        raise NotImplementedError

    def step(self) -> float:
        self.epoch += 1
        self.optimizer.lr = self.get_lr()
        return self.optimizer.lr


class StepLR(LRScheduler):
    """Multiply the learning rate by ``gamma`` every ``step_size`` epochs."""

    def __init__(self, optimizer: Optimizer, step_size: int, gamma: float = 0.1):
        super().__init__(optimizer)
        if step_size <= 0:
            raise ValueError("step_size must be positive")
        self.step_size = step_size
        self.gamma = gamma

    def get_lr(self) -> float:
        return self.base_lr * self.gamma ** (self.epoch // self.step_size)


class ExponentialLR(LRScheduler):
    """Multiply the learning rate by ``gamma`` every epoch."""

    def __init__(self, optimizer: Optimizer, gamma: float = 0.95):
        super().__init__(optimizer)
        self.gamma = gamma

    def get_lr(self) -> float:
        return self.base_lr * self.gamma ** self.epoch


class CosineAnnealingLR(LRScheduler):
    """Cosine decay from the base rate to ``min_lr`` over ``t_max`` epochs."""

    def __init__(self, optimizer: Optimizer, t_max: int, min_lr: float = 0.0):
        super().__init__(optimizer)
        if t_max <= 0:
            raise ValueError("t_max must be positive")
        self.t_max = t_max
        self.min_lr = min_lr

    def get_lr(self) -> float:
        progress = min(self.epoch, self.t_max) / self.t_max
        return self.min_lr + 0.5 * (self.base_lr - self.min_lr) * (1 + math.cos(math.pi * progress))


def clip_grad_norm(params: Iterable[Tensor], max_norm: float) -> float:
    """Scale gradients in-place so their global L2 norm is <= ``max_norm``.

    Returns the pre-clipping norm.
    """
    params = [p for p in params if p.grad is not None]
    total = math.sqrt(sum(float((p.grad * p.grad).sum()) for p in params))
    if total > max_norm and total > 0:
        scale = max_norm / total
        for p in params:
            p.grad = p.grad * scale
    return total


_OPTIMIZERS = {
    "sgd": SGD,
    "adam": Adam,
    "rmsprop": RMSProp,
    "adagrad": AdaGrad,
}


def make_optimizer(name: str, params: Iterable[Tensor], **kwargs) -> Optimizer:
    """Instantiate an optimiser by name."""
    try:
        return _OPTIMIZERS[name](params, **kwargs)
    except KeyError:
        raise KeyError(f"unknown optimizer {name!r}; choose from {sorted(_OPTIMIZERS)}")
