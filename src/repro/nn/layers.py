"""Neural-network layers built on the autograd :class:`Tensor`.

The :class:`Module` base class gives automatic parameter registration
(assigning a :class:`Parameter` or a sub-:class:`Module` to an attribute
registers it), recursive ``parameters()`` traversal and a one-time
parameter cast (``astype``) — a
deliberately small subset of the familiar PyTorch API, enough for every
model in the OrcoDCS paper.  Layers draw their initial weights in
float64; a float32 model is that model rounded.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import functional as F
from . import init as initializers
from .tensor import Tensor


class Parameter(Tensor):
    """A Tensor that is registered as a trainable module parameter."""

    def __init__(self, data):
        super().__init__(data, requires_grad=True)


class Module:
    """Base class for all layers and models.

    Subclasses implement :meth:`forward`.  Assigning a
    :class:`Parameter` or :class:`Module` instance to an attribute
    registers it for :meth:`parameters` and :meth:`named_parameters`.
    """

    def __init__(self):
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def parameters(self) -> List[Parameter]:
        """Return all trainable parameters of this module, recursively."""
        return [param for _, param in self.named_parameters()]

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """Yield ``(dotted_name, parameter)`` pairs recursively."""
        for name, param in self._parameters.items():
            yield prefix + name, param
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix + name + ".")

    # ------------------------------------------------------------------
    # Dtype
    # ------------------------------------------------------------------
    def astype(self, dtype) -> "Module":
        """Cast every parameter to ``dtype``; returns ``self``.

        A model's dtype is that of its parameters.  Cast before building
        an optimiser: :class:`~repro.nn.optim.Adam` keeps its moments in
        the parameters' dtype.
        """
        for param in self.parameters():
            param.data = param.data.astype(dtype, copy=False)
        return self

    # ------------------------------------------------------------------
    # Call protocol
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs) -> Tensor:
        raise NotImplementedError

    def __call__(self, *args, **kwargs) -> Tensor:
        return self.forward(*args, **kwargs)

    def __repr__(self) -> str:
        children = ", ".join(f"{k}={v.__class__.__name__}" for k, v in self._modules.items())
        return f"{self.__class__.__name__}({children})"


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *layers: Module):
        super().__init__()
        self.layers = list(layers)
        for index, layer in enumerate(layers):
            self._modules[str(index)] = layer

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, index: int) -> Module:
        return self.layers[index]

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x


class Dense(Module):
    """Fully connected layer: ``y = x @ W + b``.

    Parameters
    ----------
    in_features, out_features:
        Input/output widths.
    bias:
        Whether to learn an additive bias.
    weight_init:
        Name of an initialiser in :mod:`repro.nn.init`.
    rng:
        Generator used to draw the initial weights.
    """

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 weight_init: str = "xavier_uniform",
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        scheme = initializers.get_initializer(weight_init)
        self.weight = Parameter(scheme((in_features, out_features), rng))
        self.bias = Parameter(np.zeros(out_features)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x.matmul(self.weight)
        if self.bias is not None:
            out = out + self.bias
        return out

    def __repr__(self) -> str:
        return f"Dense({self.in_features}, {self.out_features})"


class Conv2D(Module):
    """2-D stride-1 convolution layer over NCHW inputs."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: F.IntPair,
                 padding: F.IntPair = 0, bias: bool = True,
                 weight_init: str = "he_uniform",
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = F._pair(kernel_size)
        self.padding = F._pair(padding)
        scheme = initializers.get_initializer(weight_init)
        shape = (out_channels, in_channels) + self.kernel_size
        self.weight = Parameter(scheme(shape, rng))
        self.bias = Parameter(np.zeros(out_channels)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.conv2d(x, self.weight, self.bias, self.padding)

    def __repr__(self) -> str:
        return (f"Conv2D({self.in_channels}, {self.out_channels}, "
                f"kernel={self.kernel_size}, padding={self.padding})")


class MaxPool2D(Module):
    """Max pooling layer."""

    def __init__(self, kernel_size: F.IntPair, stride: F.IntPair = None):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride

    def forward(self, x: Tensor) -> Tensor:
        return F.max_pool2d(x, self.kernel_size, self.stride)


class Upsample2D(Module):
    """Nearest-neighbour spatial upsampling."""

    def __init__(self, scale: int = 2):
        super().__init__()
        self.scale = scale

    def forward(self, x: Tensor) -> Tensor:
        return F.upsample2d(x, self.scale)


class Flatten(Module):
    """Flatten all axes after the batch axis."""

    def forward(self, x: Tensor) -> Tensor:
        return x.flatten(start_axis=1)


class Reshape(Module):
    """Reshape the non-batch axes to ``shape``."""

    def __init__(self, shape: Sequence[int]):
        super().__init__()
        self.shape = tuple(shape)

    def forward(self, x: Tensor) -> Tensor:
        return x.reshape((x.shape[0],) + self.shape)


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class Sigmoid(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.sigmoid()
