"""`repro.nn` — a from-scratch autograd + neural-network framework.

Built because the reproduction environment has no deep-learning package;
the OrcoDCS models (one-dense-layer encoder, shallow decoders, a 2-conv
classifier) train comfortably on numpy.  It holds what those models use:
dense, convolutional, pooling and activation layers, the losses, and
Adam — the one optimiser, with :class:`FleetAdam` as its slice-stacked
form for batched fleets.

Public surface::

    from repro import nn
    model = nn.Sequential(nn.Dense(784, 128), nn.Sigmoid())
    loss = nn.HuberLoss()
    opt = nn.Adam(model.parameters(), lr=1e-3)
"""

from . import functional
from .batched import (
    BatchedDense,
    FleetAdam,
    FleetIncompatibilityError,
    fleet_optimizer_from,
    fleet_optimizer_to,
    run_stack,
    stack_sequential,
    unstack_sequential,
)
from .data import ArrayDataset, DataLoader
from .init import get_initializer
from .layers import (
    Conv2D,
    Dense,
    Flatten,
    MaxPool2D,
    Module,
    Parameter,
    ReLU,
    Reshape,
    Sequential,
    Sigmoid,
    Upsample2D,
)
from .losses import CrossEntropyLoss, HuberLoss, Loss, MSELoss, accuracy
from .optim import Adam, Optimizer
from .tensor import Tensor, where

__all__ = [
    "BatchedDense", "FleetAdam", "FleetIncompatibilityError",
    "fleet_optimizer_from", "fleet_optimizer_to", "run_stack",
    "stack_sequential", "unstack_sequential",
    "ArrayDataset", "DataLoader",
    "get_initializer",
    "Conv2D", "Dense", "Flatten", "MaxPool2D", "Module", "Parameter", "ReLU",
    "Reshape", "Sequential", "Sigmoid", "Upsample2D",
    "CrossEntropyLoss", "HuberLoss", "Loss", "MSELoss", "accuracy",
    "Adam", "Optimizer",
    "Tensor", "where",
    "functional",
]
