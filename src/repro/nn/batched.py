"""Stacked ("fleet") primitives: K independent models as one tensor program.

The multi-cluster experiments run K per-cluster autoencoders that share
an architecture but not weights.  Executing them one after another costs
K full passes through the Python autograd layer per round; stacking their
parameters along a leading *slice* axis turns those K passes into single
block-diagonal tensor ops — ``(K, B, N) @ (K, N, M)`` — that numpy
dispatches as one batched GEMM.  Everything here preserves *exact*
per-slice semantics:

* :class:`BatchedDense` holds the weights of K :class:`~repro.nn.layers.Dense`
  layers as ``(K, in, out)`` / ``(K, 1, out)`` parameters; slice ``k`` of its
  output equals layer ``k`` applied to slice ``k`` of the input.
* :func:`stack_sequential` / :func:`unstack_sequential` convert between K
  per-cluster :class:`~repro.nn.layers.Sequential` models and one batched
  layer list (and back), so a fleet can be assembled from live trainers
  and its trained weights written back.
* :class:`FleetAdam` mirrors :class:`~repro.nn.optim.Adam` with
  **per-slice** step counters and masked updates, so a slice that skips
  a round keeps optimiser state identical to a standalone model that
  skipped that round.

The equivalence contract (relied on by ``repro.core.fleet`` and asserted
in the test suite): for identical seeds, per-slice trajectories match the
unstacked execution to within floating-point reduction noise (<= 1e-9 in
practice; the repo-wide tolerance budget is 1e-6).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .layers import Dense, Module, Parameter, ReLU, Sequential, Sigmoid
from .optim import BETA1, BETA2, Adam, Optimizer, adam_scratch, adam_update
from .tensor import Tensor

ActiveSlices = Optional[Union[Sequence[int], np.ndarray]]

# Elementwise activations act identically on (B, F) and (K, B, F) inputs,
# so a single shared instance serves every slice of a stack.
_STATELESS_ACTIVATIONS = (ReLU, Sigmoid)


class FleetIncompatibilityError(ValueError):
    """Raised when a set of modules/trainers cannot be stacked."""


def _batched_affine(x: Tensor, weight: Tensor,
                    bias: Optional[Tensor]) -> Tensor:
    """``x @ W + b`` as a single autograd node.

    Value- and gradient-identical to composing ``matmul`` and ``add``
    (the per-slice Dense semantics), but one tape node instead of two —
    the batched engine's hot path.
    """
    data = x.data @ weight.data
    if bias is not None:
        data += bias.data        # data is fresh; in-place add is safe
    parents = (x, weight) if bias is None else (x, weight, bias)
    out = x._make_child(data, parents, "batched_affine")
    if out.requires_grad:

        def backward(grad: np.ndarray) -> None:
            if x.requires_grad:
                x._accumulate(grad @ np.swapaxes(weight.data, -1, -2))
            if weight.requires_grad:
                weight._accumulate(np.swapaxes(x.data, -1, -2) @ grad)
            if bias is not None and bias.requires_grad:
                bias._accumulate(grad.sum(axis=-2, keepdims=True))

        out._backward = backward
    return out


def _as_index(active: ActiveSlices, num_slices: int) -> Optional[np.ndarray]:
    """Validated slice positions of ``active`` (None: every slice).

    ``active`` is a sequence of positions or a boolean mask over all
    ``num_slices`` slices.  Positions must be unique and in
    ``[0, num_slices)``: a repeated position would step its slice twice
    in one masked update (and :func:`_gather_rows` would keep only one
    of its gradients), and a negative one would wrap round to another
    slice.
    """
    if active is None:
        return None
    index = np.asarray(active)
    if index.dtype == bool:
        if index.shape != (num_slices,):
            raise ValueError(f"boolean slice mask must have shape "
                             f"({num_slices},), got {index.shape}")
        index = np.flatnonzero(index)
    if index.size == 0:
        raise ValueError("need at least one active slice")
    if index.ndim != 1 or index.dtype.kind not in "iu":
        raise ValueError(f"slice indices must be a 1-d integer sequence, "
                         f"got {index.tolist()}")
    index = index.astype(np.intp)
    ordered = np.sort(index)
    if ordered[0] < 0 or ordered[-1] >= num_slices:
        raise IndexError(f"slice indices {index.tolist()} out of range "
                         f"for {num_slices} slices")
    if np.count_nonzero(ordered[1:] == ordered[:-1]):
        raise ValueError(f"duplicate slice indices: {index.tolist()}")
    return index


def _gather_rows(stacked: Tensor, index: np.ndarray) -> Tensor:
    """Slices ``index`` of a slice-stacked tensor, as one autograd node.

    The backward scatters with ``full[index] += grad`` into zeros.  With
    unique indices (which :func:`_as_index` enforces) every row is
    written once, so the result has the bits ``np.add.at`` would give,
    signed zeros included (``0.0 + -0.0`` is ``0.0``), without its
    unbuffered loop.
    """
    out = stacked._make_child(stacked.data[index], (stacked,), "gather_rows")
    if out.requires_grad:

        def backward(grad: np.ndarray) -> None:
            full = np.zeros_like(stacked.data)
            full[index] += grad
            stacked._accumulate(full)

        out._backward = backward
    return out


class BatchedDense(Module):
    """K independent dense layers stacked into one ``(K, in, out)`` matmul.

    ``forward`` maps ``(K, B, in)`` to ``(K, B, out)``; slice ``k`` sees
    only weight slice ``k``.  With ``active`` (unique slice indices)
    the input is ``(A, B, in)`` and only those slices' weights are
    gathered — gradients scatter back into the full stacked parameter
    with zeros elsewhere, which pairs with the masked
    :meth:`FleetAdam.step`.
    """

    def __init__(self, num_slices: int, in_features: int, out_features: int,
                 bias: bool = True):
        super().__init__()
        self.num_slices = num_slices
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(np.zeros((num_slices, in_features, out_features)))
        self.bias = Parameter(np.zeros((num_slices, 1, out_features))) if bias \
            else None

    @classmethod
    def from_layers(cls, layers: Sequence[Dense]) -> "BatchedDense":
        """Stack K live :class:`Dense` layers (weights are copied)."""
        if not layers:
            raise FleetIncompatibilityError("cannot stack an empty layer list")
        first = layers[0]
        for layer in layers:
            if not isinstance(layer, Dense):
                raise FleetIncompatibilityError(
                    f"expected Dense, got {type(layer).__name__}")
            if (layer.in_features, layer.out_features) != \
                    (first.in_features, first.out_features):
                raise FleetIncompatibilityError(
                    "Dense shapes differ across slices: "
                    f"({layer.in_features}, {layer.out_features}) vs "
                    f"({first.in_features}, {first.out_features})")
            if (layer.bias is None) != (first.bias is None):
                raise FleetIncompatibilityError(
                    "bias presence differs across slices")
        batched = cls(len(layers), first.in_features, first.out_features,
                      bias=first.bias is not None)
        batched.weight.data = np.stack([layer.weight.data for layer in layers])
        if batched.bias is not None:
            batched.bias.data = np.stack(
                [layer.bias.data[None, :] for layer in layers])
        return batched

    def to_layers(self, layers: Sequence[Dense]) -> None:
        """Write slice weights back into K live :class:`Dense` layers."""
        if len(layers) != self.num_slices:
            raise ValueError(f"expected {self.num_slices} layers, "
                             f"got {len(layers)}")
        for k, layer in enumerate(layers):
            layer.weight.data = self.weight.data[k].copy()
            if layer.bias is not None:
                layer.bias.data = self.bias.data[k, 0].copy()

    def forward(self, x: Tensor, active: ActiveSlices = None) -> Tensor:
        index = _as_index(active, self.num_slices)
        weight: Tensor = self.weight
        bias: Optional[Tensor] = self.bias
        if index is not None:
            weight = _gather_rows(weight, index)
            bias = _gather_rows(bias, index) if bias is not None else None
        return _batched_affine(x, weight, bias)

    def __repr__(self) -> str:
        return (f"BatchedDense(slices={self.num_slices}, "
                f"{self.in_features}, {self.out_features})")


def _clone_activation(layers: Sequence[Module]) -> Module:
    """Return one activation instance standing in for K identical ones."""
    first = layers[0]
    for layer in layers:
        if type(layer) is not type(first):
            raise FleetIncompatibilityError(
                f"layer classes differ across slices: {type(layer).__name__} "
                f"vs {type(first).__name__}")
    return type(first)()


def stack_sequential(models: Sequence[Sequential]) -> List[Module]:
    """Stack K structurally identical :class:`Sequential` models.

    Returns a flat layer list (``BatchedDense`` for dense positions, one
    shared activation instance for elementwise positions) whose
    composition applied to ``(K, B, F)`` equals the K models applied
    slice-wise.  Raises :class:`FleetIncompatibilityError` for layer
    types with no slice-exact stacked form (convolution, pooling,
    reshaping, ...).
    """
    if not models:
        raise FleetIncompatibilityError("cannot stack an empty model list")
    lengths = {len(model) for model in models}
    if len(lengths) != 1:
        raise FleetIncompatibilityError(
            f"model depths differ across slices: {sorted(lengths)}")
    stacked: List[Module] = []
    for position in zip(*(model.layers for model in models)):
        if isinstance(position[0], Dense):
            stacked.append(BatchedDense.from_layers(position))
        elif isinstance(position[0], _STATELESS_ACTIVATIONS):
            stacked.append(_clone_activation(position))
        else:
            raise FleetIncompatibilityError(
                f"{type(position[0]).__name__} has no slice-exact stacked "
                "form (only Dense and elementwise activations stack)")
    return stacked


def unstack_sequential(stacked: Sequence[Module],
                       models: Sequence[Sequential]) -> None:
    """Write trained stacked weights back into the original K models."""
    for batched, position in zip(stacked, zip(*(m.layers for m in models))):
        if isinstance(batched, BatchedDense):
            batched.to_layers(position)


def run_stack(layers: Sequence[Module], x: Tensor,
              active: ActiveSlices = None) -> Tensor:
    """Apply a stacked layer list, threading the active-slice index."""
    for layer in layers:
        if isinstance(layer, BatchedDense):
            x = layer(x, active)
        else:
            x = layer(x)
    return x


# ----------------------------------------------------------------------
# Fleet Adam: per-slice state, masked steps
# ----------------------------------------------------------------------
class FleetAdam(Adam):
    """Slice-stacked :class:`~repro.nn.optim.Adam` over K models.

    Parameters, moments and the bias-correction step count are stacked
    along axis 0, one slice per model.  ``step(active)`` updates only
    the listed slices, leaving the others' parameters *and state*
    untouched — exactly what K standalone optimisers would do when only
    some of their models trained a round; the **per-slice** step counts
    keep slices stepped under different masks bit-identical to
    independently trained models.  Every step runs the sequential
    :func:`~repro.nn.optim.adam_update` kernel with one row and one
    bias-correction pair per slice: in place over the whole stack, or,
    under a mask, over gathered copies of the active rows (unique
    indices) that are written back.
    """

    def __init__(self, params, lr: float = 1e-3, num_slices: int = 1):
        super().__init__(params, lr)
        if num_slices <= 0:
            raise ValueError("num_slices must be positive")
        for param in self.params:
            if param.shape[0] != num_slices:
                raise ValueError(
                    f"parameter leading dim {param.shape[0]} != "
                    f"num_slices {num_slices}")
        self.num_slices = num_slices
        # Adam's scalar step count and single-row scratch give way to one
        # count per slice and blocks that span every slice's row.
        self._t = np.zeros(num_slices, dtype=np.int64)
        self._scratch = adam_scratch(self.params, rows=num_slices)

    def step(self, active: ActiveSlices = None) -> None:
        index = _as_index(active, self.num_slices)
        if index is None:
            self._t += 1
            t = self._t
        else:
            self._t[index] += 1
            t = self._t[index]
        bias1 = (1.0 - BETA1 ** t)[:, None]
        bias2 = (1.0 - BETA2 ** t)[:, None]
        hyper = (self._scratch, self.lr, bias1, bias2)
        for param, m, v in zip(self.params, self._m, self._v):
            if param.grad is None:
                continue
            if index is None:
                adam_update(param.data, param.grad, m, v, *hyper,
                            rows=self.num_slices)
                continue
            data, m_rows, v_rows = param.data[index], m[index], v[index]
            adam_update(data, param.grad[index], m_rows, v_rows, *hyper,
                        rows=index.size)
            param.data[index] = data
            m[index] = m_rows
            v[index] = v_rows


def fleet_settings(optimizer: Adam) -> Tuple[Tuple[str, float], ...]:
    """The Adam settings that K optimisers must share to step as one fleet.

    ``(name, value)`` pairs; the learning rate is the one setting Adam
    has.  Stacking optimisers that differ in it would silently retrain
    some slices with another slice's rate, so
    :func:`check_fleet_optimizers` compares them and
    :func:`repro.core.fleet.stacking_key` groups trainers by them.
    """
    return (("lr", optimizer.lr),)


def check_fleet_optimizers(optimizers: Sequence[Optimizer]) -> None:
    """Validate that K optimisers can step as one :class:`FleetAdam`."""
    if not optimizers:
        raise FleetIncompatibilityError("no optimisers to stack")
    for opt in optimizers:
        if type(opt) is not Adam:
            raise FleetIncompatibilityError(
                f"no fleet equivalent for optimiser {type(opt).__name__}")
    first = fleet_settings(optimizers[0])
    for opt in optimizers[1:]:
        for (name, value), (_, other) in zip(first, fleet_settings(opt)):
            if other != value:
                raise FleetIncompatibilityError(
                    f"Adam setting {name!r} differs across slices: "
                    f"{value!r} vs {other!r}")


def fleet_optimizer_from(optimizers: Sequence[Adam], params) -> FleetAdam:
    """Build a :class:`FleetAdam` mirroring K Adam optimisers, state included.

    ``optimizers[k]`` must share the :func:`fleet_settings`; ``params``
    are the slice-stacked parameters in the same per-model order as each
    optimiser's param list.  The moments and step counts are copied in,
    so a fleet assembled mid-training continues exactly where the
    standalone models left off.
    """
    check_fleet_optimizers(optimizers)
    first = optimizers[0]
    fleet = FleetAdam(params, lr=first.lr, num_slices=len(optimizers))
    for k, opt in enumerate(optimizers):
        for stacked_m, stacked_v, m, v in zip(fleet._m, fleet._v,
                                              opt._m, opt._v):
            stacked_m[k] = m
            stacked_v[k] = v
    fleet._t[:] = [opt._t for opt in optimizers]
    return fleet


def fleet_optimizer_to(fleet: FleetAdam, optimizers: Sequence[Adam]) -> None:
    """Write fleet optimiser state back into K Adam optimisers."""
    for k, opt in enumerate(optimizers):
        for stacked_m, stacked_v, m, v in zip(fleet._m, fleet._v,
                                              opt._m, opt._v):
            m[...] = stacked_m[k]
            v[...] = stacked_v[k]
        opt._t = int(fleet._t[k])
