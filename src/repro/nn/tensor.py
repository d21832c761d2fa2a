"""Reverse-mode automatic differentiation on top of numpy arrays.

This module is the foundation of :mod:`repro.nn`.  It provides a small
:class:`Tensor` type that records the operations applied to it and can
back-propagate gradients through arbitrary DAGs of those operations.

The design follows the classic "tape of closures" approach: every
operation returns a new :class:`Tensor` whose ``_backward`` closure knows
how to push an upstream gradient into the gradients of its parents.
Broadcasting is fully supported; gradients flowing into a broadcast
operand are reduced back to the operand's original shape.

Only float arrays participate in differentiation.  Integer arrays may be
used as indices (e.g. for embedding-style gathers or cross-entropy
targets) but never require gradients.

Example
-------
>>> import numpy as np
>>> from repro.nn.tensor import Tensor
>>> x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
>>> y = (x * x).sum()
>>> y.backward()
>>> x.grad
array([2., 4., 6.])
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

ArrayLike = Union[np.ndarray, float, int, Sequence]


def _as_array(value: ArrayLike) -> np.ndarray:
    arr = value if isinstance(value, np.ndarray) else np.asarray(value)
    if arr.dtype.kind in "fc":
        return arr
    if arr.dtype.kind in "iub":
        return arr.astype(np.float64)
    raise TypeError(f"cannot build a Tensor from dtype {arr.dtype!r}")


def _operand(value: ArrayLike, like: np.ndarray) -> "Tensor":
    """``value`` as the other operand of an arithmetic op on ``like``.

    A scalar takes ``like``'s dtype.  NumPy promotes a float32 array
    met by a float64 0-d array to float64, so wrapping ``0.5`` as it
    stands would widen every float32 graph that scales by a constant.
    """
    if isinstance(value, Tensor):
        return value
    arr = np.asarray(value)
    if arr.ndim == 0:
        arr = arr.astype(like.dtype, copy=False)
    return Tensor(arr)


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so that it matches ``shape``.

    When an operand of shape ``shape`` was broadcast up to ``grad.shape``
    during the forward pass, the chain rule requires summing the incoming
    gradient over every broadcast axis.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading axes that were added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were 1 in the original shape but expanded.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy array with reverse-mode autodiff support.

    Parameters
    ----------
    data:
        Array-like payload.  Floats are kept as-is, integer input is
        promoted to float64.
    requires_grad:
        If True, gradients are accumulated into :attr:`grad` during
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "_op")

    def __init__(self, data: ArrayLike, requires_grad: bool = False):
        self.data: np.ndarray = _as_array(data)
        self.requires_grad: bool = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple["Tensor", ...] = ()
        self._op: str = ""

    # ------------------------------------------------------------------
    # Basic protocol
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({self.data!r}{grad_flag})"

    def item(self) -> float:
        return float(self.data.item())

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Graph bookkeeping
    # ------------------------------------------------------------------
    def _make_child(self, data: np.ndarray, parents: Iterable["Tensor"],
                    op: str) -> "Tensor":
        parents = tuple(parents)
        child = Tensor(data)
        child.requires_grad = any(p.requires_grad for p in parents)
        if child.requires_grad:
            child._parents = parents
            child._op = op
        return child

    def _accumulate(self, grad: np.ndarray) -> None:
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = grad.copy() if grad.base is not None or grad.flags.writeable is False else grad
        else:
            self.grad = self.grad + grad

    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Back-propagate from this tensor through the recorded graph.

        Parameters
        ----------
        grad:
            Upstream gradient.  Defaults to 1 for scalar tensors; required
            for non-scalar roots.
        """
        if not self.requires_grad:
            raise RuntimeError("called backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar backward()")
            grad = np.ones_like(self.data)
        grad = _as_array(grad)
        if grad.shape != self.data.shape:
            grad = np.broadcast_to(grad, self.data.shape).astype(self.data.dtype)

        topo: List[Tensor] = []
        visited = set()

        def visit(node: Tensor) -> None:
            stack = [(node, iter(node._parents))]
            visited.add(id(node))
            while stack:
                current, parents_iter = stack[-1]
                advanced = False
                for parent in parents_iter:
                    if id(parent) not in visited and parent.requires_grad:
                        visited.add(id(parent))
                        stack.append((parent, iter(parent._parents)))
                        advanced = True
                        break
                if not advanced:
                    topo.append(current)
                    stack.pop()

        visit(self)

        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # ------------------------------------------------------------------
    # Elementwise arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        other = _operand(other, self.data)
        out = self._make_child(self.data + other.data, (self, other), "add")
        if out.requires_grad:
            a, b = self, other

            def backward(grad: np.ndarray) -> None:
                a._accumulate(_unbroadcast(grad, a.shape))
                b._accumulate(_unbroadcast(grad, b.shape))

            out._backward = backward
        return out

    def __neg__(self) -> "Tensor":
        out = self._make_child(-self.data, (self,), "neg")
        if out.requires_grad:
            a = self
            out._backward = lambda grad: a._accumulate(-grad)
        return out

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other = _operand(other, self.data)
        out = self._make_child(self.data - other.data, (self, other), "sub")
        if out.requires_grad:
            a, b = self, other

            def backward(grad: np.ndarray) -> None:
                a._accumulate(_unbroadcast(grad, a.shape))
                b._accumulate(_unbroadcast(-grad, b.shape))

            out._backward = backward
        return out

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = _operand(other, self.data)
        out = self._make_child(self.data * other.data, (self, other), "mul")
        if out.requires_grad:
            a, b = self, other

            def backward(grad: np.ndarray) -> None:
                a._accumulate(_unbroadcast(grad * b.data, a.shape))
                b._accumulate(_unbroadcast(grad * a.data, b.shape))

            out._backward = backward
        return out

    # ------------------------------------------------------------------
    # Unary math
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        value = np.exp(self.data)
        out = self._make_child(value, (self,), "exp")
        if out.requires_grad:
            a = self
            out._backward = lambda grad: a._accumulate(grad * value)
        return out

    def log(self) -> "Tensor":
        out = self._make_child(np.log(self.data), (self,), "log")
        if out.requires_grad:
            a = self
            out._backward = lambda grad: a._accumulate(grad / a.data)
        return out

    def abs(self) -> "Tensor":
        out = self._make_child(np.abs(self.data), (self,), "abs")
        if out.requires_grad:
            a = self
            out._backward = lambda grad: a._accumulate(grad * np.sign(a.data))
        return out

    def sigmoid(self) -> "Tensor":
        value = np.negative(self.data)
        np.exp(value, out=value)
        value += 1.0
        np.reciprocal(value, out=value)
        out = self._make_child(value, (self,), "sigmoid")
        if out.requires_grad:
            a = self
            out._backward = lambda grad: a._accumulate(grad * value * (1.0 - value))
        return out

    def relu(self) -> "Tensor":
        mask = self.data > 0
        out = self._make_child(np.where(mask, self.data, 0.0), (self,), "relu")
        if out.requires_grad:
            a = self
            out._backward = lambda grad: a._accumulate(grad * mask)
        return out

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        value = self.data.sum(axis=axis, keepdims=keepdims)
        out = self._make_child(np.asarray(value), (self,), "sum")
        if out.requires_grad:
            a = self
            in_shape = a.shape

            def backward(grad: np.ndarray) -> None:
                if axis is None:
                    a._accumulate(np.broadcast_to(grad, in_shape))
                    return
                g = grad
                if not keepdims:
                    axes = axis if isinstance(axis, tuple) else (axis,)
                    axes = tuple(ax % len(in_shape) for ax in axes)
                    for ax in sorted(axes):
                        g = np.expand_dims(g, ax)
                a._accumulate(np.broadcast_to(g, in_shape))

            out._backward = backward
        return out

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.data.shape[ax] for ax in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out = self._make_child(self.data.reshape(shape), (self,), "reshape")
        if out.requires_grad:
            a = self
            out._backward = lambda grad: a._accumulate(grad.reshape(a.shape))
        return out

    def flatten(self, start_axis: int = 1) -> "Tensor":
        """Flatten all axes from ``start_axis`` onward (batch-friendly)."""
        lead = self.shape[:start_axis]
        return self.reshape(lead + (-1,))

    def __getitem__(self, index) -> "Tensor":
        out = self._make_child(self.data[index], (self,), "getitem")
        if out.requires_grad:
            a = self

            def backward(grad: np.ndarray) -> None:
                full = np.zeros_like(a.data)
                np.add.at(full, index, grad)
                a._accumulate(full)

            out._backward = backward
        return out

    # ------------------------------------------------------------------
    # Linear algebra
    # ------------------------------------------------------------------
    def matmul(self, other: "Tensor") -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        out = self._make_child(self.data @ other.data, (self, other), "matmul")
        if out.requires_grad:
            a, b = self, other

            def backward(grad: np.ndarray) -> None:
                a_data, b_data = a.data, b.data
                # Promote 1-D operands to 2-D so a single rule covers every
                # case, then squeeze the promoted axes back out of the grads.
                a2 = a_data[None, :] if a_data.ndim == 1 else a_data
                b2 = b_data[:, None] if b_data.ndim == 1 else b_data
                if a_data.ndim == 1 and b_data.ndim == 1:
                    g2 = grad.reshape(1, 1)
                elif a_data.ndim == 1:
                    g2 = np.expand_dims(grad, -2)
                elif b_data.ndim == 1:
                    g2 = np.expand_dims(grad, -1)
                else:
                    g2 = grad
                if a.requires_grad:
                    ga = g2 @ np.swapaxes(b2, -1, -2)
                    if a_data.ndim == 1:
                        ga = ga.reshape(ga.shape[:-2] + (ga.shape[-1],))
                    a._accumulate(_unbroadcast(ga, a_data.shape))
                if b.requires_grad:
                    gb = np.swapaxes(a2, -1, -2) @ g2
                    if b_data.ndim == 1:
                        gb = gb.reshape(gb.shape[:-2] + (gb.shape[-2],))
                    b._accumulate(_unbroadcast(gb, b_data.shape))

            out._backward = backward
        return out


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Differentiable selection: ``condition ? a : b`` (condition is data)."""
    a = a if isinstance(a, Tensor) else Tensor(a)
    b = b if isinstance(b, Tensor) else Tensor(b)
    condition = np.asarray(condition)
    out = a._make_child(np.where(condition, a.data, b.data), (a, b), "where")
    if out.requires_grad:

        def backward(grad: np.ndarray) -> None:
            a._accumulate(_unbroadcast(grad * condition, a.shape))
            b._accumulate(_unbroadcast(grad * (~condition), b.shape))

        out._backward = backward
    return out
