"""Reverse-mode automatic differentiation on top of NumPy arrays.

This module is the compute substrate for the whole reproduction: the paper's
reference implementation uses PyTorch, which is not available in this
environment, so every differentiable operation needed by the collaborative
backbones and the alignment losses is implemented here.

The design follows the familiar "define-by-run" tape style: every operation on
:class:`Tensor` records a closure that knows how to push gradients back to its
parents, and :meth:`Tensor.backward` walks the tape in reverse topological
order.  Only the operations actually required by the library are implemented,
but each supports full NumPy broadcasting where that is meaningful.

Besides the eager closure, every operation also records *which* primitive
produced it (``_op``) together with the static part of its arguments
(``_ctx``).  The eager path never looks at this metadata; it exists so that
:mod:`repro.nn.compile` can lift one recorded graph into a flat program and
replay it with preallocated buffers instead of re-tracing Python closures on
every training step (HIPS/autograd-style primitive/VJP separation).
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = ["Tensor", "as_tensor", "no_grad", "is_grad_enabled", "is_tracing", "TraceError"]


_GRAD_ENABLED = True
_TRACING = False


class TraceError(RuntimeError):
    """Raised when a graph cannot be lifted into a compiled program.

    Typical causes: an operation without a recorded primitive, or a construct
    whose behaviour is impure across steps (e.g. an active Dropout mask).
    :mod:`repro.nn.compile` treats this as a signal to fall back to eager
    re-tracing rather than replaying a silently wrong program.
    """


class no_grad:
    """Disable gradient tape recording, as a context manager or decorator.

    Used by evaluation code paths (full-ranking scoring, clustering of frozen
    representations) where building the tape would only waste memory.  Both
    spellings are supported::

        with no_grad():
            scores = model.score_all()

        @no_grad()
        def score_everything(model):
            ...
    """

    def __enter__(self) -> "no_grad":
        global _GRAD_ENABLED
        self._previous = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._previous

    def __call__(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with no_grad():
                return fn(*args, **kwargs)

        return wrapper


def is_grad_enabled() -> bool:
    """Return ``True`` when operations should be recorded on the tape."""
    return _GRAD_ENABLED


def is_tracing() -> bool:
    """Return ``True`` while :mod:`repro.nn.compile` is recording a program.

    While tracing, parent links are kept even on tensors that do not require
    gradients so the tracer can see the complete dataflow (index tensors,
    stop-gradient constants); eager numerics are unaffected.
    """
    return _TRACING


def _set_tracing(flag: bool) -> bool:
    """Flip the tracing flag; returns the previous value (compile.py only)."""
    global _TRACING
    previous = _TRACING
    _TRACING = bool(flag)
    return previous


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so that it matches ``shape`` after a broadcast op.

    NumPy broadcasting either prepends new axes or stretches axes of size one;
    the adjoint of broadcasting is therefore a sum over exactly those axes.
    """
    if grad.shape == shape:
        return grad
    # Sum over the prepended axes first.
    extra_dims = grad.ndim - len(shape)
    if extra_dims > 0:
        grad = grad.sum(axis=tuple(range(extra_dims)))
    # Then sum over axes that were stretched from size one.
    stretched = tuple(i for i, size in enumerate(shape) if size == 1 and grad.shape[i] != 1)
    if stretched:
        grad = grad.sum(axis=stretched, keepdims=True)
    return grad.reshape(shape)


def as_tensor(value, requires_grad: bool = False) -> "Tensor":
    """Coerce ``value`` into a :class:`Tensor` (no copy if already one)."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value, requires_grad=requires_grad)


class Tensor:
    """A NumPy array with an attached gradient tape node.

    Parameters
    ----------
    data:
        Anything accepted by :func:`numpy.asarray`.  Stored as ``float64``
        unless it already is a floating dtype.
    requires_grad:
        Whether gradients should be accumulated into :attr:`grad` when
        :meth:`backward` is called on a downstream scalar.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name", "_op", "_ctx")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        _parents: Sequence["Tensor"] = (),
        name: str | None = None,
    ) -> None:
        array = np.asarray(data)
        if not np.issubdtype(array.dtype, np.floating):
            array = array.astype(np.float64)
        self.data: np.ndarray = array
        self.grad: np.ndarray | None = None
        self.requires_grad: bool = bool(requires_grad) and _GRAD_ENABLED
        self._backward: Callable[[], None] | None = None
        self._parents: tuple[Tensor, ...] = tuple(_parents)
        self.name = name
        self._op: str | None = None
        self._ctx: tuple = ()

    # ------------------------------------------------------------------ #
    # Basic introspection
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (shared, not copied)."""
        return self.data

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError("item() requires a tensor with exactly one element")
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        """Return a view of the same data cut off from the tape."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=self.requires_grad)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------ #
    # Tape machinery
    # ------------------------------------------------------------------ #
    def _accumulate_grad(self, grad: np.ndarray) -> None:
        grad = _unbroadcast(np.asarray(grad, dtype=self.data.dtype), self.data.shape)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad = self.grad + grad

    def _toposort(self) -> list["Tensor"]:
        """Reverse-topological node order rooted at ``self`` (parents first)."""
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        return topo

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Back-propagate from this tensor.

        ``grad`` defaults to ``1.0`` and is only optional for scalars, matching
        the PyTorch convention.
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without a gradient requires a scalar tensor")
            grad = np.ones_like(self.data)
        topo = self._toposort()
        self._accumulate_grad(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward()

    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[["Tensor"], None] | None,
        op: str | None = None,
        ctx: tuple = (),
    ) -> "Tensor":
        requires = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        keep_parents = requires or _TRACING
        out = Tensor(data, requires_grad=requires, _parents=parents if keep_parents else ())
        if requires and backward is not None:
            out._backward = lambda: backward(out)
        out._op = op
        out._ctx = ctx
        return out

    # ------------------------------------------------------------------ #
    # Arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other) -> "Tensor":
        other = as_tensor(other)

        def backward(out: Tensor) -> None:
            if self.requires_grad:
                self._accumulate_grad(out.grad)
            if other.requires_grad:
                other._accumulate_grad(out.grad)

        return Tensor._make(self.data + other.data, (self, other), backward, op="add")

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(out: Tensor) -> None:
            if self.requires_grad:
                self._accumulate_grad(-out.grad)

        return Tensor._make(-self.data, (self,), backward, op="neg")

    def __sub__(self, other) -> "Tensor":
        other = as_tensor(other)

        def backward(out: Tensor) -> None:
            if self.requires_grad:
                self._accumulate_grad(out.grad)
            if other.requires_grad:
                other._accumulate_grad(-out.grad)

        return Tensor._make(self.data - other.data, (self, other), backward, op="sub")

    def __rsub__(self, other) -> "Tensor":
        return as_tensor(other).__sub__(self)

    def __mul__(self, other) -> "Tensor":
        other = as_tensor(other)

        def backward(out: Tensor) -> None:
            if self.requires_grad:
                self._accumulate_grad(out.grad * other.data)
            if other.requires_grad:
                other._accumulate_grad(out.grad * self.data)

        return Tensor._make(self.data * other.data, (self, other), backward, op="mul")

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = as_tensor(other)

        def backward(out: Tensor) -> None:
            if self.requires_grad:
                self._accumulate_grad(out.grad / other.data)
            if other.requires_grad:
                other._accumulate_grad(-out.grad * self.data / (other.data**2))

        return Tensor._make(self.data / other.data, (self, other), backward, op="div")

    def __rtruediv__(self, other) -> "Tensor":
        return as_tensor(other).__truediv__(self)

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")

        def backward(out: Tensor) -> None:
            if self.requires_grad:
                self._accumulate_grad(out.grad * exponent * self.data ** (exponent - 1))

        return Tensor._make(self.data**exponent, (self,), backward, op="pow", ctx=(exponent,))

    def __matmul__(self, other) -> "Tensor":
        other = as_tensor(other)

        def backward(out: Tensor) -> None:
            grad = out.grad
            if self.requires_grad:
                if other.data.ndim == 1:
                    self._accumulate_grad(np.outer(grad, other.data) if grad.ndim else grad * other.data)
                else:
                    self._accumulate_grad(grad @ other.data.T)
            if other.requires_grad:
                if self.data.ndim == 1:
                    other._accumulate_grad(np.outer(self.data, grad) if grad.ndim else self.data * grad)
                else:
                    other._accumulate_grad(self.data.T @ grad)

        return Tensor._make(self.data @ other.data, (self, other), backward, op="matmul")

    # ------------------------------------------------------------------ #
    # Reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        def backward(out: Tensor) -> None:
            if not self.requires_grad:
                return
            grad = out.grad
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis=axis)
            self._accumulate_grad(np.broadcast_to(grad, self.data.shape))

        return Tensor._make(
            self.data.sum(axis=axis, keepdims=keepdims), (self,), backward, op="sum", ctx=(axis, keepdims)
        )

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = int(np.prod([self.data.shape[a] for a in axes]))

        def backward(out: Tensor) -> None:
            if not self.requires_grad:
                return
            grad = out.grad
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis=axis)
            self._accumulate_grad(np.broadcast_to(grad, self.data.shape) / count)

        return Tensor._make(
            self.data.mean(axis=axis, keepdims=keepdims),
            (self,),
            backward,
            op="mean",
            ctx=(axis, keepdims, count),
        )

    def amax(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Max-reduction treated as a *constant* on the tape (no gradient).

        The adjoint of ``max`` is intentionally not implemented: the only use
        in this library is the numerically-stabilising shift of softmax-style
        expressions, where the shift is treated as a constant.  Unlike wrapping
        ``self.data.max(...)`` in a fresh :class:`Tensor`, this keeps the
        dataflow visible to the compile tracer so replays recompute the shift
        from the current input instead of baking a stale constant.
        """
        out = Tensor(
            self.data.max(axis=axis, keepdims=keepdims),
            requires_grad=False,
            _parents=(self,) if _TRACING else (),
        )
        out._op = "amax"
        out._ctx = (axis, keepdims)
        return out

    # ------------------------------------------------------------------ #
    # Elementwise non-linearities
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        value = np.exp(self.data)

        def backward(out: Tensor) -> None:
            if self.requires_grad:
                self._accumulate_grad(out.grad * value)

        return Tensor._make(value, (self,), backward, op="exp")

    def log(self, eps: float = 1e-12) -> "Tensor":
        def backward(out: Tensor) -> None:
            if self.requires_grad:
                self._accumulate_grad(out.grad / (self.data + eps))

        return Tensor._make(np.log(self.data + eps), (self,), backward, op="log", ctx=(eps,))

    def sqrt(self) -> "Tensor":
        return self ** 0.5

    def relu(self) -> "Tensor":
        mask = self.data > 0

        def backward(out: Tensor) -> None:
            if self.requires_grad:
                self._accumulate_grad(out.grad * mask)

        return Tensor._make(self.data * mask, (self,), backward, op="relu")

    def leaky_relu(self, negative_slope: float = 0.01) -> "Tensor":
        slope = np.where(self.data > 0, 1.0, negative_slope)

        def backward(out: Tensor) -> None:
            if self.requires_grad:
                self._accumulate_grad(out.grad * slope)

        return Tensor._make(
            self.data * slope, (self,), backward, op="leaky_relu", ctx=(negative_slope,)
        )

    def softplus(self) -> "Tensor":
        value = np.logaddexp(0.0, self.data)
        grad_factor = 1.0 / (1.0 + np.exp(-np.clip(self.data, -60.0, 60.0)))

        def backward(out: Tensor) -> None:
            if self.requires_grad:
                self._accumulate_grad(out.grad * grad_factor)

        return Tensor._make(value, (self,), backward, op="softplus")

    def sigmoid(self) -> "Tensor":
        value = 1.0 / (1.0 + np.exp(-np.clip(self.data, -60.0, 60.0)))

        def backward(out: Tensor) -> None:
            if self.requires_grad:
                self._accumulate_grad(out.grad * value * (1.0 - value))

        return Tensor._make(value, (self,), backward, op="sigmoid")

    def tanh(self) -> "Tensor":
        value = np.tanh(self.data)

        def backward(out: Tensor) -> None:
            if self.requires_grad:
                self._accumulate_grad(out.grad * (1.0 - value**2))

        return Tensor._make(value, (self,), backward, op="tanh")

    def abs(self) -> "Tensor":
        sign = np.sign(self.data)

        def backward(out: Tensor) -> None:
            if self.requires_grad:
                self._accumulate_grad(out.grad * sign)

        return Tensor._make(np.abs(self.data), (self,), backward, op="abs")

    def clip(self, low: float, high: float) -> "Tensor":
        mask = (self.data >= low) & (self.data <= high)

        def backward(out: Tensor) -> None:
            if self.requires_grad:
                self._accumulate_grad(out.grad * mask)

        return Tensor._make(np.clip(self.data, low, high), (self,), backward, op="clip", ctx=(low, high))

    # ------------------------------------------------------------------ #
    # Shape manipulation
    # ------------------------------------------------------------------ #
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.data.shape

        def backward(out: Tensor) -> None:
            if self.requires_grad:
                self._accumulate_grad(out.grad.reshape(original))

        return Tensor._make(
            self.data.reshape(shape), (self,), backward, op="reshape", ctx=(tuple(shape), original)
        )

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def transpose(self, axes: Sequence[int] | None = None) -> "Tensor":
        if axes is None:
            axes = tuple(reversed(range(self.data.ndim)))
        axes = tuple(axes)
        inverse = np.argsort(axes)

        def backward(out: Tensor) -> None:
            if self.requires_grad:
                self._accumulate_grad(out.grad.transpose(inverse))

        return Tensor._make(
            self.data.transpose(axes), (self,), backward, op="transpose", ctx=(axes, tuple(inverse))
        )

    def take_rows(self, indices) -> "Tensor":
        """Gather rows (first-axis indexing); adjoint scatters with ``np.add.at``.

        ``indices`` may be a plain integer array (baked into the op as a
        constant) or a :class:`Tensor` — the latter marks the gather as
        *dynamic* so the compile tracer re-reads the index array on every
        replay (this is how per-batch user/item ids flow through a compiled
        step).  Gradients never propagate into the index operand.
        """
        if isinstance(indices, Tensor):
            idx = np.asarray(indices.data, dtype=np.int64)
            parents: tuple[Tensor, ...] = (self, indices)
            ctx: tuple = ("dynamic",)
        else:
            idx = np.asarray(indices, dtype=np.int64)
            parents = (self,)
            ctx = ("static", idx)

        def backward(out: Tensor) -> None:
            if self.requires_grad:
                grad = np.zeros_like(self.data)
                np.add.at(grad, idx, out.grad)
                self._accumulate_grad(grad)

        return Tensor._make(self.data[idx], parents, backward, op="take_rows", ctx=ctx)

    def __getitem__(self, key) -> "Tensor":
        # Fancy integer-array indexing may contain duplicate rows, which the
        # simple ``grad[key] = out.grad`` scatter would silently overwrite, so
        # it is routed through :meth:`take_rows` (which uses ``np.add.at``).
        if isinstance(key, (np.ndarray, list, Tensor)):
            return self.take_rows(key)

        def backward(out: Tensor) -> None:
            if self.requires_grad:
                grad = np.zeros_like(self.data)
                grad[key] = out.grad
                self._accumulate_grad(grad)

        return Tensor._make(self.data[key], (self,), backward, op="getitem", ctx=(key,))

    @staticmethod
    def concat(tensors: Iterable["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [as_tensor(t) for t in tensors]
        sizes = [t.data.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)

        def backward(out: Tensor) -> None:
            for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
                if tensor.requires_grad:
                    slicer = [slice(None)] * out.grad.ndim
                    slicer[axis] = slice(start, stop)
                    tensor._accumulate_grad(out.grad[tuple(slicer)])

        return Tensor._make(
            np.concatenate([t.data for t in tensors], axis=axis),
            tensors,
            backward,
            op="concat",
            ctx=(axis, tuple(int(o) for o in offsets)),
        )

    @staticmethod
    def host(fn: Callable[..., Sequence[np.ndarray]], *parents) -> tuple["Tensor", ...]:
        """Run NumPy code on the parents' values as one non-differentiable op.

        ``fn(*arrays)`` receives each parent's ``.data`` and returns a sequence
        of float arrays; each comes back as a constant tensor, and no gradient
        flows through the op.  Under :mod:`repro.nn.compile` a replay calls
        ``fn`` again on the parents' current forward values, so ``fn`` must be
        pure: anything random reaches it through a parent (a seed array among
        the step inputs, say).  The outputs are views of one packed buffer; a
        replay whose outputs change shape raises :class:`TraceError`.
        """
        parents = tuple(as_tensor(p) for p in parents)
        outputs = [np.asarray(out, dtype=np.float64) for out in fn(*(p.data for p in parents))]
        shapes = tuple(out.shape for out in outputs)
        packed = Tensor(
            np.concatenate([out.ravel() for out in outputs]), _parents=parents if _TRACING else ()
        )
        packed._op = "host"
        packed._ctx = (fn, shapes)
        views = []
        start = 0
        for shape in shapes:
            stop = start + math.prod(shape)
            views.append(packed[start:stop].reshape(shape))
            start = stop
        return tuple(views)

    @staticmethod
    def stack(tensors: Iterable["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [as_tensor(t) for t in tensors]

        def backward(out: Tensor) -> None:
            grads = np.moveaxis(out.grad, axis, 0)
            for tensor, grad in zip(tensors, grads):
                if tensor.requires_grad:
                    tensor._accumulate_grad(grad)

        return Tensor._make(
            np.stack([t.data for t in tensors], axis=axis), tensors, backward, op="stack", ctx=(axis,)
        )
