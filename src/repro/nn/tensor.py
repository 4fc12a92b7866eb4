"""Reverse-mode automatic differentiation on top of NumPy arrays.

This module is the compute substrate for the whole reproduction: the paper's
reference implementation uses PyTorch, which is not available in this
environment, so every differentiable operation needed by the collaborative
backbones and the alignment losses is implemented here.

The design follows the familiar "define-by-run" tape style: every operation on
:class:`Tensor` records which primitive produced it (``_op``), the static part
of its arguments (``_ctx``) and its parents, and :meth:`Tensor.backward` walks
the tape in reverse topological order.  Only the operations actually required
by the library are implemented, but each supports full NumPy broadcasting
where that is meaningful.

The arithmetic itself lives in :mod:`repro.nn.primitives`: one table holds
each primitive's forward kernel and VJP.  A :class:`Tensor` method handles its
arguments and calls the forward kernel; ``backward`` calls the VJP of each
node for every parent that requires a gradient.  :mod:`repro.nn.compile`
lifts the same recorded graph into a flat program that replays those same
kernels with preallocated buffers instead of re-tracing every training step.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Iterable, Sequence

import numpy as np

from .primitives import PRIMITIVES, TraceError, _unbroadcast, cast_unbroadcast, pack_host_outputs

__all__ = ["Tensor", "as_tensor", "no_grad", "is_grad_enabled", "is_tracing", "TraceError"]


_GRAD_ENABLED = True
_TRACING = False


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


def as_tensor(value, requires_grad: bool = False) -> "Tensor":
    """Coerce ``value`` into a :class:`Tensor` (no copy if already one)."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value, requires_grad=requires_grad)


def _leaf(array) -> "Tensor":
    """A constant leaf holding ``np.asarray(array)`` *without* the float64 coercion.

    Index arrays stay integer, so gathers and host functions see the same
    dtype eagerly as in a compiled replay.
    """
    leaf = Tensor(0.0)
    leaf.data = np.asarray(array)
    return leaf


def _row_indices(indices, num_rows: int) -> np.ndarray:
    """Integer row ids of a static gather index (boolean masks → their nonzeros)."""
    idx = np.asarray(indices)
    if idx.dtype == np.bool_:
        if idx.shape != (num_rows,):
            raise IndexError(f"boolean mask of shape {idx.shape} does not match {num_rows} rows")
        return np.flatnonzero(idx)
    if idx.size and not np.issubdtype(idx.dtype, np.integer):
        raise TypeError(f"row indices must be integers or a boolean mask, got {idx.dtype}")
    return idx.astype(np.int64, copy=False)


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

    __slots__ = ("data", "grad", "requires_grad", "_parents", "name", "_op", "_ctx")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        _parents: Sequence["Tensor"] = (),
        name: str | None = None,
    ) -> None:
        array = np.asarray(data)
        if array.dtype.kind != "f":  # np.issubdtype(dtype, np.floating), without its cost
            array = array.astype(np.float64)
        self.data: np.ndarray = array
        self.grad: np.ndarray | None = None
        self.requires_grad: bool = bool(requires_grad) and _GRAD_ENABLED
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
        grad = cast_unbroadcast(grad, self.data.shape, self.data.dtype)
        if self.grad is None:
            self.grad = np.empty(self.data.shape, self.data.dtype)
            np.copyto(self.grad, grad)  # broadcasts a reduction's gradient
        else:
            self.grad = self.grad + grad

    def _propagate(self) -> None:
        """Push :attr:`grad` to the parents through this node's primitive VJP."""
        vjp = PRIMITIVES[self._op].vjp
        values = [parent.data for parent in self._parents]
        for i, parent in enumerate(self._parents):
            if parent.requires_grad:
                grad = vjp(i, self.grad, self.data, self._ctx, None, *values)
                if grad is not None:
                    parent._accumulate_grad(grad)

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
        # The seed must match this tensor's shape up to a broadcast; a smaller
        # one raises here instead of being broadcast as a kept-dims share.
        self._accumulate_grad(_unbroadcast(np.asarray(grad, dtype=self.data.dtype), self.data.shape))
        for node in reversed(topo):
            if node.requires_grad and node._op is not None and node.grad is not None:
                node._propagate()

    @staticmethod
    def _make(data, parents: Sequence["Tensor"], op: str, ctx: tuple = ()) -> "Tensor":
        """Record ``data``, computed by primitive ``op`` from ``parents``, on the tape."""
        requires = (
            _GRAD_ENABLED and PRIMITIVES[op].vjp is not None and any(p.requires_grad for p in parents)
        )
        out = Tensor(data, requires_grad=requires, _parents=parents if requires or _TRACING else ())
        out._op = op
        out._ctx = ctx
        return out

    @staticmethod
    def _apply(op: str, *parents: "Tensor", ctx: tuple = ()) -> "Tensor":
        """Run primitive ``op``'s forward kernel on ``parents`` and record the result."""
        data = PRIMITIVES[op].forward(ctx, None, None, *[p.data for p in parents])
        return Tensor._make(data, parents, op, ctx)

    # ------------------------------------------------------------------ #
    # Arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other) -> "Tensor":
        return Tensor._apply("add", self, as_tensor(other))

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        return Tensor._apply("neg", self)

    def __sub__(self, other) -> "Tensor":
        return Tensor._apply("sub", self, as_tensor(other))

    def __rsub__(self, other) -> "Tensor":
        return as_tensor(other).__sub__(self)

    def __mul__(self, other) -> "Tensor":
        return Tensor._apply("mul", self, as_tensor(other))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        return Tensor._apply("div", self, as_tensor(other))

    def __rtruediv__(self, other) -> "Tensor":
        return as_tensor(other).__truediv__(self)

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        return Tensor._apply("pow", self, ctx=(exponent,))

    def __matmul__(self, other) -> "Tensor":
        return Tensor._apply("matmul", self, as_tensor(other))

    # ------------------------------------------------------------------ #
    # Reductions
    # ------------------------------------------------------------------ #
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return Tensor._apply("sum", self, ctx=(axis, keepdims))

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return Tensor._apply("mean", self, ctx=(axis, keepdims, count))

    def amax(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Max-reduction treated as a *constant* on the tape (no gradient).

        The adjoint of ``max`` is intentionally not implemented: the only use
        in this library is the numerically-stabilising shift of softmax-style
        expressions, where the shift is treated as a constant.  Unlike wrapping
        ``self.data.max(...)`` in a fresh :class:`Tensor`, this keeps the
        dataflow visible to the compile tracer so replays recompute the shift
        from the current input instead of baking a stale constant.
        """
        return Tensor._apply("amax", self, ctx=(axis, keepdims))

    # ------------------------------------------------------------------ #
    # Elementwise non-linearities
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        return Tensor._apply("exp", self)

    def log(self, eps: float = 1e-12) -> "Tensor":
        return Tensor._apply("log", self, ctx=(eps,))

    def sqrt(self) -> "Tensor":
        return self ** 0.5

    def relu(self) -> "Tensor":
        return Tensor._apply("relu", self)

    def leaky_relu(self, negative_slope: float = 0.01) -> "Tensor":
        return Tensor._apply("leaky_relu", self, ctx=(negative_slope,))

    def softplus(self) -> "Tensor":
        return Tensor._apply("softplus", self)

    def sigmoid(self) -> "Tensor":
        return Tensor._apply("sigmoid", self)

    def tanh(self) -> "Tensor":
        return Tensor._apply("tanh", self)

    def abs(self) -> "Tensor":
        return Tensor._apply("abs", self)

    def clip(self, low: float, high: float) -> "Tensor":
        return Tensor._apply("clip", self, ctx=(low, high))

    # ------------------------------------------------------------------ #
    # Shape manipulation
    # ------------------------------------------------------------------ #
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return Tensor._apply("reshape", self, ctx=(tuple(shape), self.data.shape))

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def transpose(self, axes: Sequence[int] | None = None) -> "Tensor":
        if axes is None:
            axes = tuple(reversed(range(self.data.ndim)))
        axes = tuple(axes)
        return Tensor._apply("transpose", self, ctx=(axes, tuple(np.argsort(axes))))

    def take_rows(self, indices) -> "Tensor":
        """Gather rows (first-axis indexing); the adjoint is a bincount row scatter.

        ``indices`` may be a plain integer array (baked into the op as a
        constant), a 1-D boolean mask over the rows (taken as
        ``np.flatnonzero(mask)``), or a :class:`Tensor` of integer ids — the
        latter marks the gather as *dynamic* so the compile tracer re-reads the
        index array on every replay (this is how per-batch user/item ids flow
        through a compiled step).  Other non-integer arrays raise
        ``TypeError``.  The gradient is
        :func:`~repro.nn.primitives.scatter_add_rows`, one flattened
        ``np.bincount``: duplicate rows accumulate in index order from zero.
        Gradients never propagate into the index operand.
        """
        if isinstance(indices, Tensor):
            return Tensor._apply("take_rows", self, indices, ctx=("dynamic",))
        return Tensor._apply("take_rows", self, ctx=("static", _row_indices(indices, len(self.data))))

    def __getitem__(self, key) -> "Tensor":
        # Integer arrays and boolean masks select rows: :meth:`take_rows`
        # handles both (and dynamic index tensors); every other key, tuples
        # holding index arrays included, is a plain NumPy index.
        if isinstance(key, (np.ndarray, list, Tensor)):
            return self.take_rows(key)
        return Tensor._apply("getitem", self, ctx=(key,))

    @staticmethod
    def concat(tensors: Iterable["Tensor"], axis: int = 0) -> "Tensor":
        tensors = [as_tensor(t) for t in tensors]
        offsets = np.cumsum([0] + [t.data.shape[axis] for t in tensors])
        return Tensor._apply("concat", *tensors, ctx=(axis, tuple(int(o) for o in offsets)))

    @staticmethod
    def host(fn: Callable[..., Sequence[np.ndarray]], *parents) -> tuple["Tensor", ...]:
        """Run NumPy code on the parents' values as one non-differentiable op.

        ``fn(*arrays)`` receives each parent's ``.data`` and returns a sequence
        of float arrays; each comes back as a constant tensor, and no gradient
        flows through the op.  A parent that is not a tensor keeps its dtype
        (integer ids stay integer), as a compiled step's inputs do.  Under
        :mod:`repro.nn.compile` a replay calls ``fn`` again on the parents'
        current forward values, so ``fn`` must be pure: anything random
        reaches it through a parent (a seed array among the step inputs,
        say).  The outputs are views of one packed buffer; a replay whose
        outputs change shape raises :class:`TraceError`.
        """
        parents = tuple(p if isinstance(p, Tensor) else _leaf(p) for p in parents)
        outputs = fn(*(p.data for p in parents))
        shapes = tuple(np.shape(out) for out in outputs)
        packed = Tensor._make(pack_host_outputs(outputs, shapes), parents, "host", (fn, shapes))
        views = []
        start = 0
        for shape in shapes:
            stop = start + math.prod(shape)
            views.append(packed[start:stop].reshape(shape))
            start = stop
        return tuple(views)

    @staticmethod
    def stack(tensors: Iterable["Tensor"], axis: int = 0) -> "Tensor":
        return Tensor._apply("stack", *[as_tensor(t) for t in tensors], ctx=(axis,))
