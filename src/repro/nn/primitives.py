"""The primitive table: each operation's forward kernel and VJP, written once.

Every operation the autograd substrate can record is one :class:`Primitive`
in :data:`PRIMITIVES`, with its vector-Jacobian product defined next to its
forward kernel (HIPS ``autograd``-style primitive/VJP separation).  Both
execution modes run these same functions:

* eager :class:`~repro.nn.tensor.Tensor` methods call ``forward`` without
  buffers, so NumPy allocates every result, and ``Tensor.backward`` calls
  ``vjp`` once per parent that requires a gradient;
* :class:`~repro.nn.compile.Program` binds the same ``forward``/``vjp`` into
  replay thunks that hand them preallocated buffers.

A replay therefore evaluates the same NumPy expressions, in the same order, as
eager execution; its results are bit-identical by construction.

Kernel conventions
------------------
``forward(ctx, out, ws, *xs)`` computes the value from the parent values
``xs``; ``ctx`` holds the static arguments recorded on the tape.  ``out`` is
``None`` (allocate) or a buffer of the result's shape and dtype, which the
kernel fills and returns.  Ops built with ``buffered=False`` (views, the row
gather, the sparse product) always return a fresh value and never receive
``out``.

``vjp(i, g, ans, ctx, ws, *xs)`` returns parent ``i``'s share of the gradient
given the output gradient ``g`` and the output value ``ans``, or ``None`` if
that parent gets no gradient; :func:`cast_unbroadcast` fits each share to the
parent before it is summed in.

``ws`` is ``None`` in eager mode and a per-node dict in a program; kernels
take their temporaries from :func:`_scratch`, so a replay reuses buffers where
eager execution allocates.

The remaining fields are the liveness facts the compile-time fusion planner
needs: ``elementwise`` (may join an in-place chain), ``reads_output`` (the VJP
reads ``ans``) and ``reads`` (for each parent position, which parent values
its VJP reads).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = ["Primitive", "PRIMITIVES", "TraceError", "cast_unbroadcast", "scatter_add_rows", "pack_host_outputs"]


class TraceError(RuntimeError):
    """Raised when a graph cannot be lifted into a compiled program.

    Typical causes: an operation without a recorded primitive, or a construct
    whose behaviour is impure across steps (e.g. an active Dropout mask).
    :mod:`repro.nn.compile` treats this as a signal to fall back to eager
    re-tracing rather than replaying a silently wrong program.
    """


@dataclass(frozen=True)
class Primitive:
    """One table entry: kernels plus the facts the fusion planner reads."""

    forward: Callable
    vjp: Callable | None = None
    elementwise: bool = False
    reads_output: bool = False
    reads: tuple[tuple[int, ...], ...] = ()
    buffered: bool = True

    def value_reads(self, parents_require: Sequence[bool]) -> set[int]:
        """Parent positions whose *values* the VJP reads, given which parents need gradients."""
        return {
            p for i, (require, reads) in enumerate(zip(parents_require, self.reads)) if require for p in reads
        }


#: Every recorded operation, by the name stored in ``Tensor._op``.
PRIMITIVES: dict[str, Primitive] = {}


def _def(name: str, forward: Callable, vjp: Callable | None = None, **facts) -> None:
    PRIMITIVES[name] = Primitive(forward, vjp, **facts)


# --------------------------------------------------------------------------- #
# Shared helpers
# --------------------------------------------------------------------------- #
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


def cast_unbroadcast(grad, shape: tuple[int, ...], dtype) -> np.ndarray:
    """Fit one VJP share to a ``shape``/``dtype`` gradient: cast, then undo any broadcast.

    A reduction's output gradient with its reduced axes kept as size 1 (see
    :func:`_keep_dims`) is returned as is: the copy or add that takes it
    broadcasts it.  Every other share, an empty one included, is summed down
    by :func:`_unbroadcast`.  Eager tensors and compiled gradient slots both
    pass every share through here, then copy the first share and add later
    ones.
    """
    grad = np.asarray(grad, dtype=dtype)
    if grad.shape == shape or (
        grad.ndim == len(shape) and all(g == s or g == 1 for g, s in zip(grad.shape, shape))
    ):
        return grad
    return _unbroadcast(grad, shape)


def scatter_add_rows(indices, values: np.ndarray, num_rows: int) -> np.ndarray:
    """Sum ``values`` into ``num_rows`` rows by first-axis index (adjoint of a gather).

    Row ``r`` of the result is ``0.0 + values[i0] + values[i1] + ...`` over the
    positions ``i0 < i1 < ...`` where ``indices`` equals ``r``, added in that
    order.  That is exactly what NumPy's unbuffered scatter-add (the ``at``
    method of ``np.add``) computes into a zeroed table; here one flattened
    ``np.bincount`` does it (element ``j`` of row ``r`` is bin
    ``r * width + j``), walking its input in order from a float64 zero — so
    float64 results are bit-identical to that scatter-add, and narrower float
    dtypes are accumulated in float64 and rounded once.
    Negative indices wrap as in the gather; ``indices`` may have any shape,
    ``values`` has shape ``indices.shape + row_shape``.
    """
    idx = np.asarray(indices, dtype=np.int64).ravel()
    idx = np.where(idx < 0, idx + num_rows, idx)
    row_shape = values.shape[np.ndim(indices):]
    width = math.prod(row_shape)
    bins = (idx[:, None] * width + np.arange(width)).ravel()
    summed = np.bincount(bins, weights=values.ravel(), minlength=num_rows * width)
    return summed.reshape((num_rows, *row_shape)).astype(values.dtype, copy=False)


def pack_host_outputs(outputs: Sequence, shapes: tuple, out: np.ndarray | None = None) -> np.ndarray:
    """Ravel a host function's outputs into one float64 array (``Tensor.host``).

    Raises :class:`TraceError` when the outputs' shapes differ from ``shapes``,
    the ones recorded at trace time.
    """
    got = tuple(np.shape(output) for output in outputs)
    if got != shapes:
        raise TraceError(f"host op output shapes changed from {shapes} to {got}")
    return np.concatenate([np.ravel(np.asarray(o, dtype=np.float64)) for o in outputs], out=out)


def _scratch(ws: dict | None, key: str, shape: tuple[int, ...], dtype) -> np.ndarray | None:
    """Buffer for a kernel temporary: ``None`` (NumPy allocates) in eager mode."""
    if ws is None:
        return None
    buf = ws.get(key)
    if buf is None:
        buf = ws[key] = np.empty(shape, dtype)
    return buf


def _like(ws: dict | None, g: np.ndarray) -> np.ndarray | None:
    """Scratch shaped like the output gradient ``g``."""
    return _scratch(ws, "g", g.shape, g.dtype)


def _filled(ws: dict | None, key: str, shape: tuple[int, ...], dtype, value: float) -> np.ndarray:
    """An array of ``value``: fresh in eager mode, a refilled buffer in a program."""
    buf = _scratch(ws, key, shape, dtype)
    if buf is None:
        return np.full(shape, value, dtype)
    buf.fill(value)
    return buf


def _store(out: np.ndarray | None, value) -> np.ndarray:
    """``value`` itself, or copied into ``out`` when a buffer is given."""
    if out is None:
        return value
    out[...] = value
    return out


# --------------------------------------------------------------------------- #
# Arithmetic
# --------------------------------------------------------------------------- #
_def(
    "add",
    lambda ctx, out, ws, a, b: np.add(a, b, out=out),
    lambda i, g, ans, ctx, ws, a, b: g,
    elementwise=True,
)
_def(
    "sub",
    lambda ctx, out, ws, a, b: np.subtract(a, b, out=out),
    lambda i, g, ans, ctx, ws, a, b: g if i == 0 else np.negative(g, out=_like(ws, g)),
    elementwise=True,
)
_def(
    "neg",
    lambda ctx, out, ws, a: np.negative(a, out=out),
    lambda i, g, ans, ctx, ws, a: np.negative(g, out=_like(ws, g)),
    elementwise=True,
)
_def(
    "mul",
    lambda ctx, out, ws, a, b: np.multiply(a, b, out=out),
    lambda i, g, ans, ctx, ws, a, b: np.multiply(g, b if i == 0 else a, out=_like(ws, g)),
    elementwise=True,
    reads=((1,), (0,)),
)


def _div_vjp(i, g, ans, ctx, ws, a, b):
    out = _like(ws, g)
    if i == 0:
        return np.true_divide(g, b, out=out)
    return np.true_divide(np.multiply(np.negative(g, out=out), a, out=out), b**2, out=out)  # -g * a / b**2


_def(
    "div",
    lambda ctx, out, ws, a, b: np.true_divide(a, b, out=out),
    _div_vjp,
    elementwise=True,
    reads=((1,), (0, 1)),
)


def _pow_vjp(i, g, ans, ctx, ws, a):
    (exponent,) = ctx
    out = _like(ws, g)
    return np.multiply(np.multiply(g, exponent, out=out), a ** (exponent - 1), out=out)


_def(
    "pow",
    # ndarray.__pow__ takes fast paths (0.5 -> sqrt, 2 -> square) that
    # np.power does not; the operator keeps every exponent on one path.
    lambda ctx, out, ws, a: _store(out, a ** ctx[0]),
    _pow_vjp,
    elementwise=True,
    reads=((0,),),
)


def _matmul_forward(ctx, out, ws, a, b):
    if out is not None and out.ndim == 0:  # np.matmul cannot write a 0-d result into out=
        return _store(out, a @ b)
    return np.matmul(a, b, out=out)


def _matmul_vjp(i, g, ans, ctx, ws, a, b):
    if i == 0:
        if b.ndim == 1:
            return np.outer(g, b) if g.ndim else g * b
        return g @ b.T
    if a.ndim == 1:
        return np.outer(a, g) if g.ndim else a * g
    return a.T @ g


_def("matmul", _matmul_forward, _matmul_vjp, reads=((1,), (0,)))
_def(
    "sparse_matmul",
    lambda ctx, out, ws, a: np.asarray(ctx[0] @ a),  # ctx = (csr, csr.T); scipy has no out=
    lambda i, g, ans, ctx, ws, a: ctx[1] @ g,
    buffered=False,
)


# --------------------------------------------------------------------------- #
# Reductions
# --------------------------------------------------------------------------- #
def _keep_dims(g: np.ndarray, ctx: tuple, shape: tuple[int, ...]) -> np.ndarray:
    """A reduction's output gradient with its reduced axes restored as size 1.

    The adjoint of a reduction broadcasts this over the input ``shape``; the
    gradient accumulation (:func:`cast_unbroadcast`, then a copy or add) does
    that broadcast, so no broadcast view is built here.
    """
    axis, keepdims = ctx[0], ctx[1]
    if keepdims:
        return g
    if axis is None:
        return g.reshape((1,) * len(shape))
    kept = list(shape)
    for ax in (axis,) if isinstance(axis, int) else axis:
        kept[ax] = 1
    return g.reshape(kept)


_def(
    "sum",
    lambda ctx, out, ws, a: np.sum(a, axis=ctx[0], keepdims=ctx[1], out=out),
    lambda i, g, ans, ctx, ws, a: _keep_dims(g, ctx, a.shape),
)
_def(
    "mean",  # ctx = (axis, keepdims, count)
    lambda ctx, out, ws, a: np.mean(a, axis=ctx[0], keepdims=ctx[1], out=out),
    lambda i, g, ans, ctx, ws, a: _keep_dims(np.true_divide(g, ctx[2], out=_like(ws, g)), ctx, a.shape),
)
# A constant on the tape: the only use is the stabilising shift of softmax.
_def("amax", lambda ctx, out, ws, a: np.amax(a, axis=ctx[0], keepdims=ctx[1], out=out))


# --------------------------------------------------------------------------- #
# Elementwise non-linearities
# --------------------------------------------------------------------------- #
def _sigmoid(a: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """``1 / (1 + exp(-clip(a, ±60)))``, every step written to ``out``."""
    value = np.exp(np.negative(np.clip(a, -60.0, 60.0, out=out), out=out), out=out)
    return np.true_divide(1.0, np.add(1.0, value, out=out), out=out)


def _relu_mask(ws, a):
    return np.greater(a, 0, out=_scratch(ws, "mask", a.shape, np.bool_))


def _leaky_slope(ws, a, negative_slope):
    """``np.where(a > 0, 1.0, negative_slope)``, built in reusable buffers."""
    slope = _filled(ws, "slope", a.shape, np.float64, negative_slope)
    slope[_relu_mask(ws, a)] = 1.0
    return slope


def _softplus_vjp(i, g, ans, ctx, ws, a):
    out = _like(ws, g)
    return np.multiply(_sigmoid(a, out), g, out=out)


def _sigmoid_vjp(i, g, ans, ctx, ws, a):
    out = _like(ws, g)  # g * v * (1 - v)
    one_minus = np.subtract(1.0, ans, out=_scratch(ws, "1-v", g.shape, g.dtype))
    return np.multiply(np.multiply(g, ans, out=out), one_minus, out=out)


def _tanh_vjp(i, g, ans, ctx, ws, a):
    out = _like(ws, g)  # g * (1 - v**2)
    return np.multiply(np.subtract(1.0, _store(out, ans**2), out=out), g, out=out)


def _abs_vjp(i, g, ans, ctx, ws, a):
    out = _like(ws, g)
    return np.multiply(np.sign(a, out=out), g, out=out)


def _clip_vjp(i, g, ans, ctx, ws, a):
    low, high = ctx
    mask = _scratch(ws, "mask", a.shape, np.bool_)
    above = np.greater_equal(a, low, out=mask)
    below = np.less_equal(a, high, out=_scratch(ws, "mask2", a.shape, np.bool_))
    return np.multiply(g, np.bitwise_and(above, below, out=mask), out=_like(ws, g))


def _log_vjp(i, g, ans, ctx, ws, a):
    out = _like(ws, g)  # g / (a + eps)
    return np.true_divide(g, np.add(a, ctx[0], out=out), out=out)


_def(
    "exp",
    lambda ctx, out, ws, a: np.exp(a, out=out),
    lambda i, g, ans, ctx, ws, a: np.multiply(g, ans, out=_like(ws, g)),
    elementwise=True,
    reads_output=True,
)
_def(
    "log",
    lambda ctx, out, ws, a: np.log(np.add(a, ctx[0], out=out), out=out),  # log(a + eps)
    _log_vjp,
    elementwise=True,
    reads=((0,),),
)
_def(
    "relu",
    lambda ctx, out, ws, a: np.multiply(a, _relu_mask(ws, a), out=out),
    lambda i, g, ans, ctx, ws, a: np.multiply(g, _relu_mask(ws, a), out=_like(ws, g)),
    elementwise=True,
    reads=((0,),),
)
_def(
    "leaky_relu",
    lambda ctx, out, ws, a: np.multiply(a, _leaky_slope(ws, a, ctx[0]), out=out),
    lambda i, g, ans, ctx, ws, a: np.multiply(g, _leaky_slope(ws, a, ctx[0]), out=_like(ws, g)),
    elementwise=True,
    reads=((0,),),
)
_def(
    "softplus",
    lambda ctx, out, ws, a: np.logaddexp(0.0, a, out=out),
    _softplus_vjp,
    elementwise=True,
    reads=((0,),),
)
_def(
    "sigmoid",
    lambda ctx, out, ws, a: _sigmoid(a, out),
    _sigmoid_vjp,
    elementwise=True,
    reads_output=True,
)
_def("tanh", lambda ctx, out, ws, a: np.tanh(a, out=out), _tanh_vjp, elementwise=True, reads_output=True)
_def("abs", lambda ctx, out, ws, a: np.absolute(a, out=out), _abs_vjp, elementwise=True, reads=((0,),))
_def(
    "clip",
    lambda ctx, out, ws, a: np.clip(a, ctx[0], ctx[1], out=out),
    _clip_vjp,
    elementwise=True,
    reads=((0,),),
)


# --------------------------------------------------------------------------- #
# Shape manipulation
# --------------------------------------------------------------------------- #
def _getitem_vjp(i, g, ans, ctx, ws, a):
    (key,) = ctx
    grad = _filled(ws, "g", a.shape, a.dtype, 0.0)
    if isinstance(key, tuple) and any(isinstance(k, (np.ndarray, list)) for k in key):
        np.add.at(grad, key, g)  # an advanced index may repeat positions; their shares sum
    else:
        grad[key] = g
    return grad


def _row_ids(ctx: tuple, index) -> np.ndarray:
    """A gather's row ids: the static array in ``ctx`` or the dynamic operand."""
    return ctx[1] if index is None else np.asarray(index, dtype=np.int64)


def _concat_vjp(i, g, ans, ctx, ws, *xs):
    axis, offsets = ctx
    slicer = [slice(None)] * g.ndim
    slicer[axis] = slice(offsets[i], offsets[i + 1])
    return g[tuple(slicer)]


_def(
    "reshape",  # ctx = (shape, original shape)
    lambda ctx, out, ws, a: a.reshape(ctx[0]),
    lambda i, g, ans, ctx, ws, a: g.reshape(ctx[1]),
    buffered=False,
)
_def(
    "transpose",  # ctx = (axes, inverse axes)
    lambda ctx, out, ws, a: a.transpose(ctx[0]),
    lambda i, g, ans, ctx, ws, a: g.transpose(ctx[1]),
    buffered=False,
)
_def("getitem", lambda ctx, out, ws, a: a[ctx[0]], _getitem_vjp, buffered=False)
_def(
    "take_rows",  # ctx = ("static", row ids) or ("dynamic",) with the ids as parent 1
    # Unbuffered: np.take with out= and the default mode="raise" gathers into
    # a temporary and copies it over (about twice the time of a fresh result).
    lambda ctx, out, ws, a, index=None: np.take(a, _row_ids(ctx, index), axis=0),
    # The index operand never receives a gradient.
    lambda i, g, ans, ctx, ws, a, index=None: (
        scatter_add_rows(_row_ids(ctx, index), g, len(a)) if i == 0 else None
    ),
    reads=((1,),),
    buffered=False,
)
_def(
    "concat",  # ctx = (axis, offsets)
    lambda ctx, out, ws, *xs: np.concatenate(xs, axis=ctx[0], out=out),
    _concat_vjp,
)
_def(
    "stack",
    lambda ctx, out, ws, *xs: np.stack(xs, axis=ctx[0], out=out),
    lambda i, g, ans, ctx, ws, *xs: np.moveaxis(g, ctx[0], 0)[i],
)
# Non-differentiable NumPy work; ctx = (fn, output shapes).
_def("host", lambda ctx, out, ws, *xs: pack_host_outputs(ctx[0](*xs), ctx[1], out))
