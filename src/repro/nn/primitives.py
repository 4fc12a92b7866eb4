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

Composite kernels fold a whole chain into one node: ``l2_normalize`` and one
op per training loss term (``bpr_loss``, and DaRec's ``squared_cosine_mean``,
``gaussian_potential``, ``similarity_gap`` and ``center_alignment``).  A loss
kernel's forward saves the intermediates its VJP needs in ``ws``; in a
program the VJP reads them back, in eager mode it recomputes them with the
same calls, so both modes produce the same bits.

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
# Composite kernels
# --------------------------------------------------------------------------- #
#: The default ``eps`` of ``F.l2_normalize``; the loss kernels normalise rows
#: (the last axis) exactly as ``F.l2_normalize(x)`` does.
_UNIT_EPS = np.float64(1e-12)
#: The ``eps`` of ``Tensor.log``, which ``gaussian_potential`` takes the log with.
_LOG_EPS = 1e-12


def _reduced(shape: tuple[int, ...], axis: int) -> tuple[int, ...]:
    """``shape`` with ``axis`` kept as size 1 (a ``keepdims`` reduction's shape)."""
    kept = list(shape)
    kept[axis] = 1
    return tuple(kept)


def _buffer(ws: dict | None, key: str, shape: tuple[int, ...], dtype) -> np.ndarray:
    """An uninitialised array: fresh in eager mode, a kept buffer in a program."""
    buf = _scratch(ws, key, shape, dtype)
    return np.empty(shape, dtype) if buf is None else buf


def _save(ws: dict | None, values: tuple) -> tuple:
    """Keep a forward kernel's intermediates for the node's VJP (programs only)."""
    if ws is not None:
        ws["saved"] = values
    return values


def _saved(ws: dict | None, state: Callable, ctx: tuple, *xs) -> tuple:
    """The forward's intermediates: kept in ``ws`` by a replay, recomputed eagerly."""
    return state(ctx, None, *xs) if ws is None else ws["saved"]


def _l2_norm(ws, x, axis: int = -1, eps=_UNIT_EPS, tag: str = "") -> np.ndarray:
    """``(sum(x * x, axis, keepdims) + eps) ** 0.5``, with the unfused chain's NumPy calls.

    ``eps`` is a float64 scalar, so float32 rows get a float64 norm, as they
    do when ``+ eps`` adds a constant tensor.  ``np.sqrt`` is the ufunc that
    ``** 0.5`` dispatches to.  ``tag`` prefixes the scratch keys, so one
    kernel can normalise two operands.
    """
    reduced = _reduced(x.shape, axis)
    squares = np.multiply(x, x, out=_scratch(ws, tag + "sq", x.shape, x.dtype))
    total = np.sum(squares, axis=axis, keepdims=True, out=_scratch(ws, tag + "sum", reduced, x.dtype))
    norm = np.add(total, eps, out=_scratch(ws, tag + "norm", reduced, np.result_type(x, eps)))
    return np.sqrt(norm, out=norm)


def _unit_rows(ws, x, tag: str = "") -> tuple[np.ndarray, np.ndarray]:
    """``(x / norm, norm)``: the rows of ``x`` on the unit sphere, as ``F.l2_normalize(x)``."""
    norm = _l2_norm(ws, x, tag=tag)
    return np.true_divide(x, norm, out=_scratch(ws, tag + "unit", x.shape, np.result_type(x, norm))), norm


def _unit_rows_vjp(ws, g, unit, norm, axis: int = -1, tag: str = "") -> np.ndarray:
    """Pull ``g`` back through ``unit = x / norm``: ``(g - unit * sum(g * unit)) / norm``."""
    out = _scratch(ws, tag + "g", g.shape, g.dtype)
    dot = np.sum(
        np.multiply(g, unit, out=out), axis=axis, keepdims=True,
        out=_scratch(ws, tag + "dot", _reduced(g.shape, axis), g.dtype),
    )
    grad = np.subtract(g, np.multiply(unit, dot, out=out), out=out)
    return np.true_divide(grad, norm, out=out)


_def(
    "l2_normalize",  # ctx = (axis, eps as a float64 scalar)
    lambda ctx, out, ws, x: np.true_divide(x, _l2_norm(ws, x, *ctx), out=out),
    lambda i, g, ans, ctx, ws, x: _unit_rows_vjp(ws, g, ans, _l2_norm(ws, x, *ctx), ctx[0]),
    reads_output=True,
    reads=((0,),),
)


# BPR: mean(softplus(s_neg - s_pos)) over a batch of (user, pos, neg) ids.
def _bpr_state(ctx, ws, users, items, user_ids, pos_ids, neg_ids):
    """The gathered rows and margins ``s_neg - s_pos``; positives and negatives are one item gather."""
    batch = len(user_ids)
    item_ids = np.concatenate((pos_ids, neg_ids), out=_scratch(ws, "ids", (2 * batch,), np.int64))
    user_rows = np.take(users, user_ids, axis=0)
    item_rows = np.take(items, item_ids, axis=0).reshape((2, batch, *items.shape[1:]))  # [positives, negatives]
    dtype = np.result_type(user_rows, item_rows)
    products = np.multiply(user_rows, item_rows, out=_scratch(ws, "uv", item_rows.shape, dtype))
    scores = np.sum(products, axis=2, out=_scratch(ws, "scores", (2, batch), dtype))
    margins = np.subtract(scores[1], scores[0], out=_scratch(ws, "margins", (batch,), dtype))
    return _save(ws, (user_rows, item_rows, item_ids, margins))


def _bpr_forward(ctx, out, ws, *xs):
    margins = _bpr_state(ctx, ws, *xs)[3]
    return np.mean(np.logaddexp(0.0, margins, out=_scratch(ws, "softplus", margins.shape, margins.dtype)), out=out)


def _bpr_vjp(i, g, ans, ctx, ws, users, items, user_ids, pos_ids, neg_ids):
    """``dL/dmargin = g * sigmoid(margin) / B``; one row scatter per table."""
    if i > 1:  # the id operands take no gradient
        return None
    user_rows, item_rows, item_ids, margins = _saved(
        ws, _bpr_state, ctx, users, items, user_ids, pos_ids, neg_ids
    )
    weights = _sigmoid(margins, _scratch(ws, "w", margins.shape, margins.dtype))
    weights = np.multiply(weights, np.true_divide(g, len(margins)), out=weights)[:, None]
    if i == 0:
        rows = np.subtract(item_rows[1], item_rows[0], out=_scratch(ws, "du", user_rows.shape, margins.dtype))
        return scatter_add_rows(user_ids, np.multiply(rows, weights, out=rows), len(users))
    rows = _buffer(ws, "dv", item_rows.shape, margins.dtype)
    np.multiply(user_rows, weights, out=rows[1])
    np.negative(rows[1], out=rows[0])
    return scatter_add_rows(item_ids.reshape(rows.shape[:2]), rows, len(items))


_def("bpr_loss", _bpr_forward, _bpr_vjp, reads=((0, 1, 2, 3, 4), (0, 1, 2, 3, 4)))


# Eq. (2): mean over rows of cos(a_i, b_i)^2.
def _cosine_state(ctx, ws, a, b):
    unit_a, norm_a = _unit_rows(ws, a, "a")
    unit_b, norm_b = _unit_rows(ws, b, "b")
    dtype = np.result_type(unit_a, unit_b)
    products = np.multiply(unit_a, unit_b, out=_scratch(ws, "ab", unit_a.shape, dtype))
    cosines = np.sum(products, axis=-1, out=_scratch(ws, "cos", products.shape[:-1], dtype))
    return _save(ws, (unit_a, norm_a, unit_b, norm_b, cosines))


def _cosine_forward(ctx, out, ws, a, b):
    cosines = _cosine_state(ctx, ws, a, b)[4]
    return np.mean(np.multiply(cosines, cosines, out=_scratch(ws, "cos2", cosines.shape, cosines.dtype)), out=out)


def _cosine_vjp(i, g, ans, ctx, ws, a, b):
    unit_a, norm_a, unit_b, norm_b, cosines = _saved(ws, _cosine_state, ctx, a, b)
    scale = np.true_divide(np.multiply(g, 2.0), len(cosines))
    dcos = np.multiply(cosines, scale, out=_scratch(ws, "dcos", cosines.shape, cosines.dtype))
    unit, norm, other, tag = (unit_a, norm_a, unit_b, "a") if i == 0 else (unit_b, norm_b, unit_a, "b")
    dunit = np.multiply(other, dcos[:, None], out=_scratch(ws, tag + "du", other.shape, other.dtype))
    return _unit_rows_vjp(ws, dunit, unit, norm, tag=tag)


_def("squared_cosine_mean", _cosine_forward, _cosine_vjp, reads=((0, 1), (0, 1)))


# Eq. (3): log mean_ij exp(-t ||y_i - y_j||^2) over unit rows y, distances clipped to [0, 4].
def _potential_state(ctx, ws, x):
    (t,) = ctx
    unit, norm = _unit_rows(ws, x)
    n, dtype = len(unit), unit.dtype
    squared = np.sum(
        np.multiply(unit, unit, out=_scratch(ws, "uu", unit.shape, dtype)), axis=1, keepdims=True,
        out=_scratch(ws, "sqn", (n, 1), dtype),
    )
    gram = np.matmul(unit, unit.T, out=_scratch(ws, "gram", (n, n), dtype))
    distances = np.add(squared, squared.T, out=_scratch(ws, "dist", (n, n), dtype))
    np.subtract(distances, np.multiply(gram, 2.0, out=gram), out=distances)
    # Rounding can push a distance just below 0; the clip's VJP passes [0, 4] only.
    inside = np.greater_equal(distances, 0.0, out=_scratch(ws, "in", (n, n), np.bool_))
    np.bitwise_and(inside, np.less_equal(distances, 4.0, out=_scratch(ws, "in2", (n, n), np.bool_)), out=inside)
    kernel = np.exp(np.multiply(np.clip(distances, 0.0, 4.0, out=distances), -t, out=distances), out=distances)
    return _save(ws, (unit, norm, inside, kernel, np.mean(kernel, out=_scratch(ws, "mean", (), dtype))))


def _potential_forward(ctx, out, ws, x):
    mean = _potential_state(ctx, ws, x)[4]
    return np.log(np.add(mean, _LOG_EPS, out=out), out=out)


def _potential_vjp(i, g, ans, ctx, ws, x):
    (t,) = ctx
    unit, norm, inside, kernel, mean = _saved(ws, _potential_state, ctx, x)
    n = len(unit)
    scale = np.multiply(np.true_divide(np.true_divide(g, np.add(mean, _LOG_EPS)), n * n), -t)
    ddist = np.multiply(kernel, scale, out=_scratch(ws, "dd", kernel.shape, kernel.dtype))
    np.multiply(ddist, inside, out=ddist)
    sym = np.add(ddist, ddist.T, out=_scratch(ws, "sym", ddist.shape, ddist.dtype))
    dsquared = np.sum(sym, axis=1, keepdims=True, out=_scratch(ws, "dsq", (n, 1), sym.dtype))
    # distances = |y_i|^2 + |y_j|^2 - 2 y_i.y_j, so dL/dy = 2 (y * dsquared - sym @ y)
    dunit = np.matmul(sym, unit, out=_scratch(ws, "du", unit.shape, unit.dtype))
    np.subtract(np.multiply(unit, dsquared, out=_scratch(ws, "ud", unit.shape, unit.dtype)), dunit, out=dunit)
    return _unit_rows_vjp(ws, np.multiply(dunit, 2.0, out=dunit), unit, norm)


_def("gaussian_potential", _potential_forward, _potential_vjp, reads=((0,),))  # ctx = (t,)


# Eq. (4)-(5), normalised: |Y_a Y_a^T - Y_b Y_b^T|_F^2 / N^2 over unit rows.
def _gap_state(ctx, ws, a, b):
    unit_a, norm_a = _unit_rows(ws, a, "a")
    unit_b, norm_b = _unit_rows(ws, b, "b")
    n, dtype = len(unit_a), np.result_type(unit_a, unit_b)
    gap = np.matmul(unit_a, unit_a.T, out=_scratch(ws, "gap", (n, n), dtype))
    np.subtract(gap, np.matmul(unit_b, unit_b.T, out=_scratch(ws, "simb", (n, n), dtype)), out=gap)
    return _save(ws, (unit_a, norm_a, unit_b, norm_b, gap))


def _gap_forward(ctx, out, ws, a, b):
    gap = _gap_state(ctx, ws, a, b)[4]
    total = np.sum(np.multiply(gap, gap, out=_scratch(ws, "gap2", gap.shape, gap.dtype)))
    return np.multiply(total, 1.0 / gap.size, out=out)


def _gap_vjp(i, g, ans, ctx, ws, a, b):
    unit_a, norm_a, unit_b, norm_b, gap = _saved(ws, _gap_state, ctx, a, b)
    scale = np.multiply(np.multiply(g, 1.0 / gap.size), 2.0)
    dgap = np.multiply(gap, scale, out=_scratch(ws, "dgap", gap.shape, gap.dtype))
    sym = np.add(dgap, dgap.T, out=_scratch(ws, "sym", gap.shape, gap.dtype))
    unit, norm, tag = (unit_a, norm_a, "a") if i == 0 else (unit_b, norm_b, "b")
    dunit = np.matmul(sym, unit, out=_scratch(ws, tag + "du", unit.shape, unit.dtype))
    if i == 1:  # the second similarity matrix enters with a minus sign
        np.negative(dunit, out=dunit)
    return _unit_rows_vjp(ws, dunit, unit, norm, tag=tag)


_def("similarity_gap", _gap_forward, _gap_vjp, reads=((0, 1), (0, 1)))


# Eq. (10): mean_i (C_ii - 1)^2 + sum_{i != j} C_ij^2 / (k^2 - k), C the centre cosines.
def _centre_state(ctx, ws, p, q):
    unit_p, norm_p = _unit_rows(ws, p, "p")
    unit_q, norm_q = _unit_rows(ws, q, "q")
    k = len(unit_p)
    cosines = np.matmul(unit_p, unit_q.T, out=_scratch(ws, "cos", (k, k), np.result_type(unit_p, unit_q)))
    return _save(ws, (unit_p, norm_p, unit_q, norm_q, cosines))


def _off_count(k: int) -> int:
    return max(k * k - k, 1)


def _centre_forward(ctx, out, ws, p, q):
    cosines = _centre_state(ctx, ws, p, q)[4]
    k = len(cosines)
    misses = np.subtract(np.diagonal(cosines), 1.0, out=_scratch(ws, "miss", (k,), cosines.dtype))
    diagonal_term = np.mean(np.multiply(misses, misses, out=misses))
    off = np.multiply(cosines, cosines, out=_scratch(ws, "off", cosines.shape, cosines.dtype))
    np.fill_diagonal(off, 0.0)
    return np.add(diagonal_term, np.sum(off) * (1.0 / _off_count(k)), out=out)


def _centre_vjp(i, g, ans, ctx, ws, p, q):
    unit_p, norm_p, unit_q, norm_q, cosines = _saved(ws, _centre_state, ctx, p, q)
    k = len(cosines)
    off_scale = np.multiply(np.multiply(g, 1.0 / _off_count(k)), 2.0)
    dcos = np.multiply(cosines, off_scale, out=_scratch(ws, "dcos", cosines.shape, cosines.dtype))
    diagonal_scale = np.multiply(np.true_divide(g, k), 2.0)
    np.fill_diagonal(dcos, np.multiply(np.subtract(np.diagonal(cosines), 1.0), diagonal_scale))
    if i == 0:
        dunit = np.matmul(dcos, unit_q, out=_scratch(ws, "pdu", unit_p.shape, dcos.dtype))
        return _unit_rows_vjp(ws, dunit, unit_p, norm_p, tag="p")
    dunit = np.matmul(dcos.T, unit_p, out=_scratch(ws, "qdu", unit_q.shape, dcos.dtype))
    return _unit_rows_vjp(ws, dunit, unit_q, norm_q, tag="q")


_def("center_alignment", _centre_forward, _centre_vjp, reads=((0, 1), (0, 1)))


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
