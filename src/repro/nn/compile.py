"""Compile-and-replay execution for the autograd tape.

The define-by-run tape in :mod:`repro.nn.tensor` rebuilds a Python closure
graph on every step, even though the compute graph of a training step is
static across iterations.  This module removes that re-tracing overhead with
the classic primitive/VJP separation (HIPS autograd) plus loop tracing
(Dr.Jit): run the step *once* eagerly to record the graph, lift it into a flat
program of primitive ops, then replay that program on every subsequent step.

The replay is faster than eager execution for three reasons:

* **no re-tracing** — no closure allocation, no topological sort, no Python
  graph walk; forward and backward are flat lists of pre-bound thunks;
* **preallocated buffers** — every intermediate writes into a persistent
  buffer via ``np.<op>(..., out=buf)`` instead of allocating a fresh array;
  elementwise chains whose intermediate values are not needed by any VJP are
  *fused*: the whole chain runs in-place through one shared scratch buffer;
* **in-place gradient accumulation** — adjoints accumulate with ``+=`` into
  persistent per-node gradient buffers instead of ``grad = grad + g``.

Replays are **bit-identical** to eager execution: every forward thunk and
every VJP evaluates exactly the same NumPy expression, in exactly the same
(reverse-topological) order, as the eager closures in ``tensor.py``.

The trace/replay contract
-------------------------
``compile(step_fn)`` wraps a function ``step_fn(params, inputs) -> loss``
where ``params`` is a list of :class:`~repro.nn.layers.Parameter` and
``inputs`` is a dict of NumPy arrays.  Everything that changes between steps
**must** flow through ``params`` or ``inputs``; any other value touched by the
step (adjacency matrices, semantic embedding tables, constant masks) is
captured by reference at trace time and assumed constant.  Index arrays from
``inputs`` reach gather ops as *dynamic* indices (``Tensor.take_rows`` with a
tensor operand), so per-batch user/item ids are re-read on every replay.

Non-differentiable NumPy work that depends on forward values (clustering,
matching) goes through :meth:`Tensor.host <repro.nn.tensor.Tensor.host>`: the
replay calls its function again on the parents' current forward buffers, so
the work runs inside the program instead of as a second pass outside it.  The
function must be pure — randomness arrives through ``inputs`` — because both
the tracing run and every replay call it.  It gets no VJP, and a replay whose
outputs change shape raises :class:`TraceError`.

A **shape guard** keys each traced program by the shapes/dtypes of all inputs
and parameters: a batch with new shapes triggers a re-trace (bounded program
cache), and constructs the tracer cannot handle (:class:`TraceError`, e.g. an
active Dropout) transparently fall back to eager execution forever.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from ..obs.profile import OpProfiler, timed_section
from .tensor import Tensor, TraceError, _set_tracing, _unbroadcast, scatter_add_rows

__all__ = ["compile", "CompiledStep", "CompileStats", "Program", "trace_program", "TraceError"]


# --------------------------------------------------------------------------- #
# Leaf wrapping
# --------------------------------------------------------------------------- #
def _input_tensor(array: np.ndarray) -> Tensor:
    """Wrap an input array in a Tensor *without* the float64 coercion.

    Index arrays must stay integer so dynamic gathers are exact; the wrapper
    bypasses ``Tensor.__init__`` for that reason.
    """
    t = Tensor.__new__(Tensor)
    t.data = np.asarray(array)
    t.grad = None
    t.requires_grad = False
    t._backward = None
    t._parents = ()
    t.name = None
    t._op = None
    t._ctx = ()
    return t


class _GradSlot:
    """Persistent gradient buffer with eager-identical accumulation.

    Mirrors ``Tensor._accumulate_grad``: the incoming gradient is cast to the
    node dtype and un-broadcast, the first contribution is copied, later ones
    added — so the floating-point accumulation order and operations are the
    same as the eager closures, just without per-step allocation.
    """

    __slots__ = ("buf", "filled", "shape", "dtype")

    def __init__(self, shape: tuple[int, ...], dtype) -> None:
        self.buf = np.empty(shape, dtype=dtype)
        self.filled = False
        self.shape = shape
        self.dtype = dtype

    def add(self, grad: np.ndarray) -> None:
        grad = _unbroadcast(np.asarray(grad, dtype=self.dtype), self.shape)
        if self.filled:
            self.buf += grad
        else:
            np.copyto(self.buf, grad)
            self.filled = True


# --------------------------------------------------------------------------- #
# Per-primitive liveness metadata (drives elementwise-chain fusion)
# --------------------------------------------------------------------------- #
#: Elementwise ops (output shape == broadcast of inputs, computed pointwise);
#: only these may join an in-place fused chain.
_ELEMENTWISE = {
    "add", "sub", "mul", "div", "neg", "pow", "exp", "log", "relu",
    "leaky_relu", "softplus", "sigmoid", "tanh", "abs", "clip",
}

#: Ops whose VJP reads their own *output* buffer (so it must stay live).
_NEEDS_OUTPUT = {"exp", "sigmoid", "tanh"}

#: Ops whose VJP reads the *value* of the given parent position.  Position -1
#: means "all parents".  Used to decide whether a producer's value is dead
#: once the forward pass moves on.
_NEEDS_PARENT_VALUE: dict[str, tuple[int, ...]] = {
    "mul": (0, 1),        # grad wrt a needs b, wrt b needs a
    "div": (0, 1),
    "pow": (0,),
    "log": (0,),
    "relu": (0,),
    "leaky_relu": (0,),
    "softplus": (0,),
    "abs": (0,),
    "clip": (0,),
    "matmul": (0, 1),
}


def _vjp_parent_value_needs(op: str, parents_require: Sequence[bool]) -> set[int]:
    """Parent positions whose *values* this op's VJP will actually read."""
    needs: set[int] = set()
    if op == "mul":
        # grad wrt parent 0 multiplies by parent 1's value and vice versa —
        # but only if that gradient is actually propagated.
        if parents_require[0]:
            needs.add(1)
        if len(parents_require) > 1 and parents_require[1]:
            needs.add(0)
    elif op == "div":
        if parents_require[0]:
            needs.add(1)
        if len(parents_require) > 1 and parents_require[1]:
            needs.update((0, 1))
    elif op == "matmul":
        if parents_require[0]:
            needs.add(1)
        if len(parents_require) > 1 and parents_require[1]:
            needs.add(0)
    elif op in {"pow", "log", "relu", "leaky_relu", "softplus", "abs", "clip"}:
        if parents_require[0]:
            needs.add(0)
    return needs


# --------------------------------------------------------------------------- #
# Program node
# --------------------------------------------------------------------------- #
@dataclass
class _Node:
    index: int
    kind: str                     # "param" | "input" | "const" | "interior"
    op: str | None
    ctx: tuple
    parent_ids: tuple[int, ...]
    shape: tuple[int, ...]
    dtype: np.dtype
    requires_grad: bool
    cell: list = field(default_factory=lambda: [None])
    slot: _GradSlot | None = None
    fused: bool = False           # value coalesced into a shared chain scratch


@dataclass
class CompileStats:
    """Counters exposed by :class:`CompiledStep` for tests and benchmarks."""

    traces: int = 0
    replays: int = 0
    eager_calls: int = 0
    fallbacks: int = 0
    programs: int = 0
    nodes: int = 0
    fused_nodes: int = 0


class Program:
    """One traced step, lowered to flat forward/backward thunk lists."""

    def __init__(
        self,
        loss: Tensor,
        params: Sequence[Tensor],
        inputs: Mapping[str, Tensor],
    ) -> None:
        topo = loss._toposort()
        param_ids = {id(p): i for i, p in enumerate(params)}
        input_names = {id(t): name for name, t in inputs.items()}

        self.nodes: list[_Node] = []
        index_of: dict[int, int] = {}
        for tensor in topo:
            idx = len(self.nodes)
            index_of[id(tensor)] = idx
            if id(tensor) in param_ids:
                kind, op = "param", None
            elif id(tensor) in input_names:
                kind, op = "input", None
            elif not tensor._parents:
                kind, op = "const", None
            else:
                kind, op = "interior", tensor._op
                if op is None:
                    raise TraceError(
                        "traced graph contains a tensor with parents but no recorded primitive"
                    )
            node = _Node(
                index=idx,
                kind=kind,
                op=op,
                ctx=tensor._ctx,
                parent_ids=tuple(index_of[id(p)] for p in tensor._parents),
                shape=tensor.data.shape,
                dtype=tensor.data.dtype,
                requires_grad=tensor.requires_grad,
            )
            self.nodes.append(node)

        self._loss_index = index_of[id(loss)]
        self._loss_requires_grad = loss.requires_grad

        # Leaf binding tables ------------------------------------------------
        self._param_cells: list[tuple[list, int]] = []      # (cell, param position)
        self._input_cells: list[tuple[list, str]] = []      # (cell, input name)
        self._const_bindings: list[tuple[list, Tensor]] = []
        for tensor in topo:
            node = self.nodes[index_of[id(tensor)]]
            if node.kind == "param":
                self._param_cells.append((node.cell, param_ids[id(tensor)]))
            elif node.kind == "input":
                self._input_cells.append((node.cell, input_names[id(tensor)]))
            elif node.kind == "const":
                # Constants are captured by reference; their data is re-read on
                # every replay so optimiser-style rebinding still works.
                self._const_bindings.append((node.cell, tensor))

        # Gradient slots -----------------------------------------------------
        self._slots: list[_GradSlot] = []
        for node in self.nodes:
            if node.requires_grad:
                node.slot = _GradSlot(node.shape, node.dtype)
                self._slots.append(node.slot)
        self._param_grad_publish: list[tuple[int, _GradSlot | None]] = []
        for position, param in enumerate(params):
            slot = None
            node_index = index_of.get(id(param))
            if node_index is not None:
                slot = self.nodes[node_index].slot
            self._param_grad_publish.append((position, slot))
        self._num_params = len(params)
        self._param_ids = tuple(param_ids)

        # Buffer allocation with elementwise-chain fusion --------------------
        self.fused_chains = self._plan_fusion()
        for node in self.nodes:
            if node.kind == "interior" and node.cell[0] is None and node.op not in _VIEW_OPS:
                if node.op == "sparse_matmul":
                    continue  # scipy has no out=; the thunk rebinds the cell
                node.cell[0] = np.empty(node.shape, dtype=node.dtype)

        # Thunk compilation --------------------------------------------------
        # Op names are kept in parallel lists (not attached to the thunks) so
        # an unprofiled run() calls the bare thunks; a profiled one calls
        # timed wrappers built from these lists.
        self._fwd: list[Callable[[], None]] = []
        self._fwd_ops: list[str] = []
        self._bwd: list[Callable[[], None]] = []
        self._bwd_ops: list[str] = []
        for node in self.nodes:
            if node.kind != "interior":
                continue
            build = _BUILDERS.get(node.op)
            if build is None:
                raise TraceError(f"primitive '{node.op}' has no compiled implementation")
            fwd, bwd = build(self, node)
            if fwd is not None:
                self._fwd.append(fwd)
                self._fwd_ops.append(node.op)
            if bwd is not None:
                self._bwd.append(bwd)
                self._bwd_ops.append(node.op)
        self._bwd.reverse()  # reverse-topological, mirroring Tensor.backward
        self._bwd_ops.reverse()

        self._loss_cell = self.nodes[self._loss_index].cell
        self._loss_slot = self.nodes[self._loss_index].slot
        self._timed: tuple[OpProfiler, list, list] | None = None

    # ------------------------------------------------------------------ #
    # Fusion planning
    # ------------------------------------------------------------------ #
    def _plan_fusion(self) -> int:
        """Coalesce dead-value elementwise chains into shared scratch buffers.

        A node's output value is *dead* after the forward pass when neither its
        own VJP nor any consumer's VJP reads it.  Consecutive dead elementwise
        nodes forming a linear chain (single consumer = next program node, same
        shape/dtype) all write **in place** into one shared scratch buffer —
        this is the ``mul → add → relu``-style collapse: one buffer, no
        intermediate allocations, pure ufunc passes.
        """
        consumers: dict[int, list[int]] = {}
        for node in self.nodes:
            for pid in node.parent_ids:
                consumers.setdefault(pid, []).append(node.index)

        def value_dead(node: _Node) -> bool:
            if node.kind != "interior" or node.index == self._loss_index:
                return False
            if node.op in _NEEDS_OUTPUT:
                return False
            for cid in consumers.get(node.index, ()):  # consumers' VJP value needs
                consumer = self.nodes[cid]
                if consumer.op is None:
                    return False
                position = consumer.parent_ids.index(node.index)
                requires = [self.nodes[p].requires_grad for p in consumer.parent_ids]
                if position in _vjp_parent_value_needs(consumer.op, requires):
                    return False
            return True

        fused_chains = 0
        i = 0
        while i < len(self.nodes):
            node = self.nodes[i]
            eligible_head = (
                node.kind == "interior"
                and node.op in _ELEMENTWISE
                and value_dead(node)
                and len(consumers.get(node.index, ())) == 1
                and consumers[node.index][0] == node.index + 1
            )
            if not eligible_head:
                i += 1
                continue
            chain = [node]
            j = i + 1
            while j < len(self.nodes):
                nxt = self.nodes[j]
                same_shape = nxt.shape == node.shape and nxt.dtype == node.dtype
                # Non-head members must not read their chain parent's value in
                # their VJP (it will have been overwritten in the scratch).
                requires = [self.nodes[p].requires_grad for p in nxt.parent_ids]
                needs = _vjp_parent_value_needs(nxt.op, requires) if nxt.op else {0}
                chain_parent_pos = [
                    pos for pos, pid in enumerate(nxt.parent_ids) if self.nodes[pid].fused or pid == j - 1
                ]
                reads_dead = any(pos in needs for pos in chain_parent_pos)
                extendable = (
                    nxt.kind == "interior"
                    and nxt.op in _ELEMENTWISE
                    and same_shape
                    and not reads_dead
                    and value_dead(nxt)
                    and len(consumers.get(nxt.index, ())) == 1
                    and consumers[nxt.index][0] == nxt.index + 1
                )
                # The last node of a chain may be "live" (its value feeds the
                # rest of the graph); it keeps its own buffer and just reads the
                # scratch — only dead nodes join the scratch.
                if not extendable:
                    break
                chain.append(nxt)
                j += 1
            if len(chain) >= 2:
                scratch = np.empty(node.shape, dtype=node.dtype)
                for member in chain:
                    member.cell[0] = scratch
                    member.fused = True
                fused_chains += 1
                i = j
            else:
                i += 1
        return fused_chains

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def run(
        self,
        params: Sequence[Tensor],
        inputs: Mapping[str, np.ndarray],
        profiler: OpProfiler | None = None,
    ) -> float:
        """One replay: forward, backward, publish ``param.grad``; returns loss.

        With a ``profiler`` the same loop runs timed wrappers of the same
        thunks: each primitive is credited under ``<op>.fwd`` / ``<op>.bwd``,
        and the work around the op loops (leaf binding, gradient seeding, grad
        publish) under ``replay.*`` keys, so the profile accounts for the
        whole replay.
        """
        fwd, bwd = self._fwd, self._bwd
        if profiler is not None:
            fwd, bwd = self._timed_thunks(profiler)
        with timed_section(profiler, "replay.bind"):
            for cell, position in self._param_cells:
                cell[0] = params[position].data
            for cell, name in self._input_cells:
                cell[0] = np.asarray(inputs[name])
            for cell, tensor in self._const_bindings:
                cell[0] = tensor.data

        for thunk in fwd:
            thunk()

        if self._loss_requires_grad:
            with timed_section(profiler, "replay.seed"):
                for slot in self._slots:
                    slot.filled = False
                seed = self._loss_slot
                seed.buf[...] = 1.0
                seed.filled = True
            for thunk in bwd:
                thunk()

        with timed_section(profiler, "replay.publish"):
            for position, slot in self._param_grad_publish:
                param = params[position]
                param.grad = slot.buf if (slot is not None and slot.filled) else None
            loss = float(np.asarray(self._loss_cell[0]).reshape(()))
        return loss

    def _timed_thunks(self, profiler: OpProfiler) -> tuple[list, list]:
        """Forward/backward thunk lists that credit their time to ``profiler``."""
        if self._timed is None or self._timed[0] is not profiler:
            self._timed = (
                profiler,
                [_timed(thunk, op + ".fwd", profiler) for thunk, op in zip(self._fwd, self._fwd_ops)],
                [_timed(thunk, op + ".bwd", profiler) for thunk, op in zip(self._bwd, self._bwd_ops)],
            )
        return self._timed[1], self._timed[2]

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)


_VIEW_OPS = {"reshape", "transpose", "getitem"}


def _timed(thunk: Callable[[], None], key: str, profiler: OpProfiler) -> Callable[[], None]:
    perf = time.perf_counter
    add = profiler.add

    def timed() -> None:
        start = perf()
        thunk()
        add(key, perf() - start)

    return timed


# --------------------------------------------------------------------------- #
# Per-primitive thunk builders
#
# Every builder returns ``(forward, backward)`` callables (either may be
# ``None``).  Each mirrors the corresponding eager closure in tensor.py
# operation-for-operation so replays are bit-identical; comments call out the
# eager expression being replicated where it is not obvious.
# --------------------------------------------------------------------------- #
def _cells(program: Program, node: _Node) -> list[list]:
    return [program.nodes[pid].cell for pid in node.parent_ids]

def _slots(program: Program, node: _Node) -> list[_GradSlot | None]:
    return [program.nodes[pid].slot for pid in node.parent_ids]


def _build_add(program, node):
    (a, b), buf = _cells(program, node), node.cell[0]
    sa, sb = _slots(program, node)
    out = node.slot

    def forward():
        np.add(a[0], b[0], out=buf)

    def backward():
        if not out.filled:
            return
        if sa is not None:
            sa.add(out.buf)
        if sb is not None:
            sb.add(out.buf)

    return forward, backward if out is not None else None


def _build_sub(program, node):
    (a, b), buf = _cells(program, node), node.cell[0]
    sa, sb = _slots(program, node)
    out = node.slot
    scratch = np.empty(node.shape, node.dtype) if sb is not None else None

    def forward():
        np.subtract(a[0], b[0], out=buf)

    def backward():
        if not out.filled:
            return
        if sa is not None:
            sa.add(out.buf)
        if sb is not None:
            np.negative(out.buf, out=scratch)
            sb.add(scratch)

    return forward, backward if out is not None else None


def _build_neg(program, node):
    (a,), buf = _cells(program, node), node.cell[0]
    (sa,) = _slots(program, node)
    out = node.slot
    scratch = np.empty(node.shape, node.dtype) if sa is not None else None

    def forward():
        np.negative(a[0], out=buf)

    def backward():
        if not out.filled:
            return
        if sa is not None:
            np.negative(out.buf, out=scratch)
            sa.add(scratch)

    return forward, backward if out is not None else None


def _build_mul(program, node):
    (a, b), buf = _cells(program, node), node.cell[0]
    sa, sb = _slots(program, node)
    out = node.slot
    scratch = np.empty(node.shape, node.dtype) if (sa is not None or sb is not None) else None

    def forward():
        np.multiply(a[0], b[0], out=buf)

    def backward():
        if not out.filled:
            return
        if sa is not None:  # eager: out.grad * other.data
            np.multiply(out.buf, b[0], out=scratch)
            sa.add(scratch)
        if sb is not None:
            np.multiply(out.buf, a[0], out=scratch)
            sb.add(scratch)

    return forward, backward if out is not None else None


def _build_div(program, node):
    (a, b), buf = _cells(program, node), node.cell[0]
    sa, sb = _slots(program, node)
    out = node.slot
    scratch = np.empty(node.shape, node.dtype) if (sa is not None or sb is not None) else None
    b_shape = program.nodes[node.parent_ids[1]].shape
    b_dtype = program.nodes[node.parent_ids[1]].dtype
    scratch_b = np.empty(b_shape, b_dtype) if sb is not None else None

    def forward():
        np.true_divide(a[0], b[0], out=buf)

    def backward():
        if not out.filled:
            return
        if sa is not None:  # eager: out.grad / other.data
            np.true_divide(out.buf, b[0], out=scratch)
            sa.add(scratch)
        if sb is not None:  # eager: -out.grad * self.data / (other.data ** 2)
            np.negative(out.buf, out=scratch)
            np.multiply(scratch, a[0], out=scratch)
            scratch_b[...] = b[0] ** 2  # ndarray.__pow__, matching eager exactly
            np.true_divide(scratch, scratch_b, out=scratch)
            sb.add(scratch)

    return forward, backward if out is not None else None


def _build_pow(program, node):
    (a,), buf = _cells(program, node), node.cell[0]
    (sa,) = _slots(program, node)
    out = node.slot
    exponent = node.ctx[0]
    scratch = np.empty(node.shape, node.dtype) if sa is not None else None

    def forward():
        # ndarray.__pow__ has fast paths (e.g. 0.5 -> sqrt) that np.power does
        # not take; call it directly so values match eager bit-for-bit.
        buf[...] = a[0] ** exponent

    def backward():
        if not out.filled:
            return
        if sa is not None:  # eager: out.grad * exponent * data ** (exponent - 1)
            np.multiply(out.buf, exponent, out=scratch)
            np.multiply(scratch, a[0] ** (exponent - 1), out=scratch)
            sa.add(scratch)

    return forward, backward if out is not None else None


def _build_matmul(program, node):
    (a, b), buf = _cells(program, node), node.cell[0]
    sa, sb = _slots(program, node)
    out = node.slot
    a_ndim = len(program.nodes[node.parent_ids[0]].shape)
    b_ndim = len(program.nodes[node.parent_ids[1]].shape)
    out_ndim = len(node.shape)

    if out_ndim == 0:
        def forward():
            buf[...] = a[0] @ b[0]
    else:
        def forward():
            np.matmul(a[0], b[0], out=buf)

    def backward():
        if not out.filled:
            return
        grad = out.buf
        if sa is not None:
            if b_ndim == 1:
                sa.add(np.outer(grad, b[0]) if grad.ndim else grad * b[0])
            else:
                sa.add(grad @ b[0].T)
        if sb is not None:
            if a_ndim == 1:
                sb.add(np.outer(a[0], grad) if grad.ndim else a[0] * grad)
            else:
                sb.add(a[0].T @ grad)

    return forward, backward if out is not None else None


def _reduction_grad_view(grad: np.ndarray, axis, keepdims: bool, shape: tuple[int, ...]) -> np.ndarray:
    if axis is not None and not keepdims:
        grad = np.expand_dims(grad, axis=axis)
    return np.broadcast_to(grad, shape)


def _build_sum(program, node):
    (a,), buf = _cells(program, node), node.cell[0]
    (sa,) = _slots(program, node)
    out = node.slot
    axis, keepdims = node.ctx
    in_shape = program.nodes[node.parent_ids[0]].shape

    def forward():
        np.sum(a[0], axis=axis, keepdims=keepdims, out=buf)

    def backward():
        if not out.filled:
            return
        if sa is not None:
            sa.add(_reduction_grad_view(out.buf, axis, keepdims, in_shape))

    return forward, backward if out is not None else None


def _build_mean(program, node):
    (a,), buf = _cells(program, node), node.cell[0]
    (sa,) = _slots(program, node)
    out = node.slot
    axis, keepdims, count = node.ctx
    in_shape = program.nodes[node.parent_ids[0]].shape
    in_dtype = program.nodes[node.parent_ids[0]].dtype
    scratch = np.empty(in_shape, in_dtype) if sa is not None else None

    def forward():
        np.mean(a[0], axis=axis, keepdims=keepdims, out=buf)

    def backward():
        if not out.filled:
            return
        if sa is not None:  # eager: np.broadcast_to(grad, shape) / count
            np.true_divide(_reduction_grad_view(out.buf, axis, keepdims, in_shape), count, out=scratch)
            sa.add(scratch)

    return forward, backward if out is not None else None


def _build_amax(program, node):
    (a,), buf = _cells(program, node), node.cell[0]
    axis, keepdims = node.ctx

    def forward():
        np.amax(a[0], axis=axis, keepdims=keepdims, out=buf)

    return forward, None


def _build_exp(program, node):
    (a,), buf = _cells(program, node), node.cell[0]
    (sa,) = _slots(program, node)
    out = node.slot
    scratch = np.empty(node.shape, node.dtype) if sa is not None else None

    def forward():
        np.exp(a[0], out=buf)

    def backward():
        if not out.filled:
            return
        if sa is not None:  # eager: out.grad * value
            np.multiply(out.buf, buf, out=scratch)
            sa.add(scratch)

    return forward, backward if out is not None else None


def _build_log(program, node):
    (a,), buf = _cells(program, node), node.cell[0]
    (sa,) = _slots(program, node)
    out = node.slot
    (eps,) = node.ctx
    scratch = np.empty(node.shape, node.dtype) if sa is not None else None

    def forward():  # eager: np.log(data + eps)
        np.add(a[0], eps, out=buf)
        np.log(buf, out=buf)

    def backward():
        if not out.filled:
            return
        if sa is not None:  # eager: out.grad / (data + eps)
            np.add(a[0], eps, out=scratch)
            np.true_divide(out.buf, scratch, out=scratch)
            sa.add(scratch)

    return forward, backward if out is not None else None


def _build_relu(program, node):
    (a,), buf = _cells(program, node), node.cell[0]
    (sa,) = _slots(program, node)
    out = node.slot
    mask = np.empty(node.shape, dtype=bool)
    scratch = np.empty(node.shape, node.dtype) if sa is not None else None

    def forward():  # eager: data * (data > 0)
        np.greater(a[0], 0, out=mask)
        np.multiply(a[0], mask, out=buf)

    def backward():
        if not out.filled:
            return
        if sa is not None:
            np.greater(a[0], 0, out=mask)
            np.multiply(out.buf, mask, out=scratch)
            sa.add(scratch)

    return forward, backward if out is not None else None


def _build_leaky_relu(program, node):
    (a,), buf = _cells(program, node), node.cell[0]
    (sa,) = _slots(program, node)
    out = node.slot
    (negative_slope,) = node.ctx
    mask = np.empty(node.shape, dtype=bool)
    slope = np.empty(node.shape, node.dtype)
    scratch = np.empty(node.shape, node.dtype) if sa is not None else None

    def _slope():  # eager: np.where(data > 0, 1.0, negative_slope)
        np.greater(a[0], 0, out=mask)
        slope.fill(negative_slope)
        slope[mask] = 1.0

    def forward():
        _slope()
        np.multiply(a[0], slope, out=buf)

    def backward():
        if not out.filled:
            return
        if sa is not None:
            _slope()
            np.multiply(out.buf, slope, out=scratch)
            sa.add(scratch)

    return forward, backward if out is not None else None


def _build_softplus(program, node):
    (a,), buf = _cells(program, node), node.cell[0]
    (sa,) = _slots(program, node)
    out = node.slot
    scratch = np.empty(node.shape, node.dtype) if sa is not None else None

    def forward():
        np.logaddexp(0.0, a[0], out=buf)

    def backward():
        if not out.filled:
            return
        if sa is not None:  # eager factor: 1 / (1 + exp(-clip(data, ±60)))
            np.clip(a[0], -60.0, 60.0, out=scratch)
            np.negative(scratch, out=scratch)
            np.exp(scratch, out=scratch)
            np.add(1.0, scratch, out=scratch)
            np.true_divide(1.0, scratch, out=scratch)
            # eager: out.grad * grad_factor (commutative, bit-identical)
            np.multiply(scratch, out.buf, out=scratch)
            sa.add(scratch)

    return forward, backward if out is not None else None


def _build_sigmoid(program, node):
    (a,), buf = _cells(program, node), node.cell[0]
    (sa,) = _slots(program, node)
    out = node.slot
    scratch = np.empty(node.shape, node.dtype) if sa is not None else None
    scratch2 = np.empty(node.shape, node.dtype) if sa is not None else None

    def forward():  # eager: 1 / (1 + exp(-clip(data, ±60)))
        np.clip(a[0], -60.0, 60.0, out=buf)
        np.negative(buf, out=buf)
        np.exp(buf, out=buf)
        np.add(1.0, buf, out=buf)
        np.true_divide(1.0, buf, out=buf)

    def backward():
        if not out.filled:
            return
        if sa is not None:  # eager: out.grad * value * (1 - value)
            np.multiply(out.buf, buf, out=scratch)
            np.subtract(1.0, buf, out=scratch2)
            np.multiply(scratch, scratch2, out=scratch)
            sa.add(scratch)

    return forward, backward if out is not None else None


def _build_tanh(program, node):
    (a,), buf = _cells(program, node), node.cell[0]
    (sa,) = _slots(program, node)
    out = node.slot
    scratch = np.empty(node.shape, node.dtype) if sa is not None else None

    def forward():
        np.tanh(a[0], out=buf)

    def backward():
        if not out.filled:
            return
        if sa is not None:  # eager: out.grad * (1 - value ** 2)
            scratch[...] = buf ** 2
            np.subtract(1.0, scratch, out=scratch)
            # eager multiplies grad * (1 - v^2); commutative, bit-identical
            np.multiply(scratch, out.buf, out=scratch)
            sa.add(scratch)

    return forward, backward if out is not None else None


def _build_abs(program, node):
    (a,), buf = _cells(program, node), node.cell[0]
    (sa,) = _slots(program, node)
    out = node.slot
    scratch = np.empty(node.shape, node.dtype) if sa is not None else None

    def forward():
        np.absolute(a[0], out=buf)

    def backward():
        if not out.filled:
            return
        if sa is not None:  # eager: out.grad * np.sign(data)
            np.sign(a[0], out=scratch)
            np.multiply(scratch, out.buf, out=scratch)
            sa.add(scratch)

    return forward, backward if out is not None else None


def _build_clip(program, node):
    (a,), buf = _cells(program, node), node.cell[0]
    (sa,) = _slots(program, node)
    out = node.slot
    low, high = node.ctx
    mask = np.empty(node.shape, dtype=bool) if sa is not None else None
    mask2 = np.empty(node.shape, dtype=bool) if sa is not None else None
    scratch = np.empty(node.shape, node.dtype) if sa is not None else None

    def forward():
        np.clip(a[0], low, high, out=buf)

    def backward():
        if not out.filled:
            return
        if sa is not None:  # eager: out.grad * ((data >= low) & (data <= high))
            np.greater_equal(a[0], low, out=mask)
            np.less_equal(a[0], high, out=mask2)
            np.logical_and(mask, mask2, out=mask)
            np.multiply(out.buf, mask, out=scratch)
            sa.add(scratch)

    return forward, backward if out is not None else None


def _build_reshape(program, node):
    (a,) = _cells(program, node)
    (sa,) = _slots(program, node)
    out = node.slot
    shape, original = node.ctx
    cell = node.cell

    def forward():
        cell[0] = a[0].reshape(shape)

    def backward():
        if not out.filled:
            return
        if sa is not None:
            sa.add(out.buf.reshape(original))

    return forward, backward if out is not None else None


def _build_transpose(program, node):
    (a,) = _cells(program, node)
    (sa,) = _slots(program, node)
    out = node.slot
    axes, inverse = node.ctx
    cell = node.cell

    def forward():
        cell[0] = a[0].transpose(axes)

    def backward():
        if not out.filled:
            return
        if sa is not None:
            sa.add(out.buf.transpose(inverse))

    return forward, backward if out is not None else None


def _build_getitem(program, node):
    (a,) = _cells(program, node)
    (sa,) = _slots(program, node)
    out = node.slot
    (key,) = node.ctx
    cell = node.cell
    in_shape = program.nodes[node.parent_ids[0]].shape
    in_dtype = program.nodes[node.parent_ids[0]].dtype
    scratch = np.empty(in_shape, in_dtype) if sa is not None else None

    def forward():
        cell[0] = a[0][key]

    def backward():
        if not out.filled:
            return
        if sa is not None:  # eager: zeros; grad[key] = out.grad
            scratch.fill(0.0)
            scratch[key] = out.buf
            sa.add(scratch)

    return forward, backward if out is not None else None


def _build_take_rows(program, node):
    """Gather rows; the VJP sums duplicates with :func:`scatter_add_rows`.

    The scatter is one flattened ``np.bincount`` that adds each row's
    contributions in index order from zero — the same additions as eager's
    adjoint, so no persistent zeroed scratch is needed.
    """
    cells = _cells(program, node)
    a = cells[0]
    (sa, *_rest) = _slots(program, node)
    out = node.slot
    buf = node.cell[0]
    num_rows = program.nodes[node.parent_ids[0]].shape[0]

    if node.ctx[0] == "dynamic":
        index_cell = cells[1]

        def current_indices() -> np.ndarray:
            return np.asarray(index_cell[0], dtype=np.int64)
    else:
        static_idx = node.ctx[1]

        def current_indices() -> np.ndarray:
            return static_idx

    def forward():
        np.take(a[0], current_indices(), axis=0, out=buf)

    def backward():
        if not out.filled:
            return
        if sa is not None:
            sa.add(scatter_add_rows(current_indices(), out.buf, num_rows))

    return forward, backward if out is not None else None


def _build_concat(program, node):
    cells = _cells(program, node)
    slots = _slots(program, node)
    out = node.slot
    buf = node.cell[0]
    axis, offsets = node.ctx
    ndim = len(node.shape)
    slicers = []
    for start, stop in zip(offsets[:-1], offsets[1:]):
        slicer = [slice(None)] * ndim
        slicer[axis] = slice(start, stop)
        slicers.append(tuple(slicer))

    def forward():
        np.concatenate([c[0] for c in cells], axis=axis, out=buf)

    def backward():
        if not out.filled:
            return
        for slot, slicer in zip(slots, slicers):
            if slot is not None:
                slot.add(out.buf[slicer])

    return forward, backward if out is not None else None


def _build_stack(program, node):
    cells = _cells(program, node)
    slots = _slots(program, node)
    out = node.slot
    buf = node.cell[0]
    (axis,) = node.ctx

    def forward():
        np.stack([c[0] for c in cells], axis=axis, out=buf)

    def backward():
        if not out.filled:
            return
        grads = np.moveaxis(out.buf, axis, 0)
        for position, slot in enumerate(slots):
            if slot is not None:
                slot.add(grads[position])

    return forward, backward if out is not None else None


def _build_sparse_matmul(program, node):
    (a,) = _cells(program, node)
    (sa,) = _slots(program, node)
    out = node.slot
    (csr,) = node.ctx
    csr_t = csr.T
    cell = node.cell

    def forward():
        cell[0] = np.asarray(csr @ a[0])

    def backward():
        if not out.filled:
            return
        if sa is not None:
            sa.add(csr_t @ out.buf)

    return forward, backward if out is not None else None


def _build_host(program, node):
    cells = _cells(program, node)
    buf = node.cell[0]
    fn, shapes = node.ctx

    def forward():  # eager: concatenate(ravel(fn(*parent data)))
        outputs = fn(*(cell[0] for cell in cells))
        got = tuple(np.shape(out) for out in outputs)
        if got != shapes:
            raise TraceError(f"host op output shapes changed from {shapes} to {got}")
        np.concatenate([np.ravel(out) for out in outputs], out=buf)

    return forward, None


_BUILDERS: dict[str, Callable] = {
    "add": _build_add,
    "sub": _build_sub,
    "neg": _build_neg,
    "mul": _build_mul,
    "div": _build_div,
    "pow": _build_pow,
    "matmul": _build_matmul,
    "sum": _build_sum,
    "mean": _build_mean,
    "amax": _build_amax,
    "exp": _build_exp,
    "log": _build_log,
    "relu": _build_relu,
    "leaky_relu": _build_leaky_relu,
    "softplus": _build_softplus,
    "sigmoid": _build_sigmoid,
    "tanh": _build_tanh,
    "abs": _build_abs,
    "clip": _build_clip,
    "reshape": _build_reshape,
    "transpose": _build_transpose,
    "getitem": _build_getitem,
    "take_rows": _build_take_rows,
    "concat": _build_concat,
    "stack": _build_stack,
    "sparse_matmul": _build_sparse_matmul,
    "host": _build_host,
}


# --------------------------------------------------------------------------- #
# Tracing and the public CompiledStep wrapper
# --------------------------------------------------------------------------- #
def trace_program(
    step_fn: Callable,
    params: Sequence[Tensor],
    inputs: Mapping[str, np.ndarray],
) -> tuple[Program, float]:
    """Trace one eager execution of ``step_fn`` into a :class:`Program`.

    Returns ``(program, loss_value)``; the traced run itself does not publish
    gradients (the caller is expected to replay the program immediately).
    """
    wrapped = {name: _input_tensor(array) for name, array in inputs.items()}
    previous = _set_tracing(True)
    try:
        loss = step_fn(list(params), wrapped)
    finally:
        _set_tracing(previous)
    if not isinstance(loss, Tensor):
        raise TraceError("step_fn must return a Tensor loss")
    if loss.size != 1:
        raise TraceError("step_fn must return a scalar loss")
    return Program(loss, params, wrapped), loss.item()


def _signature(params: Sequence[Tensor], inputs: Mapping[str, np.ndarray]) -> tuple:
    return (
        tuple(id(p) for p in params),
        tuple(sorted((name, np.shape(a), np.asarray(a).dtype.str) for name, a in inputs.items())),
    )


class CompiledStep:
    """A ``step_fn`` compiled to trace-once / replay-many execution.

    Calling the compiled step computes the loss **and** the parameter
    gradients (``param.grad`` is published for every parameter, pointing at a
    persistent buffer that is overwritten on the next call), returning the
    loss as a float — one optimiser ``step()`` away from a full training step.

    ``mode="eager"`` executes the underlying Python step function every call
    (used as the reference arm in equivalence tests and benchmarks); the
    default ``mode="replay"`` traces on first use and replays afterwards.
    """

    def __init__(
        self,
        step_fn: Callable,
        *,
        mode: str = "replay",
        cache_size: int = 8,
        profiler: OpProfiler | None = None,
    ) -> None:
        if mode not in {"replay", "eager"}:
            raise ValueError("mode must be 'replay' or 'eager'")
        if cache_size <= 0:
            raise ValueError("cache_size must be positive")
        self._step_fn = step_fn
        self._mode = mode
        self._cache_size = cache_size
        self._programs: dict[tuple, Program] = {}
        self._disabled = False
        self._untraced_eager = False
        self.stats = CompileStats()
        self.profiler = profiler

    # -- execution ---------------------------------------------------------
    def __call__(self, params: Sequence[Tensor], inputs: Mapping[str, np.ndarray]) -> float:
        if self._mode == "eager" or self._disabled:
            return self._eager(params, inputs)
        signature = _signature(params, inputs)
        program = self._programs.get(signature)
        if program is None:
            trace_start = time.perf_counter() if self.profiler is not None else 0.0
            try:
                program, _ = trace_program(self._step_fn, params, inputs)
            except TraceError:
                # Permanently fall back: a graph that cannot be lifted now will
                # not become liftable later (e.g. active dropout).
                self._disabled = True
                self.stats.fallbacks += 1
                return self._eager(params, inputs)
            if self.profiler is not None:
                self.profiler.add("trace", time.perf_counter() - trace_start)
            if len(self._programs) >= self._cache_size:
                self._programs.pop(next(iter(self._programs)))
            self._programs[signature] = program
            self.stats.traces += 1
            self.stats.programs = len(self._programs)
            self.stats.nodes = program.num_nodes
            self.stats.fused_nodes = sum(1 for n in program.nodes if n.fused)
        self.stats.replays += 1
        return program.run(params, inputs, self.profiler)

    def eager(self, params: Sequence[Tensor], inputs: Mapping[str, np.ndarray]) -> float:
        """Run the step eagerly (fresh tape) regardless of mode."""
        return self._eager(params, inputs)

    def _eager(self, params: Sequence[Tensor], inputs: Mapping[str, np.ndarray]) -> float:
        # Tracing stays enabled so the recorded graph (and therefore the
        # reverse-topological accumulation order) is identical to a replay.
        # Steps that refuse to trace at all (e.g. active Dropout raising
        # TraceError) permanently switch to plain untraced eager execution.
        if self.profiler is not None:
            with self.profiler.time("eager.step"):
                return self._eager_inner(params, inputs)
        return self._eager_inner(params, inputs)

    def _eager_inner(self, params: Sequence[Tensor], inputs: Mapping[str, np.ndarray]) -> float:
        wrapped = {name: _input_tensor(array) for name, array in inputs.items()}
        for param in params:
            param.grad = None
        if not self._untraced_eager:
            previous = _set_tracing(True)
            try:
                loss = self._step_fn(list(params), wrapped)
                loss.backward()
            except TraceError:
                self._untraced_eager = True
            finally:
                _set_tracing(previous)
        if self._untraced_eager:
            for param in params:
                param.grad = None
            loss = self._step_fn(list(params), wrapped)
            loss.backward()
        self.stats.eager_calls += 1
        return loss.item()

    # -- introspection -----------------------------------------------------
    @property
    def mode(self) -> str:
        return self._mode

    def program_for(self, params: Sequence[Tensor], inputs: Mapping[str, np.ndarray]) -> Program | None:
        """The cached program that would serve this (params, inputs) shape."""
        return self._programs.get(_signature(params, inputs))

    def enable_profiling(self, profiler: OpProfiler | None = None) -> OpProfiler:
        """Attach (or create) a per-op profiler; returns it.

        Subsequent replays pass it to :meth:`Program.run`, so every
        primitive's wall time accumulates under ``<op>.fwd`` / ``<op>.bwd``
        keys.  Detach with ``step.profiler = None``.
        """
        if profiler is None:
            profiler = self.profiler if self.profiler is not None else OpProfiler()
        self.profiler = profiler
        return profiler


def compile(
    step_fn: Callable,
    *,
    mode: str = "replay",
    cache_size: int = 8,
    profiler: OpProfiler | None = None,
) -> CompiledStep:
    """Compile ``step_fn(params, inputs) -> loss`` for trace-and-replay.

    See the module docstring for the trace/replay contract.  ``mode="eager"``
    returns a wrapper that always executes eagerly (reference arm);
    ``cache_size`` bounds how many shape signatures keep live programs;
    ``profiler`` (an :class:`~repro.obs.profile.OpProfiler`) opts replays into
    per-op wall-time accounting.
    """
    return CompiledStep(step_fn, mode=mode, cache_size=cache_size, profiler=profiler)
