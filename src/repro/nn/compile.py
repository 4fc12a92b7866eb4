"""Compile-and-replay execution for the autograd tape.

The define-by-run tape in :mod:`repro.nn.tensor` rebuilds its graph of
:class:`Tensor` nodes on every step, even though the compute graph of a
training step is static across iterations.  This module removes that
re-tracing overhead with loop tracing (Dr.Jit): run the step *once* eagerly to
record the graph, lift it into a flat program of primitive ops, then replay
that program on every subsequent step.

The replay is faster than eager execution for three reasons:

* **no re-tracing** — no tape nodes, no topological sort, no Python graph
  walk; forward and backward are flat lists of pre-bound thunks;
* **preallocated buffers** — every intermediate writes into a persistent
  buffer via ``np.<op>(..., out=buf)`` instead of allocating a fresh array;
  elementwise chains whose intermediate values are not needed by any VJP are
  *fused*: the whole chain runs in-place through one shared scratch buffer;
* **in-place gradient accumulation** — adjoints accumulate with ``+=`` into
  persistent per-node gradient buffers instead of ``grad = grad + g``.

Replays are **bit-identical** to eager execution by construction: each thunk
calls the forward kernel or VJP of the op's entry in
:data:`~repro.nn.primitives.PRIMITIVES` — the same function eager execution
calls, given buffers instead of ``None`` — in the same (reverse-topological)
order.  The fusion planner reads its liveness facts from the same entries.

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
from typing import Callable, Mapping, Sequence

import numpy as np

from ..obs.profile import OpProfiler, timed_section
from .primitives import PRIMITIVES, cast_unbroadcast
from .tensor import Tensor, TraceError, _leaf, _set_tracing

__all__ = ["compile", "CompiledStep", "CompileStats", "Program", "trace_program", "TraceError"]


class _GradSlot:
    """Persistent gradient buffer, accumulated like an eager tensor's ``grad``.

    Each share goes through :func:`~repro.nn.primitives.cast_unbroadcast`;
    the first is copied and later ones added — the eager order, with the sums
    landing in place instead of in fresh arrays.
    """

    __slots__ = ("buf", "filled", "shape", "dtype")

    def __init__(self, shape: tuple[int, ...], dtype) -> None:
        self.buf = np.empty(shape, dtype=dtype)
        self.filled = False
        self.shape = shape
        self.dtype = dtype

    def add(self, grad: np.ndarray) -> None:
        grad = cast_unbroadcast(grad, self.shape, self.dtype)
        if self.filled:
            self.buf += grad
        else:
            np.copyto(self.buf, grad)
            self.filled = True


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
                if op not in PRIMITIVES:
                    raise TraceError(
                        f"traced graph contains a tensor with parents but no known primitive ({op!r})"
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

        # Buffer allocation with elementwise-chain fusion --------------------
        self.fused_chains = self._plan_fusion()
        for node in self.nodes:
            if node.kind == "interior" and node.cell[0] is None and PRIMITIVES[node.op].buffered:
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
            fwd, bwd = self._thunks(node)
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

    def _thunks(self, node: _Node) -> tuple[Callable[[], None], Callable[[], None] | None]:
        """Bind the node's table entry into its forward and backward thunks.

        The forward kernel writes into the node's buffer (its own, or its fused
        chain's scratch); unbuffered ops return a fresh value that rebinds the
        cell.  ``ws`` keeps the kernels' temporaries across replays.  The
        backward thunk is :meth:`Tensor._propagate <repro.nn.tensor.Tensor._propagate>`
        over gradient slots; there is none when no parent takes a gradient.
        """
        prim = PRIMITIVES[node.op]
        forward, vjp, ctx, cell, out, slot = prim.forward, prim.vjp, node.ctx, node.cell, node.cell[0], node.slot
        cells = [self.nodes[pid].cell for pid in node.parent_ids]
        targets = [
            (i, self.nodes[pid].slot.add) for i, pid in enumerate(node.parent_ids) if self.nodes[pid].slot is not None
        ]
        ws: dict = {}

        def fwd() -> None:
            cell[0] = forward(ctx, out, ws, *[c[0] for c in cells])

        def bwd() -> None:
            if slot.filled:
                values = [c[0] for c in cells]
                for i, add in targets:
                    grad = vjp(i, slot.buf, cell[0], ctx, ws, *values)
                    if grad is not None:
                        add(grad)

        if slot is None or vjp is None or not targets:
            return fwd, None
        return fwd, bwd

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

        def elementwise(node: _Node) -> bool:
            return node.kind == "interior" and PRIMITIVES[node.op].elementwise

        def value_reads(node: _Node) -> set[int]:
            requires = [self.nodes[p].requires_grad for p in node.parent_ids]
            return PRIMITIVES[node.op].value_reads(requires)

        def value_dead(node: _Node) -> bool:
            if node.kind != "interior" or node.index == self._loss_index:
                return False
            if PRIMITIVES[node.op].reads_output:
                return False
            for cid in consumers.get(node.index, ()):  # consumers' VJP value needs
                consumer = self.nodes[cid]
                if consumer.parent_ids.index(node.index) in value_reads(consumer):
                    return False
            return True

        fused_chains = 0
        i = 0
        while i < len(self.nodes):
            node = self.nodes[i]
            eligible_head = (
                elementwise(node)
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
                # Non-head members must not read their chain parent's value in
                # their VJP (it will have been overwritten in the scratch).
                chain_parent_pos = {
                    pos for pos, pid in enumerate(nxt.parent_ids) if self.nodes[pid].fused or pid == j - 1
                }
                extendable = (
                    elementwise(nxt)
                    and nxt.shape == node.shape
                    and nxt.dtype == node.dtype
                    and not chain_parent_pos & value_reads(nxt)
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


def _timed(thunk: Callable[[], None], key: str, profiler: OpProfiler) -> Callable[[], None]:
    perf = time.perf_counter
    add = profiler.add

    def timed() -> None:
        start = perf()
        thunk()
        add(key, perf() - start)

    return timed


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
    wrapped = {name: _leaf(array) for name, array in inputs.items()}
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
        wrapped = {name: _leaf(array) for name, array in inputs.items()}
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
