"""NumPy autograd / neural-network substrate (PyTorch substitute).

Execution modes
---------------
The substrate has two execution modes for a training step, and both run the
kernels of one primitive table (:mod:`repro.nn.primitives`), where each
operation's forward kernel and VJP are written once.

**Eager (default).**  Every ``Tensor`` operation immediately computes its
value with the table's forward kernel and records its primitive on the tape;
``loss.backward()`` walks the tape in reverse topological order, calling each
node's VJP.  Simple, allocation-heavy, rebuilt every step.

**Compiled (``nn.compile``).**  ``nn.compile(step_fn)`` wraps a function
``step_fn(params, inputs) -> loss`` (``params``: list of :class:`Parameter`,
``inputs``: dict of NumPy arrays).  The first call *traces* one eager
execution into a flat program of primitive ops — each node records its
primitive, input slots, output buffer and gradient slot — and every later call
*replays* that program: the same kernels, handed preallocated forward/backward
buffers (``np.<op>(..., out=buf)``), with fused elementwise chains and
in-place gradient accumulation.  Replays are bit-identical to eager execution
by construction — the same functions run in the same reverse-topological
order, just without Python-graph rebuilding or per-step allocation.

The trace/replay contract: everything that varies between steps must flow
through ``params`` or ``inputs`` (index arrays in ``inputs`` reach gathers as
dynamic operands and are re-read every replay); any other value touched during
tracing is captured by reference and assumed constant.  A **shape guard** keys
each program by the input/parameter shapes and dtypes — new batch shapes
trigger a transparent re-trace, and graphs that cannot be lifted at all (an
active :class:`Dropout`, a :class:`~repro.nn.tensor.TraceError` from any
custom op) silently fall back to permanent eager execution, so compiled mode
is always safe to leave on.
"""

from .tensor import Tensor, as_tensor, no_grad, is_grad_enabled, is_tracing, TraceError
from .layers import Module, Parameter, Linear, MLP, Embedding, Dropout, Sequential
from .optim import Optimizer, Adam
from .sparse import sparse_dense_matmul
from . import functional, init

# NOTE: this import intentionally shadows the ``repro.nn.compile`` *module*
# attribute with the ``compile`` *function*, mirroring ``torch.compile``.  The
# submodule is still importable via ``from repro.nn.compile import ...``
# because it is resolved through ``sys.modules``.
from .compile import compile, CompiledStep, CompileStats, trace_program

__all__ = [
    "Tensor",
    "as_tensor",
    "no_grad",
    "is_grad_enabled",
    "is_tracing",
    "TraceError",
    "Module",
    "Parameter",
    "Linear",
    "MLP",
    "Embedding",
    "Dropout",
    "Sequential",
    "Optimizer",
    "Adam",
    "sparse_dense_matmul",
    "functional",
    "init",
    "compile",
    "CompiledStep",
    "CompileStats",
    "trace_program",
]
