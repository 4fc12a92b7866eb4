"""Trace/replay compilation: bit-identity vs eager, fusion, guards, fallback."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import (
    Adam,
    CompiledStep,
    Dropout,
    Parameter,
    Tensor,
    TraceError,
    as_tensor,
    compile as nn_compile,
    sparse_dense_matmul,
    trace_program,
)
from repro.nn import functional as F
from repro.align.darec import (
    global_structure_loss,
    local_structure_loss,
    orthogonality_loss,
    pairwise_gaussian_potential,
)

import scipy.sparse as sp


def run_both_arms(step_fn, make_params, inputs_seq, lr=0.05):
    """Run eager and replay arms in lockstep; assert bit-identical results.

    After every step both arms apply the same plain SGD update so parameter
    values drift away from their initialisation — equality on step one alone
    would not exercise buffer reuse across replays.
    """
    eager_params = make_params()
    replay_params = make_params()
    eager_step = nn_compile(step_fn, mode="eager")
    replay_step = nn_compile(step_fn)
    for arm_a, arm_b in zip(eager_params, replay_params):
        np.testing.assert_array_equal(arm_a.data, arm_b.data)
    for inputs in inputs_seq:
        eager_loss = eager_step(eager_params, inputs)
        replay_loss = replay_step(replay_params, inputs)
        assert eager_loss == replay_loss  # bitwise, not approx
        for eager_param, replay_param in zip(eager_params, replay_params):
            if eager_param.grad is None:
                assert replay_param.grad is None
                continue
            np.testing.assert_array_equal(eager_param.grad, replay_param.grad)
            eager_param.data = eager_param.data - lr * eager_param.grad
            replay_param.data = replay_param.data - lr * replay_param.grad
    assert replay_step.stats.traces == 1
    assert replay_step.stats.replays == len(inputs_seq)
    return replay_step


def make_params_factory(*arrays, dtype=np.float64):
    def factory():
        return [Parameter(np.array(a, dtype=dtype)) for a in arrays]

    return factory


RNG = np.random.default_rng(7)
X = RNG.normal(size=(6, 4))
W = RNG.normal(size=(4, 3))
B = RNG.normal(size=(3,))
DTYPES = [np.float32, np.float64]


class TestPerOpBitIdentity:
    """Each primitive replays bit-identically to its eager evaluation."""

    @pytest.mark.parametrize(
        "name,expr",
        [
            ("add", lambda p, i: (p[0] + i["x"]).sum()),
            ("sub", lambda p, i: (p[0] - i["x"]).sum()),
            ("mul", lambda p, i: (p[0] * i["x"]).sum()),
            ("div", lambda p, i: (p[0] / (i["x"] * i["x"] + 1.0)).sum()),
            ("neg", lambda p, i: (-p[0]).sum()),
            ("pow", lambda p, i: (p[0] ** 3).sum()),
            ("exp", lambda p, i: (p[0] * 0.1).exp().sum()),
            ("log", lambda p, i: (p[0] * p[0] + 1.0).log().sum()),
            ("relu", lambda p, i: p[0].relu().sum()),
            ("leaky_relu", lambda p, i: p[0].leaky_relu(0.2).sum()),
            ("softplus", lambda p, i: p[0].softplus().sum()),
            ("sigmoid", lambda p, i: p[0].sigmoid().sum()),
            ("tanh", lambda p, i: p[0].tanh().sum()),
            ("abs", lambda p, i: p[0].abs().sum()),
            ("clip", lambda p, i: p[0].clip(-0.5, 0.5).sum()),
            ("mean", lambda p, i: (p[0] * i["x"]).mean()),
            ("sum_axis", lambda p, i: (p[0] * i["x"]).sum(axis=0).sum()),
            ("mean_axis", lambda p, i: (p[0] * i["x"]).mean(axis=1).sum()),
            ("reshape", lambda p, i: (p[0].reshape((2, 12)) * 2.0).sum()),
            ("transpose", lambda p, i: (p[0].transpose() @ i["x"]).sum()),
            ("getitem", lambda p, i: (p[0][1:4] * 3.0).sum()),
            (
                "amax",
                lambda p, i: ((p[0] - p[0].amax(axis=1, keepdims=True)).exp().sum()),
            ),
            (
                "concat",
                lambda p, i: Tensor.concat([p[0] * 2.0, p[0] + 1.0], axis=0).sum(),
            ),
            (
                "stack",
                lambda p, i: Tensor.stack([p[0] * 2.0, p[0] + 1.0], axis=0).sum(),
            ),
        ],
    )
    def test_op(self, name, expr):
        inputs_seq = [{"x": RNG.normal(size=X.shape)} for _ in range(3)]
        run_both_arms(expr, make_params_factory(X), inputs_seq)

    def test_matmul_2d(self):
        def step(p, i):
            return ((i["x"] @ p[0]) + p[1]).sigmoid().sum()

        inputs_seq = [{"x": RNG.normal(size=X.shape)} for _ in range(3)]
        run_both_arms(step, make_params_factory(W, B), inputs_seq)

    def test_matmul_vector_cases(self):
        v = RNG.normal(size=4)

        def step(p, i):
            mat_vec = p[0].transpose() @ as_tensor(v)  # (3,4) @ (4,) -> (3,)
            vec_vec = mat_vec @ mat_vec  # (3,) @ (3,) -> scalar
            return vec_vec

        run_both_arms(step, make_params_factory(W), [{} for _ in range(3)])

    def test_take_rows_static(self):
        idx = np.array([0, 2, 2, 5])

        def step(p, i):
            return (p[0].take_rows(idx) * 2.0).sum()

        run_both_arms(step, make_params_factory(X), [{} for _ in range(3)])

    def test_take_rows_dynamic_reads_fresh_indices_each_replay(self):
        def step(p, i):
            return (p[0].take_rows(i["idx"]) * 2.0).sum()

        inputs_seq = [{"idx": RNG.integers(0, 6, size=5)} for _ in range(4)]
        run_both_arms(step, make_params_factory(X), inputs_seq)

    def test_sparse_matmul(self):
        matrix = sp.random(8, 6, density=0.4, random_state=3, format="csr")

        def step(p, i):
            return sparse_dense_matmul(matrix, p[0]).tanh().sum()

        run_both_arms(step, make_params_factory(X), [{} for _ in range(3)])

    def test_broadcast_gradients_match(self):
        bias = RNG.normal(size=(1, 4))
        scalar = np.array(0.5)

        def step(p, i):
            return ((i["x"] + p[0]) * p[1]).sum()

        inputs_seq = [{"x": RNG.normal(size=X.shape)} for _ in range(3)]
        run_both_arms(step, make_params_factory(bias, scalar), inputs_seq)

    def test_shared_subexpression_accumulates_identically(self):
        def step(p, i):
            hidden = p[0] * i["x"]
            return (hidden.sum() + (hidden * hidden).sum()) * 0.5

        inputs_seq = [{"x": RNG.normal(size=X.shape)} for _ in range(3)]
        run_both_arms(step, make_params_factory(X), inputs_seq)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("rhs_shape", [(6, 4), (1, 4), ()], ids=["full", "row", "scalar"])
    @pytest.mark.parametrize(
        "name,op",
        [
            ("add", lambda a, b: a + b),
            ("sub", lambda a, b: a - b),
            ("mul", lambda a, b: a * b),
            ("div", lambda a, b: a / b),
        ],
    )
    def test_binary_op_both_operands(self, name, op, rhs_shape, dtype):
        """Both operands trained, the right one possibly broadcast.

        The upstream gradient is a random input (not the all-ones seed of a
        bare ``.sum()``), so each VJP branch — the subtrahend of ``sub``, the
        divisor of ``div``, each side of ``mul``/``add`` — is checked.
        """
        rng = np.random.default_rng(17)
        # Divisors sit in [2, 3] so a few SGD steps never cross zero.
        rhs = rng.uniform(2.0, 3.0, size=rhs_shape)

        def step(p, i):
            return (op(p[0], p[1]) * i["x"]).sum()

        inputs_seq = [{"x": rng.normal(size=X.shape).astype(dtype)} for _ in range(3)]
        run_both_arms(step, make_params_factory(X, rhs, dtype=dtype), inputs_seq)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_matmul_both_operands(self, dtype):
        def step(p, i):
            return ((p[0] @ p[1]) * i["y"]).sum()

        inputs_seq = [{"y": RNG.normal(size=(6, 3)).astype(dtype)} for _ in range(3)]
        run_both_arms(step, make_params_factory(X, W, dtype=dtype), inputs_seq)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_pow_half(self, dtype):
        """The ``** 0.5`` fast path that ``l2_normalize`` takes."""

        def step(p, i):
            return (((p[0] * p[0]).sum(axis=1, keepdims=True) + 1e-12) ** 0.5 * i["x"]).sum()

        inputs_seq = [{"x": RNG.normal(size=(6, 1)).astype(dtype)} for _ in range(3)]
        run_both_arms(step, make_params_factory(X, dtype=dtype), inputs_seq)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("axis", [-1, 0])
    def test_l2_normalize(self, axis, dtype):
        """The fused primitive, its VJP fed a random upstream gradient."""

        def step(p, i):
            return (F.l2_normalize(p[0], axis=axis) * i["x"]).sum()

        inputs_seq = [{"x": RNG.normal(size=X.shape).astype(dtype)} for _ in range(3)]
        run_both_arms(step, make_params_factory(X, dtype=dtype), inputs_seq)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_bpr_loss(self, dtype):
        """Both tables trained, ids re-read every replay, a random upstream gradient."""
        rng = np.random.default_rng(23)
        users, items = rng.normal(size=(6, 4)), rng.normal(size=(5, 4))

        def step(p, i):
            return F.bpr_loss(p[0], p[1], i["users"], i["pos"], i["neg"]) * i["upstream"]

        inputs_seq = [
            {
                "users": rng.integers(0, 6, size=9),
                "pos": rng.integers(0, 5, size=9),
                "neg": rng.integers(0, 5, size=9),
                "upstream": np.array(rng.normal(), dtype=dtype),
            }
            for _ in range(4)
        ]
        run_both_arms(step, make_params_factory(users, items, dtype=dtype), inputs_seq)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize(
        "loss,arity",
        [
            pytest.param(orthogonality_loss, 2, id="squared_cosine_mean"),
            pytest.param(pairwise_gaussian_potential, 1, id="gaussian_potential"),
            pytest.param(global_structure_loss, 2, id="similarity_gap"),
            pytest.param(local_structure_loss, 2, id="center_alignment"),
        ],
    )
    def test_darec_loss_kernel(self, loss, arity, dtype):
        """DaRec's fused terms: every operand trained, a random upstream gradient."""
        rng = np.random.default_rng(29)
        operands = [rng.normal(size=X.shape) for _ in range(arity)]

        def step(p, i):
            return loss(*p) * i["upstream"]

        inputs_seq = [{"upstream": np.array(rng.normal(), dtype=dtype)} for _ in range(3)]
        run_both_arms(step, make_params_factory(*operands, dtype=dtype), inputs_seq)


class TestGetitemAdvancedIndex:
    """Repeated positions of an advanced-index key sum their gradients."""

    @pytest.mark.parametrize("mode", ["eager", "replay"])
    @pytest.mark.parametrize(
        "key",
        [
            (np.array([0, 0, 1]), np.array([1, 1, 2])),
            (slice(None), np.array([2, 2, 0])),
        ],
        ids=["pairs", "columns"],
    )
    def test_repeated_positions_accumulate(self, mode, key):
        x = np.arange(6.0).reshape(2, 3)
        weights = np.arange(1.0, 1.0 + x[key].size).reshape(x[key].shape)
        expected = np.zeros_like(x)
        np.add.at(expected, key, weights)

        params = [Parameter(x.copy())]
        step = nn_compile(lambda p, i: (p[0][key] * as_tensor(weights)).sum(), mode=mode)
        for _ in range(2):  # the trace and a replay
            step(params, {})
            np.testing.assert_array_equal(params[0].grad, expected)


class TestEmptyBroadcastShares:
    """An empty batch broadcast against a bias gives the bias a zero gradient."""

    @pytest.mark.parametrize("mode", ["eager", "replay"])
    @pytest.mark.parametrize("bias_shape", [(2,), (1, 2)], ids=["vector", "row"])
    def test_empty_gather_plus_bias(self, mode, bias_shape):
        params = [Parameter(np.ones((4, 2))), Parameter(np.ones(bias_shape))]
        step = nn_compile(lambda p, i: (p[0].take_rows(np.array([], dtype=np.int64)) + p[1]).sum(), mode=mode)
        for _ in range(2):  # the trace and a replay
            assert step(params, {}) == 0.0
            np.testing.assert_array_equal(params[0].grad, np.zeros((4, 2)))
            np.testing.assert_array_equal(params[1].grad, np.zeros(bias_shape))

    def test_backward_seed_of_wrong_shape_raises(self):
        x = Parameter(np.ones((4, 2)))
        with pytest.raises(ValueError):
            (x * 2.0).backward(np.ones((1, 2)))


class TestMultiStepTraining:
    def test_adam_training_run_is_bit_identical(self):
        """Full multi-epoch optimisation: losses and params match bitwise."""

        def step(p, i):
            logits = (i["x"] @ p[0]) + p[1]
            return ((logits.sigmoid() - i["y"]) ** 2).mean()

        def build_arm(mode):
            params = [Parameter(W.copy()), Parameter(B.copy())]
            return params, nn_compile(step, mode=mode), None

        eager_params, eager_step, _ = build_arm("eager")
        replay_params, replay_step, _ = build_arm("replay")
        eager_opt = Adam(eager_params, lr=0.01)
        replay_opt = Adam(replay_params, lr=0.01)

        rng_a = np.random.default_rng(11)
        rng_b = np.random.default_rng(11)
        eager_losses, replay_losses = [], []
        for _ in range(20):
            batch_a = {"x": rng_a.normal(size=(6, 4)), "y": rng_a.random((6, 3))}
            batch_b = {"x": rng_b.normal(size=(6, 4)), "y": rng_b.random((6, 3))}
            eager_losses.append(eager_step(eager_params, batch_a))
            eager_opt.step()
            replay_losses.append(replay_step(replay_params, batch_b))
            replay_opt.step()
        assert eager_losses == replay_losses
        for pa, pb in zip(eager_params, replay_params):
            np.testing.assert_array_equal(pa.data, pb.data)
        assert replay_step.stats.traces == 1
        assert replay_step.stats.replays == 20


class TestHostOp:
    """``Tensor.host``: non-differentiable NumPy work inside the program."""

    def test_replay_recomputes_from_current_buffers(self):
        seen = []

        def centre(values):
            seen.append(values.copy())
            return (values.mean(axis=0, keepdims=True),)

        def step(p, i):
            hidden = i["x"] @ p[0]
            (mean,) = Tensor.host(centre, hidden)
            return ((hidden - mean) ** 2).sum()

        inputs_seq = [{"x": RNG.normal(size=(6, 4))} for _ in range(4)]
        run_both_arms(step, make_params_factory(W), inputs_seq)

        params = make_params_factory(W)()
        replay_step = nn_compile(step)
        for inputs in inputs_seq:
            seen.clear()
            replay_step(params, inputs)
            # Each replay hands the function this step's forward values.
            np.testing.assert_array_equal(seen[-1], inputs["x"] @ params[0].data)
            params[0].data = params[0].data - 0.05 * params[0].grad
        assert replay_step.stats.replays == len(inputs_seq)

    def test_outputs_carry_no_gradient(self):
        def step(p, i):
            (scale, shift) = Tensor.host(lambda v: (np.abs(v).max(), v.sum(axis=0)), p[0])
            return (p[0] * scale).sum() + shift.sum()

        params = make_params_factory(W)()
        nn_compile(step)(params, {})
        np.testing.assert_array_equal(params[0].grad, np.full(W.shape, np.abs(W).max()))

    def test_integer_parents_keep_their_dtype_in_both_modes(self):
        seen = []

        def counts(ids):
            seen.append(ids.dtype)
            return (np.bincount(ids, minlength=4),)

        ids = np.array([0, 2, 2, 3])
        # Eagerly, with the ids as a plain array: bincount needs them integer.
        (eager,) = Tensor.host(counts, ids)
        np.testing.assert_array_equal(eager.data, [1.0, 0.0, 2.0, 1.0])

        def step(p, i):
            (c,) = Tensor.host(counts, i["ids"])
            return (p[0] * c).sum()

        params = [Parameter(np.ones(4))]
        replay_step = nn_compile(step)
        replay_step(params, {"ids": ids})
        replay_step(params, {"ids": np.array([1, 1, 1, 0])})
        np.testing.assert_array_equal(params[0].grad, [1.0, 3.0, 0.0, 0.0])
        # The eager call, the trace and both replays all saw integer ids.
        assert seen == [np.dtype(np.int64)] * 4

    def test_shape_change_on_replay_raises(self):
        def step(p, i):
            (positive,) = Tensor.host(lambda v: (v[v > 0],), p[0])
            return (p[0] * positive.sum()).sum()

        params = [Parameter(np.array([1.0, -1.0, 2.0]))]
        step_fn = nn_compile(step)
        step_fn(params, {})
        params[0].data = np.array([1.0, 1.0, 2.0])
        with pytest.raises(TraceError):
            step_fn(params, {})


class TestFusion:
    def test_elementwise_chain_shares_buffers(self):
        def step(p, i):
            return ((p[0] * 2.0) + 1.0).sum()

        compiled = nn_compile(step)
        params = [Parameter(X.copy())]
        compiled(params, {})
        program = compiled.program_for(params, {})
        assert program is not None
        assert sum(1 for node in program.nodes if node.fused) >= 2

    def test_fused_chain_stays_bit_identical(self):
        def step(p, i):
            # mul -> add -> sub -> neg: a chain of value-dead elementwise ops.
            return (-(((p[0] * i["x"]) + 2.0) - 0.5)).sum()

        inputs_seq = [{"x": RNG.normal(size=X.shape)} for _ in range(4)]
        compiled = run_both_arms(step, make_params_factory(X), inputs_seq)
        assert compiled.stats.fused_nodes >= 2

    def test_value_needed_ops_do_not_fuse_incorrectly(self):
        # clip's VJP reads its input and exp's VJP reads its output, so the
        # clip -> exp chain must NOT share a buffer; equality proves planning
        # stayed conservative.
        def step(p, i):
            return p[0].clip(-1.0, 1.0).exp().sum()

        run_both_arms(step, make_params_factory(X), [{} for _ in range(3)])


class TestShapeGuard:
    def test_shape_change_compiles_second_program(self):
        def step(p, i):
            return (i["x"] @ p[0]).sum()

        compiled = nn_compile(step)
        params = [Parameter(W.copy())]
        compiled(params, {"x": np.ones((5, 4))})
        compiled(params, {"x": np.ones((9, 4))})
        compiled(params, {"x": np.ones((5, 4))})  # cached, no new trace
        assert compiled.stats.traces == 2
        assert compiled.stats.programs == 2
        assert compiled.stats.replays == 3

    def test_dtype_change_compiles_second_program(self):
        def step(p, i):
            return (i["x"] @ p[0]).sum()

        compiled = nn_compile(step)
        params = [Parameter(W.copy())]
        compiled(params, {"x": np.ones((5, 4))})
        compiled(params, {"x": np.ones((5, 4), dtype=np.float32)})
        assert compiled.stats.traces == 2

    def test_cache_eviction_is_bounded(self):
        def step(p, i):
            return (i["x"] @ p[0]).sum()

        compiled = nn_compile(step, cache_size=2)
        params = [Parameter(W.copy())]
        for rows in (3, 5, 7):
            compiled(params, {"x": np.ones((rows, 4))})
        assert compiled.stats.programs == 2  # oldest evicted
        compiled(params, {"x": np.ones((3, 4))})  # evicted -> re-traced
        assert compiled.stats.traces == 4


class TestFallback:
    def test_active_dropout_falls_back_to_eager(self):
        dropout = Dropout(0.5)

        def step(p, i):
            return dropout(p[0] * 2.0).sum()

        compiled = nn_compile(step)
        params = [Parameter(X.copy())]
        losses = [compiled(params, {}) for _ in range(3)]
        assert all(np.isfinite(losses))
        assert params[0].grad is not None
        assert compiled.stats.fallbacks == 1
        assert compiled.stats.traces == 0
        assert compiled.stats.eager_calls == 3

    def test_eval_dropout_traces_fine(self):
        dropout = Dropout(0.5)
        dropout.eval()

        def step(p, i):
            return dropout(p[0] * 2.0).sum()

        compiled = nn_compile(step)
        params = [Parameter(X.copy())]
        compiled(params, {})
        assert compiled.stats.traces == 1
        assert compiled.stats.fallbacks == 0

    def test_eager_mode_never_traces(self):
        def step(p, i):
            return (p[0] * 2.0).sum()

        compiled = nn_compile(step, mode="eager")
        params = [Parameter(X.copy())]
        compiled(params, {})
        assert compiled.mode == "eager"
        assert compiled.stats.traces == 0
        assert compiled.stats.eager_calls == 1


class TestValidation:
    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            CompiledStep(lambda p, i: None, mode="jit")

    def test_invalid_cache_size_rejected(self):
        with pytest.raises(ValueError):
            CompiledStep(lambda p, i: None, cache_size=0)

    def test_non_scalar_loss_rejected(self):
        params = [Parameter(X.copy())]
        with pytest.raises(TraceError):
            trace_program(lambda p, i: p[0] * 2.0, params, {})

    def test_non_tensor_loss_rejected(self):
        params = [Parameter(X.copy())]
        with pytest.raises(TraceError):
            trace_program(lambda p, i: 3.0, params, {})

    def test_trace_program_returns_loss_value(self):
        def step(p, i):
            return (p[0] * 2.0).sum()

        params = [Parameter(np.ones((2, 2)))]
        program, loss = trace_program(step, params, {})
        assert loss == 8.0
        assert program.run(params, {}) == 8.0
