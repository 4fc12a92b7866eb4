"""One LightGCN propagation per training step, shared by ``L_base`` and ``L_align``.

``AlignedRecommender.loss`` and its compiled ``build_step_fn`` call
``backbone.propagate()`` once and hand the tables to both the backbone's BPR
term and the alignment module, so a traced step holds one ``sparse_matmul``
node per propagation layer.
"""

from __future__ import annotations

import pytest

from repro.align import KAR, AlignedRecommender, DaRec, DaRecConfig, RLMRecContrastive, RLMRecGenerative
from repro.nn import trace_program

MODULES = {
    "darec": lambda backbone, semantic: DaRec(
        backbone, semantic, DaRecConfig(shared_dim=12, hidden_dim=12, num_centers=3, sample_size=48, seed=0)
    ),
    "kar": lambda backbone, semantic: KAR(backbone, semantic, seed=0),
    "rlmrec-con": lambda backbone, semantic: RLMRecContrastive(backbone, semantic, seed=0),
    "rlmrec-gen": lambda backbone, semantic: RLMRecGenerative(backbone, semantic, seed=0),
}


def sparse_matmul_nodes(program) -> int:
    return sum(1 for node in program.nodes if node.op == "sparse_matmul")


@pytest.fixture(params=sorted(MODULES))
def model(request, lightgcn_backbone, tiny_semantic):
    alignment = MODULES[request.param](lightgcn_backbone, tiny_semantic)
    return AlignedRecommender(lightgcn_backbone, alignment, trade_off=0.1)


def test_traced_loss_propagates_once(model, bpr_batch):
    params = list(model.parameters())
    program, _ = trace_program(lambda _params, _inputs: model.loss(bpr_batch), params, {})
    assert sparse_matmul_nodes(program) == model.backbone.num_layers


def test_compiled_step_propagates_once(lightgcn_backbone, tiny_semantic, bpr_batch):
    model = AlignedRecommender(lightgcn_backbone, MODULES["darec"](lightgcn_backbone, tiny_semantic))
    program, _ = trace_program(model.build_step_fn(), list(model.parameters()), model.make_step_inputs(bpr_batch))
    assert sparse_matmul_nodes(program) == lightgcn_backbone.num_layers


def test_eager_loss_calls_propagate_once(model, bpr_batch, monkeypatch):
    calls = []
    propagate = model.backbone.propagate
    monkeypatch.setattr(model.backbone, "propagate", lambda: calls.append(1) or propagate())
    for step in range(1, 4):
        model.loss(bpr_batch).backward()
        assert len(calls) == step
