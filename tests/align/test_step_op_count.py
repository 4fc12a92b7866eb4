"""How many ops a compiled LightGCN + DaRec step replays.

At the ``perfbench`` training shape (yelp at dataset scale 0.5, 32-wide
embeddings, 1,024-triplet batches, N̂ = 64 rows of 16-wide shared/specific
representations, K = 4) the replay's time goes mostly to calling op thunks,
not to arithmetic.  Each loss term is one primitive, so a step replays 137 op
calls (76 forward, 61 backward).  A change that spells a term out as a chain
of small ops again fails here, without timing anything.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.align import AlignedRecommender
from repro.data.sampling import BprBatch
from repro.experiments import ExperimentScale, build_dataset_and_semantics, build_variant, make_backbone
from repro.nn import trace_program

#: ``perfbench``'s training shape.
SCALE = ExperimentScale(
    dataset_scale=0.5,
    embedding_dim=32,
    llm_dim=32,
    epochs=2,
    batch_size=1024,
    darec_sample_size=64,
    darec_shared_dim=16,
)
MAX_OP_CALLS = 137
#: One node per loss term: BPR, and per DaRec term one per modality or one in all.
LOSS_NODES = {
    "bpr_loss": 1,
    "squared_cosine_mean": 2,
    "gaussian_potential": 2,
    "similarity_gap": 1,
    "center_alignment": 1,
}


@pytest.fixture(scope="module")
def program():
    dataset, semantic = build_dataset_and_semantics("yelp", SCALE)
    backbone = make_backbone("lightgcn", dataset, SCALE)
    model = AlignedRecommender(backbone, build_variant("darec", backbone, semantic, SCALE), trade_off=SCALE.trade_off)
    rng = np.random.default_rng(0)
    size = SCALE.batch_size
    batch = BprBatch(
        rng.integers(0, dataset.num_users, size),
        rng.integers(0, dataset.num_items, size),
        rng.integers(0, dataset.num_items, size),
    )
    program, _ = trace_program(model.build_step_fn(), list(model.parameters()), model.make_step_inputs(batch))
    return program


def test_replay_op_calls_stay_under_the_fused_count(program):
    assert len(program._fwd) + len(program._bwd) <= MAX_OP_CALLS


def test_each_loss_term_is_one_node(program):
    ops = Counter(node.op for node in program.nodes)
    assert {op: ops[op] for op in LOSS_NODES} == LOSS_NODES
    # The row normalisation lives inside the loss kernels.
    assert ops["l2_normalize"] == 0
