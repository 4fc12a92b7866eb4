"""The count-weighted L2 term of ``BaseRecommender.bpr_step``.

``L_base`` regularises the layer-0 ("ego") rows of a batch's users, positive
items and negative items.  ``bpr_step`` reads them from the tables, each row
weighted by how often the batch uses it, ``0.5/B · Σ_r c_r ‖E_r‖²``, with the
counts made by one host op on the batch's index arrays.  :func:`gathered_l2`
is the form it replaced: the half sum of squares of the three gathered
``B``-row blocks.  The objective is the same; values and gradients agree up to
rounding, here within ``BOUND`` relative to the largest gradient entry.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.align import AlignedRecommender, DaRec, DaRecConfig
from repro.data.sampling import BprBatch
from repro.models import BACKBONES, GraphRecommender, create_backbone
from repro.nn import trace_program

BOUND = 1e-12
L2_WEIGHT = 0.5  # large, so the term carries real weight in the gradients


def gathered_l2(model, batch):
    """The L2 term as the half sum of squares of the gathered ego rows."""
    blocks = [
        model.user_embedding(batch.users),
        model.item_embedding(batch.pos_items),
        model.item_embedding(batch.neg_items),
    ]
    total = None
    for block in blocks:
        term = (block * block).sum()
        total = term if total is None else total + term
    return total * (0.5 / len(batch))


def make(name, dataset):
    kwargs = {"embedding_dim": 16, "seed": 0, "l2_weight": L2_WEIGHT}
    if issubclass(BACKBONES[name], GraphRecommender):
        kwargs["num_layers"] = 2
    return create_backbone(name, dataset, **kwargs)


def repeated_batch(dataset, seed):
    """A batch whose users and items repeat often, pos and neg ids overlapping."""
    rng = np.random.default_rng(seed)
    size = 96
    return BprBatch(
        rng.integers(0, 7, size=size),
        rng.integers(0, 6, size=size),
        rng.integers(0, dataset.num_items, size=size) % 9,
    )


def loss_and_grads(model, loss_fn):
    model.zero_grad()
    loss = loss_fn()
    loss.backward()
    return loss.item(), [None if p.grad is None else p.grad.copy() for p in model.parameters()]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", ["lightgcn", "bpr-mf", "sgl"])
def test_matches_gathered_rows(name, seed, tiny_dataset):
    model = make(name, tiny_dataset)
    batch = repeated_batch(tiny_dataset, seed)
    value, grads = loss_and_grads(model, lambda: model.bpr_step(batch))
    model.l2_weight = 0.0
    ref_value, ref_grads = loss_and_grads(model, lambda: model.bpr_step(batch) + L2_WEIGHT * gathered_l2(model, batch))
    assert abs(value - ref_value) <= BOUND * abs(ref_value)
    for grad, ref in zip(grads, ref_grads):
        assert (grad is None) == (ref is None)
        if ref is not None:
            assert np.max(np.abs(grad - ref)) <= BOUND * np.max(np.abs(ref))


def test_lightgcn_darec_step_gathers_no_ego_rows(lightgcn_backbone, tiny_semantic, bpr_batch):
    config = DaRecConfig(shared_dim=12, hidden_dim=12, num_centers=3, sample_size=48, seed=0)
    model = AlignedRecommender(lightgcn_backbone, DaRec(lightgcn_backbone, tiny_semantic, config), trade_off=0.1)
    program, _ = trace_program(model.build_step_fn(), list(model.parameters()), model.make_step_inputs(bpr_batch))
    gathers = [node for node in program.nodes if node.op == "take_rows"]
    (bpr,) = [node for node in program.nodes if node.op == "bpr_loss"]
    # No gather reads a parameter table: the L2 term reads the ego tables
    # whole, and the BPR term gathers from the propagated user/item tables.
    tables = [node.parent_ids[0] for node in gathers] + list(bpr.parent_ids[:2])
    assert all(program.nodes[index].kind != "param" for index in tables)
    # What is left (the user/item split of the propagated table is slices):
    # DaRec's N̂ rows of E_C and of the semantic table; the BPR term's user,
    # positive and negative rows are gathered inside its one ``bpr_loss`` node.
    assert len(gathers) == 2
