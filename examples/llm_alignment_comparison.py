"""Compare all LLM-enhancement strategies on one backbone (paper Table IV scenario).

Trains the same LightGCN backbone five times — plain, RLMRec-Con, RLMRec-Gen,
KAR and DaRec — with an identical budget and prints R@20 / N@20.

Run with::

    python examples/llm_alignment_comparison.py [--dataset amazon-book]
"""

from __future__ import annotations

import argparse

from repro.eval import RankingEvaluator
from repro.experiments import (
    ExperimentScale,
    build_dataset_and_semantics,
    build_variant,
    make_backbone,
)
from repro.experiments.reporting import print_table
from repro.train import Trainer, TrainingConfig
from repro.align import AlignedRecommender

VARIANTS = ("baseline", "rlmrec-con", "rlmrec-gen", "kar", "darec")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dataset", default="amazon-book", choices=["amazon-book", "yelp", "steam"])
    parser.add_argument("--epochs", type=int, default=5)
    args = parser.parse_args()

    scale = ExperimentScale(dataset_scale=0.3, epochs=args.epochs, embedding_dim=32, llm_dim=64)
    dataset, semantic = build_dataset_and_semantics(args.dataset, scale)
    evaluator = RankingEvaluator(dataset, ks=(20,))

    rows = []
    for variant in VARIANTS:
        backbone = make_backbone("lightgcn", dataset, scale)
        alignment = build_variant(variant, backbone, semantic, scale)
        model = AlignedRecommender(backbone, alignment, trade_off=scale.trade_off)
        Trainer(
            model,
            TrainingConfig(epochs=scale.epochs, batch_size=scale.batch_size, trade_off=scale.trade_off),
        ).fit()
        result = evaluator.evaluate(model)
        rows.append(
            {
                "variant": variant,
                "recall@20": result.metrics["recall@20"],
                "ndcg@20": result.metrics["ndcg@20"],
            }
        )

    print_table(rows, title=f"LLM-enhanced methods on {args.dataset} (LightGCN backbone)")


if __name__ == "__main__":
    main()
