"""One full federated training run, watched round by round.

Four sites hold disjoint shards of the same synthetic dataset. Each round
the coordinator broadcasts parameters, sites push back gradients from
their selected batches, and the mean gradient step is applied. Nothing
but parameters and gradients crosses a site boundary.
"""

import numpy as np

from hashclust import (
    LossConfig,
    TrainingConfig,
    gen_dataset,
    make_dataset_spec,
    mlp_spec,
    param_count,
    relative_error_ratio,
    shard_dataset,
    total_cost_bits,
    train,
)

samples, truth = gen_dataset(make_dataset_spec(3, 8, 2, 150, seed=21))
shards = shard_dataset(samples, truth, n_sites=4, min_per_site=50, seed=22)
print("shard sizes:", [len(s) for s in shards])

cfg = TrainingConfig(
    n_rounds=30,
    n_sites=4,
    batch_size=24,
    learning_rate=0.05,
    loss=LossConfig(distance_scale=1.0, temperature=1.0),
    seed=23,
)
params, losses = train(shards, mlp_spec(8, (8, 8), 6), cfg)

print("\nround   mean loss   per-site losses")
for i, row in enumerate(losses):
    if i % 5 == 0:
        sites = "  ".join(f"{v:.4f}" for v in row)
        print(f"{i:>5}   {row.mean():.5f}   {sites}")

rer = relative_error_ratio(losses)
print(f"\nloss: first {losses[0].mean():.5f}  last {losses[-1].mean():.5f}")
print(f"relative error ratio: final {rer[-1]:.4f}  (min over rounds is {rer.min():.0f} by construction)")
ledger = total_cost_bits(cfg.n_sites, param_count(params), cfg.n_rounds, [], params.code_length)
print(f"gradient/parameter traffic during training: {ledger.training_bits} bits")
