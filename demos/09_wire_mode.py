"""The same protocol over real sockets, with every byte metered.

Spins up site threads against an in-process coordinator on loopback TCP,
then compares the measured traffic to the closed-form ledger and to an
identical in-process simulation. The trajectories are bitwise equal, so
distributing the run changes nothing but the transport.
"""

import numpy as np

from hashclust import (
    LossConfig,
    TrainingConfig,
    gen_dataset,
    make_dataset_spec,
    mlp_spec,
    param_count,
    shard_dataset,
    train,
)
from hashclust.wire import TAG_CODES, TAG_GRADIENT, TAG_PARAMS, run_wire_locally

samples, truth = gen_dataset(make_dataset_spec(3, 8, 2, 150, seed=21))
shards = shard_dataset(samples, truth, n_sites=4, min_per_site=50, seed=22)
net = mlp_spec(8, (8, 8), 6)
cfg = TrainingConfig(
    n_rounds=20,
    n_sites=4,
    batch_size=24,
    learning_rate=0.05,
    loss=LossConfig(distance_scale=1.0, temperature=1.0),
    seed=23,
)

result = run_wire_locally(shards, net, cfg)
sim_params, sim_losses = train(shards, net, cfg)

print(f"wire final params == sim final params (bitwise): "
      f"{np.array_equal(result.params.values, sim_params.values)}")
print(f"loss tables (rounds x sites) identical: {np.array_equal(result.losses, sim_losses)}")

meter = result.meter
n = param_count(result.params)
print(f"\nframes: {meter.frames[TAG_PARAMS]} parameter broadcasts, "
      f"{meter.frames[TAG_GRADIENT]} gradient pushes, {meter.frames[TAG_CODES]} code pushes")
print(f"measured parameter bits: {meter.paper[TAG_PARAMS]} "
      f"(formula: {32 * n * 4 * (20 + 1)})")
print(f"measured gradient bits:  {meter.paper[TAG_GRADIENT]} (formula: {32 * n * 4 * 20})")
print(f"measured code bits:      {meter.paper[TAG_CODES]}")
print(f"\nformula traffic: {meter.paper_bits} bits")
print(f"physical payload: {meter.physical_bits} bits "
      "(code padding, loss telemetry and the hellos ride on top)")
