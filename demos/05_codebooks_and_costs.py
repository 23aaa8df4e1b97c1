"""Codebooks: what actually leaves a site after training, and what it costs.

Instead of raw samples, each site ships its distinct codes with their
multiplicities (degrees). The coordinator merges the books and the cost
ledger prices the whole exchange in exact bits.
"""

import numpy as np

from hashclust import (
    LossConfig,
    TrainingConfig,
    encode_shard,
    gen_dataset,
    make_dataset_spec,
    merge_codebooks,
    mlp_spec,
    param_count,
    shard_dataset,
    total_cost_bits,
    train,
)
from hashclust.network import packed_rows

samples, truth = gen_dataset(make_dataset_spec(3, 8, 2, 150, seed=21))
shards = shard_dataset(samples, truth, n_sites=4, min_per_site=50, seed=22)
net = mlp_spec(8, (8, 8), 6)
cfg = TrainingConfig(
    n_rounds=30,
    n_sites=4,
    batch_size=24,
    learning_rate=0.05,
    loss=LossConfig(distance_scale=1.0, temperature=1.0),
    seed=23,
)
params, _ = train(shards, net, cfg)

books = []
for i, shard in enumerate(shards):
    book, sample_map = encode_shard(params, shard, origin=f"site{i}")
    books.append(book)
    print(f"site {i}: {len(shard)} samples -> {len(book)} distinct codes")

merged = merge_codebooks(books)
print(f"\nmerged: {len(merged)} codes, degrees sum to {merged.total_degree} "
      f"(dataset size {samples.shape[0]})")
print("heaviest codes:")
# a book holds its codes as network.code_words rows; packed_rows gives their bytes
bits = np.unpackbits(packed_rows(merged.codes, merged.code_length), axis=1, count=merged.code_length)
for i in np.argsort(-merged.degrees, kind="stable")[:5]:
    print(f"  {''.join(map(str, bits[i]))}  degree {merged.degrees[i]}")

ledger = total_cost_bits(
    n_sites=4,
    n_params=param_count(params),
    n_rounds=30,
    codes_per_site=[len(b) for b in books],
    code_length=6,
)
print("\ntransmission ledger:")
for key, value in ledger.as_dict().items():
    print(f"  {key:>22}: {value}")
print(f"  ({ledger.total_bits / (8 * 2 ** 20):.4f} MB total; "
      "codes are a rounding error next to the gradient traffic)")
