# Batch selection: hash the shard into buckets, then pick a batch that
# spreads across Hamming space instead of sampling rows blindly.

import numpy as np

from hashclust import build_buckets, init_network, mlp_spec, select_batch

rng = np.random.default_rng(4)
x = rng.uniform(0.0, 1.0, size=(200, 5))
params = init_network(mlp_spec(5, (5,), 6), seed=2)

buckets = build_buckets(params, x)
print(f"{x.shape[0]} samples fell into {len(buckets.sizes())} buckets")
print("bucket sizes:", buckets.sizes().tolist())

batch = select_batch(buckets, batch_size=8, seed=7)
print("\nselected rows:", batch.tolist())

# the greedy rule maximizes summed Hamming distance to what is already
# picked, so consecutive picks hop between far-apart buckets. Each bucket's
# code is one 64-bit word here: its 6 bits lead, the rest are zero.
codes = buckets.codes[:, 0]
row_code = {}
for b, members in enumerate(buckets.members):
    for m in members:
        row_code[int(m)] = int(codes[b])

picked = []
for row in batch:
    code = row_code[int(row)]
    spread = sum((code ^ p).bit_count() for p in picked)
    label = format(code >> (64 - 6), "06b")
    print(f"  row {row:>3}  code {label}  summed distance to prior picks: {spread}")
    picked.append(code)
