"""From vectors to binary codes: the hash network end of the system.

Builds the small default network, pushes a few points through it, and
shows the tanh outputs getting snapped to +-1 codes and packed into bytes.
"""

import numpy as np

from hashclust import binarize_batch, forward, init_network, mlp_spec, param_count
from hashclust.network import output_words, packed_rows, serialize_params

spec = mlp_spec(input_dim=4, hidden_dims=(4, 4), code_length=8)
params = init_network(spec, seed=0)

print("layer stack:")
for layer in spec:
    print(f"  {layer.input_dim} -> {layer.output_dim}  ({layer.activation})")
print(f"parameter count: {param_count(params)}")
print(f"broadcast payload: {len(serialize_params(params))} bytes")

rng = np.random.default_rng(1)
x = rng.uniform(0.0, 1.0, size=(3, 4))
h, _ = forward(params, x)

print("\nrelaxed outputs (tanh, in (-1, 1)):")
print(np.round(h, 3))

print("\nsnapped codes:")
for row, packed in zip(binarize_batch(h), packed_rows(output_words(h), 8)):
    bits = "".join("1" if b > 0 else "0" for b in row)
    print(f"  bits {bits}  packed {packed.tobytes().hex()}")

# fresh untrained networks already spread nearby points across buckets;
# training will pull metric structure into the Hamming geometry
