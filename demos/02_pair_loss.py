"""The pairwise objective: input distance vs code distance, weighted down
for far-apart pairs.

Walks the loss of one pair (a batch of two samples) over a sweep of the
distance-scale knob and checks its analytic gradient against finite
differences.
"""

import numpy as np

from hashclust import LossConfig, batch_loss

x = np.array([[0.2, 0.4], [0.8, 0.1]])
h = np.array([[0.9, -0.7, 0.3], [-0.5, -0.6, 0.8]])

d = np.linalg.norm(x[0] - x[1])
l1 = np.abs(h[0] - h[1]).sum()
print(f"input distance {d:.4f}, relaxed code distance {l1:.4f}")

print("\nloss as the target scale moves (temperature 1):")
for scale in (0.1, 0.5, 1.0, 2.0, 5.0):
    cfg = LossConfig(distance_scale=scale, temperature=1.0)
    print(f"  scale {scale:>4}: {batch_loss(x, h, cfg)[0]:.5f}")

# the minimum sits where scale * d == l1; either side the loss climbs
# linearly, so gradients keep a constant magnitude until codes move

cfg = LossConfig(distance_scale=1.0, temperature=1.0)
_, grads = batch_loss(x, h, cfg)
step = 1e-6
fd = np.zeros(h.shape[1])
for t in range(h.shape[1]):
    up, dn = h.copy(), h.copy()
    up[0, t] += step
    dn[0, t] -= step
    fd[t] = (batch_loss(x, up, cfg)[0] - batch_loss(x, dn, cfg)[0]) / (2 * step)

print("\ngradient wrt h_i (analytic vs finite difference):")
print(np.round(grads[0], 6))
print(np.round(fd, 6))
print(f"max abs difference: {np.abs(grads[0] - fd).max():.2e}")
