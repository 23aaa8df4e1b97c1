# Synthetic clusters: low-dimensional structure embedded in a higher
# ambient space, shifted apart and lightly noised. Checks the generator's
# moments against what the construction promises, then round-trips a CSV.

import tempfile
from pathlib import Path

import numpy as np

from hashclust import gen_cluster, gen_dataset, load_csv, make_dataset_spec, save_csv
from hashclust.datasets import ClusterSpec

spec = ClusterSpec(ambient_dim=16, embed_dim=2, n_samples=50_000, seed=3)
x = gen_cluster(spec)

# the shift is drawn uniformly within +-20/ln(ambient); the sample mean
# should sit on it since the projected latents and the noise average out
bound = 20.0 / np.log(16)
mean = x.mean(axis=0)
print(f"shift bound +-{bound:.3f}")
print(f"sample mean within bound: {bool(np.all(np.abs(mean) <= bound))}")
print(f"largest |mean| component: {np.abs(mean).max():.3f}")

centered = x - mean
rank_energy = np.linalg.svd(centered, compute_uv=False) ** 2
top2 = rank_energy[:2].sum() / rank_energy.sum()
print(f"variance captured by 2 principal directions: {top2:.4f} "
      "(the rest is the deliberately small ambient noise)")

clusters = make_dataset_spec(
    n_clusters=4, ambient_dim=16, embed_dim=2, samples_per_cluster=100, seed=9
)
samples, labels = gen_dataset(clusters)
print(f"\ndataset: {samples.shape[0]} samples x {samples.shape[1]} features, "
      f"labels {np.bincount(labels).tolist()}")

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "demo.csv"
    save_csv(path, samples, labels)
    again, labels_again = load_csv(path)
    print(f"csv round-trip exact: {np.array_equal(samples, again) and np.array_equal(labels, labels_again)}")
    print(f"header: {path.read_text().splitlines()[0][:40]}...")
