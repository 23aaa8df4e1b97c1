"""Synthetic Gaussian-subspace clusters, sharding, and CSV dataset files.

Each cluster lives on a random low-dimensional subspace of the ambient
space: a projection matrix T (ambient x embed, Frobenius norm 1) maps
standard-normal latent points into the ambient space, a per-cluster
uniform shift u separates clusters, and isotropic noise e blurs the
result. Sample i is ``T z_i + u + e_i``. A dataset is its tuple of
ClusterSpecs: make_dataset_spec builds a uniform one, gen_dataset draws it.

Sharding splits a dataset across sites at random while guaranteeing a
minimum per-site size. Every shard carries its own min-max normalization
computed from local data only, so no statistics cross site boundaries.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpecError, ShapeError


@dataclass(frozen=True)
class ClusterSpec:
    """One synthetic cluster: ambient/embedding dimensions, size, seed."""

    ambient_dim: int
    embed_dim: int
    n_samples: int
    seed: int

    def __post_init__(self):
        if self.ambient_dim < 2:
            # the shift range is 20 / ln(ambient_dim); ambient 1 would divide by 0
            raise InvalidSpecError(f"ambient_dim must be >= 2, got {self.ambient_dim}")
        if not 1 <= self.embed_dim <= self.ambient_dim:
            raise InvalidSpecError(
                f"embed_dim must lie in [1, ambient_dim], got {self.embed_dim} "
                f"with ambient_dim {self.ambient_dim}"
            )
        if self.n_samples < 1:
            raise InvalidSpecError(f"n_samples must be >= 1, got {self.n_samples}")


def make_dataset_spec(n_clusters, ambient_dim, embed_dim, samples_per_cluster, seed) -> tuple[ClusterSpec, ...]:
    """The ClusterSpecs of a uniform dataset, each seed spawned from ``seed``."""
    if n_clusters < 1:
        raise InvalidSpecError(f"n_clusters must be >= 1, got {n_clusters}")
    return tuple(
        ClusterSpec(
            ambient_dim=ambient_dim,
            embed_dim=embed_dim,
            n_samples=samples_per_cluster,
            seed=derive_cluster_seed(seed, i),
        )
        for i in range(n_clusters)
    )


def derive_cluster_seed(base_seed: int, cluster_index: int) -> int:
    seq = np.random.SeedSequence(entropy=base_seed, spawn_key=(cluster_index,))
    return int(seq.generate_state(1)[0])


def gen_cluster(spec: ClusterSpec) -> np.ndarray:
    """Draw the cluster's sample matrix, shape (n_samples, ambient_dim).

    Draw order is fixed (T, u, latents, noise) so a seed pins the output
    bit for bit.
    """
    rng = np.random.default_rng(spec.seed)
    projection = rng.standard_normal((spec.ambient_dim, spec.embed_dim))
    projection /= np.linalg.norm(projection)
    shift_range = 20.0 / np.log(spec.ambient_dim)
    shift = rng.uniform(-shift_range, shift_range, size=spec.ambient_dim)
    latents = rng.standard_normal((spec.n_samples, spec.embed_dim))
    noise = rng.standard_normal((spec.n_samples, spec.ambient_dim))
    noise *= np.sqrt(1.0 / (10.0 * spec.ambient_dim))
    return latents @ projection.T + shift + noise


def gen_dataset(clusters):
    """The clusters' samples stacked in order, with integer truth labels 0..C-1."""
    clusters = tuple(clusters)
    if not clusters:
        raise InvalidSpecError("dataset needs at least one cluster")
    dims = {c.ambient_dim for c in clusters}
    if len(dims) != 1:
        raise InvalidSpecError(f"clusters disagree on ambient_dim: {sorted(dims)}")
    parts = [gen_cluster(c) for c in clusters]
    labels = np.concatenate(
        [np.full(c.n_samples, i, dtype=np.int64) for i, c in enumerate(clusters)]
    )
    return np.concatenate(parts, axis=0), labels


@dataclass(frozen=True)
class Shard:
    """One site's slice of the dataset plus its local normalization.

    ``normalized`` rescales each feature to [0, 1] using minima/ranges
    computed from this shard alone; constant features map to 0. It is
    computed on first use and kept as one read-only array, since every
    training round reads it.
    """

    x: np.ndarray
    labels: np.ndarray
    site_index: int
    feature_min: np.ndarray
    feature_range: np.ndarray

    @property
    def normalized(self) -> np.ndarray:
        cached = self.__dict__.get("_normalized")
        if cached is None:
            safe = np.where(self.feature_range > 0, self.feature_range, 1.0)
            cached = (self.x - self.feature_min) / safe
            cached.flags.writeable = False
            object.__setattr__(self, "_normalized", cached)
        return cached

    def __len__(self) -> int:
        return self.x.shape[0]


def make_shard(x, labels, site_index) -> Shard:
    """One site's shard; a feature whose max - min is not finite raises ShapeError."""
    x = np.asarray(x, dtype=np.float64)
    labels = np.asarray(labels)
    if x.ndim != 2:
        raise ShapeError(f"shard features must be 2-d, got shape {x.shape}")
    if x.shape[0] != labels.shape[0]:
        raise ShapeError(f"features/labels disagree: {x.shape[0]} vs {labels.shape[0]}")
    fmin = x.min(axis=0)
    fmax = x.max(axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        frange = fmax - fmin
    # finite features of opposite sign may lie further apart than float64 reaches
    wide = np.flatnonzero(~np.isfinite(frange))
    if wide.size:
        j = int(wide[0])
        raise ShapeError(f"feature {j} spans {fmin[j]} to {fmax[j]}: its range is not a finite number")
    return Shard(
        x=x,
        labels=labels,
        site_index=site_index,
        feature_min=fmin,
        feature_range=frange,
    )


def shard_dataset(samples, labels, n_sites, min_per_site, seed) -> list[Shard]:
    """Randomly split (samples, labels) into n_sites disjoint shards.

    Each site gets at least ``min_per_site`` samples; the remainder is
    spread multinomially. Deterministic per seed.
    """
    samples = np.asarray(samples, dtype=np.float64)
    labels = np.asarray(labels)
    n = samples.shape[0]
    if n_sites < 1:
        raise InvalidSpecError(f"n_sites must be >= 1, got {n_sites}")
    if min_per_site < 1:
        raise InvalidSpecError(f"min_per_site must be >= 1, got {min_per_site}")
    if n < n_sites * min_per_site:
        raise InvalidSpecError(
            f"{n} samples cannot cover {n_sites} sites at >= {min_per_site} each"
        )
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    extra = rng.multinomial(n - n_sites * min_per_site, np.full(n_sites, 1.0 / n_sites))
    sizes = min_per_site + extra
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    shards = []
    for site in range(n_sites):
        idx = order[bounds[site] : bounds[site + 1]]
        shards.append(make_shard(samples[idx], labels[idx], site))
    return shards


def save_csv(path, samples, labels) -> None:
    """Write one sample per row: features, then the integer truth label."""
    samples = np.asarray(samples, dtype=np.float64)
    labels = np.asarray(labels)
    if samples.shape[0] != labels.shape[0]:
        raise ShapeError(f"features/labels disagree: {samples.shape[0]} vs {labels.shape[0]}")
    d = samples.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"f{j}" for j in range(d)] + ["label"])
        for row, lab in zip(samples, labels):
            # repr round-trips float64 exactly, keeping regeneration byte-identical
            writer.writerow([repr(float(v)) for v in row] + [int(lab)])


def load_csv(path):
    """Read a dataset CSV back into (samples, labels)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if (
            header is None
            or len(header) < 2
            or header[-1] != "label"
            or header[:-1] != [f"f{j}" for j in range(len(header) - 1)]
        ):
            raise ShapeError(f"{path}: expected a 'f0,...,label' header row")
        rows = list(reader)
    if not rows:
        raise ShapeError(f"{path}: no data rows")
    d = len(header) - 1
    samples = np.empty((len(rows), d), dtype=np.float64)
    labels = np.empty(len(rows), dtype=np.int64)
    for i, row in enumerate(rows):
        if len(row) != d + 1:
            raise ShapeError(f"{path}: row {i + 2} has {len(row)} fields, expected {d + 1}")
        try:
            samples[i] = [float(v) for v in row[:d]]
            labels[i] = int(row[-1])
        except (ValueError, OverflowError) as exc:
            raise ShapeError(f"{path}: row {i + 2} {_bad_field(header, row)}") from exc
    # float() takes nan and inf, which min-max scaling would spread over the whole shard
    bad = np.flatnonzero(~np.isfinite(samples).all(axis=1))
    if bad.size:
        raise ShapeError(f"{path}: row {bad[0] + 2} {_bad_field(header, rows[bad[0]])}")
    return samples, labels


def _bad_field(header, row) -> str:
    """The first field of a CSV row that is not a finite number, or for the label an int64 integer."""
    int64 = np.iinfo(np.int64)
    for name, text in zip(header, row):
        try:
            value = (int if name == "label" else float)(text)
        except ValueError:
            kind = "an integer" if name == "label" else "a number"
            return f"field {name} is {text!r}, not {kind}"
        if name == "label" and not int64.min <= value <= int64.max:
            return f"field {name} is {text!r}, not an int64 integer"
        if not np.isfinite(value):
            return f"field {name} is {text!r}, not a finite number"
