"""The four workloads: their inputs, one round of operations, and their checks.

An operation is one call of the program's top-level entry for the workload:
``run_pipeline`` for desk, large and wire, and the global-site sequence
(decode -> merge_codebooks -> build_graph -> spectral_cluster ->
propagate_labels) for cut. A round is the fixed list of operations that every
run repeats whole, so the share of failed operations is the same in every run.
"""

from __future__ import annotations

import json
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from hashclust import codebook, metrics, pipeline, spectral, wire
from hashclust.errors import PipelineError

import checks
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_CONFIG = ROOT / "configs" / "default.json"

DESK_SEEDS = (0, 1, 2, 3)
# seeds on which training collapses the codebook below k codes today
DESK_COLLAPSE_SEEDS = (1, 3)
# The pipeline workloads run fixed master seeds. On today's code one seed's
# purity ranges from 0.25 to 1.0 (large, seeds 1-5: 0.65, 0.75, 0.996, 0.25,
# 0.37), so seeded inputs would spread purity and nmi wider than any bound.
LARGE_SEED = 0
WIRE_SEED = 0


@dataclass
class Outcome:
    """What one operation produced; ``failed`` operations clustered nothing."""

    seconds: float
    attempted_samples: int
    failed: bool = False
    samples: int = 0
    purity: float = 0.0
    nmi: float = 0.0
    paper_bits: int = 0


def _generated(n_clusters, ambient_dim, samples_per_cluster, *, code_length, sites,
               rounds, mode, seed) -> dict:
    return {
        "dataset": {"generate": {"n_clusters": n_clusters, "ambient_dim": ambient_dim,
                                 "embed_dim": 2, "samples_per_cluster": samples_per_cluster}},
        "code_length": code_length,
        "clusters": n_clusters,
        "sites": sites,
        "training": {"rounds": rounds},
        "mode": mode,
        "seed": seed,
    }


def desk_configs(toy: bool) -> list:
    base = json.loads(DEFAULT_CONFIG.read_text())
    if toy:
        base["training"]["rounds"] = 5
    return [dict(base, seed=s) for s in DESK_SEEDS]


def large_configs(toy: bool) -> list:
    spc, rounds = (250, 2) if toy else (50_000, 20)
    return [_generated(4, 64, spc, code_length=16, sites=8, rounds=rounds, mode="sim",
                       seed=LARGE_SEED)]


def wire_configs(toy: bool) -> list:
    spc, rounds = (50, 3) if toy else (250, 100)
    return [_generated(4, 256, spc, code_length=16, sites=2, rounds=rounds, mode="wire",
                       seed=WIRE_SEED)]


class PipelineWorkload:
    """Rounds of run_pipeline calls, one per config, each result checked."""

    def __init__(self, raws, collapse_seeds=(), sim_twin=False):
        self.raws = raws
        self.configs = [pipeline.config_from_dict(raw) for raw in raws]
        self.collapse_seeds = collapse_seeds
        self.sim_twin = sim_twin
        self.first = {}
        self.codes_sent = {}  # per master seed: codes the sites sent in its first run
        self.encoded = []     # (params, shard) of every encode_shard call of one run
        self.payloads = []    # entry count of every CODES_PUSH payload of one run
        self.problems = []

    def _expect(self, cfg) -> dict:
        gen = cfg.generate
        n = gen["n_clusters"] * gen["samples_per_cluster"]
        dim = gen["ambient_dim"]
        hidden = cfg.hidden_dims if cfg.hidden_dims is not None else (dim, dim)
        return dict(n=n, layer_dims=(dim, *hidden, cfg.code_length), rounds=cfg.rounds,
                    sites=cfg.sites, code_length=cfg.code_length, clusters=cfg.clusters,
                    largest_class_share=1.0 / gen["n_clusters"])

    def _run(self, cfg):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return pipeline.run_pipeline(cfg)

    def round(self) -> list:
        # The pipeline returns no per-site code counts; these hooks keep what
        # is needed to count the codes sent apart from codebook.encode_shard.
        hooks = Tracer()
        hooks.patch(pipeline, "encode_shard", "check.encode_shard",
                    on_call=lambda result, params, shard, **kw: self.encoded.append((params, shard)))
        hooks.patch(wire, "encode_codes_payload", "check.codes_payload",
                    on_call=lambda payload, book: self.payloads.append(int.from_bytes(payload[:4], "big")))
        try:
            return [self._operation(cfg) for cfg in self.configs]
        finally:
            hooks.unpatch()

    def _count_codes_sent(self, cfg) -> int:
        """Wire: the entries of the CODES_PUSH payloads the sites sent. Sim:
        the distinct codes of each shard under the final parameters, computed
        here from the raw features. Once per seed; repeats must match anyway."""
        if cfg.seed not in self.codes_sent:
            if cfg.mode == "wire":
                sent = sum(self.payloads)
            else:
                sent = sum(checks.distinct_codes(params.layers, params.values, shard.x)
                           for params, shard in self.encoded)
            self.codes_sent[cfg.seed] = sent
        self.encoded.clear()
        self.payloads.clear()
        return self.codes_sent[cfg.seed]

    def _operation(self, cfg) -> Outcome:
        expect = self._expect(cfg)
        start = time.perf_counter()
        try:
            res = self._run(cfg)
        except PipelineError as exc:
            seconds = time.perf_counter() - start
            self.encoded.clear()
            self.payloads.clear()
            checks.record(self.problems, checks.check_desk_failure, cfg.seed, exc,
                          self.collapse_seeds)
            return Outcome(seconds, expect["n"], failed=True)
        seconds = time.perf_counter() - start
        checks.record(self.problems, checks.check_pipeline_result, res,
                      codes_sent=self._count_codes_sent(cfg), **expect)
        # runs are bitwise reproducible: a repeat must give the same output
        key = {k: res[k] for k in ("purity", "nmi", "ledger", "cluster_sizes", "rer_series")}
        if self.first.setdefault(cfg.seed, (res, key))[1] != key:
            self.problems.append(f"seed {cfg.seed}: a repeated run gave another result")
        bits = res["ledger"].get("measured_paper_bits", res["ledger"]["total_bits"])
        return Outcome(seconds, expect["n"], samples=res["n_samples"],
                       purity=res["purity"], nmi=res["nmi"], paper_bits=bits)

    def verify(self) -> None:
        """Wire results must equal a sim run of the same config."""
        if not self.sim_twin:
            return
        for cfg in self.configs:
            if cfg.seed in self.first:
                sim = self._run(pipeline.apply_overrides(cfg, mode="sim"))
                checks.record(self.problems, checks.check_wire_result, self.first[cfg.seed][0], sim)


# ---------------------------------------------------------------- cut

CUT_L = 16
CUT_K = 4
CUT_SITES = 8
CUT_MIN_CENTRE_DISTANCE = 9  # > twice the largest radius used, so groups are disjoint
# a code at radius r arrives from CUT_SITES_AT_RADIUS[r] sites, so the count of
# payload entries (and the code bits) is the same on every seed
CUT_SITES_AT_RADIUS = (8, 6, 4, 2, 1)


@dataclass
class Planted:
    """Codes planted around k centres, with degrees, split across sites."""

    codes: np.ndarray          # distinct integer codes
    groups: np.ndarray         # planted group of each code
    radius: np.ndarray         # hamming distance to the code's centre
    degrees: np.ndarray
    site_codes: list = field(default_factory=list)
    site_degrees: list = field(default_factory=list)
    site_groups: list = field(default_factory=list)
    payloads: list = field(default_factory=list)

    @property
    def purity_bound(self) -> float:
        """Degree share of the codes with no other group's code one bit away.

        Every code is nearer its own centre than any other. A code one bit
        from another group's code is on the boundary: that pair carries the
        heaviest weight a pair of codes can, so a cut may leave the code on
        either side. Every other code must carry its own group's label.
        """
        group_of = np.full(2 ** CUT_L, -1)
        group_of[self.codes] = self.groups
        near = group_of[self.codes[:, None] ^ (1 << np.arange(CUT_L))]
        boundary = ((near >= 0) & (near != self.groups[:, None])).any(axis=1)
        return float(self.degrees[~boundary].sum() / self.degrees.sum())


def _centres(rng, k: int, length: int, min_distance: int) -> np.ndarray:
    everything = np.arange(2 ** length, dtype=np.int64)
    while True:
        centres = [int(rng.integers(2 ** length))]
        allowed = np.ones(everything.size, dtype=bool)
        while len(centres) < k:
            allowed &= np.bitwise_count(everything ^ centres[-1]) >= min_distance
            if not allowed.any():
                break
            centres.append(int(rng.choice(everything[allowed])))
        if len(centres) == k:
            return np.array(centres, dtype=np.int64)


def codes_payload(codes, degrees) -> bytes:
    """CODES_PUSH payload per the documented layout: 4-byte big-endian count,
    then per entry a big-endian float32 degree and the L=16 code's two bytes."""
    table = np.empty(len(codes), dtype=[("degree", ">f4"), ("code", ">u2")])
    table["degree"] = degrees
    table["code"] = codes
    return len(codes).to_bytes(4, "big") + table.tobytes()


def plant_codes(seed: int, per_group: int) -> Planted:
    rng = np.random.default_rng(seed)
    centres = _centres(rng, CUT_K, CUT_L, CUT_MIN_CENTRE_DISTANCE)
    everything = np.arange(2 ** CUT_L, dtype=np.int64)
    codes, groups, radius = [], [], []
    for g, centre in enumerate(centres):
        dist = np.bitwise_count(everything ^ centre).astype(np.int64)
        # nearest shells first, a random part of the last shell
        pick = np.lexsort((rng.random(everything.size), dist))[:per_group]
        codes.append(everything[pick])
        groups.append(np.full(per_group, g))
        radius.append(dist[pick])
    codes, groups, radius = map(np.concatenate, (codes, groups, radius))
    if 2 * radius.max() >= CUT_MIN_CENTRE_DISTANCE:
        raise ValueError(f"{per_group} codes per group reach past the centre spacing")
    # each code goes to sites_r random sites, one sample each, and
    # Poisson(64 / 2^r) more samples spread evenly over those sites
    sites = np.array(CUT_SITES_AT_RADIUS)[radius]
    rank = rng.random((codes.size, CUT_SITES)).argsort(axis=1).argsort(axis=1)
    chosen = rank < sites[:, None]
    split = chosen + rng.multinomial(rng.poisson(64.0 * 2.0 ** -radius), chosen / sites[:, None])
    degrees = split.sum(axis=1)
    planted = Planted(codes, groups, radius, degrees)
    for site in range(CUT_SITES):
        held = np.flatnonzero(split[:, site])
        order = held[np.argsort(codes[held])]
        planted.site_codes.append(codes[order])
        planted.site_degrees.append(split[order, site])
        planted.site_groups.append(groups[order])
        planted.payloads.append(codes_payload(codes[order], split[order, site]))
    return planted


def book_codes(book) -> np.ndarray:
    return np.array([int.from_bytes(e.code.packed, "big") for e in book.entries], dtype=np.int64)


class CutWorkload:
    """The global site alone, from received CODES_PUSH payloads to labels."""

    def __init__(self, seed: int, toy: bool):
        self.planted = plant_codes(seed, per_group=60 if toy else 1000)
        self.cluster_seed = seed
        p = self.planted
        self.sample_maps = [np.repeat(np.arange(len(d)), d) for d in p.site_degrees]
        self.truth = np.concatenate([np.repeat(g, d) for g, d in zip(p.site_groups, p.site_degrees)])
        self.paper_bits = sum((32 + CUT_L) * len(c) for c in p.site_codes)
        self.result = None
        self.problems = []

    def operation(self):
        books = [codebook.decode_codes_payload(p, CUT_L, origin=f"site{i}")
                 for i, p in enumerate(self.planted.payloads)]
        merged = codebook.merge_codebooks(books)
        graph = spectral.build_graph(merged)
        partition = spectral.spectral_cluster(graph, CUT_K, self.cluster_seed)
        labels = spectral.propagate_labels(partition, merged, list(zip(books, self.sample_maps)))
        return merged, partition, labels

    def round(self) -> list:
        start = time.perf_counter()
        merged, partition, labels = self.operation()
        seconds = time.perf_counter() - start
        if self.result is None:
            self.result = (merged, partition, labels)
        elif not np.array_equal(partition, self.result[1]):
            self.problems.append("a repeated cut gave another partition")
        pred = np.concatenate(labels)
        return [Outcome(seconds, int(self.planted.degrees.sum()), samples=pred.size,
                        purity=metrics.purity(pred, self.truth), nmi=metrics.nmi(pred, self.truth),
                        paper_bits=self.paper_bits)]

    def verify(self) -> None:
        checks.record(self.problems, self._verify)

    def _verify(self) -> None:
        """The merged book, the partition and the propagated labels."""
        merged, partition, labels = self.result
        p = self.planted
        merged_codes = book_codes(merged)
        degrees = np.array([e.degree for e in merged.entries])
        value = checks.check_cut(merged_codes, degrees, p.codes, p.degrees, partition,
                                 CUT_K, p.groups, p.purity_bound)
        checks.check_propagation(labels, p.site_codes, p.site_degrees, merged_codes, partition)
        if abs(metrics.purity(np.concatenate(labels), self.truth) - value) > 1e-9:
            raise checks.CheckError("purity of the samples differs from the degree-weighted purity")


WORKLOADS = ("desk", "large", "cut", "wire")


def build(name: str, seed: int, toy: bool = False):
    """Inputs of one workload; only cut's planted codebook depends on ``seed``."""
    if name == "desk":
        return PipelineWorkload(desk_configs(toy), collapse_seeds=DESK_COLLAPSE_SEEDS)
    if name == "large":
        return PipelineWorkload(large_configs(toy))
    if name == "wire":
        return PipelineWorkload(wire_configs(toy), sim_twin=True)
    if name == "cut":
        return CutWorkload(seed, toy)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
