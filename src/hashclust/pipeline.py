"""End-to-end runs: config in, results out.

A run goes dataset -> shards -> federated training -> per-site codebooks ->
merge -> code graph -> spectral partition -> label propagation -> metrics,
with wall-clock timing per phase and a transmission-cost ledger. Simulation
mode keeps everything in-process; wire mode moves the training and code
traffic over TCP (loopback threads by default, or real endpoints via the
listen/connect settings) and additionally reports measured bits.

Config files are JSON; every field of PipelineConfig can be set there, and
a handful of command-line flags override. A run directory written with
``out`` is self-describing: ``results.json`` echoes the config as the flat
fields of PipelineConfig, so ``PipelineConfig(**results["config"])``
reruns it bit for bit. config_from_dict reads the nested file schema and
rejects that flat echo.
"""

from __future__ import annotations

import csv
import json
import socket
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import codebook
from .codebook import encode_shard, merge_codebooks
from .datasets import gen_dataset, load_csv, make_dataset_spec, save_csv, shard_dataset
from .errors import HashClustError, InconsistentStateError, InvalidSpecError, PipelineError, check_positive_finite
from .loss import LossConfig
from .metrics import nmi, purity, total_cost_bits
from .network import mlp_spec, param_count
from .spectral import build_graph, propagate_labels, spectral_cluster
from .training import TrainingConfig, relative_error_ratio, train
from .wire import DEFAULT_TIMEOUT, parse_endpoint, run_sub_site, run_wire_locally, serve_global

# fixed spawn keys so each phase draws from an independent stream
_SEED_STREAMS = {"data": 0, "shard": 1, "train": 2, "cluster": 3}


def derive_seed(master: int, stream: str) -> int:
    ss = np.random.SeedSequence(entropy=master, spawn_key=(_SEED_STREAMS[stream],))
    return int(ss.generate_state(1)[0])


@dataclass(frozen=True)
class PipelineConfig:
    """Everything one run needs; mirrors the JSON config schema."""

    name: str
    generate: dict | None
    csv: str | None
    hidden_dims: tuple | None
    code_length: int
    clusters: int
    sites: int
    min_per_site: int
    rounds: int
    batch_size: int
    learning_rate: float
    distance_scale: float
    temperature: float
    mode: str
    seed: int
    out: str | None
    listen: str | None
    connect: str | None
    site: int | None
    timeout: float

    def __post_init__(self):
        if (self.generate is None) == (self.csv is None):
            raise InvalidSpecError("dataset must be exactly one of 'generate' or 'csv'")
        if self.mode not in ("sim", "wire"):
            raise InvalidSpecError(f"mode must be 'sim' or 'wire', got {self.mode!r}")
        if self.clusters < 1 or self.code_length < 1:
            raise InvalidSpecError("clusters and code_length must be >= 1")
        if self.seed < 0:
            raise InvalidSpecError(f"seed must be >= 0, got {self.seed}")
        if (self.site is None) != (self.connect is None):
            raise InvalidSpecError("'site' and 'connect' only make sense together: a site dials the coordinator")
        if self.mode != "wire":
            for key in ("listen", "connect", "site"):
                if getattr(self, key) is not None:
                    raise InvalidSpecError(f"wire.{key} needs mode 'wire', got mode {self.mode!r}")
        # refused here, before any data loads; sites and min_per_site are left
        # to the shard phase, so one site stands in for them
        if any(width < 1 for width in self.hidden_dims or ()):
            raise InvalidSpecError(f"network.hidden_dims entries must be >= 1, got {list(self.hidden_dims)}")
        training_config(self, n_sites=1)
        for endpoint in filter(None, (self.listen, self.connect)):
            parse_endpoint(endpoint)
        check_positive_finite(self.timeout, "wire.timeout")

    def to_dict(self) -> dict:
        return asdict(self)


def training_config(cfg: PipelineConfig, n_sites: int) -> TrainingConfig:
    """The run's TrainingConfig. ``n_sites`` is apart from ``cfg.sites`` so
    that the config check can build one before the shard phase checks sites."""
    return TrainingConfig(
        n_rounds=cfg.rounds,
        n_sites=n_sites,
        batch_size=cfg.batch_size,
        learning_rate=cfg.learning_rate,
        loss=LossConfig(distance_scale=cfg.distance_scale, temperature=cfg.temperature),
        seed=derive_seed(cfg.seed, "train"),
    )


_GENERATE_KEYS = {"n_clusters", "ambient_dim", "embed_dim", "samples_per_cluster"}
_TRAINING_KEYS = {"rounds", "batch_size", "learning_rate", "distance_scale", "temperature"}
_WIRE_KEYS = {"listen", "connect", "site", "timeout"}
_TOP_KEYS = {
    "name", "dataset", "network", "code_length", "clusters", "sites",
    "min_per_site", "training", "mode", "seed", "out", "wire",
}


def _reject_unknown(section: dict, allowed: set, where: str) -> None:
    if not isinstance(section, dict):
        raise InvalidSpecError(f"{where} must be a JSON object, got {type(section).__name__}")
    unknown = set(section) - allowed
    if unknown:
        raise InvalidSpecError(f"unknown {where} keys: {sorted(unknown)}")


def _string(value, key: str):
    """A JSON string as it is; an absent value is None, any other type raises."""
    if value is None or isinstance(value, str):
        return value
    raise InvalidSpecError(f"{key} must be a string, got {value!r}")


def _number(value, kind, key: str):
    """A JSON number as ``kind``; a string, a bool, or a fraction for an int raises."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if kind is float or isinstance(value, int) or value.is_integer():
            return kind(value)
    raise InvalidSpecError(f"{key} must be {'an integer' if kind is int else 'a number'}, got {value!r}")


def config_from_dict(raw: dict) -> PipelineConfig:
    _reject_unknown(raw, _TOP_KEYS, "config")
    dataset = raw.get("dataset")
    if not isinstance(dataset, dict) or set(dataset) not in ({"generate"}, {"csv"}):
        raise InvalidSpecError("config needs dataset.generate {...} or dataset.csv <path>")
    generate = dataset.get("generate")
    if generate is not None:
        _reject_unknown(generate, _GENERATE_KEYS, "dataset.generate")
        missing = _GENERATE_KEYS - set(generate)
        if missing:
            raise InvalidSpecError(f"dataset.generate needs keys: {sorted(missing)}")
        generate = {k: _number(v, int, f"dataset.generate.{k}") for k, v in generate.items()}
    training = raw.get("training", {})
    _reject_unknown(training, _TRAINING_KEYS, "training")
    network = raw.get("network", {})
    _reject_unknown(network, {"hidden_dims"}, "network")
    wire_cfg = raw.get("wire", {})
    _reject_unknown(wire_cfg, _WIRE_KEYS, "wire")
    hidden = network.get("hidden_dims")
    if not isinstance(hidden, (list, type(None))):
        raise InvalidSpecError(f"network.hidden_dims must be a list of integers, got {hidden!r}")
    if "clusters" not in raw:
        raise InvalidSpecError("config needs 'clusters' (the number of output clusters)")
    csv = _string(dataset.get("csv"), "dataset.csv")
    name = _string(raw.get("name"), "name")
    if name is None:
        name = "synthetic" if generate is not None else Path(csv).stem
    site = wire_cfg.get("site")
    return PipelineConfig(
        name=name,
        generate=generate,
        csv=csv,
        hidden_dims=None if hidden is None
        else tuple(_number(v, int, "network.hidden_dims") for v in hidden),
        code_length=_number(raw.get("code_length", 8), int, "code_length"),
        clusters=_number(raw["clusters"], int, "clusters"),
        sites=_number(raw.get("sites", 1), int, "sites"),
        min_per_site=_number(raw.get("min_per_site", 50), int, "min_per_site"),
        rounds=_number(training.get("rounds", 50), int, "training.rounds"),
        batch_size=_number(training.get("batch_size", 32), int, "training.batch_size"),
        learning_rate=_number(training.get("learning_rate", 0.05), float, "training.learning_rate"),
        distance_scale=_number(training.get("distance_scale", 1.0), float, "training.distance_scale"),
        temperature=_number(training.get("temperature", 1.0), float, "training.temperature"),
        mode=raw.get("mode", "sim"),
        seed=_number(raw.get("seed", 0), int, "seed"),
        out=_string(raw.get("out"), "out"),
        listen=_string(wire_cfg.get("listen"), "wire.listen"),
        connect=_string(wire_cfg.get("connect"), "wire.connect"),
        site=None if site is None else _number(site, int, "wire.site"),
        timeout=_number(wire_cfg.get("timeout", DEFAULT_TIMEOUT), float, "wire.timeout"),
    )


def config_from_file(path) -> PipelineConfig:
    """A file that cannot be read or parsed raises InvalidSpecError with the path and reason."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:
        raise InvalidSpecError(f"config file {path}: {exc}") from exc
    return config_from_dict(raw)


def apply_overrides(cfg: PipelineConfig, **overrides) -> PipelineConfig:
    """Replace the given fields; None values mean "keep the config's"."""
    changes = {k: v for k, v in overrides.items() if v is not None}
    return replace(cfg, **changes) if changes else cfg


@contextmanager
def _phase(name: str, timings: dict):
    start = time.perf_counter()
    try:
        yield
    except (HashClustError, OSError) as exc:
        raise PipelineError(f"{name}: {exc}") from exc
    finally:
        timings[name] = time.perf_counter() - start


def _output_dir(out) -> Path:
    """``out`` as a directory path; a file there or in its way raises
    PipelineError, so that a run can refuse it before any data loads."""
    path = Path(out)
    for existing in (path, *path.parents):
        if existing.exists():
            if not existing.is_dir():
                raise PipelineError(f"out: {existing} is a file, not a directory")
            break
    return path


def _load_dataset(cfg: PipelineConfig):
    if cfg.generate is not None:
        clusters = make_dataset_spec(**cfg.generate, seed=derive_seed(cfg.seed, "data"))
        samples, truth = gen_dataset(clusters)
        return samples, truth, clusters
    samples, truth = load_csv(cfg.csv)
    return samples, truth, None


def run_generate(cfg: PipelineConfig):
    """Write dataset.csv plus a manifest into the output directory."""
    if cfg.generate is None:
        raise PipelineError("generate: config has no dataset.generate section")
    if cfg.out is None:
        raise PipelineError("generate: config needs 'out' (or the --out flag)")
    out_dir = _output_dir(cfg.out)
    timings: dict = {}
    with _phase("dataset", timings):
        samples, truth, clusters = _load_dataset(cfg)
    csv_path = out_dir / "dataset.csv"
    manifest_path = out_dir / "manifest.json"
    with _phase("write", timings):
        out_dir.mkdir(parents=True, exist_ok=True)
        save_csv(csv_path, samples, truth)
        manifest = {
            "name": cfg.name,
            "generate": cfg.generate,
            "seed": cfg.seed,
            "data_seed": derive_seed(cfg.seed, "data"),
            "cluster_seeds": [c.seed for c in clusters],
            "n_samples": int(samples.shape[0]),
            "n_features": int(samples.shape[1]),
            "csv": csv_path.name,
        }
        manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")
    return csv_path, manifest_path


def setup_run(cfg: PipelineConfig, timings: dict | None = None):
    """What coordinator, sites and any replay of a config derive alike:
    (n, shards, network spec, TrainingConfig). The wire hello compares the
    last two. The network defaults to two hidden layers at the data width.
    A site of more than ``codebook.MAX_DEGREE`` samples is refused here, in
    sim and wire alike, before any training.
    ``timings``, when given, receives the dataset and shard phase times."""
    timings = {} if timings is None else timings
    with _phase("dataset", timings):
        samples, truth, _clusters = _load_dataset(cfg)
    with _phase("shard", timings):
        shards = shard_dataset(
            samples, truth, cfg.sites, cfg.min_per_site, derive_seed(cfg.seed, "shard")
        )
        # one code may take a whole shard, and CODES_PUSH carries no degree above the limit
        for site, shard in enumerate(shards):
            if len(shard) > codebook.MAX_DEGREE:
                raise InvalidSpecError(f"site {site} holds {len(shard)} samples, more than the "
                                       f"{codebook.MAX_DEGREE} a code's degree may reach")
    n, dim = samples.shape
    hidden = (dim, dim) if cfg.hidden_dims is None else cfg.hidden_dims
    return n, shards, mlp_spec(dim, hidden, cfg.code_length), training_config(cfg, cfg.sites)


def run_pipeline(cfg: PipelineConfig) -> dict:
    """Execute one full run and return (and optionally write) the results."""
    timings: dict = {}
    if cfg.site is not None:
        return _run_wire_site(cfg, timings)

    out_dir = None if cfg.out is None else _output_dir(cfg.out)
    n, shards, net_spec, tcfg = setup_run(cfg, timings)

    meter = None
    wire_books = None
    with _phase("train", timings):
        if cfg.mode == "sim":
            params, losses = train(shards, net_spec, tcfg)
        else:
            if cfg.listen is not None:
                listener = socket.create_server(parse_endpoint(cfg.listen))
                result = serve_global(listener, net_spec, tcfg, timeout=cfg.timeout)
            else:
                result = run_wire_locally(shards, net_spec, tcfg, timeout=cfg.timeout)
            params, losses = result.params, result.losses
            meter, wire_books = result.meter, result.site_books

    with _phase("encode", timings):
        site_maps = [encode_shard(params, s, origin=f"site{i}") for i, s in enumerate(shards)]
        books = [m[0] for m in site_maps]
        # in wire mode the coordinator clusters and labels through its own
        # encoding, so each site must have sent exactly that book
        for site, sent in enumerate(wire_books or ()):
            if sent != books[site]:
                raise InconsistentStateError(
                    f"site {site} sent a codebook other than the coordinator's encoding of its shard"
                )
    with _phase("merge", timings):
        merged = merge_codebooks(books)
        if merged.total_degree != n:
            raise InconsistentStateError(
                f"codebook degrees sum to {merged.total_degree}, dataset has {n}"
            )
        if len(merged) > min(2 ** cfg.code_length, n):
            raise InconsistentStateError(f"{len(merged)} codebook entries exceed the bound")
    with _phase("cluster", timings):
        graph = build_graph(merged)
        partition = spectral_cluster(graph, cfg.clusters, derive_seed(cfg.seed, "cluster"))
    with _phase("propagate", timings):
        per_site = propagate_labels(partition, merged, site_maps)
        pred = np.concatenate(per_site)
        truth_aligned = np.concatenate([s.labels for s in shards])

    with _phase("metrics", timings):
        ledger = total_cost_bits(
            n_sites=cfg.sites,
            n_params=param_count(net_spec),
            n_rounds=cfg.rounds,
            codes_per_site=[len(b) for b in books],
            code_length=cfg.code_length,
        )
        if meter is not None:
            ledger.measured_paper_bits = meter.paper_bits
            ledger.measured_physical_bits = meter.physical_bits
        rer = relative_error_ratio(losses).tolist() if len(losses) else []
        results = {
            "name": cfg.name,
            "mode": cfg.mode,
            "seed": cfg.seed,
            "n_samples": int(n),
            "n_features": net_spec[0].input_dim,
            "sites": cfg.sites,
            "code_length": cfg.code_length,
            "clusters": cfg.clusters,
            "param_count": param_count(net_spec),
            "purity": purity(pred, truth_aligned),
            "nmi": nmi(pred, truth_aligned),
            "rer_series": rer,
            "ledger": ledger.as_dict(),
            "cluster_sizes": [int(v) for v in np.bincount(pred, minlength=cfg.clusters)],
            "codebook_size": len(merged),
            "timings": timings,
            "config": cfg.to_dict(),
        }

    if out_dir is not None:
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
            (out_dir / "results.json").write_text(json.dumps(results, indent=2) + "\n")
        except OSError as exc:
            raise PipelineError(f"write: {exc}") from exc
    return results


def _run_wire_site(cfg: PipelineConfig, timings: dict) -> dict:
    """Worker-side wire run: local shard only, no metrics. The site index is
    checked before any data loads."""
    if not 0 <= cfg.site < cfg.sites:
        raise PipelineError(f"site: index {cfg.site} outside [0, {cfg.sites})")
    _n, shards, net_spec, tcfg = setup_run(cfg, timings)
    host, port = parse_endpoint(cfg.connect)
    with _phase("train", timings):
        run_sub_site(host, port, cfg.site, shards[cfg.site], net_spec, tcfg, timeout=cfg.timeout)
    return {"name": cfg.name, "mode": "wire", "role": "site", "site": cfg.site, "timings": timings}


def _typed(value, kinds, what: str, key: str):
    """``value`` if it is one of ``kinds`` and not a bool; else InvalidSpecError names ``key``."""
    if isinstance(value, kinds) and not isinstance(value, bool):
        return value
    raise InvalidSpecError(f"{key} must be {what}, got {value!r}")


def run_report(result_paths, out_path=None):
    """Tabulate runs: one row each, sorted by dataset name then seed.

    The cost column is megabytes, bits / (8 * 2**20). Returns the rows;
    writes CSV to out_path when given, quoting a name that needs it.
    """
    rows = []
    for path in result_paths:
        try:
            with open(path) as fh:
                res = json.load(fh)
            bits = _typed(res["ledger"]["total_bits"], (int, float), "a number", "ledger.total_bits")
            rows.append(
                {
                    "dataset": _typed(res["name"], str, "a string", "name"),
                    "seed": _typed(res["seed"], int, "an integer", "seed"),
                    "mode": res["mode"],
                    "purity": _typed(res["purity"], (int, float), "a number", "purity"),
                    "nmi": _typed(res["nmi"], (int, float), "a number", "nmi"),
                    "total_bits": bits,
                    "megabytes": bits / (8 * 2 ** 20),
                }
            )
        except (OSError, KeyError, TypeError, InvalidSpecError, json.JSONDecodeError) as exc:
            raise PipelineError(f"report: {path}: {exc}") from exc
    rows.sort(key=lambda r: (r["dataset"], r["seed"]))
    if out_path is not None:
        header = ["dataset", "seed", "mode", "purity", "nmi", "total_bits", "megabytes"]
        try:
            with open(out_path, "w", newline="") as fh:
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(header)
                writer.writerows([r[k] for k in header] for r in rows)
        except OSError as exc:
            raise PipelineError(f"report: {out_path}: {exc}") from exc
    return rows
