"""End-to-end runs: config in, results out.

A run goes dataset -> shards -> federated training -> per-site codebooks ->
merge -> code graph -> spectral partition -> label propagation -> metrics,
with wall-clock timing per phase and a transmission-cost ledger. Simulation
mode keeps everything in-process; wire mode moves the training and code
traffic over TCP (loopback threads by default, or real endpoints via the
listen/connect settings) and additionally reports measured bits.

Config files are JSON, and a handful of command-line flags override them.
Every key is a field of PipelineConfig, which states its section, kind and
default and checks every value itself: a file, the results echo,
``dataclasses.replace`` and the overrides pass one gate with one set of
messages. ``results.json`` (written with ``out``) echoes the config as the
flat fields, so ``PipelineConfig(**results["config"])`` reruns it bit for
bit; config_from_dict reads the nested file schema and rejects that echo.
"""

from __future__ import annotations

import csv
import json
import socket
import time
from contextlib import contextmanager
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import codebook
from .codebook import encode_shard, merge_codebooks
from .datasets import child_seed, gen_dataset, load_csv, make_dataset_spec, save_csv, shard_dataset
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
    return child_seed(master, _SEED_STREAMS[stream])


def _file_key(section: str, kind, default=MISSING, needs: str = ""):
    """A field that a config file sets: the key of its name in ``section``
    ("" is the top level), a JSON value of ``kind`` (see ``_scalar``) that
    takes ``default`` when absent. A key without a default is required, and
    its refusal says what it ``needs``."""
    return field(metadata={"section": section, "kind": kind, "default": default, "needs": needs})


_GENERATE = {"n_clusters": int, "ambient_dim": int, "embed_dim": int, "samples_per_cluster": int}


@dataclass(frozen=True)
class PipelineConfig:
    """Everything one run needs; every field is required. Each field states
    its config file key (section, kind, default), and every value, from a
    file, a results echo, ``replace`` or ``apply_overrides``, passes the same
    checks here. A null ``name`` is the csv file's stem, or "synthetic"."""

    name: str = _file_key("", str, None)
    generate: dict | None = _file_key("dataset", _GENERATE, None)
    csv: str | None = _file_key("dataset", str, None)
    hidden_dims: tuple | None = _file_key("network", list, None)
    code_length: int = _file_key("", int, 8)
    clusters: int = _file_key("", int, needs="the number of output clusters")
    sites: int = _file_key("", int, 1)
    min_per_site: int = _file_key("", int, 50)
    rounds: int = _file_key("training", int, 50)
    batch_size: int = _file_key("training", int, 32)
    learning_rate: float = _file_key("training", float, 0.05)
    distance_scale: float = _file_key("training", float, 1.0)
    temperature: float = _file_key("training", float, 1.0)
    mode: str = _file_key("", object, "sim")
    seed: int = _file_key("", int, 0)
    out: str | None = _file_key("", str, None)
    listen: str | None = _file_key("wire", str, None)
    connect: str | None = _file_key("wire", str, None)
    site: int | None = _file_key("wire", int, None)
    timeout: float = _file_key("wire", float, DEFAULT_TIMEOUT)

    def __post_init__(self):
        for f in fields(self):
            where, kind, default = f.metadata["section"], f.metadata["kind"], f.metadata["default"]
            key = f"{where}.{f.name}" if where else f.name
            object.__setattr__(self, f.name, _scalar(getattr(self, f.name), kind, key, default))
        if (self.generate is None) == (self.csv is None):
            raise InvalidSpecError("dataset must be exactly one of 'generate' or 'csv'")
        if self.name is None:
            object.__setattr__(self, "name", "synthetic" if self.csv is None else Path(self.csv).stem)
        if self.mode not in ("sim", "wire"):
            raise InvalidSpecError(f"mode must be 'sim' or 'wire', got {self.mode!r}")
        if self.clusters < 1 or self.code_length < 1:
            raise InvalidSpecError("clusters and code_length must be >= 1")
        if self.seed < 0:
            raise InvalidSpecError(f"seed must be >= 0, got {self.seed}")
        if (self.site is None) != (self.connect is None):
            raise InvalidSpecError("'site' and 'connect' only make sense together: a site dials the coordinator")
        if self.listen is not None and self.connect is not None:
            raise InvalidSpecError("wire.listen and wire.connect are two roles: a process listens or dials, not both")
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
        if self.connect is not None and parse_endpoint(self.connect)[1] == 0:
            raise InvalidSpecError(f"wire.connect {self.connect!r} dials port 0, which only wire.listen may take")
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


def _section_keys(section: str) -> set:
    return {f.name for f in fields(PipelineConfig) if f.metadata["section"] == section}


def _reject_unknown(section: dict, allowed: set, where: str) -> None:
    if not isinstance(section, dict):
        raise InvalidSpecError(f"{where} must be a JSON object, got {type(section).__name__}")
    unknown = set(section) - allowed
    if unknown:
        raise InvalidSpecError(f"unknown {where} keys: {sorted(unknown)}")


_KINDS = {int: "an integer", float: "a number", str: "a string", list: "a list of integers"}


def _scalar(value, kind, key: str, default=MISSING):
    """``value`` as ``kind``: a JSON string for str, a number for int or float
    (a bool is none, nor is a fraction an int), a list of integers, as a
    tuple, for list, an object of exactly a dict kind's keys, each value of
    its kind, for a dict, anything for object. Null passes where it is the
    default; anything else raises."""
    if kind is object or value is None and default is None or kind is str and isinstance(value, str):
        return value
    if kind in (int, float) and isinstance(value, (int, float)) and not isinstance(value, bool):
        if kind is float or isinstance(value, int) or value.is_integer():
            return kind(value)
    if kind is list and isinstance(value, (list, tuple)):
        return tuple(_scalar(v, int, key) for v in value)
    if isinstance(kind, dict):
        _reject_unknown(value, set(kind), key)
        missing = set(kind) - set(value)
        if missing:
            raise InvalidSpecError(f"{key} needs keys: {sorted(missing)}")
        return {k: _scalar(v, kind[k], f"{key}.{k}") for k, v in value.items()}
    raise InvalidSpecError(f"{key} must be {_KINDS[kind]}, got {value!r}")


def config_from_dict(raw: dict) -> PipelineConfig:
    """The config a nested file describes: each field's key is found in its
    section or takes its default. A null dataset source is refused by its
    kind here, as PipelineConfig reads None as the source not named."""
    _reject_unknown(raw, _section_keys("") | {"dataset", "network", "training", "wire"}, "config")
    dataset = raw.get("dataset")
    if not isinstance(dataset, dict) or set(dataset) not in ({"generate"}, {"csv"}):
        raise InvalidSpecError("config needs dataset.generate {...} or dataset.csv <path>")
    source = next(f for f in fields(PipelineConfig) if f.name in dataset)
    _scalar(dataset[source.name], source.metadata["kind"], f"dataset.{source.name}")
    sections = {"": raw, "dataset": dataset}
    for where in ("training", "network", "wire"):
        sections[where] = raw.get(where, {})
        _reject_unknown(sections[where], _section_keys(where), where)
    values = {}
    for f in fields(PipelineConfig):
        section, default = sections[f.metadata["section"]], f.metadata["default"]
        if default is MISSING and f.name not in section:
            raise InvalidSpecError(f"config needs {f.name!r} ({f.metadata['needs']})")
        values[f.name] = section.get(f.name, default)
    return PipelineConfig(**values)


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


def _output_dir(out, *names) -> Path:
    """``out`` as a directory path; a file there or in its way, or anything
    but a file at one of the ``names`` the run will write in it, raises
    PipelineError, so that a run can refuse it before any data loads."""
    path = Path(out)
    for existing in (path, *path.parents):
        if existing.exists():
            if not existing.is_dir():
                raise PipelineError(f"out: {existing} is a file, not a directory")
            break
    for target in (path / name for name in names):
        if target.exists() and not target.is_file():
            raise PipelineError(f"out: {target} is not a file")
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
    out_dir = _output_dir(cfg.out, "dataset.csv", "manifest.json")
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

    out_dir = None if cfg.out is None else _output_dir(cfg.out, "results.json")
    n, shards, net_spec, tcfg = setup_run(cfg, timings)

    meter = None
    wire_books = None
    with _phase("train", timings):
        if cfg.mode == "sim":
            params, losses = train(shards, net_spec, tcfg)
        else:
            if cfg.listen is not None:
                host, port = parse_endpoint(cfg.listen)
                # an IPv6 literal is the one host that holds a colon
                family = socket.AF_INET6 if ":" in host else socket.AF_INET
                listener = socket.create_server((host, port), family=family)
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
            if res["mode"] not in ("sim", "wire"):
                raise InvalidSpecError(f"mode must be 'sim' or 'wire', got {res['mode']!r}")
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
