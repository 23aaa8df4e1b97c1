import copy
import csv
import dataclasses
import errno
import json
import re
import socket
import threading
import time

import numpy as np
import pytest

from conftest import free_port

from hashclust import codebook, pipeline, wire
from hashclust.cli import main
from hashclust.codebook import Codebook, merge_codebooks
from hashclust.errors import InvalidSpecError, PipelineError
from hashclust.network import code_words
from hashclust.pipeline import (
    PipelineConfig,
    apply_overrides,
    config_from_dict,
    config_from_file,
    derive_seed,
    run_generate,
    run_pipeline,
    run_report,
)


def make_raw(seed=1, mode="sim", sites=2, rounds=8):
    return {
        "name": "toy",
        "dataset": {
            "generate": {
                "n_clusters": 3,
                "ambient_dim": 6,
                "embed_dim": 2,
                "samples_per_cluster": 40,
            }
        },
        "code_length": 6,
        "clusters": 3,
        "sites": sites,
        "min_per_site": 30,
        "training": {"rounds": rounds, "batch_size": 16, "learning_rate": 0.05},
        "mode": mode,
        "seed": seed,
    }


# --- config parsing ---

def test_config_defaults():
    raw = {"dataset": {"generate": make_raw()["dataset"]["generate"]}, "clusters": 3}
    cfg = config_from_dict(raw)
    assert cfg.name == "synthetic"
    assert cfg.code_length == 8
    assert cfg.sites == 1
    assert cfg.min_per_site == 50
    assert cfg.rounds == 50
    assert cfg.batch_size == 32
    assert cfg.learning_rate == 0.05
    assert cfg.distance_scale == 1.0
    assert cfg.temperature == 1.0
    assert cfg.mode == "sim"
    assert cfg.seed == 0
    assert cfg.hidden_dims is None
    assert cfg.out is None


def test_config_csv_name_from_stem():
    cfg = config_from_dict({"dataset": {"csv": "/data/runs/blobs.csv"}, "clusters": 2})
    assert cfg.name == "blobs"
    assert cfg.csv == "/data/runs/blobs.csv"
    assert cfg.generate is None


def test_config_rejects_unknown_top_key():
    raw = make_raw()
    raw["bogus"] = 1
    with pytest.raises(InvalidSpecError):
        config_from_dict(raw)


def test_config_rejects_unknown_training_key():
    raw = make_raw()
    raw["training"]["momentum"] = 0.9
    with pytest.raises(InvalidSpecError):
        config_from_dict(raw)


def test_config_rejects_incomplete_generate():
    raw = make_raw()
    del raw["dataset"]["generate"]["embed_dim"]
    with pytest.raises(InvalidSpecError):
        config_from_dict(raw)


def test_config_requires_exactly_one_dataset():
    raw = make_raw()
    raw["dataset"]["csv"] = "x.csv"
    with pytest.raises(InvalidSpecError):
        config_from_dict(raw)
    with pytest.raises(InvalidSpecError):
        config_from_dict({"dataset": {}, "clusters": 2})
    # a null source is refused by its kind, as a wrong one is, whether or not a name is given
    for source, message in (("csv", "dataset.csv must be a string, got None"),
                            ("generate", "dataset.generate must be a JSON object, got NoneType")):
        for name in ({}, {"name": "toy"}):
            with pytest.raises(InvalidSpecError, match=f"^{re.escape(message)}$"):
                config_from_dict({**name, "dataset": {source: None}, "clusters": 2})


def test_config_requires_clusters():
    raw = make_raw()
    del raw["clusters"]
    with pytest.raises(InvalidSpecError):
        config_from_dict(raw)


def test_config_rejects_bad_mode():
    raw = make_raw()
    raw["mode"] = "carrier-pigeon"
    with pytest.raises(InvalidSpecError):
        config_from_dict(raw)


def test_config_site_needs_connect():
    raw = make_raw()
    raw["wire"] = {"site": 0}
    with pytest.raises(InvalidSpecError):
        config_from_dict(raw)


def test_config_refuses_listen_together_with_connect_and_site():
    raw = make_raw(mode="wire")
    raw["wire"] = {"listen": "127.0.0.1:9500", "connect": "127.0.0.1:9500", "site": 0}
    with pytest.raises(InvalidSpecError, match=r"^wire\.listen and wire\.connect are two roles"):
        config_from_dict(raw)


def test_config_refuses_a_site_that_dials_port_0():
    raw = make_raw(mode="wire")
    raw["wire"] = {"connect": "127.0.0.1:0", "site": 0}
    with pytest.raises(InvalidSpecError, match=r"^wire\.connect '127\.0\.0\.1:0' dials port 0"):
        config_from_dict(raw)
    # the listen side keeps port 0, which the OS assigns
    raw["wire"] = {"listen": "127.0.0.1:0"}
    assert config_from_dict(raw).listen == "127.0.0.1:0"


@pytest.mark.parametrize("key", ["clusters", "code_length"])
def test_config_refuses_no_clusters_or_no_code_bits(key):
    with pytest.raises(InvalidSpecError, match="^clusters and code_length must be >= 1$"):
        config_from_dict({**make_raw(), key: 0})


# each file key: its refusal of JSON null (None where null is the key's
# absence), a value of the wrong kind and that value's refusal
_NULL_AND_WRONG_KIND = {
    "name": (None, 4, "name must be a string, got 4"),
    "dataset.generate": ("dataset.generate must be a JSON object, got NoneType", [3],
                         "dataset.generate must be a JSON object, got list"),
    "dataset.csv": ("dataset.csv must be a string, got None", 4, "dataset.csv must be a string, got 4"),
    "network.hidden_dims": (None, 0, "network.hidden_dims must be a list of integers, got 0"),
    "code_length": ("code_length must be an integer, got None", "4", "code_length must be an integer, got '4'"),
    "clusters": ("clusters must be an integer, got None", "4", "clusters must be an integer, got '4'"),
    "sites": ("sites must be an integer, got None", "4", "sites must be an integer, got '4'"),
    "min_per_site": ("min_per_site must be an integer, got None", "4", "min_per_site must be an integer, got '4'"),
    "training.rounds": ("training.rounds must be an integer, got None", "4",
                        "training.rounds must be an integer, got '4'"),
    "training.batch_size": ("training.batch_size must be an integer, got None", "4",
                            "training.batch_size must be an integer, got '4'"),
    "training.learning_rate": ("training.learning_rate must be a number, got None", "x",
                               "training.learning_rate must be a number, got 'x'"),
    "training.distance_scale": ("training.distance_scale must be a number, got None", "x",
                                "training.distance_scale must be a number, got 'x'"),
    "training.temperature": ("training.temperature must be a number, got None", "x",
                             "training.temperature must be a number, got 'x'"),
    "mode": ("mode must be 'sim' or 'wire', got None", 4, "mode must be 'sim' or 'wire', got 4"),
    "seed": ("seed must be an integer, got None", "4", "seed must be an integer, got '4'"),
    "out": (None, 4, "out must be a string, got 4"),
    "wire.listen": (None, 4, "wire.listen must be a string, got 4"),
    "wire.connect": (None, 4, "wire.connect must be a string, got 4"),
    "wire.site": (None, "4", "wire.site must be an integer, got '4'"),
    "wire.timeout": ("wire.timeout must be a number, got None", "x", "wire.timeout must be a number, got 'x'"),
}


@pytest.mark.parametrize("field", dataclasses.fields(PipelineConfig), ids=lambda f: f.name)
def test_config_refuses_null_and_a_wrong_kind_by_the_schema(field):
    section = field.metadata["section"]
    key = f"{section}.{field.name}" if section else field.name
    null_message, wrong, wrong_message = _NULL_AND_WRONG_KIND[key]
    for value, message in ((None, null_message), (wrong, wrong_message)):
        raw = make_raw()
        if section == "dataset":  # the file's one source
            raw["dataset"] = {}
        target = raw.setdefault(section, {}) if section else raw
        target[field.name] = value
        if message is None:
            taken = config_from_dict(raw)
            del target[field.name]
            assert taken == config_from_dict(raw)
        else:
            with pytest.raises(InvalidSpecError, match=f"^{re.escape(message)}$"):
                config_from_dict(raw)


@pytest.mark.parametrize(
    "name, value, message",
    [("rounds", 2.5, "training.rounds must be an integer, got 2.5"),
     ("sites", True, "sites must be an integer, got True"),
     ("clusters", "4", "clusters must be an integer, got '4'"),
     ("learning_rate", "0.05", "training.learning_rate must be a number, got '0.05'"),
     ("seed", 1.5, "seed must be an integer, got 1.5"),
     ("hidden_dims", [8, "8"], "network.hidden_dims must be an integer, got '8'"),
     ("generate", {"n_clusters": 3, "ambient_dim": 6, "samples_per_cluster": 40},
      "dataset.generate needs keys: ['embed_dim']")],
)
def test_echo_and_overrides_refuse_a_value_as_the_file_does(name, value, message):
    raw = make_raw()
    section = next(f for f in dataclasses.fields(PipelineConfig) if f.name == name).metadata["section"]
    (raw.setdefault(section, {}) if section else raw)[name] = value
    echo = json.loads(json.dumps(config_from_dict(make_raw()).to_dict()))
    cfg = PipelineConfig(**echo)
    refusals = [lambda: config_from_dict(raw), lambda: PipelineConfig(**{**echo, name: value}),
                lambda: apply_overrides(cfg, **{name: value}), lambda: dataclasses.replace(cfg, **{name: value})]
    for refusal in refusals:
        with pytest.raises(InvalidSpecError, match=f"^{re.escape(message)}$"):
            refusal()


def test_echo_checks_the_dataset_source_and_derives_a_null_name():
    echo = config_from_dict(make_raw()).to_dict()
    with pytest.raises(InvalidSpecError, match=r"^dataset must be exactly one of 'generate' or 'csv'$"):
        PipelineConfig(**{**echo, "generate": None})
    assert PipelineConfig(**{**echo, "name": None}).name == "synthetic"
    assert PipelineConfig(**{**echo, "name": None, "generate": None, "csv": "runs/blobs.csv"}).name == "blobs"


def test_config_from_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(make_raw(seed=4)))
    cfg = config_from_file(path)
    assert cfg.seed == 4
    assert cfg.name == "toy"


def test_apply_overrides_none_keeps():
    cfg = config_from_dict(make_raw(seed=2))
    same = apply_overrides(cfg, seed=None, out=None)
    assert same == cfg
    changed = apply_overrides(cfg, seed=9, out="/tmp/x")
    assert changed.seed == 9
    assert changed.out == "/tmp/x"
    assert cfg.seed == 2  # original untouched


def test_derive_seed_streams_distinct():
    seeds = {derive_seed(7, s) for s in ("data", "shard", "train", "cluster")}
    assert len(seeds) == 4
    assert derive_seed(7, "data") == derive_seed(7, "data")


# --- generate ---

def test_run_generate_writes_csv_and_manifest(tmp_path):
    cfg = apply_overrides(config_from_dict(make_raw(seed=3)), out=str(tmp_path / "gen"))
    csv_path, manifest_path = run_generate(cfg)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "f0,f1,f2,f3,f4,f5,label"
    assert len(lines) == 1 + 120
    manifest = json.loads(manifest_path.read_text())
    assert manifest["n_samples"] == 120
    assert manifest["n_features"] == 6
    assert manifest["seed"] == 3
    assert manifest["data_seed"] == derive_seed(3, "data")
    assert len(manifest["cluster_seeds"]) == 3


def test_run_generate_reproducible(tmp_path):
    raw = make_raw(seed=6)
    a = apply_overrides(config_from_dict(raw), out=str(tmp_path / "a"))
    b = apply_overrides(config_from_dict(raw), out=str(tmp_path / "b"))
    ca, _ = run_generate(a)
    cb, _ = run_generate(b)
    assert ca.read_bytes() == cb.read_bytes()


def test_run_generate_needs_out():
    with pytest.raises(PipelineError):
        run_generate(config_from_dict(make_raw()))


def test_run_generate_needs_generate_section(tmp_path):
    cfg = config_from_dict({"dataset": {"csv": "x.csv"}, "clusters": 2})
    cfg = apply_overrides(cfg, out=str(tmp_path))
    with pytest.raises(PipelineError):
        run_generate(cfg)


# --- full runs ---

def test_run_pipeline_sim_results_shape():
    results = run_pipeline(config_from_dict(make_raw(seed=1)))
    assert results["name"] == "toy"
    assert results["mode"] == "sim"
    assert results["n_samples"] == 120
    assert results["n_features"] == 6
    assert results["param_count"] == 126  # 6->(6,6)->6 dense stack
    assert 0.0 <= results["purity"] <= 1.0
    assert 0.0 <= results["nmi"] <= 1.0
    assert sum(results["cluster_sizes"]) == 120
    assert len(results["rer_series"]) == 8
    assert results["rer_series"][-1] >= 0.0
    ledger = results["ledger"]
    assert ledger["training_bits"] == 32 * 126 * 2 * 2 * 8
    assert ledger["final_broadcast_bits"] == 32 * 126 * 2
    assert (
        ledger["total_bits"]
        == ledger["training_bits"] + ledger["final_broadcast_bits"] + ledger["code_bits"]
    )
    assert ledger["total_bits"] <= ledger["upper_bound_bits"]
    assert "measured_paper_bits" not in ledger
    assert 1 <= results["codebook_size"] <= min(2 ** 6, 120)
    for phase in ("dataset", "shard", "train", "encode", "merge", "cluster", "propagate"):
        assert phase in results["timings"]


def test_run_pipeline_deterministic():
    raw = make_raw(seed=6)
    a = run_pipeline(config_from_dict(raw))
    b = run_pipeline(config_from_dict(copy.deepcopy(raw)))
    for key in ("purity", "nmi", "rer_series", "ledger", "cluster_sizes", "codebook_size"):
        assert a[key] == b[key]


def test_run_pipeline_writes_results(tmp_path):
    cfg = apply_overrides(config_from_dict(make_raw(seed=2)), out=str(tmp_path / "run"))
    results = run_pipeline(cfg)
    on_disk = json.loads((tmp_path / "run" / "results.json").read_text())
    assert on_disk == json.loads(json.dumps(results))


def test_run_pipeline_that_cannot_write_results_fails_in_the_write_phase(tmp_path, monkeypatch):
    def full_disk(path, *args, **kwargs):
        raise OSError(errno.ENOSPC, "No space left on device", str(path))

    monkeypatch.setattr(pipeline.Path, "write_text", full_disk)
    with pytest.raises(PipelineError, match=r"^write: \[Errno 28\] No space left on device: '.*results\.json'$"):
        run_pipeline(apply_overrides(config_from_dict(make_raw(seed=1)), out=str(tmp_path / "run")))


def test_rerun_from_results_config_echo(tmp_path):
    raw = make_raw(seed=3)  # this seed's run keeps 4 codes with these layers
    raw["network"] = {"hidden_dims": [5, 4]}
    first = run_pipeline(apply_overrides(config_from_dict(raw), out=str(tmp_path / "run")))
    echo = json.loads((tmp_path / "run" / "results.json").read_text())["config"]
    assert echo["hidden_dims"] == [5, 4]  # the tuple comes back as a list
    with pytest.raises(InvalidSpecError, match="unknown config keys"):
        config_from_dict(echo)  # reads the nested file schema, not the echo
    again = run_pipeline(PipelineConfig(**echo))
    for key in ("purity", "nmi", "rer_series", "ledger", "cluster_sizes", "codebook_size"):
        assert again[key] == first[key]


def test_run_pipeline_from_csv_matches_generate(tmp_path):
    gen_cfg = apply_overrides(config_from_dict(make_raw(seed=6)), out=str(tmp_path))
    csv_path, _ = run_generate(gen_cfg)
    raw = make_raw(seed=6)
    raw["dataset"] = {"csv": str(csv_path)}
    raw["name"] = "toy"
    from_csv = run_pipeline(config_from_dict(raw))
    direct = run_pipeline(config_from_dict(make_raw(seed=6)))
    assert from_csv["purity"] == direct["purity"]
    assert from_csv["nmi"] == direct["nmi"]
    assert from_csv["ledger"] == direct["ledger"]


def test_run_pipeline_wire_equals_sim():
    sim = run_pipeline(config_from_dict(make_raw(seed=4, mode="sim")))
    wire = run_pipeline(config_from_dict(make_raw(seed=4, mode="wire")))
    assert wire["purity"] == sim["purity"]
    assert wire["nmi"] == sim["nmi"]
    assert wire["rer_series"] == sim["rer_series"]
    assert wire["codebook_size"] == sim["codebook_size"]
    assert wire["cluster_sizes"] == sim["cluster_sizes"]
    for key in ("training_bits", "final_broadcast_bits", "code_bits", "total_bits"):
        assert wire["ledger"][key] == sim["ledger"][key]
    assert wire["ledger"]["measured_paper_bits"] == wire["ledger"]["total_bits"]
    assert wire["ledger"]["measured_physical_bits"] > wire["ledger"]["total_bits"]


def test_linear_network_runs_end_to_end_and_wire_equals_sim():
    """An empty hidden_dims is the linear tanh head, not the default network:
    dim * L weights and L biases."""
    raw = make_raw(seed=4)
    raw["network"] = {"hidden_dims": []}
    sim = run_pipeline(config_from_dict(raw))
    wire = run_pipeline(config_from_dict({**raw, "mode": "wire"}))
    assert sim["param_count"] == wire["param_count"] == 6 * 6 + 6
    assert sim["config"]["hidden_dims"] == ()
    for key in ("purity", "nmi", "rer_series", "codebook_size", "cluster_sizes"):
        assert wire[key] == sim[key]
    for key in ("training_bits", "final_broadcast_bits", "code_bits", "total_bits"):
        assert wire["ledger"][key] == sim["ledger"][key]
    assert wire["ledger"]["measured_paper_bits"] == wire["ledger"]["total_bits"]


def test_run_pipeline_codes_longer_than_64_bits(monkeypatch):
    """L = 70 spans two code words; wire equals sim, degrees sum to n."""
    merged = []

    def spy(books):
        merged.append(merge_codebooks(books))
        return merged[-1]

    monkeypatch.setattr(pipeline, "merge_codebooks", spy)
    runs = {}
    for mode in ("sim", "wire"):
        raw = make_raw(seed=4, mode=mode)
        raw["code_length"] = 70
        runs[mode] = run_pipeline(config_from_dict(raw))
    sim, wire = runs["sim"], runs["wire"]
    for key in ("purity", "nmi", "rer_series", "codebook_size", "cluster_sizes"):
        assert wire[key] == sim[key]
    for key in ("training_bits", "final_broadcast_bits", "code_bits", "total_bits"):
        assert wire["ledger"][key] == sim["ledger"][key]
    assert sim["codebook_size"] <= sim["n_samples"] == 120
    for book in merged:
        assert book.code_length == 70
        assert book.total_degree == 120
        assert len(book) == sim["codebook_size"]


def run_over_endpoints(endpoint):
    """A coordinator listening on ``endpoint`` and two sites dialing it, each
    a wire run_pipeline on a thread of its own; their results by role."""
    raw = make_raw(seed=3, mode="wire", rounds=4)
    coord_raw = copy.deepcopy(raw)
    coord_raw["wire"] = {"listen": endpoint, "timeout": 30.0}
    outcomes = {}

    def run_coord():
        outcomes["coord"] = run_pipeline(config_from_dict(coord_raw))

    def run_site(i):
        site_raw = copy.deepcopy(raw)
        site_raw["wire"] = {"connect": endpoint, "site": i, "timeout": 30.0}
        outcomes[f"site{i}"] = run_pipeline(config_from_dict(site_raw))

    threads = [threading.Thread(target=run_coord)]
    threads += [threading.Thread(target=run_site, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60.0)
    return outcomes


def test_run_pipeline_explicit_endpoints():
    """Coordinator and workers talk through configured host:port endpoints."""
    outcomes = run_over_endpoints(f"127.0.0.1:{free_port()}")
    assert outcomes["site0"]["role"] == "site"
    assert outcomes["site1"]["site"] == 1
    sim = run_pipeline(config_from_dict(make_raw(seed=3, rounds=4)))
    assert outcomes["coord"]["purity"] == sim["purity"]
    assert outcomes["coord"]["ledger"]["total_bits"] == sim["ledger"]["total_bits"]


def test_run_pipeline_listens_on_a_bracketed_ipv6_loopback(monkeypatch):
    """A listen endpoint "[::1]:port" listens on ::1, in the IPv6 family, and
    the sites dial it there."""
    try:
        port = free_port("::1")
    except OSError:
        pytest.skip("this host has no IPv6 loopback")
    listeners = []
    create_server = socket.create_server

    def spied(address, **kwargs):
        listeners.append((address, kwargs.get("family")))
        return create_server(address, **kwargs)

    monkeypatch.setattr(socket, "create_server", spied)
    outcomes = run_over_endpoints(f"[::1]:{port}")
    assert listeners == [(("::1", port), socket.AF_INET6)]
    assert (outcomes["site0"]["site"], outcomes["site1"]["site"]) == (0, 1)
    sim = run_pipeline(config_from_dict(make_raw(seed=3, rounds=4)))
    for key in ("purity", "nmi", "cluster_sizes"):
        assert outcomes["coord"][key] == sim[key]
    assert outcomes["coord"]["ledger"]["measured_paper_bits"] == sim["ledger"]["total_bits"]


def test_run_pipeline_bad_csv_surfaces_as_pipeline_error(tmp_path):
    missing = tmp_path / "nope.csv"
    cfg = config_from_dict({"dataset": {"csv": str(missing)}, "clusters": 2})
    with pytest.raises(PipelineError):
        run_pipeline(cfg)


def test_run_pipeline_csv_with_a_bad_field_surfaces_as_pipeline_error(tmp_path):
    # a NaN would otherwise spread through the shard's min-max scaling
    for field in ("abc", "nan", "inf", "-inf"):
        path = tmp_path / "bad.csv"
        path.write_text(f"f0,f1,label\n1.0,2.0,0\n1.0,{field},1\n")
        cfg = config_from_dict({"dataset": {"csv": str(path)}, "clusters": 2})
        with pytest.raises(PipelineError, match=f"^dataset: .*row 3 field f1 is '{field}'"):
            run_pipeline(cfg)
    # a label beyond int64 would otherwise end in an OverflowError traceback
    for label in ("99999999999999999999", "-9223372036854775809"):
        path.write_text(f"f0,f1,label\n1.0,2.0,0\n1.0,2.0,{label}\n")
        cfg = config_from_dict({"dataset": {"csv": str(path)}, "clusters": 2})
        with pytest.raises(PipelineError, match=f"^dataset: .*row 3 field label is '{label}', not an int64 integer$"):
            run_pipeline(cfg)


def test_run_pipeline_csv_whose_feature_range_overflows_fails_in_the_shard_phase(tmp_path):
    # every value is finite; max - min of f0 is not, which left every sample one code
    path = tmp_path / "wide.csv"
    rows = "".join(f"{1e308 if i % 2 else -1e308!r},{float(i)!r},{i % 2}\n" for i in range(200))
    path.write_text("f0,f1,label\n" + rows)
    cfg = config_from_dict({"dataset": {"csv": str(path)}, "clusters": 2})
    with pytest.raises(PipelineError, match=r"^shard: feature 0 spans -1e\+308 to 1e\+308: its range is not a finite number$"):
        run_pipeline(cfg)


def test_site_above_the_degree_limit_fails_alike_in_sim_and_wire(monkeypatch):
    # a limit of 50 stands in for 2**24; the two sites hold 62 and 58 samples
    monkeypatch.setattr(codebook, "MAX_DEGREE", 50)
    messages = []
    for mode in ("sim", "wire"):
        with pytest.raises(PipelineError) as raised:
            run_pipeline(config_from_dict(make_raw(mode=mode)))
        messages.append(str(raised.value))
    assert messages[0] == messages[1]
    assert re.fullmatch(r"shard: site 0 holds \d+ samples, more than the 50 a code's degree may reach", messages[0])


def test_codebook_above_dense_bound_surfaces_as_pipeline_error(monkeypatch):
    from hashclust import spectral

    # this seed's run yields more than two codes, few enough that the cut
    # builds the dense weights; a bound of 2 stands in for a codebook too
    # large for them
    monkeypatch.setattr(spectral, "DENSE_SOLVER_MAX_VERTICES", 2)
    with pytest.raises(PipelineError, match=r"^cluster: .*dense solver bound"):
        run_pipeline(config_from_dict(make_raw(seed=1)))


def test_wire_site_whose_book_differs_from_the_coordinators_encoding_fails_in_encode(monkeypatch):
    """Each site moves one sample to a code its book lacks; the coordinator,
    which labels through its own encoding of the shard, must refuse the run."""
    honest = wire.encode_shard

    def tampered(params, shard, origin="site"):
        book, sample_map = honest(params, shard, origin)
        L = book.code_length
        bits = (np.arange(2 ** L)[:, None] >> np.arange(L)[::-1]) & 1
        every_code = code_words(np.packbits(bits.astype(bool), axis=1))
        absent = every_code[~(every_code[:, None] == book.codes[None]).all(axis=2).any(axis=1)][:1]
        degrees = book.degrees.copy()
        donor = np.argmax(degrees)
        assert degrees[donor] >= 2
        degrees[donor] -= 1
        moved = Codebook.from_arrays(np.concatenate([book.codes, absent]), np.append(degrees, 1), L, book.origin)
        return moved, sample_map

    monkeypatch.setattr(wire, "encode_shard", tampered)
    with pytest.raises(PipelineError, match=r"^encode: .*site"):
        run_pipeline(config_from_dict(make_raw(mode="wire", rounds=0)))


def test_samples_that_share_a_code_hold_their_cluster_together():
    # 4 x 250 samples of 256 dims, L = 16, 2 sites, 100 rounds: the cut finds
    # the four clusters whole. With no self weight (W_ii = 0 in place of
    # f0 * d_i**2) it split them [1, 500, 55, 444], purity 0.556.
    raw = {
        "dataset": {"generate": {"n_clusters": 4, "ambient_dim": 256, "embed_dim": 2, "samples_per_cluster": 250}},
        "code_length": 16,
        "clusters": 4,
        "sites": 2,
        "training": {"rounds": 100},
        "seed": 0,
    }
    res = run_pipeline(config_from_dict(raw))
    assert res["cluster_sizes"] == [250, 250, 250, 250]
    assert res["purity"] == res["nmi"] == 1.0


def test_collapsed_codebook_surfaces_as_pipeline_error():
    # this seed trains all samples onto two codes, too few for k=3
    with pytest.raises(PipelineError, match="cluster"):
        run_pipeline(config_from_dict(make_raw(seed=5)))


def test_wire_site_index_out_of_range():
    raw = make_raw(mode="wire")
    raw["wire"] = {"connect": "127.0.0.1:1", "site": 7, "timeout": 1.0}
    with pytest.raises(PipelineError):
        run_pipeline(config_from_dict(raw))


def test_site_with_another_site_count_fails_fast():
    """A site configured for 3 sites names index 2 to a 2-site coordinator:
    both ends fail at once instead of waiting out their timeouts."""
    port = free_port()
    site_raw = make_raw(seed=3, mode="wire", sites=3, rounds=4)
    site_raw["wire"] = {"connect": f"127.0.0.1:{port}", "site": 2, "timeout": 30.0}
    coord_raw = make_raw(seed=3, mode="wire", rounds=4)
    coord_raw["wire"] = {"listen": f"127.0.0.1:{port}", "timeout": 30.0}
    site_errors = []

    def run_site():
        try:
            run_pipeline(config_from_dict(site_raw))
        except PipelineError as exc:
            site_errors.append(exc)

    thread = threading.Thread(target=run_site, daemon=True)
    thread.start()
    start = time.monotonic()
    with pytest.raises(PipelineError, match=r"train: hello names site 2, outside \[0, 2\)"):
        run_pipeline(config_from_dict(coord_raw))
    thread.join(timeout=5.0)
    assert time.monotonic() - start < 5.0
    assert not thread.is_alive()
    assert len(site_errors) == 1


@pytest.mark.parametrize(
    "path, value",
    [(("dataset", "generate", "ambient_dim"), 7), (("network", "hidden_dims"), [5]), (("code_length",), 7)],
    ids=["data_width", "hidden_dims", "code_length"],
)
def test_site_with_another_network_is_refused_at_hello(path, value):
    """The hello digest covers the layers, so a site whose data width, hidden
    widths or code length differ is refused before any round, and both ends
    fail at once."""
    port = free_port()
    site_raw = make_raw(seed=3, mode="wire", rounds=4)
    section = site_raw
    for key in path[:-1]:
        section = section.setdefault(key, {})
    section[path[-1]] = value
    site_raw["wire"] = {"connect": f"127.0.0.1:{port}", "site": 0, "timeout": 30.0}
    coord_raw = make_raw(seed=3, mode="wire", rounds=4)
    coord_raw["wire"] = {"listen": f"127.0.0.1:{port}", "timeout": 30.0}
    site_errors = []

    def run_site():
        try:
            run_pipeline(config_from_dict(site_raw))
        except PipelineError as exc:
            site_errors.append(exc)

    thread = threading.Thread(target=run_site, daemon=True)
    thread.start()
    start = time.monotonic()
    with pytest.raises(PipelineError, match="train: site 0 runs another training config or network"):
        run_pipeline(config_from_dict(coord_raw))
    thread.join(timeout=5.0)
    assert time.monotonic() - start < 5.0
    assert not thread.is_alive()
    assert len(site_errors) == 1


# --- report ---

def fake_result(name, seed, total_bits):
    return {
        "name": name,
        "seed": seed,
        "mode": "sim",
        "purity": 0.9,
        "nmi": 0.8,
        "ledger": {"total_bits": total_bits},
    }


def test_run_report_sorts_and_converts(tmp_path):
    paths = []
    for i, (name, seed) in enumerate([("zeta", 1), ("alpha", 2), ("alpha", 0)]):
        p = tmp_path / f"r{i}.json"
        p.write_text(json.dumps(fake_result(name, seed, 8 * 2 ** 20)))
        paths.append(str(p))
    rows = run_report(paths)
    assert [(r["dataset"], r["seed"]) for r in rows] == [("alpha", 0), ("alpha", 2), ("zeta", 1)]
    assert rows[0]["megabytes"] == 1.0


def test_run_report_writes_csv(tmp_path):
    p = tmp_path / "r.json"
    p.write_text(json.dumps(fake_result("d", 0, 1024)))
    out = tmp_path / "table.csv"
    rows = run_report([str(p)], out_path=out)
    lines = out.read_text().splitlines()
    assert lines[0] == "dataset,seed,mode,purity,nmi,total_bits,megabytes"
    assert len(lines) == 2
    assert len(rows) == 1


def test_run_report_quotes_a_name_with_a_comma_and_a_quote(tmp_path):
    name = 'blobs, v2 "final"'
    p = tmp_path / "r.json"
    p.write_text(json.dumps(fake_result(name, 1, 1024)))
    out = tmp_path / "table.csv"
    run_report([str(p)], out_path=out)
    with open(out, newline="") as fh:
        header, row = csv.reader(fh)
    assert len(header) == len(row) == 7
    assert row[:3] == [name, "1", "sim"]


def test_run_report_rejects_malformed(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"name": "x"}))
    with pytest.raises(PipelineError):
        run_report([str(p)])
    with pytest.raises(PipelineError):
        run_report([str(tmp_path / "missing.json")])


@pytest.mark.parametrize(
    "key, value, reason",
    [
        ("name", 1, "name must be a string, got 1"),
        ("seed", "2", "seed must be an integer, got '2'"),
        ("seed", True, "seed must be an integer, got True"),
        ("purity", "0.9", "purity must be a number, got '0.9'"),
        ("nmi", None, "nmi must be a number, got None"),
        ("total_bits", False, "ledger.total_bits must be a number, got False"),
        ("mode", "Wire", "mode must be 'sim' or 'wire', got 'Wire'"),
        ("mode", None, "mode must be 'sim' or 'wire', got None"),
    ],
)
def test_cli_report_refuses_a_wrongly_typed_field(tmp_path, capsys, key, value, reason):
    good, bad = tmp_path / "a.json", tmp_path / "b.json"
    good.write_text(json.dumps(fake_result("d", 1, 1024)))
    res = fake_result("d", 2, 1024)
    if key == "total_bits":
        res["ledger"][key] = value
    else:
        res[key] = value
    bad.write_text(json.dumps(res))
    assert main(["report", str(good), str(bad)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: report: {bad}: {reason}\n"


@pytest.mark.parametrize("where", ["missing_dir", "a_dir"])
def test_cli_report_out_that_cannot_be_written_returns_one(tmp_path, capsys, where):
    result = tmp_path / "r.json"
    result.write_text(json.dumps(fake_result("d", 0, 1024)))
    out = tmp_path / "absent" / "table.csv" if where == "missing_dir" else tmp_path
    assert main(["report", str(result), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    reason = "No such file or directory" if where == "missing_dir" else "Is a directory"
    assert err.startswith(f"error: report: {out}: ") and reason in err
    assert "Traceback" not in err


# --- command line ---

def test_cli_pipeline_runs(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(make_raw(seed=1)))
    code = main(["pipeline", "--config", str(cfg_path), "--out", str(tmp_path / "run")])
    assert code == 0
    out = capsys.readouterr().out
    assert "purity" in out and "nmi" in out
    assert (tmp_path / "run" / "results.json").exists()


def test_cli_seed_override(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(make_raw(seed=1)))
    main(["pipeline", "--config", str(cfg_path), "--seed", "4", "--out", str(tmp_path / "o")])
    written = json.loads((tmp_path / "o" / "results.json").read_text())
    assert written["seed"] == 4


def test_cli_generate_and_report(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(make_raw(seed=2)))
    assert main(["generate", "--config", str(cfg_path), "--out", str(tmp_path / "g")]) == 0
    assert (tmp_path / "g" / "dataset.csv").exists()
    assert main(["pipeline", "--config", str(cfg_path), "--out", str(tmp_path / "r")]) == 0
    table = tmp_path / "table.csv"
    code = main(["report", str(tmp_path / "r" / "results.json"), "--out", str(table)])
    assert code == 0
    assert table.read_text().startswith("dataset,seed,mode")
    capsys.readouterr()


def test_cli_wire_run_prints_each_site_and_the_coordinators_measured_bits(tmp_path, capsys):
    raw = make_raw(seed=3, mode="wire", rounds=4)
    raw["wire"] = {"timeout": 30.0}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    endpoint = f"127.0.0.1:{free_port()}"
    runs = [["--listen", endpoint, "--out", str(tmp_path / "run")]]
    runs += [["--connect", endpoint, "--site", str(i)] for i in range(2)]
    codes = {}

    def run(i):
        codes[i] = main(["pipeline", "--config", str(cfg_path), *runs[i]])

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(runs))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60.0)
    assert codes == {0: 0, 1: 0, 2: 0}
    out = capsys.readouterr().out
    bits = json.loads((tmp_path / "run" / "results.json").read_text())["ledger"]["measured_paper_bits"]
    for line in ("site 0 finished", "site 1 finished", f"measured on wire: {bits} bits"):
        assert line in out


def test_cli_report_without_out_prints_its_rows_as_json(tmp_path, capsys):
    results = tmp_path / "run" / "results.json"
    run_pipeline(apply_overrides(config_from_dict(make_raw(seed=1)), out=str(results.parent)))
    assert main(["report", str(results)]) == 0
    assert capsys.readouterr().out == json.dumps(run_report([results]), indent=2) + "\n"


def test_cli_config_error_returns_one(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    raw = make_raw()
    raw["bogus"] = True
    cfg_path.write_text(json.dumps(raw))
    code = main(["pipeline", "--config", str(cfg_path)])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "section, key, value", [("training", "temperature", 0), (None, "code_length", "eight")]
)
def test_cli_bad_config_value_returns_one(tmp_path, capsys, section, key, value):
    raw = make_raw()
    (raw[section] if section else raw)[key] = value
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["pipeline", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err


@pytest.mark.parametrize(
    "path, value, key",
    [
        (("wire", "site"), "1", "wire.site"),
        (("network", "hidden_dims"), "8", "network.hidden_dims"),
        (("network", "hidden_dims"), [8.5], "network.hidden_dims"),
        (("dataset", "generate", "n_clusters"), "4", "dataset.generate.n_clusters"),
        (("wire", "listen"), 9500, "wire.listen"),
        (("name",), 5, "name"),
        (("out",), 5, "out"),
        # the whole section, since generate and csv together fail as a pair
        (("dataset",), {"csv": 5}, "dataset.csv"),
        (("dataset",), {"csv": None}, "dataset.csv"),
        (("dataset",), {"generate": None}, "dataset.generate"),
    ],
    ids=["site_string", "hidden_dims_string", "hidden_dims_fraction", "n_clusters_string", "listen_int",
         "name_int", "out_int", "csv_int", "csv_null", "generate_null"],
)
def test_cli_config_value_of_wrong_type_returns_one(tmp_path, capsys, path, value, key):
    raw = make_raw()
    section = raw
    for part in path[:-1]:
        section = section.setdefault(part, {})
    section[path[-1]] = value
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["pipeline", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} must be ")
    assert "Traceback" not in err


@pytest.fixture
def no_data(monkeypatch):
    """Fail the test if a run generates its dataset."""
    def gen_dataset(clusters):
        raise AssertionError("the dataset was generated")
    monkeypatch.setattr(pipeline, "gen_dataset", gen_dataset)


@pytest.mark.parametrize(
    "flags, message",
    [(["--connect", "127.0.0.1:70000", "--site", "0"], "'127.0.0.1:70000' is not a number in [0, 65535]"),
     (["--listen", "127.0.0.1:99999"], "'127.0.0.1:99999' is not a number in [0, 65535]")],
    ids=["connect", "listen"],
)
def test_cli_port_out_of_range_fails_before_data(tmp_path, capsys, no_data, flags, message):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(make_raw(mode="wire")))
    assert main(["pipeline", "--config", str(cfg_path), *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize(
    "flags, message",
    [(["--listen", "127.0.0.1:9500", "--connect", "127.0.0.1:9500", "--site", "0"],
      "wire.listen and wire.connect are two roles"),
     (["--connect", "127.0.0.1:0", "--site", "0"], "wire.connect '127.0.0.1:0' dials port 0")],
    ids=["listen_and_connect", "connect_port_0"],
)
def test_cli_wire_role_refused_before_data(tmp_path, capsys, no_data, flags, message):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(make_raw(mode="wire")))
    assert main(["pipeline", "--config", str(cfg_path), *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "flags, key",
    [(["--listen", "127.0.0.1:0"], "listen"), (["--connect", "127.0.0.1:1", "--site", "0"], "connect")],
    ids=["listen", "connect_site"],
)
def test_cli_wire_endpoint_on_a_sim_config_fails_before_data(tmp_path, capsys, no_data, flags, key):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(make_raw()))
    assert main(["pipeline", "--config", str(cfg_path), *flags]) == 1
    err = capsys.readouterr().err
    assert err == f"error: wire.{key} needs mode 'wire', got mode 'sim'\n"


def test_cli_connect_without_site_fails_before_data(tmp_path, capsys, no_data):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(make_raw()))
    assert main(["pipeline", "--config", str(cfg_path), "--mode", "wire", "--connect", "127.0.0.1:1"]) == 1
    err = capsys.readouterr().err
    assert err == "error: 'site' and 'connect' only make sense together: a site dials the coordinator\n"


@pytest.mark.parametrize(
    "path, value, message",
    [(("training", "rounds"), -1, "n_rounds must be >= 0"),
     (("training", "batch_size"), 1, "batch_size must be >= 2"),
     (("training", "learning_rate"), 0, "learning_rate must be a positive finite number"),
     (("training", "distance_scale"), -1.5, "distance_scale must be a positive finite number"),
     (("training", "temperature"), 0, "temperature must be a positive finite number"),
     (("network", "hidden_dims"), [4, 0], "network.hidden_dims entries must be >= 1, got [4, 0]")],
    ids=["rounds", "batch_size", "learning_rate", "distance_scale", "temperature", "hidden_dims"],
)
def test_cli_out_of_range_training_or_network_value_fails_before_data(
    tmp_path, capsys, no_data, path, value, message
):
    raw = make_raw()
    raw.setdefault(path[0], {})[path[1]] = value
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["pipeline", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_cli_site_index_equal_to_sites_fails_before_data(tmp_path, capsys, no_data):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(make_raw(mode="wire", sites=2)))
    flags = ["--connect", "127.0.0.1:1", "--site", "2"]
    assert main(["pipeline", "--config", str(cfg_path), *flags]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "index 2 outside [0, 2)" in err


@pytest.mark.parametrize("command", ["pipeline", "generate"])
@pytest.mark.parametrize("below", [False, True], ids=["file", "below_a_file"])
def test_cli_out_that_names_a_file_fails_before_data(tmp_path, capsys, no_data, command, below):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(make_raw()))
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    out = taken / "run" if below else taken
    assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: out: {taken} is a file, not a directory\n"
    assert taken.read_text() == "kept\n"


@pytest.mark.parametrize(
    "command, name",
    [("pipeline", "results.json"), ("generate", "dataset.csv"), ("generate", "manifest.json")],
)
def test_cli_out_whose_output_is_not_a_file_fails_before_data(tmp_path, capsys, no_data, command, name):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(make_raw()))
    taken = tmp_path / "run" / name
    taken.mkdir(parents=True)
    assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err == f"error: out: {taken} is not a file\n"
    assert list(taken.parent.iterdir()) == [taken]  # nothing else was written


@pytest.mark.parametrize("command", ["pipeline", "generate"])
@pytest.mark.parametrize(
    "name, text, reason",
    [("missing.json", None, "No such file"), ("broken.json", '{"clusters": 3,', "Expecting")],
    ids=["missing", "malformed"],
)
def test_cli_unreadable_config_file_returns_one(tmp_path, capsys, command, name, text, reason):
    cfg_path = tmp_path / name
    if text is not None:
        cfg_path.write_text(text)
    assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: config file {cfg_path}: ") and reason in err


@pytest.mark.parametrize("section, value", [(None, []), ("training", 5), ("network", []), ("wire", "x")])
def test_config_section_that_is_not_an_object_is_refused(section, value):
    raw = value if section is None else {**make_raw(), section: value}
    where = section or "config"
    with pytest.raises(InvalidSpecError, match=f"{where} must be a JSON object, got {type(value).__name__}"):
        config_from_dict(raw)


@pytest.mark.parametrize("token", ["NaN", "Infinity", "1e400"])
@pytest.mark.parametrize("key", ["learning_rate", "distance_scale", "temperature"])
def test_config_rejects_a_training_real_that_is_not_finite(key, token):
    raw = make_raw()
    # Python's json reads NaN and Infinity, and 1e400 overflows to inf
    raw["training"][key] = json.loads(token)
    with pytest.raises(InvalidSpecError, match=f"^{key} must be a positive finite number, got (nan|inf)$"):
        config_from_dict(raw)


@pytest.mark.parametrize("timeout", [0, -1])
def test_config_rejects_a_timeout_that_is_not_positive(timeout):
    raw = make_raw()
    raw["wire"] = {"timeout": timeout}
    with pytest.raises(InvalidSpecError, match="wire.timeout must be a positive finite number"):
        config_from_dict(raw)


@pytest.mark.parametrize(
    "changes, message",
    [({"sites": 500, "min_per_site": 0}, "shard: min_per_site must be >= 1"),
     ({"mode": "wire", "wire": {"timeout": -1}}, "wire.timeout"),
     ({"seed": -1}, "seed must be >= 0, got -1")],
    ids=["empty_shards", "negative_timeout", "negative_seed"],
)
def test_cli_out_of_range_value_returns_one(tmp_path, capsys, changes, message):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**make_raw(), **changes}))
    assert main(["pipeline", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


def test_config_takes_integral_floats_for_integers():
    raw = make_raw()
    raw["training"]["rounds"] = 8.0
    raw["network"] = {"hidden_dims": [5.0, 4]}
    cfg = config_from_dict(raw)
    assert cfg.rounds == 8 and type(cfg.rounds) is int
    assert cfg.hidden_dims == (5, 4)


def test_cli_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


def test_shipped_default_config_parses():
    cfg = config_from_file("configs/default.json")
    assert cfg.sites == 4
    assert cfg.code_length == 8
    assert cfg.clusters == 4
    assert cfg.rounds == 50
    assert PipelineConfig(**cfg.to_dict()) == cfg
