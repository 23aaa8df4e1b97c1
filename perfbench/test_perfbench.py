"""Fast tests of the benchmark itself: toy-size workloads and every check.

    python3 -m pytest -q perfbench

Each workload runs at toy size and passes its checks; each check rejects a
deliberately wrong output.
"""

import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from hashclust import codebook, network  # noqa: E402
from hashclust import datasets as hashclust_datasets  # noqa: E402
from hashclust.codebook import Codebook, CodebookEntry  # noqa: E402
from hashclust.errors import PipelineError  # noqa: E402
from hashclust.network import HashCode  # noqa: E402
from tracer import Tracer  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def toy():
    """Each workload built and run once at toy size, checks included."""
    built = {}
    for name in workloads.WORKLOADS:
        w = workloads.build(name, seed=3, toy=True)
        outcomes = w.round()
        w.verify()
        built[name] = (w, outcomes)
    return built


def test_every_workload_runs_and_passes_its_checks(toy):
    for name, (w, outcomes) in toy.items():
        assert outcomes and not w.problems, (name, w.problems)
        for o in outcomes:
            assert o.seconds > 0
            assert o.failed or (o.samples == o.attempted_samples and 0 < o.purity <= 1), name


def test_desk_round_is_the_four_fixed_seeds(toy):
    w, outcomes = toy["desk"]
    assert [cfg.seed for cfg in w.configs] == [0, 1, 2, 3]
    assert len(outcomes) == 4


def test_cut_inputs_follow_the_seed():
    a, b = (workloads.plant_codes(s, per_group=60) for s in (1, 1))
    c = workloads.plant_codes(2, per_group=60)
    assert a.payloads == b.payloads
    assert a.payloads != c.payloads


def test_payload_matches_the_program_encoder():
    p = workloads.plant_codes(5, per_group=60)
    codes, degrees = p.site_codes[0], p.site_degrees[0]
    book = Codebook(tuple(CodebookEntry(HashCode(int(c).to_bytes(2, "big"), 16), int(d))
                          for c, d in zip(codes, degrees)))
    assert workloads.codes_payload(codes, degrees) == codebook.encode_codes_payload(book)


def test_planted_groups_are_separated():
    p = workloads.plant_codes(7, per_group=1000)
    assert len(np.unique(p.codes)) == 4000
    assert 2 * p.radius.max() < workloads.CUT_MIN_CENTRE_DISTANCE
    assert 0.95 < p.purity_bound < 1.0


def test_cut_code_bits_do_not_depend_on_the_seed():
    entries = {sum(len(c) for c in workloads.plant_codes(s, per_group=1000).site_codes)
               for s in (1, 2, 3)}
    p = workloads.plant_codes(1, per_group=1000)
    held = np.zeros(p.codes.size, dtype=int)
    for codes in p.site_codes:
        held[np.isin(p.codes, codes)] += 1
    assert entries == {4 * (8 + 16 * 6 + 120 * 4 + 560 * 2 + 303)}
    assert np.array_equal(held, np.array(workloads.CUT_SITES_AT_RADIUS)[p.radius])
    assert sum(d.sum() for d in p.site_degrees) == p.degrees.sum()


def test_distinct_codes_match_the_program_encoder():
    rng = np.random.default_rng(4)
    shard = hashclust_datasets.make_shard(rng.normal(size=(300, 6)), np.zeros(300), 0)
    params = network.init_network(network.mlp_spec(6, (6,), 16), seed=2)
    params.values[-16:] = rng.normal(scale=0.5, size=16)  # spread the codes out
    book, _ = codebook.encode_shard(params, shard)
    assert len(book) > 3
    assert checks.distinct_codes(params.layers, params.values, shard.x) == len(book)


def test_round_hooks_are_removed(toy):
    assert workloads.pipeline.encode_shard is codebook.encode_shard
    assert workloads.wire.encode_codes_payload is codebook.encode_codes_payload


# ------------------------------------------------------------ pipeline checks

def _pipeline_case(toy, name):
    w, _ = toy[name]
    cfg = w.configs[0]
    res = w.first[cfg.seed][0]
    expect = w._expect(cfg)
    expect["codes_sent"] = res["ledger"]["code_bits"] // (32 + cfg.code_length)
    return copy.deepcopy(res), expect


def _mutations():
    def ledger(key, delta):
        def f(res):
            res["ledger"][key] += delta
        return f

    def field(key, value):
        def f(res):
            res[key] = value(res[key])
        return f

    return {
        "training bits off by one": ledger("training_bits", 1),
        "broadcast bits off by one": ledger("final_broadcast_bits", -1),
        "code bits off by one": ledger("code_bits", 1),
        "total bits off by one": ledger("total_bits", 1),
        "cluster sizes lose a sample": field("cluster_sizes", lambda s: [s[0] - 1, *s[1:]]),
        "a cluster missing": field("cluster_sizes", lambda s: s[:-1]),
        "purity above one": field("purity", lambda v: 1.01),
        "purity below the largest class": field("purity", lambda v: 0.2),
        "nmi negative": field("nmi", lambda v: -0.01),
        "nmi above one": field("nmi", lambda v: 1.5),
        "wrong sample count": field("n_samples", lambda v: v + 1),
        "wrong parameter count": field("param_count", lambda v: v - 1),
    }


@pytest.mark.parametrize("mutation", sorted(_mutations()))
@pytest.mark.parametrize("name", ["large", "wire"])
def test_pipeline_check_rejects(toy, name, mutation):
    res, expect = _pipeline_case(toy, name)
    checks.check_pipeline_result(res, **expect)
    _mutations()[mutation](res)
    with pytest.raises(checks.CheckError):
        checks.check_pipeline_result(res, **expect)


def test_pipeline_check_rejects_a_miscounted_codebook(toy):
    res, expect = _pipeline_case(toy, "large")
    expect["codes_sent"] += 1
    with pytest.raises(checks.CheckError):
        checks.check_pipeline_result(res, **expect)


@pytest.mark.parametrize("key,change", [
    ("measured_paper_bits", lambda r: r["ledger"].__setitem__(
        "measured_paper_bits", r["ledger"]["measured_paper_bits"] + 1)),
    ("purity", lambda r: r.__setitem__("purity", r["purity"] + 1e-9)),
    ("nmi", lambda r: r.__setitem__("nmi", r["nmi"] - 1e-9)),
    ("codebook_size", lambda r: r.__setitem__("codebook_size", r["codebook_size"] + 1)),
    ("rer_series", lambda r: r["rer_series"].__setitem__(1, r["rer_series"][1] + 1e-12)),
])
def test_wire_check_rejects(toy, key, change):
    w, _ = toy["wire"]
    wire_res = copy.deepcopy(w.first[w.configs[0].seed][0])
    sim_res = copy.deepcopy(wire_res)
    checks.check_wire_result(wire_res, sim_res)
    change(wire_res)
    with pytest.raises(checks.CheckError):
        checks.check_wire_result(wire_res, sim_res)


def test_a_wrong_ledger_from_the_program_is_recorded(monkeypatch):
    real = workloads.pipeline.total_cost_bits

    def off_by_one(*args, **kwargs):
        ledger = real(*args, **kwargs)
        ledger.code_bits += 1
        ledger.total_bits += 1
        return ledger

    monkeypatch.setattr(workloads.pipeline, "total_cost_bits", off_by_one)
    w = workloads.build("large", seed=0, toy=True)
    w.round()
    assert w.problems and "code bits" in w.problems[0]


def test_an_unexpected_failure_is_recorded(monkeypatch):
    def broken(cfg):
        raise PipelineError("train: connection reset")

    monkeypatch.setattr(workloads.pipeline, "run_pipeline", broken)
    w = workloads.build("desk", seed=0, toy=True)
    outcomes = w.round()
    assert all(o.failed for o in outcomes)
    assert len(w.problems) == 4


def test_desk_failure_check():
    collapse = PipelineError("cluster: k=4 incompatible with 3 vertices")
    checks.check_desk_failure(1, collapse, (1, 3))
    with pytest.raises(checks.CheckError):
        checks.check_desk_failure(0, collapse, (1, 3))
    with pytest.raises(checks.CheckError):
        checks.check_desk_failure(3, PipelineError("train: connection reset"), (1, 3))
    with pytest.raises(checks.CheckError):
        checks.check_desk_failure(1, PipelineError("cluster: k=4 incompatible with 5 vertices"), (1, 3))


# ------------------------------------------------------------------ cut checks

@pytest.fixture
def cut_case(toy):
    w, _ = toy["cut"]
    merged, partition, labels = w.result
    return dict(
        merged_codes=workloads.book_codes(merged),
        merged_degrees=np.array([e.degree for e in merged.entries]),
        planted=w.planted, partition=partition.copy(), labels=labels)


def _check_cut(case, **change):
    args = dict(merged_codes=case["merged_codes"], merged_degrees=case["merged_degrees"],
                planted_codes=case["planted"].codes, planted_degrees=case["planted"].degrees,
                partition=case["partition"], k=workloads.CUT_K,
                planted_groups=case["planted"].groups,
                purity_bound=case["planted"].purity_bound)
    args.update(change)
    return checks.check_cut(**args)


def test_cut_check_accepts_the_program_output(cut_case):
    assert _check_cut(cut_case) >= cut_case["planted"].purity_bound


def test_cut_check_rejects_a_shuffled_partition(cut_case):
    shuffled = np.random.default_rng(0).permutation(cut_case["partition"])
    with pytest.raises(checks.CheckError):
        _check_cut(cut_case, partition=shuffled)


def test_cut_check_rejects_the_outer_shell_mislabelled(cut_case):
    p = cut_case["planted"]
    outer = p.radius[np.argsort(p.codes)] == p.radius.max()
    part = cut_case["partition"].copy()
    part[outer] = (part[outer] + 1) % workloads.CUT_K
    with pytest.raises(checks.CheckError):
        _check_cut(cut_case, partition=part)


def test_cut_check_rejects_a_partition_with_a_label_missing(cut_case):
    part = cut_case["partition"].copy()
    part[part == 3] = 2
    with pytest.raises(checks.CheckError):
        _check_cut(cut_case, partition=part)


def test_cut_check_rejects_a_wrong_book(cut_case):
    degrees = cut_case["merged_degrees"].copy()
    degrees[0] += 1
    with pytest.raises(checks.CheckError):
        _check_cut(cut_case, merged_degrees=degrees)
    with pytest.raises(checks.CheckError):
        _check_cut(cut_case, merged_codes=cut_case["merged_codes"][1:],
                   merged_degrees=cut_case["merged_degrees"][1:], partition=cut_case["partition"][1:])


def test_propagation_check_rejects_shuffled_labels(cut_case):
    p = cut_case["planted"]
    args = (p.site_codes, p.site_degrees, cut_case["merged_codes"], cut_case["partition"])
    checks.check_propagation(cut_case["labels"], *args)
    bad = [lab.copy() for lab in cut_case["labels"]]
    bad[0] = np.random.default_rng(1).permutation(bad[0])
    if np.array_equal(bad[0], cut_case["labels"][0]):
        pytest.skip("permutation left the labels unchanged")
    with pytest.raises(checks.CheckError):
        checks.check_propagation(bad, *args)


# ---------------------------------------------------------------- metrics, tracer

def test_end_to_end_counts_failed_operations_against_quality():
    ok = workloads.Outcome(1.0, 100, samples=100, purity=0.8, nmi=0.6, paper_bits=10)
    bad = workloads.Outcome(1.0, 100, failed=True)
    m = run.end_to_end([[ok, bad]], setup_s=0.5, peak_rss_mb=10.0)
    assert m["purity"][0] == pytest.approx(0.4)
    assert m["nmi"][0] == pytest.approx(0.3)
    assert m["samples_per_s"][0] == pytest.approx(50.0)
    assert m["paper_bits"][0] == 10


def test_metric_names_match_benchmark_json():
    ok = workloads.Outcome(1.0, 100, samples=100, purity=0.8, nmi=0.6, paper_bits=10)
    e2e = run.end_to_end([[ok]], setup_s=0.5, peak_rss_mb=10.0)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == {k: u for k, (v, u) in e2e.items()}
    per = layers.per_layer(Tracer(), 1, 1.0)
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == {k: u for k, (v, u) in per.items()}


def test_self_time_subtracts_the_union_of_children():
    t = Tracer()
    t.spans = [(0, "a", 1, 0.0, 10.0, None), (1, "b", 1, 1.0, 4.0, 0),
               (2, "b", 2, 3.0, 6.0, 0), (3, "c", 1, 8.0, 12.0, 0)]
    totals = t.totals()
    assert totals["a"]["self_s"] == pytest.approx(10.0 - 5.0 - 2.0)
    assert totals["b"]["calls"] == 2 and totals["b"]["total_s"] == pytest.approx(6.0)


def test_traced_toy_runs_fill_every_layer_and_unpatch():
    patched = [(workloads.pipeline, "train"), (workloads.spectral, "kmeans"),
               (hashclust_datasets.Shard, "normalized")]
    originals = [owner.__dict__[attr] for owner, attr in patched]
    seen = set()
    for name in workloads.WORKLOADS:
        w = workloads.build(name, seed=3, toy=True)
        t = layers.install(workloads)
        try:
            w.round()
        finally:
            t.unpatch()
        w.verify()
        assert not w.problems
        seen |= {k for k, (v, _u) in layers.per_layer(t, 1, 1.0).items() if v > 0}
        main = {s[2] for s in t.spans if s[1] == "bench.operation"}
        # spans on the wire site threads hang under the operation
        assert len(main) == 1
        assert all(s[5] is not None for s in t.spans if s[2] not in main)
    assert all(owner.__dict__[attr] is fn for (owner, attr), fn in zip(patched, originals))
    assert seen == {m["name"] for m in BENCHMARK["per_layer"]}
