"""Output checks, computed apart from the program.

Each check raises CheckError with a reason when an output breaks a property
the method must have. Nothing here compares against stored copies of
earlier output: the expected values are derived from the workload's own
parameters (layer sizes, rounds, sites, planted codes).
"""

from __future__ import annotations

import re

import numpy as np


class CheckError(Exception):
    """An output of the program is wrong."""


def _require(ok, message: str) -> None:
    if not ok:
        raise CheckError(message)


def record(problems: list, check, *args, **kwargs):
    """Run one check; a failure is appended to ``problems`` instead of raised,
    so a run with wrong outputs still measures and reports ``correct: false``."""
    try:
        return check(*args, **kwargs)
    except CheckError as exc:
        problems.append(str(exc))


def param_count(layer_dims) -> int:
    """Weights plus biases of a fully connected chain d0 -> d1 -> ... -> L."""
    return sum(a * b + b for a, b in zip(layer_dims, layer_dims[1:]))


def distinct_codes(layers, values, x) -> int:
    """Distinct L-bit codes of the samples ``x`` (raw features of one shard).

    Apart from the program's encoder: the shard is min-max scaled by its own
    per-feature minima and ranges, run through the layers as laid out in the
    flat parameter vector (per layer: weights row-major, then biases; ReLU
    or tanh), and each output component is thresholded at zero.
    """
    x = np.asarray(x, dtype=np.float64)
    low = x.min(axis=0)
    span = x.max(axis=0) - low
    a = (x - low) / np.where(span > 0, span, 1.0)
    offset = 0
    for layer in layers:
        n_in, n_out = layer.input_dim, layer.output_dim
        w = values[offset:offset + n_in * n_out].reshape(n_in, n_out)
        b = values[offset + n_in * n_out:offset + n_in * n_out + n_out]
        offset += n_in * n_out + n_out
        z = a @ w + b
        a = np.maximum(z, 0.0) if layer.activation == "relu" else np.tanh(z)
    return len(np.unique(a >= 0.0, axis=0))


def check_pipeline_result(res: dict, *, n: int, layer_dims, rounds: int, sites: int,
                          code_length: int, clusters: int, largest_class_share: float,
                          codes_sent: int) -> None:
    """Ledger, partition sizes and score ranges of one run_pipeline result."""
    ledger = res["ledger"]
    p = param_count(layer_dims)
    _require(res["param_count"] == p, f"param_count {res['param_count']} != {p} from the layer sizes")
    want_train = 32 * (2 * rounds + 1) * sites * p
    got_train = ledger["training_bits"] + ledger["final_broadcast_bits"]
    _require(got_train == want_train,
             f"training+broadcast bits {got_train} != 32*(2R+1)*M*P = {want_train}")
    want_code = (32 + code_length) * codes_sent
    _require(ledger["code_bits"] == want_code,
             f"code bits {ledger['code_bits']} != (32+L) * {codes_sent} codes sent = {want_code}")
    _require(ledger["total_bits"] == want_train + want_code,
             f"total bits {ledger['total_bits']} != {want_train + want_code}")
    _require(res["n_samples"] == n, f"n_samples {res['n_samples']} != {n}")
    sizes = res["cluster_sizes"]
    _require(len(sizes) == clusters and sum(sizes) == n,
             f"cluster_sizes {sizes} do not split {n} samples into {clusters} clusters")
    _require(largest_class_share - 1e-12 <= res["purity"] <= 1.0,
             f"purity {res['purity']} outside [{largest_class_share}, 1]")
    _require(0.0 <= res["nmi"] <= 1.0 + 1e-12, f"nmi {res['nmi']} outside [0, 1]")


def check_wire_result(wire_res: dict, sim_res: dict) -> None:
    """Wire counts what the ledger charges, and matches sim bit for bit."""
    ledger = wire_res["ledger"]
    _require(ledger.get("measured_paper_bits") == ledger["total_bits"],
             f"measured paper bits {ledger.get('measured_paper_bits')} != ledger {ledger['total_bits']}")
    for key in ("purity", "nmi", "codebook_size", "rer_series"):
        _require(wire_res[key] == sim_res[key], f"wire and sim disagree on {key}")


COLLAPSE = re.compile(r"cluster: k=(\d+) incompatible with (\d+) vertices")


def check_desk_failure(seed: int, exc: Exception, collapse_seeds) -> None:
    """Only the known code collapse may fail, and only on its seeds."""
    match = COLLAPSE.fullmatch(str(exc))
    _require(seed in collapse_seeds and match is not None
             and int(match.group(2)) < int(match.group(1)),
             f"seed {seed} failed with {type(exc).__name__}: {exc}")


def weighted_purity(labels, groups, weights) -> float:
    """Share of the weight whose label's weight-majority group is its own."""
    labels, groups = np.asarray(labels), np.asarray(groups)
    weights = np.asarray(weights, dtype=np.float64)
    table = np.zeros((labels.max() + 1, groups.max() + 1))
    np.add.at(table, (labels, groups), weights)
    return float(table.max(axis=1).sum() / weights.sum())


def check_cut(merged_codes, merged_degrees, planted_codes, planted_degrees,
              partition, k: int, planted_groups, purity_bound: float) -> float:
    """The merged book is the planted one and the partition recovers the groups.

    ``*_codes`` are integer codes; returns the degree-weighted purity.
    """
    merged_codes = np.asarray(merged_codes)
    order = np.argsort(planted_codes)
    _require(np.array_equal(merged_codes, np.asarray(planted_codes)[order]),
             "merged codebook does not hold exactly the planted codes")
    _require(np.array_equal(np.asarray(merged_degrees), np.asarray(planted_degrees)[order]),
             "merged degrees differ from the planted degrees")
    _require(int(np.sum(merged_degrees)) == int(np.sum(planted_degrees)),
             "merged degree total differs from the planted total")
    partition = np.asarray(partition)
    _require(partition.shape == merged_codes.shape, "partition does not cover the codebook")
    _require(set(partition.tolist()) == set(range(k)), f"partition does not use all {k} labels")
    value = weighted_purity(partition, np.asarray(planted_groups)[order], merged_degrees)
    _require(value >= purity_bound, f"degree-weighted purity {value:.4f} below {purity_bound:.4f}")
    return value


def check_propagation(site_labels, site_codes, site_degrees, merged_codes, partition) -> None:
    """Each site's samples carry the label of their code in the merged book."""
    vertex = {int(c): i for i, c in enumerate(merged_codes)}
    for labels, codes, degrees in zip(site_labels, site_codes, site_degrees):
        want = np.repeat(np.asarray(partition)[[vertex[int(c)] for c in codes]], degrees)
        _require(np.array_equal(np.asarray(labels), want), "propagated labels do not follow the partition")
