"""Which program functions the traced run wraps, and the per-layer metrics.

A span is named after the module that defines the function (its layer), and
is installed under every name the program calls it by: ``pipeline`` calls
``train``, ``training`` calls ``build_buckets``, a wire site calls
``wire.local_round``, and so on. Internal helpers stay unwrapped.
"""

from __future__ import annotations

from hashclust import codebook, datasets, pipeline, sampling, spectral, training, wire

from tracer import Tracer


def install(workloads) -> Tracer:
    """Wrap the program's public functions; returns the recording tracer."""
    t = Tracer()

    def counter(name, amount):
        return lambda result, *a, **kw: t.count(name, amount(result, *a, **kw))

    forward_rows = counter("network.forward_rows", lambda out, *a, **kw: out[0].shape[0])
    codes = counter("codebook.codes", lambda book, *a, **kw: len(book))
    vertices = counter("spectral.vertices", lambda labels, *a, **kw: len(labels))
    buckets = counter("sampling.buckets", lambda index, *a, **kw: len(index.members))
    pairs = counter("loss.pairs", lambda r, bx, *a, **kw: len(bx) * (len(bx) - 1) // 2)

    def framed(result, sock, tag, payload=b""):
        t.count("wire.frames", 1)
        t.count("wire.physical_bits", 8 * len(payload))

    def waiting(sock, want_tag):
        return "wire.grad_wait" if want_tag == wire.TAG_GRADIENT else "wire.recv_wait"

    table = [
        (pipeline, "gen_dataset", "datasets.gen_dataset", None),
        (pipeline, "shard_dataset", "datasets.shard_dataset", None),
        (pipeline, "train", "training.train", None),
        (pipeline, "run_wire_locally", "wire.run_wire_locally", None),
        (pipeline, "encode_shard", "codebook.encode_shard", None),
        (pipeline, "merge_codebooks", "codebook.merge_codebooks", codes),
        (pipeline, "build_graph", "spectral.build_graph", None),
        (pipeline, "spectral_cluster", "spectral.spectral_cluster", vertices),
        (pipeline, "propagate_labels", "spectral.propagate_labels", None),
        (pipeline, "purity", "metrics.score", None),
        (pipeline, "nmi", "metrics.score", None),
        (datasets.Shard, "normalized", "datasets.normalized", None),
        (training, "local_round", "training.local_round", None),
        (training, "global_merge", "training.global_merge", None),
        (training, "build_buckets", "sampling.build_buckets", buckets),
        (training, "select_batch", "sampling.select_batch", None),
        (training, "forward", "network.forward", forward_rows),
        (training, "backward", "network.backward", None),
        (training, "batch_loss", "loss.batch_loss", pairs),
        (sampling, "forward", "network.forward", forward_rows),
        (codebook, "forward", "network.forward", forward_rows),
        (codebook, "decode_codes_payload", "codebook.decode_codes", None),
        (codebook, "merge_codebooks", "codebook.merge_codebooks", codes),
        (spectral, "build_graph", "spectral.build_graph", None),
        (spectral, "spectral_cluster", "spectral.spectral_cluster", vertices),
        (spectral, "normalized_laplacian", "spectral.normalized_laplacian", None),
        (spectral, "kmeans", "kmeans.kmeans", None),
        (spectral, "propagate_labels", "spectral.propagate_labels", None),
        (wire, "serve_global", "wire.serve_global", None),
        (wire, "local_round", "training.local_round", None),
        (wire, "global_merge", "training.global_merge", None),
        (wire, "encode_shard", "codebook.encode_shard", None),
        (wire, "decode_codes_payload", "codebook.decode_codes", None),
        (wire, "serialize_params", "network.codec", None),
        (wire, "serialize_values", "network.codec", None),
        (wire, "deserialize_params", "network.codec", None),
        (wire, "send_frame", "wire.send", framed),
        (wire, "expect_frame", waiting, None),
        # one benchmark operation: the parent of the spans on wire site threads
        (pipeline, "run_pipeline", "bench.operation", None),
        (workloads.CutWorkload, "operation", "bench.operation", None),
    ]
    for owner, attr, name, on_call in table:
        t.patch(owner, attr, name, on_call, root=name == "bench.operation")
    return t


def per_layer(t: Tracer, ops: int, samples_per_s: float) -> dict:
    """Every per-layer metric, per benchmark operation unless named otherwise."""
    totals = t.totals()

    def seconds(name, key="total_s"):
        return totals[name][key] / ops if name in totals else 0.0

    def calls(name):
        return totals[name]["calls"] if name in totals else 0

    def counted(name):
        return t.counts[name] / ops

    s, c = "s/op", "count/op"
    bucket_calls = calls("sampling.build_buckets")
    return {
        "datasets.gen_dataset_s": (seconds("datasets.gen_dataset"), s),
        "datasets.shard_dataset_s": (seconds("datasets.shard_dataset"), s),
        "datasets.normalized_s": (seconds("datasets.normalized"), s),
        "datasets.normalized_calls": (calls("datasets.normalized") / ops, c),
        "network.forward_s": (seconds("network.forward"), s),
        "network.forward_rows": (counted("network.forward_rows"), c),
        "network.backward_s": (seconds("network.backward"), s),
        "network.codec_s": (seconds("network.codec"), s),
        "sampling.build_buckets_s": (seconds("sampling.build_buckets"), s),
        "sampling.select_batch_s": (seconds("sampling.select_batch"), s),
        "sampling.buckets_per_call": (
            t.counts["sampling.buckets"] / bucket_calls if bucket_calls else 0.0, "count/call"),
        "loss.batch_loss_s": (seconds("loss.batch_loss"), s),
        "loss.pairs": (counted("loss.pairs"), c),
        "training.local_round_s": (seconds("training.local_round"), s),
        "training.local_round_calls": (calls("training.local_round") / ops, c),
        "training.global_merge_s": (seconds("training.global_merge"), s),
        "codebook.encode_shard_s": (seconds("codebook.encode_shard"), s),
        "codebook.decode_codes_s": (seconds("codebook.decode_codes"), s),
        "codebook.merge_codebooks_s": (seconds("codebook.merge_codebooks"), s),
        "codebook.codes": (counted("codebook.codes"), c),
        "spectral.build_graph_s": (seconds("spectral.build_graph"), s),
        "spectral.normalized_laplacian_s": (seconds("spectral.normalized_laplacian"), s),
        "spectral.spectral_cluster_self_s": (seconds("spectral.spectral_cluster", key="self_s"), s),
        "spectral.propagate_labels_s": (seconds("spectral.propagate_labels"), s),
        "spectral.vertices": (counted("spectral.vertices"), c),
        "kmeans.kmeans_s": (seconds("kmeans.kmeans"), s),
        "metrics.score_s": (seconds("metrics.score"), s),
        "wire.serve_global_s": (seconds("wire.serve_global"), s),
        "wire.grad_wait_s": (seconds("wire.grad_wait"), s),
        "wire.send_s": (seconds("wire.send"), s),
        "wire.frames": (counted("wire.frames"), c),
        "wire.physical_bits": (counted("wire.physical_bits"), "bits/op"),
        "trace.samples_per_s": (samples_per_s, "1/s"),
        "trace.spans": (len(t.spans) / ops, c),
    }
