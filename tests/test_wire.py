import socket
import struct
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from hashclust.codebook import encode_shard, merge_codebooks
from hashclust.datasets import gen_dataset, make_dataset_spec, shard_dataset
from hashclust.errors import InvalidSpecError, ProtocolError
from hashclust.network import init_network, mlp_spec, param_count, serialize_params
from hashclust.training import TrainingConfig, train
from hashclust.wire import (
    TAG_CODES,
    TAG_DONE,
    TAG_GRADIENT,
    TAG_PARAMS,
    TrafficMeter,
    expect_frame,
    open_listeners,
    listener_ports,
    parse_endpoint,
    recv_frame,
    run_sub_site,
    run_wire_locally,
    send_frame,
    serve_global,
)
from hashclust.loss import LossConfig


def small_setup(n_sites=2, seed=0, n_rounds=3):
    dspec = make_dataset_spec(2, 4, 2, 60, seed=seed)
    x, labels = gen_dataset(dspec)
    shards = shard_dataset(x, labels, n_sites, min_per_site=20, seed=seed)
    net = mlp_spec(4, (4,), 4)
    cfg = TrainingConfig(
        n_rounds=n_rounds,
        n_sites=n_sites,
        batch_size=8,
        learning_rate=0.05,
        loss=LossConfig(distance_scale=1.0, temperature=1.0),
        seed=seed,
    )
    return shards, net, cfg


# --- framing ---

def test_frame_roundtrip():
    a, b = socket.socketpair()
    try:
        send_frame(a, TAG_PARAMS, b"hello")
        tag, payload = recv_frame(b)
        assert tag == TAG_PARAMS
        assert payload == b"hello"
    finally:
        a.close()
        b.close()


def test_frame_empty_payload():
    a, b = socket.socketpair()
    try:
        send_frame(a, TAG_DONE)
        assert recv_frame(b) == (TAG_DONE, b"")
    finally:
        a.close()
        b.close()


def test_frame_wire_layout():
    a, b = socket.socketpair()
    try:
        send_frame(a, TAG_CODES, b"\x01\x02")
        raw = b.recv(16)
        assert raw == bytes([TAG_CODES]) + struct.pack(">I", 2) + b"\x01\x02"
    finally:
        a.close()
        b.close()


def test_expect_frame_tag_mismatch():
    a, b = socket.socketpair()
    try:
        send_frame(a, TAG_GRADIENT, b"x")
        with pytest.raises(ProtocolError):
            expect_frame(b, TAG_PARAMS)
    finally:
        a.close()
        b.close()


def test_recv_frame_eof_at_header():
    a, b = socket.socketpair()
    a.close()
    try:
        with pytest.raises(ProtocolError):
            recv_frame(b)
    finally:
        b.close()


def test_recv_frame_eof_mid_payload():
    a, b = socket.socketpair()
    try:
        a.sendall(struct.pack(">BI", TAG_PARAMS, 100) + b"short")
        a.close()
        with pytest.raises(ProtocolError):
            recv_frame(b)
    finally:
        b.close()


def test_recv_frame_rejects_oversized_declaration():
    a, b = socket.socketpair()
    try:
        a.sendall(struct.pack(">BI", TAG_PARAMS, 1 << 31))
        with pytest.raises(ProtocolError):
            recv_frame(b)
    finally:
        a.close()
        b.close()


# --- traffic metering ---

def test_meter_params_frame():
    net = mlp_spec(3, (4,), 2)
    params = init_network(net, seed=0)
    blob = serialize_params(params)
    meter = TrafficMeter(code_length=2)
    meter.record(TAG_PARAMS, blob)
    assert meter.param_bits == 32 * param_count(params)
    assert meter.physical_bits == 8 * len(blob)
    assert meter.paper_bits == meter.param_bits
    assert meter.frames[TAG_PARAMS] == 1


def test_meter_gradient_counts_values_not_trailer():
    net = mlp_spec(3, (4,), 2)
    params = init_network(net, seed=0)
    payload = serialize_params(params) + struct.pack(">d", 0.25)
    meter = TrafficMeter(code_length=2)
    meter.record(TAG_GRADIENT, payload)
    assert meter.gradient_bits == 32 * param_count(params)
    assert meter.physical_bits == 8 * len(payload)


def test_meter_codes_frame():
    # count header says 5 codes: paper charge is 5*(32+L) regardless of body
    payload = struct.pack(">I", 5) + b"\x00" * 25
    meter = TrafficMeter(code_length=8)
    meter.record(TAG_CODES, payload)
    assert meter.code_bits == 5 * (32 + 8)
    assert meter.physical_bits == 8 * len(payload)


def test_meter_done_is_physical_only():
    meter = TrafficMeter(code_length=8)
    meter.record(TAG_DONE, b"")
    assert meter.paper_bits == 0
    assert meter.physical_bits == 0
    assert meter.frames[TAG_DONE] == 1


def test_meter_unknown_tag():
    meter = TrafficMeter(code_length=8)
    with pytest.raises(ProtocolError):
        meter.record(0x7F, b"")


# --- loopback end to end ---

def test_wire_matches_simulation_bitwise():
    shards, net, cfg = small_setup()
    sim_params, sim_history = train(shards, net, cfg)
    result = run_wire_locally(shards, net, cfg)
    assert np.array_equal(result.params.values, sim_params.values)
    assert np.array_equal(result.history.losses, sim_history.losses)


def test_wire_codebooks_match_local_encoding():
    shards, net, cfg = small_setup(seed=5)
    sim_params, _ = train(shards, net, cfg)
    result = run_wire_locally(shards, net, cfg)
    for site, shard in enumerate(shards):
        local_book, _ = encode_shard(sim_params, shard, origin=f"site{site}")
        wire_book = result.site_books[site]
        assert len(wire_book) == len(local_book)
        for a, b in zip(wire_book.entries, local_book.entries):
            assert a.code == b.code
            assert a.degree == b.degree


def test_wire_meter_matches_cost_formulas():
    shards, net, cfg = small_setup(n_sites=3, seed=2, n_rounds=4)
    result = run_wire_locally(shards, net, cfg)
    n = param_count(result.params)
    meter = result.meter
    m, rounds = cfg.n_sites, cfg.n_rounds
    assert meter.param_bits == 32 * n * m * (rounds + 1)
    assert meter.gradient_bits == 32 * n * m * rounds
    L = net[-1].output_dim
    assert meter.code_bits == (32 + L) * sum(len(b) for b in result.site_books)
    assert meter.paper_bits == meter.param_bits + meter.gradient_bits + meter.code_bits
    assert meter.frames[TAG_PARAMS] == m * (rounds + 1)
    assert meter.frames[TAG_GRADIENT] == m * rounds
    assert meter.frames[TAG_CODES] == m
    assert meter.frames[TAG_DONE] == m
    # physical strictly exceeds paper: layer tables, padding, loss trailers
    assert meter.physical_bits > meter.paper_bits


def test_wire_merged_codebook_conserves_degree():
    shards, net, cfg = small_setup(seed=9)
    result = run_wire_locally(shards, net, cfg)
    merged = merge_codebooks(result.site_books)
    assert merged.total_degree == sum(len(s) for s in shards)


def test_wire_zero_rounds():
    shards, net, cfg = small_setup(n_rounds=0)
    sim_params, _ = train(shards, net, cfg)
    result = run_wire_locally(shards, net, cfg)
    assert np.array_equal(result.params.values, sim_params.values)
    assert result.history.records == []
    assert result.meter.frames[TAG_PARAMS] == cfg.n_sites  # final broadcast only


def test_site_started_before_coordinator_listens():
    shards, net, cfg = small_setup(n_sites=1)
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    failures = []

    def site():
        try:
            run_sub_site("127.0.0.1", port, shards[0], cfg, timeout=20.0)
        except Exception as exc:  # noqa: BLE001 - asserted below
            failures.append(exc)

    thread = threading.Thread(target=site, daemon=True)
    thread.start()
    time.sleep(0.3)  # the site's first dials are refused
    result = serve_global(open_listeners("127.0.0.1", port, 1), net, cfg, timeout=20.0)
    thread.join(timeout=20.0)
    assert not thread.is_alive()
    assert not failures
    assert len(result.history.records) == cfg.n_rounds
    assert result.meter.frames[TAG_DONE] == 1


def test_site_thread_failure_raises_protocol_error():
    shards, net, cfg = small_setup(n_sites=2)
    shards = [shards[0].normalized[:1], shards[1]]  # one sample forms no pair
    start = time.monotonic()
    with pytest.raises(ProtocolError, match="site thread failed"):
        run_wire_locally(shards, net, cfg, timeout=20.0)
    assert time.monotonic() - start < 10.0


@pytest.mark.parametrize("bad", ["relu_head", "shard_count"])
def test_run_wire_locally_rejects_bad_input_at_once(bad):
    """Checked before any listener or site thread exists, so nothing lingers."""
    shards, net, cfg = small_setup(n_sites=2)
    if bad == "relu_head":
        net = net[:-1] + (replace(net[-1], activation="relu"),)
    else:
        shards = shards[:1]
    n_threads = threading.active_count()
    for _ in range(20):
        start = time.monotonic()
        with pytest.raises(InvalidSpecError):
            run_wire_locally(shards, net, cfg, timeout=5.0)
        assert time.monotonic() - start < 0.5
        assert threading.active_count() == n_threads


def test_serve_global_listener_count_mismatch():
    shards, net, cfg = small_setup(n_sites=2)
    listeners = open_listeners("127.0.0.1", 0, 1)
    with pytest.raises(InvalidSpecError):
        serve_global(listeners, net, cfg, timeout=1.0)
    fileno = listeners[0].fileno()
    listeners[0].close()
    assert fileno == -1


def test_serve_global_bad_spec_closes_listeners():
    shards, net, cfg = small_setup(n_sites=2)
    net = net[:-1] + (replace(net[-1], activation="relu"),)
    listeners = open_listeners("127.0.0.1", 0, 2)
    with pytest.raises(InvalidSpecError, match="tanh"):
        serve_global(listeners, net, cfg, timeout=1.0)
    filenos = [s.fileno() for s in listeners]
    for s in listeners:
        s.close()
    assert filenos == [-1, -1]


def test_open_listeners_reports_ports():
    listeners = open_listeners("127.0.0.1", 0, 3)
    try:
        ports = listener_ports(listeners)
        assert len(ports) == 3
        assert len(set(ports)) == 3
        assert all(p > 0 for p in ports)
    finally:
        for s in listeners:
            s.close()


# --- endpoints ---

def test_parse_endpoint():
    assert parse_endpoint("127.0.0.1:9000") == ("127.0.0.1", 9000)
    assert parse_endpoint("::1:80") == ("::1", 80)


def test_parse_endpoint_rejects_garbage():
    with pytest.raises(InvalidSpecError):
        parse_endpoint("no-port-here")
    with pytest.raises(InvalidSpecError):
        parse_endpoint("host:notaport")
    with pytest.raises(InvalidSpecError):
        parse_endpoint(":8000")
