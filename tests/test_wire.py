import socket
import struct
import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import free_port

from hashclust import training, wire
from hashclust.codebook import decode_codes_payload, encode_codes_payload, encode_shard, merge_codebooks
from hashclust.datasets import gen_dataset, make_dataset_spec, shard_dataset
from hashclust.errors import InvalidSpecError, ProtocolError, ShapeError
from hashclust.network import init_network, mlp_spec, param_count
from hashclust.training import TrainingConfig, train
from hashclust.wire import (
    TAG_CODES,
    TAG_DONE,
    TAG_GRADIENT,
    TAG_HELLO,
    TAG_PARAMS,
    TrafficMeter,
    _decode_gradient,
    config_digest,
    deserialize_params,
    expect_frame,
    parse_endpoint,
    read_blob,
    run_sub_site,
    run_wire_locally,
    send_frame,
    serialize_params,
    serialize_values,
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
        assert expect_frame(b, TAG_PARAMS) == b"hello"
    finally:
        a.close()
        b.close()


def test_frame_empty_payload():
    a, b = socket.socketpair()
    try:
        send_frame(a, TAG_DONE)
        assert expect_frame(b, TAG_DONE) == b""
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
        with pytest.raises(ProtocolError, match="expected frame tag 0x01, got 0x02"):
            expect_frame(b, TAG_PARAMS)
    finally:
        a.close()
        b.close()


def test_expect_frame_eof_at_header():
    a, b = socket.socketpair()
    a.close()
    try:
        with pytest.raises(ProtocolError):
            expect_frame(b, TAG_PARAMS)
    finally:
        b.close()


def test_expect_frame_eof_mid_payload():
    a, b = socket.socketpair()
    try:
        a.sendall(struct.pack(">BI", TAG_PARAMS, 100) + b"short")
        a.close()
        with pytest.raises(ProtocolError):
            expect_frame(b, TAG_PARAMS)
    finally:
        b.close()


def test_large_frame_roundtrips_through_partial_sends():
    # 4 MB is far beyond a socket buffer, so the sender's sendmsg returns
    # short and resumes mid-payload while a reader drains the other end
    payload = np.random.default_rng(0).integers(0, 256, size=4 << 20, dtype=np.uint8).tobytes()
    a, b = socket.socketpair()
    a.settimeout(10.0)
    b.settimeout(10.0)
    received = {}

    def reader():
        received["first"] = expect_frame(b, TAG_PARAMS)
        received["second"] = expect_frame(b, TAG_DONE)

    t = threading.Thread(target=reader, daemon=True)
    try:
        t.start()
        send_frame(a, TAG_PARAMS, payload)
        send_frame(a, TAG_DONE, b"")
        t.join(timeout=10.0)
        assert received["first"] == payload
        assert received["second"] == b""
    finally:
        a.close()
        b.close()


def test_peer_closing_mid_payload_reports_the_bytes_short():
    a, b = socket.socketpair()
    try:
        a.sendall(struct.pack(">BI", TAG_GRADIENT, 1 << 20) + bytes(1000))
        a.close()
        with pytest.raises(ProtocolError, match=r"connection closed mid-frame \(1047576 bytes short\)"):
            expect_frame(b, TAG_GRADIENT)
    finally:
        b.close()


@pytest.mark.parametrize("sent", [0, 1000, (1 << 20) + 1, (3 << 20) - 1])
def test_a_frame_cut_short_reports_the_bytes_short_at_every_buffer_size(sent):
    # the receive buffer starts at 1 MiB and doubles, so a 3 MiB frame is cut
    # short in its first, second or third buffer
    length = 3 << 20
    a, b = socket.socketpair()
    b.settimeout(10.0)

    def sender():
        with a:
            a.sendall(struct.pack(">BI", TAG_GRADIENT, length) + bytes(sent))

    t = threading.Thread(target=sender, daemon=True)
    try:
        t.start()
        with pytest.raises(ProtocolError, match=rf"^connection closed mid-frame \({length - sent} bytes short\)$"):
            expect_frame(b, TAG_GRADIENT)
    finally:
        t.join(timeout=10.0)
        b.close()


def test_a_declared_length_that_no_bytes_follow_allocates_only_the_first_buffer():
    a, b = socket.socketpair()
    b.settimeout(0.2)
    try:
        a.sendall(struct.pack(">BI", TAG_GRADIENT, 256 << 20))
        tracemalloc.start()
        try:
            with pytest.raises(ProtocolError, match=r"^receive failed \(268435456 bytes short\)"):
                expect_frame(b, TAG_GRADIENT)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20
    finally:
        a.close()
        b.close()


def test_decoded_frames_survive_later_frames_on_the_connection():
    params = init_network(mlp_spec(6, (5,), 12), seed=3)
    x = np.random.default_rng(3).uniform(size=(40, 6))
    book, _ = encode_shard(params, x)
    grad = np.random.default_rng(4).normal(size=param_count(params))
    a, b = socket.socketpair()
    try:
        send_frame(a, TAG_CODES, encode_codes_payload(book))
        send_frame(a, TAG_GRADIENT, serialize_values(params, grad, struct.pack(">d", 0.5)))
        got_book = decode_codes_payload(expect_frame(b, TAG_CODES), params.code_length, origin="site")
        got_grad, loss = _decode_gradient(expect_frame(b, TAG_GRADIENT), param_count(params))
        codes, degrees, values = got_book.codes.copy(), got_book.degrees.copy(), got_grad.copy()
        for _ in range(3):  # later frames of other contents on the same connection
            send_frame(a, TAG_CODES, encode_codes_payload(merge_codebooks([book, book])))
            send_frame(a, TAG_PARAMS, serialize_values(params, -grad))
            expect_frame(b, TAG_CODES)
            expect_frame(b, TAG_PARAMS)
        assert got_book == book
        assert np.array_equal(got_book.codes, codes) and np.array_equal(got_book.degrees, degrees)
        assert np.array_equal(got_grad, values)
        assert np.array_equal(got_grad, grad.astype(np.float32)) and loss == 0.5
    finally:
        a.close()
        b.close()


@pytest.mark.parametrize(
    "value, loss, match",
    [(np.inf, 0.5, "gradient value 3 is inf, not finite"),
     (-np.inf, 0.5, "gradient value 3 is -inf, not finite"),
     (0.0, np.nan, "batch loss is nan, not finite"),
     (0.0, -np.inf, "batch loss is -inf, not finite")],
    ids=["inf_value", "minus_inf_value", "nan_loss", "minus_inf_loss"],
)
def test_decode_gradient_refuses_a_non_finite_value_or_loss(value, loss, match):
    params = init_network(mlp_spec(3, (4,), 2), seed=0)
    grad = np.zeros(param_count(params))
    grad[3] = value
    with pytest.raises(ShapeError, match=f"^{match}$"):
        _decode_gradient(serialize_values(params, grad, struct.pack(">d", loss)), len(grad))


def test_expect_frame_rejects_oversized_declaration():
    a, b = socket.socketpair()
    try:
        a.sendall(struct.pack(">BI", TAG_PARAMS, 1 << 31))
        with pytest.raises(ProtocolError, match="declared payload of 2147483648 bytes exceeds the frame limit"):
            expect_frame(b, TAG_PARAMS)
    finally:
        a.close()
        b.close()


@pytest.mark.parametrize("tag, size", [(TAG_HELLO, 36), (TAG_DONE, 0)])
def test_expect_frame_limits_hello_and_done_to_their_size(tag, size):
    a, b = socket.socketpair()
    try:
        send_frame(a, tag, bytes(size))
        assert expect_frame(b, tag) == bytes(size)
        # one byte more is refused at the header, before any payload is sent
        a.sendall(struct.pack(">BI", tag, size + 1))
        with pytest.raises(ProtocolError, match=f"^declared payload of {size + 1} bytes exceeds the frame limit$"):
            expect_frame(b, tag)
    finally:
        a.close()
        b.close()


# --- traffic metering ---

def test_meter_params_frame():
    # the meter tallies by tag what it is handed: a frame, its payload bits
    # and the paper bits its sender counted
    params = init_network(mlp_spec(3, (4,), 2), seed=0)
    blob, bits = serialize_params(params), 32 * param_count(params)
    meter = TrafficMeter()
    meter.record(TAG_PARAMS, blob, bits)
    meter.record(TAG_PARAMS, blob, bits)
    assert meter.frames == {TAG_PARAMS: 2}
    assert meter.physical == {TAG_PARAMS: 2 * 8 * len(blob)}
    assert meter.paper == {TAG_PARAMS: 2 * bits}
    assert (meter.paper_bits, meter.physical_bits) == (2 * bits, 2 * 8 * len(blob))


def test_meter_gradient_counts_values_not_trailer():
    shards, net, cfg = small_setup(n_sites=1, n_rounds=1)
    result = run_wire_locally(shards, net, cfg)
    n = param_count(result.params)
    assert result.meter.paper[TAG_GRADIENT] == 32 * n
    assert result.meter.physical[TAG_GRADIENT] == 8 * (4 * n + 8)


def test_meter_codes_frame():
    # paper charge is (32 + L) per entry of the decoded book, padding and count aside
    shards, net, cfg = small_setup(n_sites=1, n_rounds=0)
    result = run_wire_locally(shards, net, cfg)
    (book,) = result.site_books
    L = net[-1].output_dim
    assert result.meter.paper[TAG_CODES] == len(book) * (32 + L)
    assert result.meter.physical[TAG_CODES] == 8 * (4 + len(book) * (4 + (L + 7) // 8))


def test_meter_done_is_physical_only():
    meter = TrafficMeter()
    meter.record(TAG_DONE, b"")
    assert meter.paper_bits == 0
    assert meter.physical_bits == 0
    assert meter.frames[TAG_DONE] == 1


def test_meter_hello_is_physical_only():
    meter = TrafficMeter()
    meter.record(TAG_HELLO, struct.pack(">I", 0) + bytes(32))
    assert meter.paper_bits == 0
    assert meter.physical_bits == meter.physical[TAG_HELLO] == 8 * 36
    assert meter.frames[TAG_HELLO] == 1


def test_coordinator_reads_each_gradient_frame_once(monkeypatch):
    shards, net, cfg = small_setup(n_sites=2, n_rounds=3)
    reads = []

    def counted(data, n, trailer=0):
        reads.append((threading.current_thread() is threading.main_thread(), trailer))
        return read_blob(data, n, trailer)

    monkeypatch.setattr(wire, "read_blob", counted)
    result = run_wire_locally(shards, net, cfg)
    # the coordinator (the main thread) reads each gradient frame once, with
    # its 8-byte loss trailer; each site thread reads each parameter frame
    # once, without one, and nothing else is read
    n_gradients = result.meter.frames[TAG_GRADIENT]
    assert n_gradients == cfg.n_sites * cfg.n_rounds
    assert sorted(reads) == [(False, 0)] * ((cfg.n_rounds + 1) * cfg.n_sites) + [(True, 8)] * n_gradients


# --- loopback end to end ---

def test_wire_matches_simulation_bitwise():
    shards, net, cfg = small_setup()
    sim_params, sim_losses = train(shards, net, cfg)
    result = run_wire_locally(shards, net, cfg)
    assert np.array_equal(result.params.values, sim_params.values)
    assert result.losses.shape == (cfg.n_rounds, cfg.n_sites)
    assert np.array_equal(result.losses, sim_losses)


def test_wire_codebooks_match_local_encoding():
    shards, net, cfg = small_setup(seed=5)
    sim_params, _ = train(shards, net, cfg)
    result = run_wire_locally(shards, net, cfg)
    for site, shard in enumerate(shards):
        local_book, _ = encode_shard(sim_params, shard, origin=f"site{site}")
        wire_book = result.site_books[site]
        assert (wire_book.code_length, len(wire_book)) == (local_book.code_length, len(local_book))
        assert np.array_equal(wire_book.codes, local_book.codes)
        assert np.array_equal(wire_book.degrees, local_book.degrees)


def test_wire_meter_matches_cost_formulas():
    shards, net, cfg = small_setup(n_sites=3, seed=2, n_rounds=4)
    result = run_wire_locally(shards, net, cfg)
    n = param_count(result.params)
    meter = result.meter
    m, rounds = cfg.n_sites, cfg.n_rounds
    L = net[-1].output_dim
    assert meter.paper == {
        TAG_PARAMS: 32 * n * m * (rounds + 1),
        TAG_GRADIENT: 32 * n * m * rounds,
        TAG_CODES: (32 + L) * sum(len(b) for b in result.site_books),
        TAG_DONE: 0,
        TAG_HELLO: 0,
    }
    assert meter.paper_bits == sum(meter.paper.values())
    assert meter.frames[TAG_PARAMS] == m * (rounds + 1)
    assert meter.frames[TAG_GRADIENT] == m * rounds
    assert meter.frames[TAG_CODES] == m
    assert meter.frames[TAG_DONE] == m
    assert meter.frames[TAG_HELLO] == m
    # physical exceeds paper only by the loss trailers, the hellos, the code
    # counts and padding; parameter and gradient frames carry no layer table
    code_bytes = sum(4 + len(b) * (4 + (L + 7) // 8) for b in result.site_books)
    assert meter.physical == {
        TAG_PARAMS: 8 * 4 * n * m * (rounds + 1),
        TAG_GRADIENT: 8 * (4 * n + 8) * m * rounds,
        TAG_CODES: 8 * code_bytes,
        TAG_DONE: 0,
        TAG_HELLO: 8 * 36 * m,
    }
    assert meter.physical_bits == sum(meter.physical.values())


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
    assert result.losses.shape == (0, cfg.n_sites)
    assert result.meter.frames[TAG_PARAMS] == cfg.n_sites  # final broadcast only


def test_site_started_before_coordinator_listens():
    shards, net, cfg = small_setup(n_sites=1)
    port = free_port()
    failures = []

    def site():
        try:
            run_sub_site("127.0.0.1", port, 0, shards[0], net, cfg, timeout=20.0)
        except Exception as exc:  # noqa: BLE001 - asserted below
            failures.append(exc)

    thread = threading.Thread(target=site, daemon=True)
    thread.start()
    time.sleep(0.3)  # the site's first dials are refused
    result = serve_global(socket.create_server(("127.0.0.1", port)), net, cfg, timeout=20.0)
    thread.join(timeout=20.0)
    assert not thread.is_alive()
    assert not failures
    assert result.losses.shape == (cfg.n_rounds, 1)
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


@pytest.mark.parametrize("timeout", [-1, 0.0, float("nan")])
@pytest.mark.parametrize("call", ["run_wire_locally", "serve_global", "run_sub_site"])
def test_wire_calls_refuse_a_timeout_that_is_not_positive_and_finite(call, timeout, monkeypatch):
    """Refused before any socket or thread exists; a listener passed in is closed."""
    shards, net, cfg = small_setup(n_sites=2)

    def no_socket(*_args, **_kwargs):
        raise AssertionError("a socket was made")

    listener = socket.create_server(("127.0.0.1", 0))
    monkeypatch.setattr(socket, "create_server", no_socket)
    monkeypatch.setattr(socket, "create_connection", no_socket)
    n_threads = threading.active_count()
    with pytest.raises(InvalidSpecError, match="timeout must be a positive finite number"):
        if call == "run_wire_locally":
            run_wire_locally(shards, net, cfg, timeout=timeout)
        elif call == "serve_global":
            serve_global(listener, net, cfg, timeout=timeout)
        else:
            run_sub_site("127.0.0.1", listener.getsockname()[1], 0, shards[0], net, cfg, timeout=timeout)
    assert threading.active_count() == n_threads
    if call == "serve_global":
        assert listener.fileno() == -1
    listener.close()


def test_serve_global_bad_spec_closes_listeners():
    shards, net, cfg = small_setup(n_sites=2)
    net = net[:-1] + (replace(net[-1], activation="relu"),)
    listener = socket.create_server(("127.0.0.1", 0))
    with pytest.raises(InvalidSpecError, match="tanh"):
        serve_global(listener, net, cfg, timeout=1.0)
    assert listener.fileno() == -1


def test_sites_ordered_by_hello_not_by_dial_order():
    shards, net, cfg = small_setup(n_sites=3, seed=4)
    sim_params, sim_losses = train(shards, net, cfg)
    listener = socket.create_server(("127.0.0.1", 0))
    port = listener.getsockname()[1]
    threads = []
    for site in (2, 0, 1):
        args = ("127.0.0.1", port, site, shards[site], net, cfg, 20.0)
        threads.append(threading.Thread(target=run_sub_site, args=args, daemon=True))
        threads[-1].start()
        time.sleep(0.1)  # queue the dials in this order
    result = serve_global(listener, net, cfg, timeout=20.0)
    for t in threads:
        t.join(timeout=5.0)
    assert np.array_equal(result.params.values, sim_params.values)
    assert np.array_equal(result.losses, sim_losses)


# --- fault injection: the coordinator fails at once, and every site with it ---

def _raw(act):
    """A hand-driven site 1: says hello, reads round 0's parameters, then acts."""

    def site(port, shards, net, cfg):
        with socket.create_connection(("127.0.0.1", port), timeout=5.0) as sock:
            send_frame(sock, TAG_HELLO, struct.pack(">I", 1) + config_digest(cfg, net))
            act(sock, deserialize_params(expect_frame(sock, TAG_PARAMS), net))

    return site


def _site(index, spec=None, **changes):
    """A real site on shard 1 that names ``index`` and runs ``cfg`` with
    ``changes``, on the coordinator's network or on ``spec``."""
    return lambda port, shards, net, cfg: run_sub_site(
        "127.0.0.1", port, index, shards[1], spec or net, replace(cfg, **changes), 5.0
    )


def _gradient_payload(params, cut=0):
    values = serialize_values(params, np.zeros(param_count(params)))
    return values[: len(values) - cut] + struct.pack(">d", 0.0)


def _drop(sock, params):
    pass  # the socket closes with round 0's gradient unsent


def _truncated_frame(sock, params):
    payload = _gradient_payload(params)
    sock.sendall(struct.pack(">BI", TAG_GRADIENT, len(payload)) + payload[: len(payload) // 2])
    sock.recv(1)  # stalls until the coordinator gives up and closes


def _short_payload(sock, params):
    send_frame(sock, TAG_GRADIENT, _gradient_payload(params, cut=4))
    sock.recv(1)


def _non_finite_gradient(sock, params):
    payload = _gradient_payload(params)
    payload[4:8] = struct.pack(">f", float("nan"))
    send_frame(sock, TAG_GRADIENT, payload)
    sock.recv(1)


def _wrong_gradient_shape(sock, params):
    # a well-formed gradient, but for a 4-3-4 network instead of the 4-4-4 broadcast
    send_frame(sock, TAG_GRADIENT, _gradient_payload(init_network(mlp_spec(4, (3,), 4), 0)))
    sock.recv(1)


def _short_hello(port, shards, net, cfg):
    with socket.create_connection(("127.0.0.1", port), timeout=5.0) as sock:
        send_frame(sock, TAG_HELLO, struct.pack(">I", 1))
        sock.recv(1)


def _codes(payload):
    """A hand-driven site 1: zero gradients through every round, then ``payload`` as its codes."""

    def site(port, shards, net, cfg):
        with socket.create_connection(("127.0.0.1", port), timeout=5.0) as sock:
            send_frame(sock, TAG_HELLO, struct.pack(">I", 1) + config_digest(cfg, net))
            for _ in range(cfg.n_rounds):
                params = deserialize_params(expect_frame(sock, TAG_PARAMS), net)
                send_frame(sock, TAG_GRADIENT, _gradient_payload(params))
            expect_frame(sock, TAG_PARAMS)
            send_frame(sock, TAG_CODES, payload)
            sock.recv(1)

    return site


def _foreign_protocol(port, shards, net, cfg):
    # "GET / HTTP/1.1" read as a frame header: tag 0x47 ("G") and a declared
    # length near 1.16 GB; a declared 64 MiB stands in here, and is never sent
    with socket.create_connection(("127.0.0.1", port), timeout=5.0) as sock:
        sock.sendall(struct.pack(">BI", ord("G"), 64 << 20))
        sock.recv(1)


def _oversized_hello(port, shards, net, cfg):
    # a hello header declaring 256 MiB, refused before any payload buffer is made
    with socket.create_connection(("127.0.0.1", port), timeout=5.0) as sock:
        sock.sendall(struct.pack(">BI", TAG_HELLO, 1 << 28))
        sock.recv(1)


# name: (faulty site 1, coordinator timeout, the ProtocolError it raises)
FAULTS = {
    "drop_mid_round": (_raw(_drop), 5.0, "connection closed mid-frame"),
    "truncated_gradient_frame": (_raw(_truncated_frame), 0.5, "receive failed"),
    "short_gradient_payload": (_raw(_short_payload), 5.0, "site 1 sent a malformed frame 0x02"),
    "non_finite_gradient": (_raw(_non_finite_gradient), 5.0,
                            "^site 1 sent a malformed frame 0x02: gradient value 1 is nan, not finite$"),
    "wrong_gradient_shape": (_raw(_wrong_gradient_shape), 5.0,
                             "site 1 sent a malformed frame 0x02: value section has 124 bytes, expected 160"),
    "short_hello": (_short_hello, 5.0, "hello of 4 bytes"),
    "foreign_protocol": (_foreign_protocol, 5.0, "expected frame tag 0x05, got 0x47"),
    "oversized_hello": (_oversized_hello, 5.0, "declared payload of 268435456 bytes exceeds the frame limit"),
    "empty_codes": (_codes(struct.pack(">I", 0)), 5.0,
                    "site 1 sent a malformed frame 0x03: codebook payload has no entries"),
    # shorter than the 4-byte count header
    "short_codes": (_codes(b"\x00\x01"), 5.0, "^site 1 sent a malformed frame 0x03: truncated codebook payload$"),
    "other_config": (_site(1, batch_size=16), 5.0, "site 1 runs another training config"),
    "other_network": (_site(1, mlp_spec(4, (3,), 4)), 5.0, "site 1 runs another training config or network"),
    "duplicate_index": (_site(0), 5.0, "site 0 connected twice"),
    "out_of_range_index": (_site(2), 5.0, r"hello names site 2, outside \[0, 2\)"),
}


@pytest.mark.parametrize("fault", list(FAULTS))
def test_fault_fails_coordinator_and_sites_at_once(fault):
    faulty_site, timeout, match = FAULTS[fault]
    shards, net, cfg = small_setup(n_sites=2)
    listener = socket.create_server(("127.0.0.1", 0))
    port = listener.getsockname()[1]
    errors = {}

    def guarded(name, target, *args):
        try:
            target(*args)
        except Exception as exc:  # noqa: BLE001 - asserted below
            errors[name] = exc

    threads = [
        threading.Thread(target=guarded, args=("honest", run_sub_site, "127.0.0.1", port, 0,
                                               shards[0], net, cfg, 5.0), daemon=True),
        threading.Thread(target=guarded, args=("faulty", faulty_site, port, shards, net, cfg), daemon=True),
    ]
    threads[0].start()
    time.sleep(0.2)  # the honest site dials first
    threads[1].start()
    start = time.monotonic()
    # ``raised`` keeps serve_global's frame and its sockets alive, so the
    # sites see EOF only if serve_global closes its connections itself
    with pytest.raises(ProtocolError, match=match) as raised:
        serve_global(listener, net, cfg, timeout=timeout)
    assert time.monotonic() - start < 1.0
    for t in threads:
        t.join(timeout=1.0)
        assert not t.is_alive()
    assert "honest" in errors
    assert listener.fileno() == -1
    assert raised.tb is not None


# --- endpoints ---

def test_parse_endpoint():
    assert parse_endpoint("127.0.0.1:9000") == ("127.0.0.1", 9000)
    assert parse_endpoint("::1:80") == ("::1", 80)
    assert parse_endpoint("[::1]:80") == ("::1", 80)
    assert parse_endpoint("127.0.0.1:0") == ("127.0.0.1", 0)
    assert parse_endpoint("127.0.0.1:65535") == ("127.0.0.1", 65535)


def test_parse_endpoint_rejects_garbage():
    with pytest.raises(InvalidSpecError):
        parse_endpoint("no-port-here")
    with pytest.raises(InvalidSpecError):
        parse_endpoint("host:notaport")
    with pytest.raises(InvalidSpecError):
        parse_endpoint(":8000")
    with pytest.raises(InvalidSpecError):
        parse_endpoint("[]:8000")
    for port in ("-1", "+80", " 80", "٣", "65536", "70000", "99999"):
        with pytest.raises(InvalidSpecError, match=r"not a number in \[0, 65535\]"):
            parse_endpoint(f"127.0.0.1:{port}")


class _Huge:
    """A payload that says it holds 2**31 bytes and holds none."""

    def __len__(self):
        return 1 << 31


def test_send_frame_refuses_a_payload_at_the_frame_limit_before_it_sends():
    with pytest.raises(ProtocolError, match="^payload of 2147483648 bytes exceeds the frame limit$"):
        send_frame(None, TAG_PARAMS, _Huge())


def test_a_site_whose_dial_is_refused_past_its_timeout_fails():
    shards, net, cfg = small_setup()
    start = time.monotonic()
    with pytest.raises(ConnectionRefusedError):
        run_sub_site("127.0.0.1", free_port(), 0, shards[0], net, cfg, timeout=0.2)
    assert time.monotonic() - start >= 0.2


def test_loopback_run_reports_the_coordinators_error_before_a_sites(monkeypatch):
    # the merge of round 1 fails; every site then loses its connection
    merge, calls = training.global_merge, []

    def global_merge(params, grads, learning_rate):
        calls.append(len(grads))
        if len(calls) == 2:
            raise ShapeError("boom in the merge")
        return merge(params, grads, learning_rate)

    monkeypatch.setattr(training, "global_merge", global_merge)
    shards, net, cfg = small_setup(n_sites=2)
    with pytest.raises(ProtocolError, match=r"^boom in the merge; site thread failed: ") as info:
        run_wire_locally(shards, net, cfg, timeout=20.0)
    assert isinstance(info.value.__cause__, ShapeError)
