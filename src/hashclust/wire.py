"""TCP transport: the coordinator/site protocol over length-prefixed frames.

Frame layout: 1-byte tag, 4-byte big-endian payload length, payload.
Tags: 0x01 parameter broadcast, 0x02 gradient push, 0x03 codes push,
0x04 done. Parameter and gradient payloads use the self-describing network
serialization; a gradient payload carries the site's mean batch loss as an
8-byte big-endian float trailer (telemetry for the convergence series; it
counts as physical overhead, like the layer header, never as formula bits).

The coordinator opens one listening port per site (base_port + site_index),
which fixes site identity without putting ids inside frames. The rounds
run through training.run_rounds, the loop the in-process simulation runs,
which merges the gradients in site order, so the two modes stay
bit-identical.

Every byte crosses the coordinator, so a single TrafficMeter there observes
all traffic. Per frame it accrues two counters: "paper" bits (32 per
parameter or degree, L per code: the quantities the cost formulas charge)
and "physical" bits (actual payload bytes; the 5-byte frame header is
excluded everywhere).
"""

from __future__ import annotations

import socket
import struct
import threading
import time
from collections import Counter
from dataclasses import dataclass

from .codebook import decode_codes_payload, encode_codes_payload, encode_shard
from .errors import InvalidSpecError, ProtocolError
from .network import (
    NetworkParams,
    deserialize_params,
    init_network,
    serialize_params,
    serialize_values,
    validate_spec,
)
from .training import TrainingConfig, TrainingHistory, local_round, run_rounds
from .training import global_merge  # noqa: F401 - unused; perfbench/layers.py wraps wire.global_merge

TAG_PARAMS = 0x01
TAG_GRADIENT = 0x02
TAG_CODES = 0x03
TAG_DONE = 0x04

_FRAME_HEADER = struct.Struct(">BI")
_LOSS_TRAILER = struct.Struct(">d")
_MAX_PAYLOAD = 1 << 31

DEFAULT_TIMEOUT = 60.0


def send_frame(sock, tag: int, payload: bytes = b"") -> None:
    if len(payload) >= _MAX_PAYLOAD:
        raise ProtocolError(f"payload of {len(payload)} bytes exceeds the frame limit")
    sock.sendall(_FRAME_HEADER.pack(tag, len(payload)) + payload)


def _recv_exact(sock, n: int) -> bytes:
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            raise ProtocolError(f"connection closed mid-frame ({remaining} bytes short)")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock):
    tag, length = _FRAME_HEADER.unpack(_recv_exact(sock, _FRAME_HEADER.size))
    if length >= _MAX_PAYLOAD:
        raise ProtocolError(f"declared payload of {length} bytes exceeds the frame limit")
    return tag, _recv_exact(sock, length)


def expect_frame(sock, want_tag: int) -> bytes:
    tag, payload = recv_frame(sock)
    if tag != want_tag:
        raise ProtocolError(f"expected frame tag 0x{want_tag:02x}, got 0x{tag:02x}")
    return payload


def _encode_gradient(params: NetworkParams, grad, loss: float) -> bytes:
    return serialize_values(params, grad) + _LOSS_TRAILER.pack(loss)


def _decode_gradient(payload: bytes):
    if len(payload) < _LOSS_TRAILER.size:
        raise ProtocolError("gradient payload too short for the loss trailer")
    (loss,) = _LOSS_TRAILER.unpack(payload[-_LOSS_TRAILER.size :])
    blob = deserialize_params(payload[: -_LOSS_TRAILER.size])
    return blob.values, loss


def _payload_param_count(payload: bytes) -> int:
    """Parameter count read off a params/gradient payload's layer header."""
    if len(payload) < 4:
        raise ProtocolError("parameter payload too short")
    (n_layers,) = struct.unpack(">I", payload[:4])
    off, total = 4, 0
    for _ in range(n_layers):
        if off + 9 > len(payload):
            raise ProtocolError("parameter payload truncated in layer header")
        in_dim, out_dim, _tag = struct.unpack(">IIB", payload[off : off + 9])
        off += 9
        total += in_dim * out_dim + out_dim
    return total


class TrafficMeter:
    """Byte/bit accounting for one protocol run, split paper vs physical."""

    def __init__(self, code_length: int):
        self.code_length = code_length
        self.param_bits = 0
        self.gradient_bits = 0
        self.code_bits = 0
        self.physical_bits = 0
        self.frames = Counter()

    def record(self, tag: int, payload: bytes) -> None:
        self.frames[tag] += 1
        self.physical_bits += 8 * len(payload)
        if tag == TAG_PARAMS:
            self.param_bits += 32 * _payload_param_count(payload)
        elif tag == TAG_GRADIENT:
            self.gradient_bits += 32 * _payload_param_count(payload)
        elif tag == TAG_CODES:
            if len(payload) < 4:
                raise ProtocolError("codes payload too short")
            (count,) = struct.unpack(">I", payload[:4])
            self.code_bits += count * (32 + self.code_length)
        elif tag != TAG_DONE:
            raise ProtocolError(f"unknown frame tag 0x{tag:02x}")

    @property
    def paper_bits(self) -> int:
        return self.param_bits + self.gradient_bits + self.code_bits


def open_listeners(host: str, base_port: int, n_sites: int):
    """One listening socket per site.

    base_port > 0 binds consecutive ports base_port..base_port+n_sites-1;
    base_port == 0 lets the OS pick each port (loopback testing), readable
    afterwards with listener_ports.
    """
    listeners = []
    try:
        for site in range(n_sites):
            s = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            s.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            s.bind((host, base_port + site if base_port else 0))
            s.listen(1)
            listeners.append(s)
    except OSError:
        for s in listeners:
            s.close()
        raise
    return listeners


def listener_ports(listeners) -> list[int]:
    return [s.getsockname()[1] for s in listeners]


@dataclass
class WireGlobalResult:
    params: NetworkParams
    history: TrainingHistory
    site_books: list
    meter: TrafficMeter


def serve_global(listeners, spec, cfg: TrainingConfig, timeout: float = DEFAULT_TIMEOUT) -> WireGlobalResult:
    """Coordinator side: initialize, run the rounds, collect the codebooks.

    Listener index is site index. The rounds run through training.run_rounds,
    the loop the in-process simulation runs, so for identical configs and
    seeds the parameter trajectory is bitwise the same. Each round sends the
    parameters to every site before reading any gradient, so the sites
    compute in parallel. A bad listener count or spec fails before any
    accept; the listeners are closed on every exit.
    """
    conns = []

    def broadcast(tag, payload):
        for conn in conns:
            send_frame(conn, tag, payload)
            meter.record(tag, payload)

    def collect(tag):
        for conn in conns:
            payload = expect_frame(conn, tag)
            meter.record(tag, payload)
            yield payload

    def exchange(params, _round):
        broadcast(TAG_PARAMS, serialize_params(params))
        return zip(*(_decode_gradient(p) for p in collect(TAG_GRADIENT)))

    try:
        if len(listeners) != cfg.n_sites:
            raise InvalidSpecError(
                f"config says {cfg.n_sites} sites but {len(listeners)} listeners supplied"
            )
        params = init_network(spec, cfg.seed)
        meter = TrafficMeter(params.code_length)
        for lis in listeners:
            lis.settimeout(timeout)
            conn, _addr = lis.accept()
            conn.settimeout(timeout)
            conns.append(conn)
        params, history = run_rounds(params, cfg, exchange)
        broadcast(TAG_PARAMS, serialize_params(params))
        books = [
            decode_codes_payload(payload, params.code_length, origin=f"site{site}")
            for site, payload in enumerate(collect(TAG_CODES))
        ]
        broadcast(TAG_DONE, b"")
    finally:
        for conn in conns:
            conn.close()
        for lis in listeners:
            lis.close()
    return WireGlobalResult(params=params, history=history, site_books=books, meter=meter)


def _dial(host: str, port: int, timeout: float):
    """Connect, retrying while refused until ``timeout`` has passed, so a
    site may start before the coordinator listens."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            return socket.create_connection((host, port), timeout=timeout)
        except ConnectionRefusedError:
            if time.monotonic() >= deadline:
                raise
            time.sleep(0.05)


def run_sub_site(host: str, port: int, shard, cfg: TrainingConfig, timeout: float = DEFAULT_TIMEOUT) -> None:
    """Worker side: one site's whole protocol life, connect to done.

    The site learns the network shape from the broadcast itself; only the
    round count, batch policy and seeds come from its local config.
    """
    with _dial(host, port, timeout) as sock:
        sock.settimeout(timeout)
        params = None
        for r in range(cfg.n_rounds):
            params = deserialize_params(expect_frame(sock, TAG_PARAMS))
            grad, loss = local_round(shard, params, cfg, round_index=r)
            send_frame(sock, TAG_GRADIENT, _encode_gradient(params, grad, loss))
        params = deserialize_params(expect_frame(sock, TAG_PARAMS))
        book, _ = encode_shard(params, shard, origin="site")
        send_frame(sock, TAG_CODES, encode_codes_payload(book))
        expect_frame(sock, TAG_DONE)


def run_wire_locally(shards, spec, cfg: TrainingConfig, timeout: float = DEFAULT_TIMEOUT) -> WireGlobalResult:
    """Full wire run on loopback: site threads against an in-process coordinator.

    Same frames, sockets and accounting as a distributed run; only the
    process boundary is missing. A bad spec or shard count raises
    InvalidSpecError before any socket or thread exists. A site thread
    failure surfaces as ProtocolError once the coordinator returns or fails.
    """
    host = "127.0.0.1"
    shards = list(shards)
    spec = validate_spec(spec)
    if len(shards) != cfg.n_sites:
        raise InvalidSpecError(
            f"config says {cfg.n_sites} sites but {len(shards)} shards supplied"
        )
    listeners = open_listeners(host, 0, len(shards))
    ports = listener_ports(listeners)
    failures = []

    def site_main(port, shard):
        try:
            run_sub_site(host, port, shard, cfg, timeout=timeout)
        except Exception as exc:  # noqa: BLE001 - reported after join
            failures.append(exc)

    threads = [
        threading.Thread(target=site_main, args=(port, shard), daemon=True)
        for port, shard in zip(ports, shards)
    ]
    for t in threads:
        t.start()
    try:
        return serve_global(listeners, spec, cfg, timeout=timeout)
    finally:
        # short joins: after a coordinator failure a site may still wait out
        # its own timeout, and after success every site has had DONE
        for t in threads:
            t.join(timeout=1.0)
        if failures:
            raise ProtocolError(f"site thread failed: {failures[0]!r}") from failures[0]


def parse_endpoint(text: str):
    """Split "host:port" (port may be 0 for OS-assigned loopback testing)."""
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise InvalidSpecError(f"endpoint must look like host:port, got {text!r}")
    try:
        return host, int(port)
    except ValueError as exc:
        raise InvalidSpecError(f"bad port in endpoint {text!r}") from exc
