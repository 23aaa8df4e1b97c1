"""TCP transport: the coordinator/site protocol over length-prefixed frames.

Frame layout: 1-byte tag, 4-byte big-endian payload length, payload.
Tags: 0x01 parameter broadcast, 0x02 gradient push, 0x03 codes push,
0x04 done, 0x05 hello. A parameter or gradient payload holds the flat value
vector as big-endian float32 and nothing else; a gradient payload adds the
site's mean batch loss as an 8-byte big-endian float trailer (telemetry for
the convergence series; it counts as physical overhead, never as formula
bits). One encoder, network.write_blob, writes both: serialize_params calls
it for the parameters, serialize_values for a gradient and its trailer.

Each payload is copied once on either side. A sender writes it into one
buffer (a gradient's values and trailer alike) and hands that buffer and
the 5-byte header to sendmsg together; a partial send resumes where it
stopped, so the two are never joined. A receiver reads the header, refuses
an unexpected tag or an oversized length there, and only then receives the
payload into a new bytearray of exactly its length.
Every frame owns its buffer, so a decoded gradient, a big-endian float32
view of its frame merged as it is, stays valid whatever frames follow; a
decoded codebook copies its codes and degrees out of its frame.

The coordinator listens on one port. A site's first frame is its hello: a
4-byte big-endian site index and the SHA-256 digest of its TrainingConfig
and layer specs, which coordinator and sites derive alike from one config
and their data; the network is agreed there once, so a parameter or
gradient frame is checked by its length alone. The coordinator orders the
connections by index and fails at once on a malformed hello, an index
outside [0, n_sites), an index already taken or a digest unlike its own
(another config, data width, hidden widths or code length), so a
mismatched site can neither diverge silently nor wait out its timeout. The
rounds run through training.run_rounds, the loop the in-process simulation
runs, which merges the gradients in site order, so the two modes stay
bit-identical.

Every byte crosses the coordinator, so a single TrafficMeter there observes
all traffic. Per frame it accrues two counters: "paper" bits (32 per
parameter or degree, L per code: the quantities the cost formulas charge)
and "physical" bits (actual payload bytes; the 5-byte frame header is
excluded everywhere). Hello and done frames are physical only.
"""

from __future__ import annotations

import hashlib
import socket
import struct
import threading
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .codebook import decode_codes_payload, encode_codes_payload, encode_shard
from .errors import InvalidSpecError, ProtocolError, ShapeError, check_positive_finite
from .network import (
    NetworkParams,
    deserialize_params,
    init_network,
    read_blob,
    serialize_params,
    serialize_values,
    validate_spec,
)
from .training import TrainingConfig, local_round, run_rounds
from .training import global_merge  # noqa: F401 - unused; perfbench/layers.py wraps wire.global_merge

TAG_PARAMS = 0x01
TAG_GRADIENT = 0x02
TAG_CODES = 0x03
TAG_DONE = 0x04
TAG_HELLO = 0x05

_FRAME_HEADER = struct.Struct(">BI")
_LOSS_TRAILER = struct.Struct(">d")
_HELLO = struct.Struct(">I32s")
_MAX_PAYLOAD = 1 << 31
# the longest payload a received frame may declare, where a tag has a fixed
# size; the others stop below _MAX_PAYLOAD
_MAX_LENGTH = {TAG_HELLO: _HELLO.size, TAG_DONE: 0}

DEFAULT_TIMEOUT = 60.0


def send_frame(sock, tag: int, payload: bytes = b"") -> None:
    """Send one frame: the header and ``payload`` go to sendmsg as two
    buffers, never joined; a partial send resumes where it stopped."""
    if len(payload) >= _MAX_PAYLOAD:
        raise ProtocolError(f"payload of {len(payload)} bytes exceeds the frame limit")
    parts = [memoryview(_FRAME_HEADER.pack(tag, len(payload))), memoryview(payload).cast("B")]
    while parts:
        sent = sock.sendmsg(parts)
        while parts and sent >= len(parts[0]):
            sent -= len(parts.pop(0))
        if parts:
            parts[0] = parts[0][sent:]


def _recv_into(sock, buffer) -> None:
    """Fill ``buffer`` from the socket, or raise ProtocolError."""
    view = memoryview(buffer)
    got = 0
    while got < len(view):
        try:
            n = sock.recv_into(view[got:])
        except OSError as exc:  # timed out or reset: the peer broke off
            raise ProtocolError(f"receive failed ({len(view) - got} bytes short): {exc!r}") from exc
        if not n:
            raise ProtocolError(f"connection closed mid-frame ({len(view) - got} bytes short)")
        got += n


def expect_frame(sock, want_tag: int) -> bytearray:
    """The payload of the next frame, which must carry ``want_tag``. The
    header is checked before any payload is read: another tag or a length
    past the frame limit (a hello's size, 0 for done) is refused at once, so
    a peer that speaks another protocol costs neither an allocation nor a
    wait. The payload is a new bytearray of its own, received in place, so
    what is decoded from it as views stays valid whatever frames follow."""
    header = bytearray(_FRAME_HEADER.size)
    _recv_into(sock, header)
    tag, length = _FRAME_HEADER.unpack(header)
    if tag != want_tag:
        raise ProtocolError(f"expected frame tag 0x{want_tag:02x}, got 0x{tag:02x}")
    if length > _MAX_LENGTH.get(tag, _MAX_PAYLOAD - 1):
        raise ProtocolError(f"declared payload of {length} bytes exceeds the frame limit")
    payload = bytearray(length)
    _recv_into(sock, payload)
    return payload


def config_digest(cfg: TrainingConfig, spec) -> bytes:
    """SHA-256 of the config and layer specs' repr, which names every round,
    batch and seed setting and every layer's widths and activation."""
    return hashlib.sha256(repr((cfg, tuple(spec))).encode()).digest()


def _decode_gradient(payload, n: int):
    """A gradient of ``n`` values as a big-endian float32 view of
    ``payload``, and the site's batch loss."""
    return read_blob(payload, n, _LOSS_TRAILER.size), _LOSS_TRAILER.unpack_from(payload, 4 * n)[0]


class TrafficMeter:
    """Byte/bit accounting for one protocol run, split paper vs physical;
    parameter and gradient frames must hold ``n_params`` values."""

    def __init__(self, n_params: int, code_length: int):
        self.n_params = n_params
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
            self.param_bits += 32 * read_blob(payload, self.n_params).size
        elif tag == TAG_GRADIENT:
            self.gradient_bits += 32 * read_blob(payload, self.n_params, _LOSS_TRAILER.size).size
        elif tag == TAG_CODES:
            if len(payload) < 4:
                raise ProtocolError("codes payload too short")
            (count,) = struct.unpack(">I", payload[:4])
            self.code_bits += count * (32 + self.code_length)
        elif tag not in (TAG_DONE, TAG_HELLO):
            raise ProtocolError(f"unknown frame tag 0x{tag:02x}")

    @property
    def paper_bits(self) -> int:
        return self.param_bits + self.gradient_bits + self.code_bits


@dataclass
class WireGlobalResult:
    params: NetworkParams
    losses: np.ndarray  # float64 (n_rounds, n_sites), as training.run_rounds gives it
    site_books: list
    meter: TrafficMeter


def _hello_site(payload: bytes, conns, digest: bytes) -> int:
    if len(payload) != _HELLO.size:
        raise ProtocolError(f"hello of {len(payload)} bytes, expected {_HELLO.size}")
    site, their_digest = _HELLO.unpack(payload)
    if not 0 <= site < len(conns):
        raise ProtocolError(f"hello names site {site}, outside [0, {len(conns)})")
    if conns[site] is not None:
        raise ProtocolError(f"site {site} connected twice")
    if their_digest != digest:
        raise ProtocolError(f"site {site} runs another training config or network than the coordinator")
    return site


def serve_global(listener, spec, cfg: TrainingConfig, timeout: float = DEFAULT_TIMEOUT) -> WireGlobalResult:
    """Coordinator side: accept the sites, run the rounds, collect the codebooks.

    ``listener`` is one listening socket; the connections are kept in the
    order of the site indices the hellos name. The rounds run through
    training.run_rounds, as in the simulation, so for identical configs and
    seeds the parameter trajectory is bitwise the same. Each round sends the
    parameters to every site before reading any gradient, so the sites
    compute in parallel. A bad spec or timeout fails before any accept; a
    bad hello or payload raises ProtocolError at once. The listener and every
    accepted connection are closed on every exit, so the other sites fail at
    once too.
    """
    accepted = []
    conns = [None] * cfg.n_sites

    def broadcast(tag, payload):
        for conn in conns:
            send_frame(conn, tag, payload)
            meter.record(tag, payload)

    def collect(tag, decode):
        out = []
        for site, conn in enumerate(conns):
            payload = expect_frame(conn, tag)
            try:
                meter.record(tag, payload)
                out.append(decode(payload, site))
            except (ShapeError, InvalidSpecError) as exc:
                raise ProtocolError(f"site {site} sent a malformed frame 0x{tag:02x}: {exc}") from exc
        return out

    def exchange(params, _round):
        broadcast(TAG_PARAMS, serialize_params(params))
        gradients = collect(TAG_GRADIENT, lambda payload, _site: _decode_gradient(payload, meter.n_params))
        return zip(*gradients)

    try:
        check_positive_finite(timeout, "timeout")
        params = init_network(spec, cfg.seed)
        meter = TrafficMeter(params.values.size, params.code_length)
        digest = config_digest(cfg, params.layers)
        listener.settimeout(timeout)
        for _ in range(cfg.n_sites):
            conn, _addr = listener.accept()
            accepted.append(conn)
            conn.settimeout(timeout)
            payload = expect_frame(conn, TAG_HELLO)
            meter.record(TAG_HELLO, payload)
            conns[_hello_site(payload, conns, digest)] = conn
        params, losses = run_rounds(params, cfg, exchange)
        broadcast(TAG_PARAMS, serialize_params(params))
        books = collect(
            TAG_CODES,
            lambda payload, site: decode_codes_payload(payload, params.code_length, origin=f"site{site}"),
        )
        broadcast(TAG_DONE, b"")
    finally:
        for conn in accepted:
            conn.close()
        listener.close()
    return WireGlobalResult(params=params, losses=losses, site_books=books, meter=meter)


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


def run_sub_site(host: str, port: int, site: int, shard, spec, cfg: TrainingConfig, timeout: float = DEFAULT_TIMEOUT):
    """Worker side: one site's whole protocol life, hello to done.

    The site names itself and the digest of its config and network ``spec``
    in its hello; a coordinator with another config or network refuses it
    there. Every broadcast then holds the values of that network. A bad
    spec or a timeout that is not a positive finite number raises
    InvalidSpecError before the site dials.
    """
    spec = validate_spec(spec)
    check_positive_finite(timeout, "timeout")
    with _dial(host, port, timeout) as sock:
        sock.settimeout(timeout)
        send_frame(sock, TAG_HELLO, _HELLO.pack(site, config_digest(cfg, spec)))
        for r in range(cfg.n_rounds):
            params = deserialize_params(expect_frame(sock, TAG_PARAMS), spec)
            grad, loss = local_round(shard, params, cfg, round_index=r)
            send_frame(sock, TAG_GRADIENT, serialize_values(params, grad, _LOSS_TRAILER.pack(loss)))
        params = deserialize_params(expect_frame(sock, TAG_PARAMS), spec)
        book, _ = encode_shard(params, shard, origin="site")
        send_frame(sock, TAG_CODES, encode_codes_payload(book))
        expect_frame(sock, TAG_DONE)


def run_wire_locally(shards, spec, cfg: TrainingConfig, timeout: float = DEFAULT_TIMEOUT) -> WireGlobalResult:
    """Full wire run on loopback: site threads against an in-process coordinator.

    Same frames, sockets and accounting as a distributed run; only the
    process boundary is missing. A bad spec, shard count or timeout raises
    InvalidSpecError before any socket or thread exists. A site thread
    failure surfaces as ProtocolError once the coordinator returns or fails.
    """
    host = "127.0.0.1"
    shards = list(shards)
    spec = validate_spec(spec)
    check_positive_finite(timeout, "timeout")
    if len(shards) != cfg.n_sites:
        raise InvalidSpecError(
            f"config says {cfg.n_sites} sites but {len(shards)} shards supplied"
        )
    listener = socket.create_server((host, 0))
    port = listener.getsockname()[1]
    failures = []

    def site_main(site, shard):
        try:
            run_sub_site(host, port, site, shard, spec, cfg, timeout=timeout)
        except Exception as exc:  # noqa: BLE001 - reported after join
            failures.append(exc)

    threads = [
        threading.Thread(target=site_main, args=(site, shard), daemon=True)
        for site, shard in enumerate(shards)
    ]
    for t in threads:
        t.start()
    try:
        return serve_global(listener, spec, cfg, timeout=timeout)
    finally:
        # short joins: a coordinator failure closes every connection, and
        # after success every site has had DONE
        for t in threads:
            t.join(timeout=1.0)
        if failures:
            raise ProtocolError(f"site thread failed: {failures[0]!r}") from failures[0]


def parse_endpoint(text: str):
    """Split "host:port"; the port is a number in [0, 65535], 0 for an
    OS-assigned loopback port (a resolver would wrap a larger one)."""
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise InvalidSpecError(f"endpoint must look like host:port, got {text!r}")
    if not (port.isascii() and port.isdigit()) or int(port) > 65535:
        raise InvalidSpecError(f"port of endpoint {text!r} is not a number in [0, 65535]")
    return host, int(port)
