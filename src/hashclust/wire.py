"""TCP transport: the coordinator/site protocol over length-prefixed frames.

Frame layout: 1-byte tag, 4-byte big-endian payload length, payload.
Tags: 0x01 parameter broadcast, 0x02 gradient push, 0x03 codes push,
0x04 done, 0x05 hello. A parameter or gradient payload holds the flat value
vector as big-endian float32 and nothing else; a gradient payload adds the
site's mean batch loss as an 8-byte big-endian float trailer (telemetry for
the convergence series; it counts as physical overhead, never as formula
bits). This module holds that layout: one encoder, write_blob, writes both
frames (serialize_params the parameters, serialize_values a gradient and its
trailer), and read_blob, the one check of a value section's length, reads
both (deserialize_params at a site, the gradient decode at the coordinator,
which also refuses a NaN or infinity in the values or the loss).

Each payload is copied once on either side (a received one past 1 MiB may
be moved again as its buffer grows). A sender writes it into one
buffer (a gradient's values and trailer alike) and hands that buffer and
the 5-byte header to sendmsg together; a partial send resumes where it
stopped, so the two are never joined. A receiver reads the header, refuses
an unexpected tag or an oversized length there, and only then receives the
payload into a new bytearray, which starts at 1 MiB and doubles as bytes
arrive up to exactly the declared length.
Every frame owns its buffer, so a decoded gradient, a big-endian float32
view of its frame merged as it is, stays valid whatever frames follow; a
decoded codebook copies its codes and degrees out of its frame.

The coordinator listens on one port. A site's first frame is its hello: a
4-byte big-endian site index and the SHA-256 digest of its TrainingConfig
and layer specs, which coordinator and sites derive alike from one config
and their data; the network is agreed there once, so a parameter or
gradient frame carries no layer table, only its values. The coordinator
orders the connections by index and fails at once on a malformed hello, an
index outside [0, n_sites), an index already taken or a digest unlike its
own (another config, data width, hidden widths or code length), so a
mismatched site can neither diverge silently nor wait out its timeout. The
rounds run through training.run_rounds, the loop the in-process simulation
runs, which merges the gradients in site order, so the two modes stay
bit-identical.

Every byte crosses the coordinator, so a single TrafficMeter there observes
all traffic. It tallies by tag the frames, their "physical" bits (payload
bytes; the 5-byte frame header is excluded everywhere) and their "paper"
bits, the quantities the cost formulas charge, and parses no payload:
serve_global decodes each received frame once and counts its paper bits
from what it sent or decoded, 32 per parameter or gradient value, 32 + L
per codebook entry (a degree and a code), none for hello and done.
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
from .network import NetworkParams, init_network, param_count, validate_spec
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
# a payload's first receive buffer; it doubles as bytes arrive
_FIRST_BUFFER = 1 << 20

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


def _recv_into(sock, buffer, after: int = 0) -> None:
    """Fill ``buffer`` from the socket, or raise ProtocolError counting the
    bytes short, the ``after`` bytes the frame holds past it included."""
    view = memoryview(buffer)
    got = 0
    while got < len(view):
        try:
            n = sock.recv_into(view[got:])
        except OSError as exc:  # timed out or reset: the peer broke off
            raise ProtocolError(f"receive failed ({len(view) - got + after} bytes short): {exc!r}") from exc
        if not n:
            raise ProtocolError(f"connection closed mid-frame ({len(view) - got + after} bytes short)")
        got += n


def expect_frame(sock, want_tag: int) -> bytearray:
    """The payload of the next frame, which must carry ``want_tag``. The
    header is checked before any payload is read: another tag or a length
    past the frame limit (a hello's size, 0 for done) is refused at once, so
    a peer that speaks another protocol costs neither an allocation nor a
    wait. The payload is a new bytearray of its own, received in place, so
    what is decoded from it as views stays valid whatever frames follow. It
    starts at ``_FIRST_BUFFER`` bytes and doubles as they arrive, so a
    length that no bytes follow costs no more than that."""
    header = bytearray(_FRAME_HEADER.size)
    _recv_into(sock, header)
    tag, length = _FRAME_HEADER.unpack(header)
    if tag != want_tag:
        raise ProtocolError(f"expected frame tag 0x{want_tag:02x}, got 0x{tag:02x}")
    if length > _MAX_LENGTH.get(tag, _MAX_PAYLOAD - 1):
        raise ProtocolError(f"declared payload of {length} bytes exceeds the frame limit")
    payload = bytearray(min(length, _FIRST_BUFFER))
    _recv_into(sock, payload, length - len(payload))
    while len(payload) < length:
        got = len(payload)
        payload += bytes(min(got, length - got))
        _recv_into(sock, memoryview(payload)[got:], length - len(payload))
    return payload


def config_digest(cfg: TrainingConfig, spec) -> bytes:
    """SHA-256 of the config and layer specs' repr, which names every round,
    batch and seed setting and every layer's widths and activation."""
    return hashlib.sha256(repr((cfg, tuple(spec))).encode()).digest()


def write_blob(values, trailer: bytes = b"") -> bytearray:
    """One buffer, written in place: ``values`` as big-endian float32, then
    ``trailer`` (the gradient frame's loss)."""
    n = len(values)
    blob = bytearray(4 * n + len(trailer))
    np.frombuffer(blob, dtype=">f4", count=n)[:] = values
    blob[4 * n :] = trailer
    return blob


def serialize_params(params: NetworkParams) -> bytearray:
    return write_blob(params.values)


def serialize_values(params: NetworkParams, values, trailer: bytes = b"") -> bytearray:
    """A flat vector of ``params``' length (a gradient) as a blob, then
    ``trailer``; a vector of another shape raises ShapeError."""
    values = np.asarray(values, dtype=np.float64)
    if values.shape != params.values.shape:
        raise ShapeError(f"values have shape {values.shape}, expected {params.values.shape}")
    return write_blob(values, trailer)


def read_blob(data, n: int, trailer: int = 0) -> np.ndarray:
    """The ``n`` values of a serialized blob as a big-endian float32 view of
    ``data``; ``trailer`` bytes follow them (the gradient frame's loss). The
    one check of a blob's length."""
    size = len(data) - trailer
    if size != 4 * n:
        raise ShapeError(f"value section has {size} bytes, expected {4 * n}")
    return np.frombuffer(data, dtype=">f4", count=n)


def deserialize_params(data, layers) -> NetworkParams:
    """The parameters of the network of ``layers`` from their serialized values."""
    return NetworkParams(layers, read_blob(data, param_count(layers)).astype(np.float64))


def _decode_gradient(payload, n: int):
    """A gradient of ``n`` values as a big-endian float32 view of
    ``payload``, and the site's batch loss. A NaN or infinity in either is
    refused: the merge would carry it into every site's parameters."""
    grad = read_blob(payload, n, _LOSS_TRAILER.size)
    (loss,) = _LOSS_TRAILER.unpack_from(payload, 4 * n)
    if not np.isfinite(grad).all():
        i = np.flatnonzero(~np.isfinite(grad))[0]
        raise ShapeError(f"gradient value {i} is {grad[i]}, not finite")
    if not np.isfinite(loss):
        raise ShapeError(f"batch loss is {loss}, not finite")
    return grad, loss


class TrafficMeter:
    """Frames, physical bits and paper bits of one protocol run, tallied by
    frame tag. It reads no payload: ``record`` is handed a frame's paper
    bits by the coordinator, which counts them from what it sent or decoded."""

    def __init__(self):
        self.frames, self.physical, self.paper = Counter(), Counter(), Counter()

    def record(self, tag: int, payload, paper_bits: int = 0) -> None:
        self.frames[tag] += 1
        self.physical[tag] += 8 * len(payload)
        self.paper[tag] += paper_bits

    @property
    def paper_bits(self) -> int:
        return sum(self.paper.values())

    @property
    def physical_bits(self) -> int:
        return sum(self.physical.values())


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
    meter = TrafficMeter()

    def broadcast(tag, payload, paper_bits=0):
        for conn in conns:
            send_frame(conn, tag, payload)
            meter.record(tag, payload, paper_bits)

    def collect(tag, decode, paper_bits):
        out = []
        for site, conn in enumerate(conns):
            payload = expect_frame(conn, tag)
            try:
                out.append(decode(payload, site))
            except (ShapeError, InvalidSpecError) as exc:
                raise ProtocolError(f"site {site} sent a malformed frame 0x{tag:02x}: {exc}") from exc
            meter.record(tag, payload, paper_bits(out[-1]))
        return out

    def exchange(params, _round):
        n = params.values.size
        broadcast(TAG_PARAMS, serialize_params(params), 32 * n)
        gradients = collect(TAG_GRADIENT, lambda payload, _site: _decode_gradient(payload, n), lambda g: 32 * g[0].size)
        return zip(*gradients)

    try:
        check_positive_finite(timeout, "timeout")
        params = init_network(spec, cfg.seed)
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
        broadcast(TAG_PARAMS, serialize_params(params), 32 * params.values.size)
        books = collect(
            TAG_CODES,
            lambda payload, site: decode_codes_payload(payload, params.code_length, origin=f"site{site}"),
            lambda book: len(book) * (32 + book.code_length),
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
    failure surfaces as ProtocolError once the coordinator returns or fails;
    when the coordinator failed too, its reason leads the message.
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
    coordinator = None
    try:
        return serve_global(listener, spec, cfg, timeout=timeout)
    except Exception as exc:
        coordinator = exc
        raise
    finally:
        # short joins: a coordinator failure closes every connection, and
        # after success every site has had DONE
        for t in threads:
            t.join(timeout=1.0)
        if failures and coordinator is None:
            raise ProtocolError(f"site thread failed: {failures[0]!r}") from failures[0]
        if failures:
            raise ProtocolError(f"{coordinator}; site thread failed: {failures[0]!r}") from coordinator


def parse_endpoint(text: str):
    """Split "host:port"; the port is a number in [0, 65535] (a resolver
    would wrap a larger one). Port 0 asks the OS for a free port, so only a
    listen endpoint may take it; the config refuses it for wire.connect. An
    IPv6 host may be bracketed, "[::1]:80", and loses its brackets."""
    host, sep, port = text.rpartition(":")
    if host.startswith("[") and host.endswith("]"):
        host = host[1:-1]
    if not sep or not host:
        raise InvalidSpecError(f"endpoint must look like host:port, got {text!r}")
    if not (port.isascii() and port.isdigit()) or int(port) > 65535:
        raise InvalidSpecError(f"port of endpoint {text!r} is not a number in [0, 65535]")
    return host, int(port)
