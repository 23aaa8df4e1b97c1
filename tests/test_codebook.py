import struct

import numpy as np
import pytest

from hashclust.codebook import (
    Codebook,
    CodebookEntry,
    decode_codes_payload,
    encode_codes_payload,
    encode_shard,
    merge_codebooks,
)
from hashclust.errors import EmptyShardError, IncompatibleCodebooksError, ShapeError
from hashclust.network import (
    HashCode,
    NetworkParams,
    binarize_batch,
    forward,
    init_network,
    mlp_spec,
)

from oracles import pack_bits_batch


def code(*bits):
    return HashCode.from_bits(np.array(bits))


def book(entries, origin="site"):
    ordered = tuple(
        CodebookEntry(code=c, degree=d)
        for c, d in sorted(entries, key=lambda e: e[0].packed)
    )
    return Codebook(entries=ordered, origin=origin)


def trained_params(seed=0, dim=3, length=4):
    return init_network(mlp_spec(dim, (dim,), length), seed)


# --- encode_shard ---

def test_zero_net_single_entry():
    params = trained_params()
    zero = NetworkParams(layers=params.layers, values=np.zeros_like(params.values))
    x = np.random.default_rng(0).normal(size=(7, 3))
    cb, sample_map = encode_shard(zero, x)
    assert len(cb) == 1
    assert cb.entries[0].degree == 7
    assert list(cb.entries[0].code.bits) == [1, 1, 1, 1]
    assert np.array_equal(sample_map, np.zeros(7, dtype=sample_map.dtype))


def test_encode_entry_bound():
    params = trained_params(seed=1)
    x = np.random.default_rng(1).normal(size=(30, 3))
    cb, _ = encode_shard(params, x)
    assert 1 <= len(cb) <= min(2 ** 4, 30)


def test_encode_degrees_match_bruteforce_recount():
    params = trained_params(seed=2)
    x = np.random.default_rng(2).normal(size=(25, 3))
    cb, sample_map = encode_shard(params, x)
    h, _ = forward(params, x)
    packed = pack_bits_batch(binarize_batch(h))
    for entry_idx, entry in enumerate(cb.entries):
        members = [i for i in range(25) if packed[i] == entry.code.packed]
        assert entry.degree == len(members)
        assert all(sample_map[i] == entry_idx for i in members)
    assert cb.total_degree == 25


def test_encode_idempotent():
    params = trained_params(seed=3)
    x = np.random.default_rng(3).normal(size=(12, 3))
    a, _ = encode_shard(params, x)
    b, _ = encode_shard(params, x)
    assert a == b


def test_encode_empty_shard():
    with pytest.raises(EmptyShardError):
        encode_shard(trained_params(), np.zeros((0, 3)))


# --- merge ---

def test_merge_hand_example():
    c1, c2, c2_again = code(1, 1, -1, 1), code(-1, 1, 1, 1), code(-1, 1, 1, 1)
    merged = merge_codebooks([book([(c1, 3), (c2, 5)]), book([(c2_again, 2)])])
    by_packed = {e.code.packed: e.degree for e in merged.entries}
    assert by_packed == {c1.packed: 3, c2.packed: 7}
    assert merged.origin == "global"
    # each merged code is the first site book's HashCode object
    assert {id(e.code) for e in merged.entries} == {id(c1), id(c2)}


def test_merge_with_duplicate_of_itself_doubles():
    b = book([(code(1, -1), 4), (code(-1, 1), 2)])
    merged = merge_codebooks([b, b])
    assert {e.code.packed: e.degree for e in merged.entries} == {
        e.code.packed: 2 * e.degree for e in b.entries
    }


def test_merge_disjoint_sums_entry_counts():
    a = book([(code(1, 1), 1), (code(1, -1), 2)])
    b = book([(code(-1, 1), 3)])
    assert len(merge_codebooks([a, b])) == 3


def test_merge_conserves_total_degree():
    rng = np.random.default_rng(4)
    books = []
    for seed in range(3):
        x = rng.normal(size=(15, 3))
        cb, _ = encode_shard(trained_params(seed=seed), x)
        books.append(cb)
    merged = merge_codebooks(books)
    assert merged.total_degree == sum(b.total_degree for b in books)


def test_merge_mixed_lengths_rejected():
    a = book([(code(1, 1), 1)])
    b = book([(code(1, 1, 1), 1)])
    with pytest.raises(IncompatibleCodebooksError):
        merge_codebooks([a, b])


def test_merge_empty_book_rejected():
    empty = Codebook(entries=(), origin="site1")
    with pytest.raises(IncompatibleCodebooksError, match="'site1' has no entries"):
        merge_codebooks([book([(code(1, 1), 1)]), empty])


# --- wire payload ---

def test_payload_roundtrip():
    b = book([(code(1, -1, 1, -1, 1), 7), (code(-1, -1, 1, 1, 1), 2)])
    blob = encode_codes_payload(b)
    back = decode_codes_payload(blob, 5, origin=b.origin)
    assert back == b


def test_payload_paper_vs_physical_bits():
    b = book([(code(1, -1, 1), 1), (code(-1, 1, 1), 4), (code(1, 1, 1), 9)])
    blob = encode_codes_payload(b)
    # physical: count header + per entry 4-byte degree + 1 padded code byte
    assert len(blob) == 4 + 3 * (4 + 1)
    # paper accounting: 3 entries * (32 + 3) bits
    assert 3 * (32 + 3) < len(blob) * 8


def test_payload_rejects_truncation():
    b = book([(code(1, 1, -1), 3)])
    blob = encode_codes_payload(b)
    with pytest.raises(ShapeError):
        decode_codes_payload(blob[:-1], 3)


def test_payload_degree_survives_float32():
    b = book([(code(1, -1), 16777215)])  # max exact integer in float32 mantissa range
    back = decode_codes_payload(encode_codes_payload(b), 2, origin="site")
    assert back.entries[0].degree == 16777215


@pytest.mark.parametrize("degree", [float("nan"), -3.0, 2.5, pytest.param(None, id="no_entries")])
def test_payload_rejects_bad_degree(degree):
    good = encode_codes_payload(book([(code(1, -1), 4)]))
    if degree is None:
        blob = bytes(4)  # an entry count of 0 and nothing after it
    else:
        blob = good[:4] + np.array([degree], dtype=">f4").tobytes() + good[8:]
    with pytest.raises(ShapeError, match="degree"):
        decode_codes_payload(blob, 2)


@pytest.mark.parametrize(
    "packed, other, length",
    [(b"\x00", b"\xf8", 5), (b"\x12\x00", b"\xff\xff", 16)],
    ids=["L5_all_minus_one", "L16_0x1200"],
)
def test_payload_roundtrip_keeps_trailing_zero_bytes(packed, other, length):
    b = book([(HashCode(packed=packed, length=length), 3), (HashCode(packed=other, length=length), 5)])
    back = decode_codes_payload(encode_codes_payload(b), length, origin=b.origin)
    assert back == b
    assert [e.code.packed for e in back.entries] == [e.code.packed for e in b.entries]
    assert all(type(e.degree) is int for e in back.entries)


def test_payload_of_three_with_an_all_minus_one_code_is_the_documented_layout():
    b = book([(code(1, -1, 1, -1, 1), 7), (code(-1, -1, -1, -1, -1), 2), (code(1, 1, 1, 1, 1), 1)])
    blob = encode_codes_payload(b)
    # count, then per entry a big-endian float32 degree and the packed code
    layout = b"".join(struct.pack(">f", e.degree) + e.code.packed for e in b.entries)
    assert blob == struct.pack(">I", 3) + layout
    assert blob[4 + 4] == 0x00  # the all -1 code sorts first and packs to a zero byte
    assert decode_codes_payload(blob, 5, origin=b.origin) == b


@pytest.mark.parametrize("degree", [float("inf"), 0.0, 2.5])
def test_payload_bad_degree_names_its_entry(degree):
    b = book([(code(1, -1, -1), 1), (code(1, 1, -1), 2), (code(-1, 1, 1), 3), (code(1, 1, 1), 4)])
    blob = bytearray(encode_codes_payload(b))
    # entry 2 starts after the count and two entries of 4 + 1 bytes
    blob[4 + 2 * 5 : 4 + 2 * 5 + 4] = np.array([degree], dtype=">f4").tobytes()
    with pytest.raises(ShapeError, match=f"entry 2 has degree {degree},"):
        decode_codes_payload(bytes(blob), 3)
