import struct

import numpy as np
import pytest

from hashclust import codebook
from hashclust.codebook import (
    Codebook,
    CodebookEntry,
    decode_codes_payload,
    encode_codes_payload,
    encode_shard,
    merge_codebooks,
)
from hashclust.errors import InconsistentStateError, ShapeError
from hashclust.network import (
    HashCode,
    NetworkParams,
    binarize_batch,
    forward,
    init_network,
    mlp_spec,
)

from oracles import codebook_of, pack_bits_batch, packed, sorted_book, unpacked, word_bytes


def code(*bits):
    return np.array(bits, dtype=np.int8)


def book(entries, origin="site"):
    return sorted_book(entries, origin)


def by_code(b):
    """A book of distinct codes as {packed code: degree}."""
    return dict(zip(word_bytes(b.codes, b.code_length), b.degrees.tolist()))


def empty_book(origin):
    return Codebook.from_arrays(np.zeros((0, 1), dtype=np.uint64), np.zeros(0, dtype=np.int64), 2, origin)


def entry(bits, degree):
    """One entry of the boundary form."""
    return CodebookEntry(HashCode(packed=packed(bits), length=len(bits)), degree)


def trained_params(seed=0, dim=3, length=4):
    return init_network(mlp_spec(dim, (dim,), length), seed)


# --- encode_shard ---

def test_zero_net_single_entry():
    params = trained_params()
    zero = NetworkParams(layers=params.layers, values=np.zeros_like(params.values))
    x = np.random.default_rng(0).normal(size=(7, 3))
    cb, sample_map = encode_shard(zero, x)
    assert len(cb) == 1
    assert cb.degrees.tolist() == [7]
    assert list(unpacked(word_bytes(cb.codes, 4)[0], 4)) == [1, 1, 1, 1]
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
    for entry_idx, (code_bytes, degree) in enumerate(zip(word_bytes(cb.codes, 4), cb.degrees)):
        members = [i for i in range(25) if packed[i] == code_bytes]
        assert degree == len(members)
        assert all(sample_map[i] == entry_idx for i in members)
    assert cb.total_degree == 25


def test_encode_idempotent():
    params = trained_params(seed=3)
    x = np.random.default_rng(3).normal(size=(12, 3))
    a, _ = encode_shard(params, x)
    b, _ = encode_shard(params, x)
    assert a == b


def test_encode_empty_shard():
    with pytest.raises(ShapeError, match="^cannot encode an empty shard$"):
        encode_shard(trained_params(), np.zeros((0, 3)))


# --- merge ---

def test_merge_hand_example():
    c1, c2, c2_again = code(1, 1, -1, 1), code(-1, 1, 1, 1), code(-1, 1, 1, 1)
    merged = merge_codebooks([book([(c1, 3), (c2, 5)]), book([(c2_again, 2)])])
    assert by_code(merged) == {packed(c1): 3, packed(c2): 7}
    assert merged.origin == "global"
    assert len(merged) == 2


def test_merge_with_duplicate_of_itself_doubles():
    b = book([(code(1, -1), 4), (code(-1, 1), 2)])
    merged = merge_codebooks([b, b])
    assert by_code(merged) == {c: 2 * d for c, d in by_code(b).items()}


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
    with pytest.raises(InconsistentStateError, match="^codebooks have mixed code lengths$"):
        merge_codebooks([a, b])


def test_book_of_mixed_code_lengths_rejected():
    with pytest.raises(InconsistentStateError, match="^codebook entries have mixed code lengths$"):
        Codebook((entry(code(1, 1), 1), entry(code(1, 1, 1), 1)))


def test_merge_empty_book_rejected():
    empty = empty_book("site1")
    with pytest.raises(InconsistentStateError, match="^codebook 'site1' has no entries$"):
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
    assert back.degrees.tolist() == [16777215]


def test_payload_carries_a_degree_of_two_to_the_24_and_refuses_one_more():
    assert codebook.MAX_DEGREE == 2 ** 24
    b = book([(code(1, -1), 2 ** 24)])
    assert decode_codes_payload(encode_codes_payload(b), 2, origin="site") == b
    # float32 would round 2**24 + 1 to 2**24; code (1, -1) sorts after (-1, 1)
    over = book([(code(-1, 1), 3), (code(1, -1), 2 ** 24 + 1)])
    with pytest.raises(ShapeError, match=r"entry 1 has degree 16777217, not an integer in \[1, 16777216\]"):
        encode_codes_payload(over)


@pytest.mark.parametrize("degree", [float("nan"), -3.0, 2.5, 2.0 ** 25, pytest.param(None, id="no_entries")])
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
    b = codebook_of([packed, other], [3, 5], length, origin="site")
    back = decode_codes_payload(encode_codes_payload(b), length, origin=b.origin)
    assert back == b
    assert word_bytes(back.codes, length) == [packed, other]
    assert back.degrees.dtype == np.int64


def test_payload_of_three_with_an_all_minus_one_code_is_the_documented_layout():
    b = book([(code(1, -1, 1, -1, 1), 7), (code(-1, -1, -1, -1, -1), 2), (code(1, 1, 1, 1, 1), 1)])
    blob = encode_codes_payload(b)
    # count, then per entry a big-endian float32 degree and the packed code
    layout = b"".join(struct.pack(">f", d) + c for c, d in zip(word_bytes(b.codes, 5), b.degrees.tolist()))
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


def test_payload_code_with_padding_bits_set_is_refused():
    # an L=5 code uses the top 5 bits of its byte; 0x01 sets a padding bit
    blob = struct.pack(">I", 1) + struct.pack(">f", 1) + b"\x01"
    with pytest.raises(ShapeError, match="entry 0 has padding bits set"):
        decode_codes_payload(blob, 5)


def test_payload_bad_padding_names_its_entry():
    blob = bytearray(encode_codes_payload(book([(code(1, -1, -1), 1), (code(1, 1, -1), 2), (code(-1, 1, 1), 3)])))
    blob[4 + 2 * 5 + 4] |= 0x10  # entry 2's code byte, bit 5 of 3 used
    with pytest.raises(ShapeError, match="entry 2 has padding bits set"):
        decode_codes_payload(bytes(blob), 3)


@pytest.mark.parametrize("length", [1, 13, 65, 128])
def test_entries_payload_entries_round_trip(length):
    rng = np.random.default_rng(length)
    bits = rng.choice([-1, 1], size=(6, length))
    entries = tuple(entry(row, d) for row, d in zip(bits, range(1, 7)))
    b = Codebook(entries, origin="site1")
    assert b.codes.dtype == np.uint64 and b.codes.shape == (6, -(-length // 64))
    assert word_bytes(b.codes, length) == [e.code.packed for e in entries]
    blob = encode_codes_payload(b)
    assert blob[4:] == b"".join(struct.pack(">f", e.degree) + e.code.packed for e in entries)
    back = decode_codes_payload(blob, length, origin="site1")
    assert back == b and back.entries == entries
    assert all(type(e.degree) is int for e in back.entries)


def test_payload_codes_of_another_byte_count_are_refused_naming_the_entry():
    # two 16-bit codes take 2 bytes each; a 5-bit code takes 1
    blob = encode_codes_payload(codebook_of([b"\x12\x34", b"\xab\xcd"], [1, 2], 16))
    with pytest.raises(ShapeError, match="entry 0 has 2 code bytes, expected 1 for 5 bits"):
        decode_codes_payload(blob, 5)


@pytest.mark.parametrize(
    "code_bytes, message",
    [(b"\x01", "entry 1 has padding bits set in its packed code"),
     (b"\xa8\x00", "entry 1 has 2 code bytes, expected 1 for 5 bits"),
     (b"", "entry 1 has 0 code bytes, expected 1 for 5 bits")],
    ids=["padding_bit", "long", "short"],
)
def test_entries_with_a_bad_packed_code_are_refused_naming_the_entry(code_bytes, message):
    entries = (entry(code(1, -1, 1, -1, 1), 1), CodebookEntry(HashCode(packed=code_bytes, length=5), 2))
    with pytest.raises(ShapeError, match=message):
        Codebook(entries)


def test_entries_of_a_code_length_below_one_are_refused():
    with pytest.raises(ShapeError, match="code length must be >= 1"):
        Codebook((CodebookEntry(HashCode(packed=b"", length=0), 1),))


def test_payload_and_entries_check_their_codes_in_one_function(monkeypatch):
    lengths = []
    check = codebook.checked_code_words

    def counting(codes, length):
        lengths.append(length)
        return check(codes, length)

    monkeypatch.setattr(codebook, "checked_code_words", counting)
    b = Codebook((entry(code(1, -1, 1), 2),))
    assert decode_codes_payload(encode_codes_payload(b), 3) == b
    assert lengths == [3, 3]


@pytest.mark.parametrize("length", [0, -3, -9])
def test_payload_of_a_code_length_below_one_is_refused(length):
    with pytest.raises(ShapeError, match="code length must be >= 1"):
        decode_codes_payload(struct.pack(">I", 1) + struct.pack(">f", 1), length)


def test_payload_of_an_empty_book_is_refused():
    with pytest.raises(ShapeError, match="codebook has no entries"):
        encode_codes_payload(empty_book("site0"))


# a payload as a site could send it: codes out of order, one code twice
UNSORTED = [(code(1, 1, -1, 1, -1), 2), (code(-1, 1, 1, -1, -1), 3), (code(1, 1, -1, 1, -1), 4),
            (code(-1, -1, -1, -1, 1), 1)]


def unsorted_payload():
    return struct.pack(">I", len(UNSORTED)) + b"".join(
        struct.pack(">f", d) + packed(c) for c, d in UNSORTED
    )


def test_payload_with_unsorted_repeated_codes_decodes_in_payload_order():
    back = decode_codes_payload(unsorted_payload(), 5, origin="site3")
    assert word_bytes(back.codes, 5) == [packed(c) for c, _ in UNSORTED]
    assert back.degrees.tolist() == [2, 3, 4, 1] and back.total_degree == 10
    assert back.origin == "site3" and back.code_length == 5 and len(back) == 4


def test_payload_with_unsorted_repeated_codes_merges_like_its_clean_twin():
    decoded = decode_codes_payload(unsorted_payload(), 5, origin="site3")
    twin = book([(UNSORTED[0][0], 6), (UNSORTED[1][0], 3), (UNSORTED[3][0], 1)], origin="global")
    assert merge_codebooks([decoded]) == twin
    assert merge_codebooks([decoded]) == merge_codebooks([decode_codes_payload(encode_codes_payload(twin), 5)])
