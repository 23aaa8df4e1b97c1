"""Code extraction and degree counting.

After training, every local sample maps to a code; duplicate codes collapse
to one codebook entry carrying a degree (how many samples it represents).
Sites ship (code, degree) pairs to the coordinator, which merges them by
summing degrees. Only this small codebook crosses the wire, never the data.

Transmission accounting charges 32 bits per degree (sent as float32) plus L
bits per code. The wire payload additionally pads codes to byte boundaries
and carries an entry count; those overhead bits are reported separately as
"physical" bits and never enter the formula-level ledger.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import EmptyShardError, IncompatibleCodebooksError, ShapeError
from .network import HashCode, NetworkParams, forward, group_codes


@dataclass(frozen=True)
class CodebookEntry:
    code: HashCode
    degree: int


@dataclass(frozen=True)
class Codebook:
    """Deduplicated codes with degrees; entries sorted by packed code bytes."""

    entries: tuple
    origin: str = "global"

    @property
    def code_length(self) -> int:
        return self.entries[0].code.length

    @property
    def total_degree(self) -> int:
        return sum(e.degree for e in self.entries)

    def __len__(self) -> int:
        return len(self.entries)


def encode_shard(params: NetworkParams, x, origin: str = "site"):
    """Map every sample to its code; returns (Codebook, per-sample entry index)."""
    x = np.atleast_2d(np.asarray(getattr(x, "normalized", x), dtype=np.float64))
    if x.shape[0] == 0:
        raise EmptyShardError("cannot encode an empty shard")
    h, _ = forward(params, x)
    codes, sample_to_entry = group_codes(h)
    degrees = np.bincount(sample_to_entry, minlength=len(codes))
    entries = tuple(
        CodebookEntry(HashCode(packed=c.tobytes(), length=params.code_length), int(d))
        for c, d in zip(codes, degrees)
    )
    return Codebook(entries=entries, origin=origin), sample_to_entry


def merge_codebooks(books) -> Codebook:
    """Union of site codebooks; degrees add where codes coincide."""
    books = list(books)
    if not books:
        raise IncompatibleCodebooksError("no codebooks to merge")
    for book in books:
        if not book.entries:
            raise IncompatibleCodebooksError(f"codebook {book.origin!r} has no entries")
    length = books[0].code_length
    if any(b.code_length != length for b in books):
        raise IncompatibleCodebooksError("codebooks have mixed code lengths")
    # each code keeps the first book's HashCode; frozen, so sharing it is safe
    merged: dict[bytes, tuple] = {}
    for book in books:
        for e in book.entries:
            code, degree = merged.get(e.code.packed, (e.code, 0))
            merged[e.code.packed] = (code, degree + e.degree)
    entries = tuple(CodebookEntry(*merged[k]) for k in sorted(merged))
    return Codebook(entries=entries, origin="global")


# CODES_PUSH payload: 4-byte big-endian entry count, then per entry a positive
# integer degree as a big-endian IEEE-754 float32 and ceil(L/8) packed code bytes.

def _entry_dtype(code_length: int) -> np.dtype:
    """One payload entry as a record: the degree, then the packed code."""
    # a void field keeps a code's trailing zero bytes, which an "S" field strips
    return np.dtype([("degree", ">f4"), ("code", f"V{(code_length + 7) // 8}")])


def encode_codes_payload(book: Codebook) -> bytes:
    rows = [(e.degree, e.code.packed) for e in book.entries]
    return struct.pack(">I", len(book)) + np.array(rows, dtype=_entry_dtype(book.code_length)).tobytes()


def decode_codes_payload(data: bytes, code_length: int, origin: str = "global") -> Codebook:
    entry = _entry_dtype(code_length)
    if len(data) < 4:
        raise ShapeError("truncated codebook payload")
    (count,) = struct.unpack(">I", data[:4])
    if count == 0:
        # every site encodes a nonempty shard
        raise ShapeError("codebook payload has no entries, a total degree of 0")
    if len(data) != 4 + count * entry.itemsize:
        raise ShapeError(
            f"codebook payload has {len(data)} bytes, expected {4 + count * entry.itemsize}"
        )
    table = np.frombuffer(data, dtype=entry, count=count, offset=4)
    degrees = table["degree"]
    positive_integer = np.isfinite(degrees) & (degrees >= 1) & (np.floor(degrees) == degrees)
    bad = np.flatnonzero(~positive_integer)
    if bad.size:
        i = int(bad[0])
        raise ShapeError(f"codebook entry {i} has degree {float(degrees[i])}, not a positive integer")
    entries = tuple(
        CodebookEntry(HashCode(packed=code, length=code_length), int(d))
        for code, d in zip(table["code"].tolist(), degrees.tolist())
    )
    return Codebook(entries=entries, origin=origin)
