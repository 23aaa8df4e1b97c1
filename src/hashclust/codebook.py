"""Code extraction and degree counting.

After training, every local sample maps to a code; duplicate codes collapse
to one codebook entry carrying a degree (how many samples it represents).
Sites ship (code, degree) pairs to the coordinator, which merges them by
summing degrees. Only this small codebook crosses the wire, never the data.

A Codebook holds its codes as arrays: ``codes`` one ``network.code_words``
row per code, the one in-memory form of a code, ``degrees`` the int64
degrees, row for row; ``Codebook.from_arrays`` builds one. A site's book
from ``encode_shard`` and a merged book hold distinct codes in ascending
order; a decoded book keeps its payload's order and any repeats, and only
``merge_codebooks`` sorts and sums. Both group the rows with
``network.group_words``. Packed bytes exist only in the CODES_PUSH payload
and in ``Codebook(entries)`` / ``book.entries``, the boundary form that only
the benchmark's inputs still use; ``checked_code_words`` checks them for both.

Transmission accounting charges 32 bits per degree (sent as float32, exact
up to MAX_DEGREE) plus L bits per code. The wire payload additionally pads
codes to byte boundaries and carries an entry count; those overhead bits
are reported separately as "physical" bits and never enter the ledger.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import InconsistentStateError, ShapeError
from .network import HashCode, NetworkParams, code_words, forward, group_words, output_words, packed_rows

# the largest degree a CODES_PUSH float32 carries exactly; a run refuses a
# site of more samples (pipeline.setup_run), in sim and wire alike
MAX_DEGREE = 1 << 24


@dataclass(frozen=True)
class CodebookEntry:
    code: HashCode
    degree: int


class Codebook:
    """Codes with degrees, as arrays: ``codes`` (n, ceil(L/64)) uint64
    ``network.code_words`` rows, ``degrees`` (n,) int64, ``code_length`` L
    (0 for a book with no entries) and ``origin``.

    Built by ``from_arrays``, or from a tuple of CodebookEntry, which
    ``entries`` converts back to on each read. Two books are equal when
    their origin, code length, code rows and degrees are.
    """

    def __init__(self, entries=(), origin: str = "global"):
        entries = tuple(entries)
        lengths = {e.code.length for e in entries}
        if len(lengths) > 1:
            raise InconsistentStateError("codebook entries have mixed code lengths")
        length = lengths.pop() if lengths else 0
        packed = [e.code.packed for e in entries]
        self.codes = checked_code_words(packed, length) if packed else np.zeros((0, 0), dtype=np.uint64)
        self.degrees = np.array([e.degree for e in entries], dtype=np.int64)
        self.code_length, self.origin = length, origin

    @classmethod
    def from_arrays(cls, codes, degrees, code_length: int, origin: str = "global") -> "Codebook":
        """A book straight from its arrays, unchecked; every library step builds books here."""
        book = cls.__new__(cls)
        book.codes, book.degrees, book.code_length, book.origin = codes, degrees, code_length, origin
        return book

    @property
    def entries(self) -> tuple:
        """The book as a tuple of CodebookEntry, the boundary form, built on each read."""
        return tuple(
            CodebookEntry(HashCode(packed=c.tobytes(), length=self.code_length), d)
            for c, d in zip(packed_rows(self.codes, self.code_length), self.degrees.tolist())
        )

    @property
    def total_degree(self) -> int:
        return int(self.degrees.sum())

    def __len__(self) -> int:
        return len(self.degrees)

    def __eq__(self, other):
        if not isinstance(other, Codebook):
            return NotImplemented
        return (
            (self.origin, self.code_length) == (other.origin, other.code_length)
            and np.array_equal(self.codes, other.codes)
            and np.array_equal(self.degrees, other.degrees)
        )

    def __repr__(self) -> str:
        return f"Codebook({len(self)} codes of {self.code_length} bits, origin={self.origin!r})"


def encode_shard(params: NetworkParams, x, origin: str = "site"):
    """Map every sample to its code; returns (Codebook, per-sample entry index)."""
    x = np.atleast_2d(np.asarray(getattr(x, "normalized", x), dtype=np.float64))
    if x.shape[0] == 0:
        raise ShapeError("cannot encode an empty shard")
    h, _ = forward(params, x)
    words = output_words(h)
    order, starts = group_words(words)
    degrees = np.diff(starts, append=len(order))
    sample_to_entry = np.empty(len(order), dtype=np.intp)
    sample_to_entry[order] = np.repeat(np.arange(len(starts)), degrees)
    return Codebook.from_arrays(words[order[starts]], degrees, params.code_length, origin), sample_to_entry


def merge_codebooks(books) -> Codebook:
    """Union of site codebooks; degrees add where codes coincide, codes ascend."""
    books = list(books)
    if not books:
        raise InconsistentStateError("no codebooks to merge")
    for book in books:
        if not len(book):
            raise InconsistentStateError(f"codebook {book.origin!r} has no entries")
    length = books[0].code_length
    if any(b.code_length != length for b in books):
        raise InconsistentStateError("codebooks have mixed code lengths")
    words = np.concatenate([b.codes for b in books])
    order, starts = group_words(words)
    degrees = np.add.reduceat(np.concatenate([b.degrees for b in books])[order], starts)
    return Codebook.from_arrays(words[order[starts]], degrees, length, "global")


def checked_code_words(codes, code_length: int) -> np.ndarray:
    """The ``code_words`` rows of packed codes, a uint8 array's rows or a list
    of bytes: the one check of a packed code (L >= 1, ceil(L/8) bytes, zero
    padding bits), for ``decode_codes_payload`` and ``Codebook(entries)``."""
    if code_length < 1:
        raise ShapeError("code length must be >= 1")
    width = (code_length + 7) // 8
    listed = isinstance(codes, list)
    sizes = np.array([len(c) for c in codes]) if listed else np.full(len(codes), codes.shape[1])
    bad = np.flatnonzero(sizes != width)
    if bad.size:
        i = int(bad[0])
        raise ShapeError(f"codebook entry {i} has {sizes[i]} code bytes, expected {width} for {code_length} bits")
    rows = np.frombuffer(b"".join(codes), dtype=np.uint8).reshape(-1, width) if listed else codes
    bad = np.flatnonzero(rows[:, -1] & ((1 << (8 * width - code_length)) - 1))
    if bad.size:
        raise ShapeError(f"codebook entry {int(bad[0])} has padding bits set in its packed code")
    return code_words(rows)


def _check_degrees(degrees) -> None:
    """Refuse a degree that is not an integer in [1, MAX_DEGREE], naming its entry."""
    bad = np.flatnonzero(~((degrees >= 1) & (degrees <= MAX_DEGREE) & (np.floor(degrees) == degrees)))
    if bad.size:
        i = int(bad[0])
        raise ShapeError(f"codebook entry {i} has degree {degrees[i].item()}, not an integer in [1, {MAX_DEGREE}]")


# CODES_PUSH payload: 4-byte big-endian entry count, then per entry a degree
# in [1, MAX_DEGREE] as a big-endian IEEE-754 float32 and ceil(L/8) code bytes.

def _entry_dtype(code_length: int) -> np.dtype:
    """One payload entry as a record: the degree, then the packed code."""
    # a void field keeps a code's trailing zero bytes, which an "S" field strips
    return np.dtype([("degree", ">f4"), ("code", f"V{(code_length + 7) // 8}")])


def encode_codes_payload(book: Codebook) -> bytes:
    """The CODES_PUSH payload of a book; a degree float32 would round is refused."""
    if not len(book):
        raise ShapeError("codebook has no entries")
    _check_degrees(book.degrees)
    table = np.empty(len(book), dtype=_entry_dtype(book.code_length))
    table["degree"] = book.degrees
    table.view(np.uint8).reshape(len(book), -1)[:, 4:] = packed_rows(book.codes, book.code_length)
    return struct.pack(">I", len(book)) + table.tobytes()


def decode_codes_payload(data: bytes, code_length: int, origin: str = "global") -> Codebook:
    """The book a payload carries, in payload order, repeats kept. The entry
    size follows from length and count, so the code check sees a code's bytes."""
    if len(data) < 4:
        raise ShapeError("truncated codebook payload")
    (count,) = struct.unpack(">I", data[:4])
    if count == 0:
        # every site encodes a nonempty shard
        raise ShapeError("codebook payload has no entries, a total degree of 0")
    size, rest = divmod(len(data) - 4, count)
    if rest or size < 4:
        raise ShapeError(
            f"codebook payload has {len(data)} bytes, expected {4 + count * (4 + (code_length + 7) // 8)}"
        )
    degrees = np.ndarray(count, dtype=">f4", buffer=data, offset=4, strides=(size,))
    _check_degrees(degrees)
    codes = np.frombuffer(data, dtype=np.uint8, offset=4).reshape(count, size)[:, 4:]
    return Codebook.from_arrays(checked_code_words(codes, code_length), degrees.astype(np.int64), code_length, origin)
