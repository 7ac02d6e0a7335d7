"""Impact-quantized inverted index with exact top-k retrieval.

Impacts are linearly quantized against the collection-wide maximum
weight (floor 1 so no posting vanishes), doc ordinals are Elias-Fano coded
per posting list and numbered doc ids are stored as runs.

Scoring is term-at-a-time into a dense float64 accumulator. In memory, a
posting list dense enough that a full-length impact row costs no more
bytes than its ordinals plus impacts is also held as that row (0 marks an
absent doc), and is scored by whole-row multiply-adds; sparser lists are
scattered by ordinal. Top-k partitions the scores at the k-th largest and
sorts only the candidates at or above it. Learned sparse weights make most
lists dense, which favours this exhaustive accumulation (Mackenzie, Trotman
& Lin, "Wacky Weights in Learned Sparse Representations and the Revenge of
Score-at-a-Time Query Evaluation", 2021). The rows change neither the
rankings nor the file format.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass

import numpy as np

from ._kernels import varint_decode, varint_encode
from .splade import SparseRep

MAGIC = b"CSPIDX2"
_HEADER = struct.Struct("<IIBf")  # vocab_size, doc_count, bits, scale (13 bytes)


class IndexFormatError(ValueError):
    pass


@dataclass
class PostingList:
    term_id: int
    ordinals: np.ndarray   # strictly increasing uint32
    impacts: np.ndarray    # uint8/uint16 or float32 when unquantized


class InvertedIndex:
    def __init__(self, vocab_size, bits, scale, doc_ids, postings):
        self.vocab_size = vocab_size
        self.bits = bits
        self.scale = scale
        self.doc_ids = list(doc_ids)
        self.postings = postings  # dict term_id -> PostingList
        # term_id -> full-length impact row, for lists where the row is no
        # larger than ordinals (4 bytes each) plus impacts (w bytes each)
        self.rows = {}
        for t, plist in postings.items():
            w = plist.impacts.itemsize
            if len(plist.ordinals) * (4 + w) >= self.doc_count * w:
                row = np.zeros(self.doc_count, dtype=plist.impacts.dtype)
                row[plist.ordinals] = plist.impacts
                self.rows[t] = row

    @property
    def doc_count(self):
        return len(self.doc_ids)

    def dequant_factor(self):
        if self.bits == 0:
            return 1.0
        return self.scale / (2 ** self.bits - 1)


def _impact_dtype(bits):
    return {0: np.float32, 8: np.uint8, 16: np.uint16}[bits]


def build_index(reps, bits=8) -> InvertedIndex:
    """reps: iterable of (doc_id, SparseRep); ordinals follow input order."""
    if bits not in (0, 8, 16):
        raise ValueError(f"bits must be 0, 8 or 16, got {bits}")
    doc_ids = []
    seen = set()
    term_docs = {}
    term_weights = {}
    vocab_size = None
    max_weight = 0.0
    for doc_id, rep in reps:
        if doc_id in seen:
            raise ValueError(f"duplicate doc id {doc_id!r}")
        seen.add(doc_id)
        ordinal = len(doc_ids)
        doc_ids.append(doc_id)
        if vocab_size is None:
            vocab_size = rep.vocab_size
        elif rep.vocab_size != vocab_size:
            raise ValueError("mixed vocab sizes in one index")
        if len(rep):
            max_weight = max(max_weight, float(rep.weights.max()))
        for t, w in zip(rep.term_ids, rep.weights):
            term_docs.setdefault(int(t), []).append(ordinal)
            term_weights.setdefault(int(t), []).append(float(w))

    scale = max_weight if max_weight > 0 else 1.0
    dtype = _impact_dtype(bits)
    postings = {}
    for t in sorted(term_docs):
        ords = np.array(term_docs[t], dtype=np.uint32)
        weights = np.array(term_weights[t], dtype=np.float64)
        if bits == 0:
            impacts = weights.astype(np.float32)
        else:
            q = np.maximum(1, np.round(weights / scale * (2 ** bits - 1)))
            impacts = q.astype(dtype)
        postings[t] = PostingList(t, ords, impacts)
    return InvertedIndex(vocab_size if vocab_size is not None else 0,
                         bits, float(scale), doc_ids, postings)


@dataclass
class SearchResult:
    doc_ids: list
    scores: np.ndarray

    def __len__(self):
        return len(self.doc_ids)

    def ranking(self):
        return list(zip(self.doc_ids, self.scores))


def search(index: InvertedIndex, q: SparseRep, k: int) -> SearchResult:
    """Exact top-k by dot product over dequantized impacts.

    Ties break by ascending doc ordinal. Docs with score 0 are never
    returned, so an empty query rep yields an empty result.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if index.vocab_size and q.vocab_size != index.vocab_size:
        raise ValueError(f"vocab mismatch: query {q.vocab_size} vs index {index.vocab_size}")
    acc = np.zeros(index.doc_count, dtype=np.float64)
    buf = np.empty_like(acc)
    factor = np.float64(index.dequant_factor())
    # per posting: acc += qw * (impact * factor), so both forms sum the same
    # float64 values in the same order; an absent doc in a row adds +0.0
    for t, qw in zip(q.term_ids, q.weights):
        t, qw = int(t), float(qw)
        row = index.rows.get(t)
        if row is not None:
            np.multiply(row, factor, out=buf)
            buf *= qw
            acc += buf
            continue
        plist = index.postings.get(t)
        if plist is not None:
            np.add.at(acc, plist.ordinals, qw * (plist.impacts.astype(np.float64) * factor))
    cand = np.flatnonzero(acc > 0)
    if cand.size == 0:
        return SearchResult([], np.empty(0))
    scores = acc[cand]
    if cand.size > k:
        # keep every score tied with the k-th largest, so the sort below
        # still breaks those ties by ordinal
        keep = scores >= np.partition(scores, cand.size - k)[cand.size - k]
        cand, scores = cand[keep], scores[keep]
    # sort by (-score, ordinal); lexsort uses the last key as primary
    order = np.lexsort((cand, -scores))[:k]
    chosen = cand[order]
    return SearchResult([index.doc_ids[i] for i in chosen], acc[chosen])


# --- serialization ---
#
# File layout (all integers little-endian):
#   MAGIC | vocab_size u32, doc_count u32, bits u8, scale f32
#   | doc table | n_lists u32
#   | per list, in ascending term order: varint term gap, varint count,
#     Elias-Fano ordinals, count impacts of the index's width
#
# The doc table is a sequence of records until doc_count ids are read.
# A record starts with a varint h. Even h: a literal id of h >> 1 UTF-8
# bytes follows. Odd h: a run of h >> 1 ids `<prefix><n>, <prefix><n+1>,
# ...` follows as varint prefix length, prefix bytes, varint first n.
# A list's term gap is its term id minus the previous list's term id minus
# one, with -1 before the first list, so term ids strictly increase.

_NUMBERED = re.compile(r"(.*?)([0-9]+)", re.S)
_MAX_RUN_DIGITS = 19  # run numbers stay below 2**64, the varint range


def _uvarints(*values):
    return varint_encode(np.array(values, dtype=np.uint64))


def _split_numbered(doc_id):
    """(prefix, n) if doc_id is prefix + n in canonical decimal, else None."""
    m = _NUMBERED.fullmatch(doc_id)
    if m is None:
        return None
    digits = m[2]
    if len(digits) > _MAX_RUN_DIGITS or (len(digits) > 1 and digits[0] == "0"):
        return None
    return m[1], int(digits)


def _doc_table_bytes(doc_ids):
    chunks = []
    i = 0
    while i < len(doc_ids):
        parts = _split_numbered(doc_ids[i])
        j = i + 1
        if parts is not None:
            prefix, first = parts
            while j < len(doc_ids) and doc_ids[j] == f"{prefix}{first + j - i}":
                j += 1
        if j - i == 1:
            raw = doc_ids[i].encode("utf-8")
            chunks.extend((_uvarints(2 * len(raw)), raw))
        else:
            raw = prefix.encode("utf-8")
            chunks.extend((_uvarints(2 * (j - i) + 1, len(raw)), raw, _uvarints(first)))
        i = j
    return b"".join(chunks)


def _ef_layout(count, universe):
    """(low bits, low bytes, high bytes) of an Elias-Fano list of `count`
    strictly increasing values below `universe`.

    The list stores y_i = x_i - i, which is non-decreasing and below
    universe - count + 1; each y_i keeps its `low` lowest bits verbatim and
    codes y_i >> low in unary as a set bit at position (y_i >> low) + i.
    """
    if count == 0:
        return 0, 0, 0
    span = universe - count + 1
    low = max(0, (span // count).bit_length() - 1)  # floor(log2(span / count))
    high_bits = count + ((span - 1) >> low)
    return low, (count * low + 7) // 8, (high_bits + 7) // 8


def ef_encode(values, universe) -> bytes:
    """Elias-Fano code strictly increasing ints in [0, universe)."""
    values = np.asarray(values, dtype=np.int64)
    n = values.size
    if n and (values[0] < 0 or values[-1] >= universe or (np.diff(values) <= 0).any()):
        raise ValueError("ef_encode needs strictly increasing values below universe")
    low, _, high_bytes = _ef_layout(n, universe)
    y = values - np.arange(n)
    low_bits = ((y[:, None] >> np.arange(low)) & 1).astype(np.uint8)
    high = np.zeros(high_bytes * 8, dtype=np.uint8)
    high[(y >> low) + np.arange(n)] = 1
    return (np.packbits(low_bits.ravel(), bitorder="little").tobytes()
            + np.packbits(high, bitorder="little").tobytes())


def ef_decode(buf, count, universe, offset=0):
    """Decode `count` Elias-Fano values at byte `offset`; returns
    (uint32 values, end). Raises IndexFormatError unless the bytes hold
    `count` strictly increasing values below `universe`."""
    low, low_bytes, high_bytes = _ef_layout(count, universe)
    end = offset + low_bytes + high_bytes
    if end > len(buf):
        raise IndexFormatError(f"truncated Elias-Fano list at byte {offset}")
    if count == 0:
        return np.empty(0, dtype=np.uint32), end
    raw = np.frombuffer(buf, dtype=np.uint8, count=low_bytes + high_bytes, offset=offset)
    low_bits = np.unpackbits(raw[:low_bytes], count=count * low, bitorder="little")
    lows = low_bits.reshape(count, low).astype(np.int64) @ (1 << np.arange(low))
    ones = np.flatnonzero(np.unpackbits(raw[low_bytes:], bitorder="little"))
    if ones.size != count:
        raise IndexFormatError(f"Elias-Fano upper bits at byte {offset + low_bytes} "
                               f"hold {ones.size} values, expected {count}")
    rank = np.arange(count)
    values = (((ones - rank) << low) | lows) + rank
    if values[-1] >= universe or (np.diff(values) <= 0).any():
        raise IndexFormatError(f"Elias-Fano list at byte {offset} is not strictly "
                               f"increasing below {universe}")
    return values.astype(np.uint32), end


def _postings_bytes(index):
    chunks = [struct.pack("<I", len(index.postings))]
    prev = -1
    for t in sorted(index.postings):
        plist = index.postings[t]
        chunks.append(_uvarints(t - prev - 1, len(plist.ordinals)))
        prev = t
        chunks.append(ef_encode(plist.ordinals, index.doc_count))
        chunks.append(np.ascontiguousarray(plist.impacts).tobytes())
    return b"".join(chunks)


def _index_bytes(index):
    return b"".join((MAGIC,
                     _HEADER.pack(index.vocab_size, index.doc_count, index.bits, index.scale),
                     _doc_table_bytes(index.doc_ids),
                     _postings_bytes(index)))


def serialize(index: InvertedIndex, path):
    with open(path, "wb") as f:
        f.write(_index_bytes(index))


def index_size_bytes(index: InvertedIndex) -> int:
    """Exact serialized size without writing."""
    return len(_index_bytes(index))


def _read_varints(blob, count, pos):
    try:
        values, end = varint_decode(blob, count, pos)
    except ValueError:
        raise IndexFormatError(f"truncated or overlong varint at byte {pos}") from None
    return [int(v) for v in values], end


def _read_text(blob, pos, n, what):
    if pos + n > len(blob):
        raise IndexFormatError(f"truncated {what} at byte {pos}")
    try:
        return blob[pos: pos + n].decode("utf-8"), pos + n
    except UnicodeDecodeError:
        raise IndexFormatError(f"invalid UTF-8 in {what} at byte {pos}") from None


def _read_doc_table(blob, pos, doc_count):
    doc_ids = []
    while len(doc_ids) < doc_count:
        start = pos
        (h,), pos = _read_varints(blob, 1, pos)
        if not h & 1:
            doc_id, pos = _read_text(blob, pos, h >> 1, "doc id")
            doc_ids.append(doc_id)
            continue
        length = h >> 1
        (n,), pos = _read_varints(blob, 1, pos)
        prefix, pos = _read_text(blob, pos, n, "doc-id run prefix")
        (first,), pos = _read_varints(blob, 1, pos)
        if not 2 <= length <= doc_count - len(doc_ids):
            raise IndexFormatError(f"malformed doc-id run of length {length} at byte {start}")
        doc_ids.extend(f"{prefix}{first + i}" for i in range(length))
    if len(set(doc_ids)) != len(doc_ids):
        raise IndexFormatError(f"duplicate doc id in doc table ending at byte {pos}")
    return doc_ids, pos


def deserialize(path) -> InvertedIndex:
    with open(path, "rb") as f:
        blob = f.read()
    if blob[: len(MAGIC)] != MAGIC:
        raise IndexFormatError(f"bad magic at byte 0 in {path}")
    pos = len(MAGIC)
    try:
        vocab_size, doc_count, bits, scale = _HEADER.unpack_from(blob, pos)
    except struct.error:
        raise IndexFormatError(f"truncated header at byte {pos}") from None
    if bits not in (0, 8, 16):
        raise IndexFormatError(f"bad impact width {bits} at byte {pos + 8}")
    pos += _HEADER.size
    doc_ids, pos = _read_doc_table(blob, pos, doc_count)
    if pos + 4 > len(blob):
        raise IndexFormatError(f"truncated posting-list count at byte {pos}")
    (n_lists,) = struct.unpack_from("<I", blob, pos)
    pos += 4
    postings = {}
    dtype = _impact_dtype(bits)
    width = np.dtype(dtype).itemsize
    t = -1
    for _ in range(n_lists):
        start = pos
        (gap, count), pos = _read_varints(blob, 2, pos)
        t += gap + 1
        if t >= vocab_size:
            raise IndexFormatError(f"term id {t} >= vocab size {vocab_size} at byte {start}")
        if not 1 <= count <= doc_count:
            raise IndexFormatError(f"posting count {count} outside 1..{doc_count} at byte {start}")
        ords, pos = ef_decode(blob, count, doc_count, pos)
        if pos + count * width > len(blob):
            raise IndexFormatError(f"truncated impacts at byte {pos}")
        impacts = np.frombuffer(blob, dtype=dtype, count=count, offset=pos).copy()
        pos += count * width
        postings[t] = PostingList(t, ords, impacts)
    if pos != len(blob):
        raise IndexFormatError(f"trailing bytes at offset {pos}")
    return InvertedIndex(vocab_size, bits, scale, doc_ids, postings)


# --- TREC run format ---

def write_run(path, run, tag="csplade"):
    """run: dict qid -> SearchResult (or list of (docid, score))."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for qid, result in run.items():
            pairs = result.ranking() if isinstance(result, SearchResult) else result
            for rank, (docid, score) in enumerate(pairs, 1):
                f.write(f"{qid} Q0 {docid} {rank} {score:.6f} {tag}\n")


def read_run(path):
    run = {}
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 6:
                raise IndexFormatError(f"{path}:{lineno}: expected 6 run columns")
            qid, _, docid, _, score, _ = parts
            run.setdefault(qid, []).append((docid, float(score)))
    return run
