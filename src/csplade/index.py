"""Impact-quantized inverted index with exact top-k retrieval.

Impacts are linearly quantized against the collection-wide maximum
weight (floor 1 so no posting vanishes), doc ordinals are Elias-Fano coded
per posting list and numbered doc ids are stored as runs.

The build inverts by a counting sort, not by appending to per-term lists
(Zobel & Moffat, "Inverted files for text search engines", ACM Computing
Surveys 2006). It reads one RepsBatch: flat arrays of term ids (in the
narrowest unsigned type that holds the vocabulary) and float32 weights in
doc order. Counting the term ids, a bincount per block, gives the start of
every posting list in one array of uint32 doc ordinals and one of impacts,
with one count per term id up to the largest present. The postings
are then placed one block of POSTING_BLOCK at a time: each block is
stably argsorted by term, quantized in float64 and written after the
earlier blocks' postings of the same terms, so every list keeps its
ordinals increasing and is a view into those two arrays. Memory is the
batch, the two output arrays and one block's temporaries.

Search is exact and runs in two passes. In memory, every posting list
dense enough that a full-length impact row costs no more bytes than its
ordinals plus impacts is also held, from the first search on, as a row of
one float32 block (0 marks an absent doc; 4 bytes x dense lists x docs).
Pass 1 scores every doc approximately in float32: one GEMV of the query
weights against the block, plus a scatter-add for the sparser lists. Pass 2
takes the k-th largest approximate score, keeps every doc within a proven
float32 error bound of it, and rescores only those in float64 in query term
order, so ids, scores and tie order equal a float64 scatter-add over all
lists, bit for bit.
Learned sparse weights make most lists dense, which favours this exhaustive
first pass (Mackenzie, Trotman & Lin, "Wacky Weights in Learned Sparse
Representations and the Revenge of Score-at-a-Time Query Evaluation",
2021). The block changes neither the rankings nor the file format.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .splade import RepsBatch, SparseRep

MAGIC = b"CSPIDX2"
_HEADER = struct.Struct("<IIBf")  # vocab_size, doc_count, bits, scale (13 bytes)

# impact width in bits -> impact dtype; 0 keeps the float32 weights
IMPACT_DTYPES = {0: np.float32, 8: np.uint8, 16: np.uint16}
POSTING_BLOCK = 8192  # postings that build_index sorts and places at once


class IndexFormatError(ValueError):
    pass


@dataclass
class PostingList:
    ordinals: np.ndarray   # strictly increasing uint32
    impacts: np.ndarray    # uint8/uint16 or float32 when unquantized


class InvertedIndex:
    def __init__(self, vocab_size, bits, scale, doc_ids, postings):
        self.vocab_size = vocab_size
        self.bits = bits
        self.scale = scale
        self.doc_ids = list(doc_ids)
        self.postings = postings  # dict term_id -> PostingList
        # A list is dense when a full-length row costs no more bytes than its
        # ordinals (4 bytes each) plus impacts (w bytes each). block_row maps
        # each dense list's term id, ascending, to its row of `block`.
        dense = [t for t in sorted(postings)
                 if len(postings[t].ordinals) * (4 + postings[t].impacts.itemsize)
                 >= self.doc_count * postings[t].impacts.itemsize]
        self.block_row = {t: r for r, t in enumerate(dense)}
        self.max_impact = max((float(p.impacts.max()) for p in postings.values()),
                              default=0.0)

    @property
    def doc_count(self):
        return len(self.doc_ids)

    @cached_property
    def block(self):
        """The dense lists as full-length float32 rows (0: absent doc), filled
        on first use, so an index that is only written never holds them."""
        block = np.zeros((len(self.block_row), self.doc_count), dtype=np.float32)
        for t, row in self.block_row.items():
            block[row, self.postings[t].ordinals] = self.postings[t].impacts
        return block

    def dequant_factor(self):
        if self.bits == 0:
            return 1.0
        return self.scale / (2 ** self.bits - 1)


def build_index(reps, bits=8) -> InvertedIndex:
    """reps: a RepsBatch, or an iterable of (doc_id, SparseRep) that is
    packed into one; ordinals follow input order.

    Every posting list is a view into one array of ordinals and one of
    impacts, both in (term, ordinal) order.
    """
    if bits not in IMPACT_DTYPES:
        raise ValueError(f"bits must be one of {sorted(IMPACT_DTYPES)}, got {bits}")
    batch = reps if isinstance(reps, RepsBatch) else RepsBatch.from_pairs(reps)
    seen = set()
    for doc_id in batch.doc_ids:
        if doc_id in seen:
            raise ValueError(f"duplicate doc id {doc_id!r}")
        seen.add(doc_id)
    terms, weights = batch.term_ids, batch.weights
    max_weight = float(weights.max(initial=0.0))
    scale = max_weight if max_weight > 0 else 1.0
    blocks = range(0, terms.size, POSTING_BLOCK)

    # list t fills starts[t]:starts[t] + counts[t]; slot[t] is its next free slot
    size = int(terms.max(initial=0)) + 1
    counts = np.zeros(size, dtype=np.int64)
    for a in blocks:
        counts += np.bincount(terms[a:a + POSTING_BLOCK], minlength=size)
    starts = np.cumsum(counts) - counts
    slot = starts.copy()
    ordinals = np.empty(terms.size, dtype=np.uint32)
    impacts = np.empty(terms.size, dtype=IMPACT_DTYPES[bits])
    for a in blocks:
        block = terms[a:a + POSTING_BLOCK]
        order = np.argsort(block, kind="stable")  # keeps doc order within a term
        block_counts = np.bincount(block, minlength=size)
        # the i-th posting of the sorted block goes to slot[t] plus its rank
        # among the block's postings of term t
        rank_base = slot - (np.cumsum(block_counts) - block_counts)
        dest = rank_base[block[order]] + np.arange(order.size)
        slot += block_counts
        ordinals[dest] = np.searchsorted(batch.indptr, order + a, side="right") - 1
        w = weights[a:a + POSTING_BLOCK][order]
        if bits == 0:
            impacts[dest] = w
        else:  # w / scale * (2**bits - 1), rounded, floor 1, in float64
            q = w.astype(np.float64)
            q /= scale
            q *= 2 ** bits - 1
            np.round(q, out=q)
            np.maximum(q, 1, out=q)
            impacts[dest] = q

    present = np.flatnonzero(counts)
    postings = {t: PostingList(ordinals[s:s + c], impacts[s:s + c])
                for t, s, c in zip(present.tolist(), starts[present].tolist(),
                                   counts[present].tolist())}
    return InvertedIndex(batch.vocab_size, bits, float(scale), batch.doc_ids, postings)


@dataclass
class SearchResult:
    doc_ids: list
    scores: np.ndarray

    def __len__(self):
        return len(self.doc_ids)

    def ranking(self):
        return list(zip(self.doc_ids, self.scores))


_U32 = 2.0 ** -24       # unit roundoff of float32
_TINY32 = 2.0 ** -149   # smallest positive float32 (subnormal)


def search(index: InvertedIndex, q: SparseRep, k: int) -> SearchResult:
    """Exact top-k by dot product over dequantized impacts.

    Ties break by ascending doc ordinal. Docs with score 0 are never
    returned, so an empty query rep yields an empty result. Doc ids and
    float64 scores equal, bit for bit, those of scatter-adding
    qw * (impact * factor) per query term in term order into a zeroed
    float64 accumulator.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if index.vocab_size and q.vocab_size != index.vocab_size:
        raise ValueError(f"vocab mismatch: query {q.vocab_size} vs index {index.vocab_size}")
    tids, w = q.term_ids.tolist(), q.weights.astype(np.float64)
    row = np.array([index.block_row.get(t, -1) for t in tids], dtype=np.int64)
    used = np.flatnonzero(np.array([t in index.postings for t in tids], dtype=bool))
    dense = row >= 0
    sparse = used[~dense[used]]
    n = index.block.shape[0] + sparse.size + 1

    # Pass 1, filter: approx = sum_t w'_t * impact_t in float32, one GEMV
    # over the block plus add.at for the sparse lists. w'_t = w_t * 2**e is
    # exact unless it lands below float32's normal range, and 2**e puts
    # n * max w' * max(max impact, 1) below 2**126, so no product or sum
    # overflows.
    #
    # Error bound. Let T = sum_t w_t 2**e impact_t in real arithmetic. Each
    # doc's approx sums at most n - 1 products with non-negative terms, in
    # any order (BLAS blocking or FMA included), so with u = 2**-24 and
    # gamma = n u / (1 - n u):
    #   |approx - T| <= gamma T + a,  a = n 2**-149 (max impact + 1),
    # where a covers a weight or product rounded in the subnormal range
    # (each off by at most 2**-150 before it is scaled by an impact).
    # The float64 oracle S = sum (impact * factor) * w adds at most n + 1
    # roundings of 2**-53, so S is within gamma' = gamma / 2 of the real
    # score relative, and T is proportional to the real score. Take tau,
    # the k-th largest approx, and a doc d of the oracle's top-k (ties
    # included). At most k - 1 docs score above d, so one of the k docs with
    # approx >= tau, e, has S_e <= S_d, hence
    #   T_e <= T_d (1 + gamma') / (1 - gamma'),
    #   tau <= approx_e <= (1 + gamma) T_e + a,
    #   approx_d >= (1 - gamma) T_d - a >= (1 - 3 gamma) tau - 2 a.
    # The threshold below uses 4 gamma, which also covers its own float64
    # rounding. When it is <= 0 (fewer than k docs score), every doc is a
    # candidate.
    top = float(np.max(w, initial=0.0)) * max(index.max_impact, 1.0) * n
    w32 = np.ldexp(w, 126 - np.frexp(top)[1]).astype(np.float32)
    wblock = np.zeros(index.block.shape[0], dtype=np.float32)
    wblock[row[dense]] = w32[dense]
    approx = wblock @ index.block
    for i in sparse:
        plist = index.postings[tids[i]]
        np.add.at(approx, plist.ordinals, w32[i] * plist.impacts.astype(np.float32))
    kth = max(index.doc_count - k, 0)
    tau = float(np.partition(approx, kth)[kth]) if approx.size else 0.0
    gamma = n * _U32 / (1 - min(n * _U32, 0.5))  # past n u = 1/2: gamma >= 1, all docs pass
    threshold = np.float64(tau * (1 - 4 * gamma) - 2 * n * _TINY32 * (index.max_impact + 1))
    cand = np.flatnonzero(approx >= threshold)  # compared in float64

    # Pass 2, rescoring: rows are the used query terms in query order, after
    # a zero row that starts every sum at +0.0 as the oracle's accumulator
    # does; an absent doc adds (0 * factor) * w = +0.0. add.accumulate along
    # axis 0 adds row after row for every column (add.reduce would sum a
    # lone column pairwise), so each score is the oracle's float64 sum.
    imp = np.zeros((used.size + 1, cand.size))
    in_block = dense[used]
    imp[1:][in_block] = index.block[np.ix_(row[used[in_block]], cand)]
    for j in np.flatnonzero(~in_block):
        plist = index.postings[tids[used[j]]]
        at = np.minimum(np.searchsorted(plist.ordinals, cand), len(plist.ordinals) - 1)
        hit = plist.ordinals[at] == cand
        imp[1 + j, hit] = plist.impacts[at[hit]]
    imp *= index.dequant_factor()
    imp[1:] *= w[used, None]
    exact = np.add.accumulate(imp, axis=0)[-1]
    keep = exact > 0
    cand, exact = cand[keep], exact[keep]
    # sort by (-score, ordinal); lexsort uses the last key as primary
    order = np.lexsort((cand, -exact))[:k]
    return SearchResult([index.doc_ids[i] for i in cand[order]], exact[order])


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


def varint_encode(*values) -> bytes:
    """Unsigned LEB128 of ints: seven bits per byte, low group first, the
    high bit set on every byte but a value's last."""
    out = bytearray()
    for v in values:
        while v >= 0x80:
            out.append((v & 0x7F) | 0x80)
            v >>= 7
        out.append(v)
    return bytes(out)


def varint_decode(buf, count, pos=0):
    """Decode `count` values at byte `pos`; returns (ints, end). A value cut
    off or past 64 bits raises IndexFormatError naming its first byte."""
    values = []
    for _ in range(count):
        start = pos
        value = shift = 0
        while True:
            if pos >= len(buf) or (shift == 63 and buf[pos] > 1):
                raise IndexFormatError(f"truncated or overlong varint at byte {start}")
            byte = buf[pos]
            pos += 1
            value |= (byte & 0x7F) << shift
            if byte < 0x80:
                break
            shift += 7
        values.append(value)
    return values, pos


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
            chunks.extend((varint_encode(2 * len(raw)), raw))
        else:
            raw = prefix.encode("utf-8")
            chunks.extend((varint_encode(2 * (j - i) + 1, len(raw)), raw, varint_encode(first)))
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
        chunks.append(varint_encode(t - prev - 1, len(plist.ordinals)))
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
        (h,), pos = varint_decode(blob, 1, pos)
        if not h & 1:
            doc_id, pos = _read_text(blob, pos, h >> 1, "doc id")
            doc_ids.append(doc_id)
            continue
        length = h >> 1
        (n,), pos = varint_decode(blob, 1, pos)
        prefix, pos = _read_text(blob, pos, n, "doc-id run prefix")
        (first,), pos = varint_decode(blob, 1, pos)
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
    if bits not in IMPACT_DTYPES:
        raise IndexFormatError(f"bad impact width {bits} at byte {pos + 8}")
    if not (np.isfinite(scale) and scale > 0):
        raise IndexFormatError(f"scale {scale} not finite and positive at byte {pos + 9}")
    pos += _HEADER.size
    doc_ids, pos = _read_doc_table(blob, pos, doc_count)
    if pos + 4 > len(blob):
        raise IndexFormatError(f"truncated posting-list count at byte {pos}")
    (n_lists,) = struct.unpack_from("<I", blob, pos)
    pos += 4
    postings = {}
    dtype = IMPACT_DTYPES[bits]
    width = np.dtype(dtype).itemsize
    t = -1
    for _ in range(n_lists):
        start = pos
        (gap, count), pos = varint_decode(blob, 2, pos)
        t += gap + 1
        if t >= vocab_size:
            raise IndexFormatError(f"term id {t} >= vocab size {vocab_size} at byte {start}")
        if not 1 <= count <= doc_count:
            raise IndexFormatError(f"posting count {count} outside 1..{doc_count} at byte {start}")
        ords, pos = ef_decode(blob, count, doc_count, pos)
        if pos + count * width > len(blob):
            raise IndexFormatError(f"truncated impacts at byte {pos}")
        impacts = np.frombuffer(blob, dtype=dtype, count=count, offset=pos).copy()
        if not (impacts > 0).all() or not np.isfinite(impacts).all():
            raise IndexFormatError(f"impact not finite and positive at byte {pos}")
        pos += count * width
        postings[t] = PostingList(ords, impacts)
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
            try:
                score = float(score)
            except ValueError:
                raise IndexFormatError(f"{path}:{lineno}: bad score {score!r}") from None
            run.setdefault(qid, []).append((docid, score))
    return run
