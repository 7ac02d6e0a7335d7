"""Sparse-representation math: pooling, scoring, and training losses.

The pooling transform is max-over-positions, ReLU, then log(1 + .),
which yields a non-negative vocabulary-sized vector suitable for an
inverted index. Losses: InfoNCE ranking, squared-mean-activation
sparsity penalty, and the two-term adaptation loss (plain causal LM
cross-entropy plus the same cross-entropy on the log-saturated logits).
A collection's reps travel as one RepsBatch of flat arrays; `read_reps`
parses and checks the reps file a block of lines at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .corpus import valid_id

WEIGHT_FLOOR = 1e-6  # pooled entries at or below this are dropped as float noise
READ_BLOCK_LINES = 64  # reps lines that read_reps parses and checks at once,
READ_BLOCK_PAIRS = 8192  # or fewer once they hold this many pairs


class RepsFormatError(ValueError):
    """A reps file line that does not describe a valid SparseRep."""


def term_dtype(vocab_size):
    """The narrowest unsigned type that holds every term id below vocab_size."""
    return np.min_scalar_type(max(vocab_size - 1, 0))


def _rep_faults(term_ids, weights, vocab_size, same_rep=True):
    """(message, per-entry flags) for each way an entry of a rep can be
    invalid, in the order they are reported. Entry i + 1 is checked against
    entry i for order where `same_rep[i]` holds (by default everywhere)."""
    unsorted = np.zeros(term_ids.shape, dtype=bool)
    unsorted[1:] = (term_ids[1:] <= term_ids[:-1]) & same_rep
    return [("term_ids must be strictly increasing", unsorted),
            ("term_id out of vocabulary range", (term_ids < 0) | (term_ids >= vocab_size)),
            ("weights must be finite", ~np.isfinite(weights)),
            ("weights must be strictly positive", ~(weights > 0))]


@dataclass
class SparseRep:
    """Sorted (term_id, finite weight > 0) pairs over a fixed vocabulary.

    Term ids are checked as int64 and stored in `term_dtype(vocab_size)`;
    weights are float32.
    """

    term_ids: np.ndarray
    weights: np.ndarray
    vocab_size: int

    def __post_init__(self):
        ids = np.asarray(self.term_ids, dtype=np.int64)
        self.weights = np.asarray(self.weights, dtype=np.float32)
        if ids.shape != self.weights.shape:
            raise ValueError("term_ids and weights must have equal length")
        for message, bad in _rep_faults(ids, self.weights, self.vocab_size):
            if bad.any():
                raise ValueError(message)
        self.term_ids = ids.astype(term_dtype(self.vocab_size))

    def __len__(self):
        return len(self.term_ids)

    @property
    def nnz(self):
        return len(self.term_ids)


@dataclass
class RepsBatch:
    """The reps of a collection as flat arrays: document `doc_ids[i]` holds
    entries `indptr[i]:indptr[i + 1]` of `term_ids` (in
    `term_dtype(vocab_size)`) and of the float32 `weights`, each document's
    entries valid as a SparseRep's. Iterating yields (doc_id, SparseRep)."""

    doc_ids: list
    indptr: np.ndarray
    term_ids: np.ndarray
    weights: np.ndarray
    vocab_size: int

    def __len__(self):
        return len(self.doc_ids)

    def __iter__(self):
        bounds = self.indptr.tolist()
        for doc_id, a, b in zip(self.doc_ids, bounds, bounds[1:]):
            yield doc_id, SparseRep(self.term_ids[a:b], self.weights[a:b], self.vocab_size)

    @classmethod
    def from_pairs(cls, pairs):
        """Pack (doc_id, SparseRep) pairs that share one vocab_size."""
        doc_ids, terms, weights = [], [], []
        vocab_size = None
        for doc_id, rep in pairs:
            if vocab_size is None:
                vocab_size = rep.vocab_size
            elif rep.vocab_size != vocab_size:
                raise ValueError("mixed vocab sizes in one batch")
            doc_ids.append(doc_id)
            terms.append(rep.term_ids)
            weights.append(rep.weights)
        vocab_size = vocab_size or 0
        key = term_dtype(vocab_size)
        # the leading empty arrays let an empty collection concatenate
        return cls(doc_ids, np.concatenate(([0], np.cumsum(list(map(len, terms)), dtype=np.int64))),
                   np.concatenate([np.empty(0, key)] + terms, dtype=key),
                   np.concatenate([np.empty(0, np.float32)] + weights), vocab_size)


def log_saturate(logits):
    """log(1 + relu(x)) on a tensor."""
    return ad.log1p(ad.relu(logits))


def pool_reps(logits: Tensor, span_mask: np.ndarray) -> Tensor:
    """Differentiable pooling: (B, L, V) logits + (B, L) span mask -> (B, V)."""
    span_mask = np.asarray(span_mask, dtype=bool)
    if not span_mask.any(axis=1).all():
        raise ValueError("pool_reps: every sequence needs a non-empty content span")
    return log_saturate(ad.max_over_axis(logits, 1, where=span_mask[:, :, None]))


def splade_pool(logits: np.ndarray, content_span) -> SparseRep:
    """Pool the (L, V) logit rows start:stop of `content_span` into a
    SparseRep: the weights of `pool_reps` on one sequence, above WEIGHT_FLOOR."""
    start, stop = content_span
    if stop <= start:
        raise ValueError(f"splade_pool: empty content span {content_span}")
    pooled = logits[start:stop].max(axis=0)
    weights = np.log1p(np.maximum(pooled, 0.0)).astype(np.float32)
    keep = np.flatnonzero(weights > WEIGHT_FLOOR)
    return SparseRep(keep, weights[keep], vocab_size=logits.shape[1])


def flops_reg_t(reps: Tensor) -> Tensor:
    """Tensor version over a dense (B, V) rep matrix."""
    means = ad.mean_over_axis(reps, axis=0)
    return ad.sum_over_axis(ad.mul(means, means))


def rank_loss_t(q_reps: Tensor, d_reps: Tensor, positive_cols: np.ndarray) -> Tensor:
    """Tensor InfoNCE: scores (B, ND) = q_reps @ d_reps.T, softmax CE."""
    scores = ad.matmul(q_reps, ad.transpose(d_reps))
    return ad.softmax_cross_entropy(scores, positive_cols)


def adaptation_loss_batch(logits: Tensor, ids: np.ndarray, lengths: np.ndarray,
                          lambda_relu=1.0):
    """Batched adaptation loss on (B, L, V) logits; pads excluded."""
    b, l, v = logits.shape
    if l < 2:
        raise ValueError("adaptation_loss_batch: need sequence length >= 2")
    pred = ad.reshape(ad.slice_axis(logits, 1, 0, l - 1), (b * (l - 1), v))
    targets = ids[:, 1:].reshape(-1)
    weights = (np.arange(1, l)[None, :] < lengths[:, None]).astype(np.float32).reshape(-1)
    clm = ad.softmax_cross_entropy(pred, targets, weights)
    relu_clm = ad.softmax_cross_entropy(log_saturate(pred), targets, weights)
    total = ad.add(clm, ad.scale(relu_clm, lambda_relu))
    return total, clm, relu_clm


# --- SparseRep text format: docid<TAB>term:weight term:weight ... ---

def write_reps(path, reps):
    """Write reps, a RepsBatch or any iterable of (doc_id, SparseRep), each
    line as its pair arrives. Returns the counts of what was written:
    {"docs", "postings", "empty_reps"}. A doc id that is not `valid_id`
    raises ValueError before its line is written."""
    docs = postings = empty = 0
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for doc_id, rep in reps:
            if not valid_id(doc_id):
                raise ValueError(f"doc id {doc_id!r} is empty or holds whitespace")
            pairs = " ".join(map("{}:{:.6f}".format, rep.term_ids.tolist(), rep.weights.tolist()))
            f.write(f"{doc_id}\t{pairs}\n")
            docs += 1
            postings += rep.nnz
            empty += not rep.nnz
    return {"docs": docs, "postings": postings, "empty_reps": empty}


def read_reps(path, vocab_size) -> RepsBatch:
    """Read a reps file into a RepsBatch, `READ_BLOCK_LINES` lines at a time,
    or fewer once they hold `READ_BLOCK_PAIRS` pairs.

    The file is read twice, so it must be seekable: once to count the pairs
    and once to parse them into arrays of that length.

    Raises RepsFormatError naming path:line of the first line with a doc
    id that is empty or holds whitespace, a malformed pair, unsorted or
    duplicate term ids, a term id outside the vocabulary, or a weight that
    is not positive, not finite or overflows float32.
    """
    with open(path, "r", encoding="utf-8") as f:
        # a first pass counts the pairs, so that each array is made once
        total = sum(_pair_count(line.rstrip("\n").partition("\t")[2]) for line in f)
        f.seek(0)
        terms = np.empty(total, dtype=term_dtype(vocab_size))
        weights = np.empty(total, dtype=np.float32)
        doc_ids, counts = [], []
        numbered = enumerate(f, 1)
        lineno = end = 0
        while True:
            last, linenos, rests, pairs = lineno, [], [], 0
            for lineno, line in islice(numbered, READ_BLOCK_LINES):
                line = line.rstrip("\n")
                if line:
                    doc_id, _, rest = line.partition("\t")
                    if not valid_id(doc_id):  # an earlier line's fault comes first
                        _parse_block(path, linenos, rests, vocab_size)
                        raise RepsFormatError(
                            f"{path}:{lineno}: doc id {doc_id!r} is empty or holds whitespace")
                    doc_ids.append(doc_id)
                    linenos.append(lineno)
                    rests.append(rest)
                    pairs += _pair_count(rest)
                    if pairs >= READ_BLOCK_PAIRS:
                        break
            if lineno == last:
                break
            ids, w, n = _parse_block(path, linenos, rests, vocab_size)
            start, end = end, end + ids.size
            if end > total:
                break
            terms[start:end] = ids
            weights[start:end] = w
            counts += n
    if end != total:
        raise RepsFormatError(f"{path} changed while it was read")
    return RepsBatch(doc_ids, np.concatenate(([0], np.cumsum(counts, dtype=np.int64))),
                     terms, weights, vocab_size)


def _pair_count(rest):
    """The number of pairs in the term:weight text of a reps line."""
    return rest.count(" ") + 1 if rest else 0


def _parse_block(path, linenos, rests, vocab_size):
    """Int64 term ids, float32 weights and per-line pair counts of the
    term:weight text `rests` of reps lines `linenos`; raises
    RepsFormatError naming the first line with a fault."""
    counts = list(map(_pair_count, rests))
    text = " ".join(filter(None, rests))
    tokens = text.replace(":", " ").split(" ") if text else []
    terms, weights = tokens[0::2], tokens[1::2]
    # the tokens alternate term, weight only if every pair has one colon:
    # the separators then alternate ':', ' ' and are one fewer than the tokens
    seps = np.frombuffer(text.encode(), dtype=np.uint8)
    seps = seps[(seps == ord(":")) | (seps == ord(" "))]
    try:
        if len(tokens) % 2 or (seps[0::2] != ord(":")).any() or (seps[1::2] != ord(" ")).any():
            raise ValueError
        ids = np.fromiter(map(int, terms), np.int64, len(terms))
        w64 = np.fromiter(map(float, weights), np.float64, len(weights))
    except (ValueError, OverflowError):  # OverflowError: a term id beyond int64
        k, message = _first_bad_pair(rests)
        _parse_block(path, linenos[:k], rests[:k], vocab_size)  # an earlier fault comes first
        raise RepsFormatError(f"{path}:{linenos[k]}: {message}") from None
    line = np.repeat(np.arange(len(rests)), counts)
    with np.errstate(over="ignore"):
        w32 = w64.astype(np.float32)
    faults = [("weight overflows float32", np.isinf(w32) & np.isfinite(w64))]
    faults += _rep_faults(ids, w32, vocab_size, line[1:] == line[:-1])
    first = [line[bad.argmax()] if bad.any() else len(rests) for _, bad in faults]
    k = min(first)
    if k < len(rests):  # that line's first fault in report order
        raise RepsFormatError(f"{path}:{linenos[k]}: {faults[first.index(k)][0]}")
    return ids, w32, counts


def _first_bad_pair(rests):
    """(index, message) of the first line with a pair that does not parse
    as int:float, or else with a term id beyond int64."""
    for k, rest in enumerate(rests):
        beyond_int64 = False
        for pair in rest.split(" ") if rest else ():
            t, _, w = pair.partition(":")
            try:
                beyond_int64 |= not -2 ** 63 <= int(t) < 2 ** 63
                float(w)
            except ValueError:
                return k, f"bad term:weight pair {pair!r}"
        if beyond_int64:
            return k, "term_id out of vocabulary range"
