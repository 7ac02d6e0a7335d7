"""Sparse-representation math: pooling, scoring, and training losses.

The pooling transform is max-over-positions, ReLU, then log(1 + .),
which yields a non-negative vocabulary-sized vector suitable for an
inverted index. Losses: InfoNCE ranking, squared-mean-activation
sparsity penalty, and the two-term adaptation loss (plain causal LM
cross-entropy plus the same cross-entropy on the log-saturated logits).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

WEIGHT_FLOOR = 1e-6  # pooled entries at or below this are dropped as float noise


class RepsFormatError(ValueError):
    """A reps file line that does not describe a valid SparseRep."""


@dataclass
class SparseRep:
    """Sorted (term_id, finite weight > 0) pairs over a fixed vocabulary."""

    term_ids: np.ndarray
    weights: np.ndarray
    vocab_size: int

    def __post_init__(self):
        self.term_ids = np.asarray(self.term_ids, dtype=np.int64)
        self.weights = np.asarray(self.weights, dtype=np.float32)
        if self.term_ids.shape != self.weights.shape:
            raise ValueError("term_ids and weights must have equal length")
        ids, w = self.term_ids, self.weights
        if len(ids):
            if not (ids[1:] > ids[:-1]).all():
                raise ValueError("term_ids must be strictly increasing")
            if ids[-1] >= self.vocab_size or ids[0] < 0:
                raise ValueError("term_id out of vocabulary range")
            if not np.isfinite(w).all():
                raise ValueError("weights must be finite")
            if not (w > 0).all():
                raise ValueError("weights must be strictly positive")

    def __len__(self):
        return len(self.term_ids)

    @property
    def nnz(self):
        return len(self.term_ids)


def log_saturate(logits):
    """log(1 + relu(x)) on a tensor."""
    return ad.log1p(ad.relu(logits))


def pool_reps(logits: Tensor, span_mask: np.ndarray) -> Tensor:
    """Differentiable pooling: (B, L, V) logits + (B, L) span mask -> (B, V)."""
    span_mask = np.asarray(span_mask, dtype=bool)
    if not span_mask.any(axis=1).all():
        raise ValueError("pool_reps: every sequence needs a non-empty content span")
    masked = ad.masked_fill(logits, ~span_mask[:, :, None], -1e30)
    return log_saturate(ad.max_over_axis(masked, axis=1))


def splade_pool(logits: np.ndarray, content_span) -> SparseRep:
    """Pool a (V, L) logit matrix over span columns into a SparseRep."""
    start, stop = content_span
    if stop <= start:
        raise ValueError(f"splade_pool: empty content span {content_span}")
    pooled = logits[:, start:stop].max(axis=1)
    weights = np.log1p(np.maximum(pooled, 0.0)).astype(np.float32)
    keep = np.flatnonzero(weights > WEIGHT_FLOOR)
    return SparseRep(keep, weights[keep], vocab_size=logits.shape[0])


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
    """reps: iterable of (doc_id, SparseRep)."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for doc_id, rep in reps:
            pairs = " ".join(map("{}:{:.6f}".format, rep.term_ids.tolist(), rep.weights.tolist()))
            f.write(f"{doc_id}\t{pairs}\n")


def read_reps(path, vocab_size):
    """Read a reps file into (doc_id, SparseRep) pairs.

    Raises RepsFormatError naming path:line for a malformed pair, unsorted
    or duplicate term ids, a term id outside the vocabulary, or a weight
    that is not positive, not finite or overflows float32.
    """
    out = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            doc_id, _, rest = line.partition("\t")
            terms, weights = [], []
            if rest:
                for pair in rest.split(" "):
                    t, _, w = pair.partition(":")
                    try:
                        terms.append(int(t))
                        weights.append(float(w))
                    except ValueError:
                        raise RepsFormatError(
                            f"{path}:{lineno}: bad term:weight pair {pair!r}") from None
            with np.errstate(over="ignore"):
                w32 = np.array(weights, dtype=np.float32)
            try:
                if np.isinf(w32).any() and np.isfinite(weights).all():
                    raise ValueError("weight overflows float32")
                rep = SparseRep(np.array(terms, dtype=np.int64), w32, vocab_size)
            except OverflowError:  # a term id beyond int64
                raise RepsFormatError(f"{path}:{lineno}: term_id out of vocabulary range") from None
            except ValueError as e:
                raise RepsFormatError(f"{path}:{lineno}: {e}") from None
            out.append((doc_id, rep))
    return out
