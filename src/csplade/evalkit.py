"""BM25 baseline and TREC-style ranking metrics."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .index import SearchResult

DEFAULT_K1 = 0.9
DEFAULT_B = 0.4


@dataclass
class CollectionStats:
    """Collection statistics plus per-term postings for BM25.

    `postings` maps a term to (doc ordinals ascending, term frequencies),
    both int64 arrays; an ordinal indexes `doc_ids` and `doc_lengths`.
    """
    n_docs: int
    avg_doc_len: float
    doc_freq: dict          # term -> document frequency
    doc_ids: list           # doc id of each ordinal, in collection order
    doc_lengths: np.ndarray  # token count of each ordinal
    postings: dict          # term -> (ordinals, tf)
    id_rank: np.ndarray     # position of each ordinal's doc id in sorted id order

    @property
    def doc_tf(self):
        """doc id -> {term: tf}, rebuilt from the postings (perfbench's
        BM25 counters read it)."""
        out = {doc_id: {} for doc_id in self.doc_ids}
        for term, (ordinals, tf) in self.postings.items():
            for o, f in zip(ordinals.tolist(), tf.tolist()):
                out[self.doc_ids[o]][term] = f
        return out


def _terms(text):
    return text.lower().split()


def build_stats(corpus) -> CollectionStats:
    """corpus: dict doc_id -> raw text."""
    doc_ids = list(corpus)
    n = len(doc_ids)
    vocab = {}          # term -> id, in first-seen order
    token_ids = []
    lengths = np.empty(n, dtype=np.int64)
    for i, text in enumerate(corpus.values()):
        toks = _terms(text)
        lengths[i] = len(toks)
        token_ids.extend([vocab.setdefault(t, len(vocab)) for t in toks])
    # one key per (term, doc) occurrence; unique keys sort by term, then doc
    width = max(n, 1)
    keys = np.asarray(token_ids, dtype=np.int64) * width + np.repeat(np.arange(n), lengths)
    keys, tf = np.unique(keys, return_counts=True)
    term_of, ordinals = np.divmod(keys, width)
    bounds = np.append(np.flatnonzero(np.diff(term_of, prepend=-1)), len(keys))
    terms = list(vocab)
    postings, doc_freq = {}, {}
    for t, lo, hi in zip(term_of[bounds[:-1]].tolist(), bounds[:-1].tolist(), bounds[1:].tolist()):
        postings[terms[t]] = (ordinals[lo:hi], tf[lo:hi])
        doc_freq[terms[t]] = hi - lo
    id_rank = np.empty(n, dtype=np.int64)
    id_rank[sorted(range(n), key=doc_ids.__getitem__)] = np.arange(n)
    avg = int(lengths.sum()) / n if n else 0.0
    return CollectionStats(n, avg, doc_freq, doc_ids, lengths, postings, id_rank)


def _idf(stats, term):
    df = stats.doc_freq.get(term, 0)
    return max(0.0, math.log(1.0 + (stats.n_docs - df + 0.5) / (df + 0.5)))


def bm25_score(query_tokens, doc_tokens, stats: CollectionStats,
               k1=DEFAULT_K1, b=DEFAULT_B) -> float:
    tf = Counter(doc_tokens)
    dl = len(doc_tokens)
    norm = k1 * (1.0 - b + b * dl / stats.avg_doc_len) if stats.avg_doc_len else k1
    score = 0.0
    for term in query_tokens:
        f = tf.get(term, 0)
        if f == 0:
            continue
        score += _idf(stats, term) * f * (k1 + 1.0) / (f + norm)
    return score


def bm25_search(corpus, query_text, stats: CollectionStats, k) -> SearchResult:
    """Exhaustive BM25 at k1 = DEFAULT_K1 and b = DEFAULT_B over the
    collection `stats` was built from (`corpus`); ties break by doc id
    ascending.

    Term at a time: each query term, in query order and repeats included,
    adds the float64 expression of `bm25_score` to the scores of the docs
    in its posting list, so every doc's score is the same sum bit for bit.
    """
    if len(corpus) != stats.n_docs:
        raise ValueError(f"bm25_search: corpus has {len(corpus)} docs, stats {stats.n_docs}")
    k1, b = DEFAULT_K1, DEFAULT_B
    acc = np.zeros(stats.n_docs, dtype=np.float64)
    for term in _terms(query_text):
        posting = stats.postings.get(term)
        if posting is None:
            continue
        ordinals, f = posting
        if stats.avg_doc_len:
            norm = k1 * (1.0 - b + b * stats.doc_lengths[ordinals] / stats.avg_doc_len)
        else:
            norm = k1
        acc[ordinals] += _idf(stats, term) * f * (k1 + 1.0) / (f + norm)
    cand = np.flatnonzero(acc > 0)
    if 0 < k < len(cand):
        kth = np.partition(acc[cand], len(cand) - k)[len(cand) - k]
        cand = cand[acc[cand] >= kth]
    top = cand[np.lexsort((stats.id_rank[cand], -acc[cand]))][:k]
    return SearchResult([stats.doc_ids[i] for i in top.tolist()], acc[top])


# --- metrics; run: dict qid -> ranked list of (docid, score) ---

def _per_query(run, qrels, k, score):
    """`score(judged, ids)` over the top-k doc ids of every query with at
    least one positively judged doc, and the mean over those queries."""
    per_query = {}
    for qid, judged in qrels.items():
        if not any(rel > 0 for rel in judged.values()):
            continue
        entry = run.get(qid, [])
        ids = (entry.doc_ids if isinstance(entry, SearchResult) else [d for d, _ in entry])[:k]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate docid in run for query {qid}")
        per_query[qid] = score(judged, ids)
    mean = sum(per_query.values()) / len(per_query) if per_query else 0.0
    return per_query, mean


def mrr_at_k(run, qrels, k):
    def reciprocal_rank(judged, ids):
        return next((1.0 / rank for rank, docid in enumerate(ids, 1)
                     if judged.get(docid, 0) > 0), 0.0)
    return _per_query(run, qrels, k, reciprocal_rank)


def recall_at_k(run, qrels, k):
    def recall(judged, ids):
        relevant = {d for d, rel in judged.items() if rel > 0}
        return len(relevant.intersection(ids)) / len(relevant)
    return _per_query(run, qrels, k, recall)


def ndcg_at_k(run, qrels, k):
    """Gain 2^rel - 1, log2(rank+1) discount, ideal DCG from the qrels."""
    def ndcg(judged, ids):
        dcg = sum((2 ** judged[d] - 1) / math.log2(rank + 1)
                  for rank, d in enumerate(ids, 1) if judged.get(d, 0) > 0)
        ideal = sorted((rel for rel in judged.values() if rel > 0), reverse=True)[:k]
        idcg = sum((2 ** rel - 1) / math.log2(rank + 1) for rank, rel in enumerate(ideal, 1))
        return dcg / idcg if idcg > 0 else 0.0
    return _per_query(run, qrels, k, ndcg)


METRICS = {"mrr": mrr_at_k, "recall": recall_at_k, "ndcg": ndcg_at_k}


def metrics_csv(path, run, qrels, k):
    """Write per-query and aggregate metrics as `qid,metric,value` rows."""
    lines = ["qid,metric,value"]
    for name, fn in METRICS.items():
        per_query, mean = fn(run, qrels, k)
        for qid in sorted(per_query):
            lines.append(f"{qid},{name}@{k},{per_query[qid]:.6f}")
        lines.append(f"all,{name}@{k},{mean:.6f}")
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(lines) + "\n")
