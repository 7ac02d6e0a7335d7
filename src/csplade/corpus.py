"""Tokenization, MS MARCO-style file formats, and a synthetic benchmark.

The synthetic generator builds a vocabulary-mismatch task: each query is
written with "query-side" words whose synonyms (different surface forms)
appear in its relevant document, so lexical matching fails by
construction while a learned expander can bridge the gap.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .encoder import BOS_ID, EOS_ID, UNK_ID, TokenSequence

RESERVED = ["<pad>", "<bos>", "<eos>", "<unk>"]


class ParseError(ValueError):
    pass


class Vocabulary:
    def __init__(self, tokens):
        """tokens: non-reserved token strings in id order (ids start at 4)."""
        self.id_to_token = list(RESERVED) + list(tokens)
        self.token_to_id = {t: i for i, t in enumerate(self.id_to_token)}
        if len(self.token_to_id) != len(self.id_to_token):
            raise ValueError("duplicate tokens in vocabulary")

    @property
    def size(self):
        return len(self.id_to_token)

    def lookup(self, token):
        return self.token_to_id.get(token, UNK_ID)

    def save(self, path):
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            for tok in self.id_to_token[len(RESERVED):]:
                f.write(tok + "\n")

    @classmethod
    def load(cls, path):
        """Read a file written by `save`; blank lines are skipped. Raises
        ParseError naming `path:line` for a token seen before."""
        tokens, seen = [], set(RESERVED)
        with open(path, "r", encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                token = line.rstrip("\n")
                if token in seen:
                    raise ParseError(f"{path}:{lineno}: duplicate token {token!r}")
                if token:
                    seen.add(token)
                    tokens.append(token)
        return cls(tokens)


def build_vocab(texts, size=None):
    """Frequency-ranked whitespace vocabulary; ties broken by first occurrence."""
    counts = {}
    order = {}
    for text in texts:
        for tok in text.lower().split():
            counts[tok] = counts.get(tok, 0) + 1
            order.setdefault(tok, len(order))
    ranked = sorted(counts, key=lambda t: (-counts[t], order[t]))
    if size is not None:
        ranked = ranked[: max(0, size - len(RESERVED))]
    return Vocabulary(ranked)


def tokenize(text, vocab: Vocabulary, max_len=64) -> TokenSequence:
    """[BOS] + ids + [EOS], truncated to max_len; span = content + EOS."""
    if max_len < 2:
        raise ValueError(f"tokenize: max_len must be >= 2 (BOS and EOS), got {max_len}")
    ids = [vocab.lookup(t) for t in text.lower().split()]
    if len(ids) + 2 > max_len:
        ids = ids[: max_len - 2]
    seq = np.array([BOS_ID] + ids + [EOS_ID], dtype=np.int64)
    return TokenSequence(seq, span=(1, len(seq)))


# --- file formats: TSV corpus/queries, TREC qrels, JSONL triples ---

def load_tsv(path):
    out = {}
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            key, sep, text = line.partition("\t")
            if not sep or not key:
                raise ParseError(f"{path}:{lineno}: expected id<TAB>text")
            if key in out:
                raise ParseError(f"{path}:{lineno}: duplicate id {key!r}")
            out[key] = text
    return out


def save_tsv(path, mapping):
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for key, text in mapping.items():
            f.write(f"{key}\t{text}\n")


load_corpus = load_tsv
load_queries = load_tsv


def load_qrels(path):
    qrels = {}
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 4:
                raise ParseError(f"{path}:{lineno}: expected 4 columns, got {len(parts)}")
            qid, _, docid, rel = parts
            try:
                rel = int(rel)
            except ValueError:
                raise ParseError(f"{path}:{lineno}: bad relevance {parts[3]!r}") from None
            if rel < 0:
                raise ParseError(f"{path}:{lineno}: negative relevance")
            qrels.setdefault(qid, {})[docid] = rel
    return qrels


def save_qrels(path, qrels):
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for qid, docs in qrels.items():
            for docid, rel in docs.items():
                f.write(f"{qid} 0 {docid} {rel}\n")


def load_triples(path):
    triples = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as e:
                raise ParseError(f"{path}:{lineno}: invalid JSON ({e.msg})") from None
            for key in ("query_id", "positive_ids", "negative_ids"):
                if key not in obj:
                    raise ParseError(f"{path}:{lineno}: missing field {key!r}")
            if not obj["positive_ids"]:
                raise ParseError(f"{path}:{lineno}: empty positive_ids")
            triples.append(obj)
    return triples


def save_triples(path, triples):
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for t in triples:
            f.write(json.dumps(t, sort_keys=True) + "\n")


# --- synthetic vocabulary-mismatch benchmark ---

@dataclass
class SynthSpec:
    n_docs: int = 1000
    n_queries: int = 100
    base_vocab_size: int = 120
    n_synonym_pairs: int = 40
    doc_len_range: tuple = (8, 16)
    slots_per_query: tuple = (2, 3)
    hard_negatives_per_query: int = 8
    seed: int = 0

    def __post_init__(self):
        if self.n_queries < 1 or self.n_docs < self.n_queries:
            raise ValueError("need n_docs >= n_queries >= 1")
        for name in ("doc_len_range", "slots_per_query"):
            lo, hi = getattr(self, name)
            if not 1 <= lo <= hi:
                raise ValueError(f"{name} must be (lo, hi) with 1 <= lo <= hi, got ({lo}, {hi})")
        if self.hard_negatives_per_query < 0:
            raise ValueError(f"hard_negatives_per_query must be >= 0, "
                             f"got {self.hard_negatives_per_query}")
        if self.base_vocab_size < 1:
            raise ValueError(f"base_vocab_size must be >= 1, got {self.base_vocab_size}")
        if self.n_synonym_pairs < self.slots_per_query[1]:
            raise ValueError(f"n_synonym_pairs={self.n_synonym_pairs}: not enough synonym "
                             f"pairs for slots_per_query={self.slots_per_query}")
        if self.doc_len_range[0] < self.slots_per_query[1]:
            raise ValueError(f"doc_len_range={self.doc_len_range}: docs too short to hold "
                             f"slots_per_query={self.slots_per_query} synonym slots")


def synth_generate(spec: SynthSpec):
    """Deterministic (corpus, queries, qrels, triples) for a given seed.

    Query text uses only query-side slot words; its positive document uses
    the matching document-side words plus fillers, so the pair shares zero
    slot-word surface forms.
    """
    rng = np.random.default_rng(spec.seed)
    fillers = np.array([f"w{i}" for i in range(spec.base_vocab_size)])
    q_words = [f"qs{i}" for i in range(spec.n_synonym_pairs)]
    d_words = [f"ds{i}" for i in range(spec.n_synonym_pairs)]

    lo, hi = spec.doc_len_range
    queries = {}
    corpus = {}
    qrels = {}
    triples = []
    query_slots = []

    for qi in range(spec.n_queries):
        n_slots = int(rng.integers(spec.slots_per_query[0], spec.slots_per_query[1] + 1))
        slots = rng.choice(spec.n_synonym_pairs, size=n_slots, replace=False)
        query_slots.append(slots)
        queries[f"q{qi}"] = " ".join(q_words[s] for s in slots)

    # positive docs first (doc qi is relevant to query qi), then distractors
    for qi in range(spec.n_queries):
        slots = query_slots[qi]
        length = int(rng.integers(lo, hi + 1))
        words = [d_words[s] for s in slots]
        words += rng.choice(fillers, size=max(0, length - len(words))).tolist()
        rng.shuffle(words)
        corpus[f"d{qi}"] = " ".join(words)
        qrels[f"q{qi}"] = {f"d{qi}": 1}

    mixed_pool = np.concatenate([fillers, d_words, q_words])
    probs = np.concatenate([
        np.full(len(fillers), 0.7 / len(fillers)),
        np.full(len(d_words), 0.2 / len(d_words)),
        np.full(len(q_words), 0.1 / len(q_words)),
    ])
    probs /= probs.sum()
    # rng.choice(mixed_pool, size=n, p=probs) with its cdf built once: the
    # same draws and arithmetic as Generator.choice, without re-validating p
    # for every document. The per-document integers/random order is kept
    # because PCG64 buffers 32-bit halves between integers calls.
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    for di in range(spec.n_queries, spec.n_docs):
        length = int(rng.integers(lo, hi + 1))
        words = mixed_pool[cdf.searchsorted(rng.random(length), side="right")]
        corpus[f"d{di}"] = " ".join(words.tolist())

    # doc ids are d0 .. d{n_docs-1} in order, so index i of the pool
    # without d{qi} is doc i + (i >= qi)
    n_pool = spec.n_docs - 1
    for qi in range(spec.n_queries):
        negs = rng.choice(n_pool, size=min(spec.hard_negatives_per_query, n_pool),
                          replace=False)
        triples.append({
            "query_id": f"q{qi}",
            "positive_ids": [f"d{qi}"],
            "negative_ids": [f"d{i + (i >= qi)}" for i in sorted(negs.tolist())],
        })

    return corpus, queries, qrels, triples
