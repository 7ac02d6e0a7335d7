"""Shared fixtures: synthetic benchmark data and small helper models."""

from collections import Counter

import numpy as np
import pytest

from csplade.autodiff import Tensor
from csplade.corpus import SynthSpec, build_vocab, synth_generate
from csplade.encoder import BOS_ID, EOS_ID, PAD_ID, EncoderConfig, EncoderModel
from csplade.evalkit import mrr_at_k
from csplade.index import (IMPACT_DTYPES, InvertedIndex, PostingList, SearchResult,
                           _index_chunks, build_index, search)
from csplade.splade import SparseRep
from csplade.trainer import encode_texts


@pytest.fixture(scope="session")
def synth():
    """The standard benchmark: 1k docs, 100 queries, seed 0."""
    corpus, queries, qrels, triples = synth_generate(SynthSpec(seed=0))
    vocab = build_vocab(list(corpus.values()) + list(queries.values()))
    return {
        "corpus": corpus,
        "queries": queries,
        "qrels": qrels,
        "triples": triples,
        "vocab": vocab,
        "texts": list(corpus.values()) + list(queries.values()),
    }


@pytest.fixture(scope="session")
def tiny_model():
    """Small untrained bidirectional model over a 30-token vocabulary."""
    cfg = EncoderConfig(vocab_size=30, d_model=16, n_layers=1, n_heads=2,
                        max_seq_len=16, variant="bi", seed=3)
    return EncoderModel(cfg)


def evaluate_mrr(model, data, k=10):
    """Encode the benchmark, retrieve top-k, and return mean MRR@k."""
    reps = encode_texts(model, data["vocab"], data["corpus"].values())
    idx = build_index(list(zip(data["corpus"].keys(), reps)), bits=0)
    run = {}
    qreps = encode_texts(model, data["vocab"], data["queries"].values())
    for qid, rep in zip(data["queries"].keys(), qreps):
        run[qid] = list(search(idx, rep, k)) if rep.nnz else []
    return mrr_at_k(run, data["qrels"], k)[1]


def random_sparse_rep(rng, vocab_size, max_nnz=12):
    """A random valid SparseRep for property and oracle tests."""
    nnz = int(rng.integers(0, max_nnz + 1))
    terms = np.sort(rng.choice(vocab_size, size=nnz, replace=False))
    weights = rng.uniform(0.05, 3.0, size=nnz).astype(np.float32)
    return SparseRep(terms, weights, vocab_size)


def to_dense(rep: SparseRep, dtype=np.float64):
    """A SparseRep as a dense vocabulary-sized vector."""
    dense = np.zeros(rep.vocab_size, dtype=dtype)
    dense[rep.term_ids] = rep.weights
    return dense


def detokenize(seq, vocab) -> str:
    """The words of a token sequence, without PAD, BOS and EOS."""
    return " ".join(vocab.id_to_token[i] for i in seq.ids
                    if i not in (PAD_ID, BOS_ID, EOS_ID))


def grad_check(f, x, h=1e-4):
    """Max relative error between analytic and central-difference gradients.

    `f` maps a Tensor to a scalar Tensor. Run with float64 data for
    trustworthy results. Relative error per coordinate is
    |analytic - numeric| / max(1, |numeric|).
    """
    x0 = np.asarray(x.data if isinstance(x, Tensor) else x, dtype=np.float64)
    leaf = Tensor(x0.copy(), requires_grad=True, dtype=np.float64)
    out = f(leaf)
    if not np.isfinite(out.data).all():
        raise FloatingPointError("grad_check: f(x) is not finite")
    out.backward()
    analytic = leaf.grad.copy() if leaf.grad is not None else np.zeros_like(x0)

    numeric = np.zeros_like(x0)
    flat = x0.ravel()
    num_flat = numeric.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = float(f(Tensor(x0.copy(), dtype=np.float64)).data)
        flat[i] = orig - h
        fm = float(f(Tensor(x0.copy(), dtype=np.float64)).data)
        flat[i] = orig
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise FloatingPointError("grad_check: f(x +/- h) is not finite")
        num_flat[i] = (fp - fm) / (2.0 * h)

    denom = np.maximum(1.0, np.abs(numeric))
    return float(np.max(np.abs(analytic - numeric) / denom)) if flat.size else 0.0


def build_index_dicts(reps, bits=8):
    """Invert one posting at a time into dicts of Python lists, then
    quantize each list: the builder that index.build_index replaced. It
    must give the same InvertedIndex, dtypes and serialized bytes."""
    doc_ids = []
    term_docs = {}
    term_weights = {}
    vocab_size = None
    max_weight = 0.0
    for doc_id, rep in reps:
        ordinal = len(doc_ids)
        doc_ids.append(doc_id)
        if vocab_size is None:
            vocab_size = rep.vocab_size
        if len(rep):
            max_weight = max(max_weight, float(rep.weights.max()))
        for t, w in zip(rep.term_ids, rep.weights):
            term_docs.setdefault(int(t), []).append(ordinal)
            term_weights.setdefault(int(t), []).append(float(w))

    scale = max_weight if max_weight > 0 else 1.0
    postings = {}
    for t in sorted(term_docs):
        ords = np.array(term_docs[t], dtype=np.uint32)
        weights = np.array(term_weights[t], dtype=np.float64)
        if bits == 0:
            impacts = weights.astype(np.float32)
        else:
            q = np.maximum(1, np.round(weights / scale * (2 ** bits - 1)))
            impacts = q.astype(IMPACT_DTYPES[bits])
        postings[t] = PostingList(ords, impacts)
    return InvertedIndex(vocab_size if vocab_size is not None else 0,
                         bits, float(scale), doc_ids, postings)


def index_bytes(index):
    """The bytes `index.serialize` writes for `index`, as one object."""
    return b"".join(_index_chunks(index, Counter()))


def scatter_add_search(index, q, k):
    """Term-at-a-time search with no dense rows and no partition: every
    posting list is scatter-added by ordinal into a float64 accumulator,
    then every candidate is sorted by (-score, ordinal). index.search must
    return the same doc ids and float64 scores bit for bit.
    Returns (doc ids, scores)."""
    acc = np.zeros(index.doc_count, dtype=np.float64)
    factor = index.dequant_factor()
    for t, qw in zip(q.term_ids, q.weights):
        plist = index.postings.get(int(t))
        if plist is not None:
            acc[plist.ordinals.astype(np.int64)] += \
                float(qw) * (plist.impacts.astype(np.float64) * factor)
    cand = np.flatnonzero(acc > 0)
    chosen = cand[np.lexsort((cand, -acc[cand]))][:k]
    return [index.doc_ids[i] for i in chosen], acc[chosen]


def brute_force_search(reps, q: SparseRep, k: int) -> SearchResult:
    """Independent oracle: densify every doc and dot it with the query."""
    qd = to_dense(q)
    doc_ids, scores = [], []
    for doc_id, rep in reps:
        doc_ids.append(doc_id)
        scores.append(float(to_dense(rep) @ qd))
    scores = np.array(scores)
    cand = np.flatnonzero(scores > 0)
    order = np.lexsort((cand, -scores[cand]))[:k]
    chosen = cand[order]
    return SearchResult([doc_ids[i] for i in chosen], scores[chosen])


# --- oracles for the fused autodiff ops: the primitive chains they replace ---

def attention_chain(q, k, v, banned, heads):
    """Multi-head attention as the chain of primitive autodiff nodes that
    autodiff.attention fuses (same arguments and result)."""
    from csplade import autodiff as ad
    b, l, d = q.shape
    dh = d // heads

    def split(t):  # (B, L, d) -> (B, H, L, dh)
        return ad.transpose(ad.reshape(t, (b, l, heads, dh)), (0, 2, 1, 3))

    q4, k4, v4 = split(q), split(k), split(v)
    scores = ad.scale(batched_matmul(q4, ad.transpose(k4, (0, 1, 3, 2))), 1.0 / np.sqrt(dh))
    scores = ad.masked_fill(scores, banned, ad.ATTN_NEG)
    ctx = batched_matmul(ad.softmax(scores, axis=-1), v4)
    return ad.reshape(ad.transpose(ctx, (0, 2, 1, 3)), (b, l, d))


def affine_chain(a, w, bias, residual=None):
    """add(matmul(a, w), bias), added to `residual` when given: the chain
    that autodiff.affine fuses."""
    from csplade import autodiff as ad
    out = ad.add(ad.matmul(a, w), bias)
    return out if residual is None else ad.add(residual, out)


def feed_forward_chain(a, w1, b1, w2, b2, residual):
    """The chain that autodiff.feed_forward fuses."""
    from csplade import autodiff as ad
    return affine_chain(ad.gelu(affine_chain(a, w1, b1)), w2, b2, residual)


def masked_max_chain(a, axis, where):
    """max_over_axis over masked_fill: the chain that max_over_axis(...,
    where=) fuses."""
    from csplade import autodiff as ad
    return ad.max_over_axis(ad.masked_fill(a, ~np.asarray(where), ad.MASKED_MAX_FILL), axis)


def forward_batch_chain(model, ids, lengths):
    """EncoderModel.forward_batch's graph built from primitive nodes (and the
    fused attention): the forward that the affine, feed-forward and masked
    max nodes replaced. Same arguments and logits."""
    from csplade import autodiff as ad
    pm, cfg = model.params, model.cfg
    b, l = ids.shape
    banned = model._banned_keys(lengths, l)
    x = ad.add(ad.embedding(pm["tok_emb"], ids),
               ad.embedding(pm["pos_emb"], np.broadcast_to(np.arange(l), (b, l))))
    for i in range(cfg.n_layers):
        p = {name[len(f"layer{i}."):]: t for name, t in pm.items()
             if name.startswith(f"layer{i}.")}
        hn = ad.layer_norm(x, p["ln1_g"], p["ln1_b"])
        q, k, v = (affine_chain(hn, p["w" + c], p["b" + c]) for c in "qkv")
        ctx = ad.attention(q, k, v, banned, cfg.n_heads)
        x = affine_chain(ctx, p["wo"], p["bo"], x)
        hn = ad.layer_norm(x, p["ln2_g"], p["ln2_b"])
        x = feed_forward_chain(hn, p["w1"], p["b1"], p["w2"], p["b2"], x)
    x = ad.layer_norm(x, pm["lnf_g"], pm["lnf_b"])
    return affine_chain(x, ad.transpose(pm["tok_emb"]), pm["logit_bias"])


def slice_by_matmul(a, axis, start, stop):
    """Leading entries of axis -2 by multiplying with rows of an identity
    matrix: the selection autodiff.slice_axis replaced."""
    from csplade.autodiff import Tensor
    assert start == 0 and axis % a.ndim == a.ndim - 2
    sel = np.eye(a.shape[axis], dtype=a.data.dtype)[:stop]
    return batched_matmul(Tensor(sel), a)


def batched_matmul(a, b):
    """a @ b as a node whose forward and gradients are numpy batched
    matmuls (one GEMM per batch entry) reduced by autodiff._unbroadcast:
    the matmul that autodiff.matmul replaced for a 2-D right operand. The
    chains above also use it for right operands with batch dims, which
    autodiff.matmul rejects."""
    from csplade import autodiff as ad
    data = np.matmul(a.data, b.data)

    def backward(g):
        if a.requires_grad:
            a._accumulate(ad._unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape))
        if b.requires_grad:
            b._accumulate(ad._unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape))

    return ad._make(data, (a, b), "matmul", backward)


def embedding_add_at(weight, ids):
    """Row lookup whose backward scatters with np.add.at: the embedding
    backward that autodiff.embedding replaced."""
    from csplade import autodiff as ad
    ids = np.asarray(ids)
    data = weight.data[ids]

    def backward(g):
        grad = np.zeros_like(weight.data) if weight.grad is None else weight.grad.copy()
        np.add.at(grad, ids.ravel(), g.reshape(-1, weight.shape[1]))
        weight.grad = grad

    return ad._make(data, (weight,), "embedding", backward)


def bm25_search_loop(corpus, query_text, stats, k, k1=0.9, b=0.4):
    """Doc-at-a-time BM25: every doc of `corpus` is scored in a Python loop
    over the query terms, then sorted by (-score, doc id): the body that
    evalkit.bm25_search replaced. It must return the same doc ids and
    float64 scores bit for bit. Returns (doc ids, scores)."""
    from csplade.evalkit import _idf
    q = query_text.lower().split()
    scored = []
    for doc_id, text in corpus.items():
        toks = text.lower().split()
        tf = Counter(toks)
        norm = k1 * (1.0 - b + b * len(toks) / stats.avg_doc_len) if stats.avg_doc_len else k1
        s = 0.0
        for term in q:
            f = tf.get(term, 0)
            if f:
                s += _idf(stats, term) * f * (k1 + 1.0) / (f + norm)
        if s > 0:
            scored.append((doc_id, s))
    scored.sort(key=lambda x: (-x[1], x[0]))
    top = scored[:k]
    return [d for d, _ in top], np.array([s for _, s in top])


def gelu_float32_closed_form(x):
    """Float32 GELU and its derivative written as plain expressions in the
    order autodiff evaluates them: Abramowitz & Stegun 7.1.26 gives
    erfc(|x| / sqrt 2) = t P(t) exp(-x^2 / 2) with t = 1 / (1 + p |x| / sqrt 2),
    rewritten in s = 1 / (K + |x|), K = sqrt 2 / p, with coefficients
    a_i K^i / 2. Phi = 1/2 + sign(x) (1/2 - erfc / 2); GELU = x Phi and the
    derivative is Phi + x phi(x). Returns (gelu, derivative)."""
    f32 = np.float32
    p = 0.3275911
    a = (0.254829592, -0.284496736, 1.421413741, -1.453152027, 1.061405429)
    k = np.sqrt(2.0) / p
    b1, b2, b3, b4, b5 = (f32(0.5 * ai * k ** i) for i, ai in enumerate(a, 1))
    x = np.asarray(x, dtype=f32)
    s = f32(1.0) / (np.abs(x) + f32(k))
    gauss = np.exp(x * x * f32(-0.5))
    half_erfc = s * (b1 + s * (b2 + s * (b3 + s * (b4 + s * b5)))) * gauss
    phi = f32(0.5) + np.copysign(f32(0.5) - half_erfc, x)
    return x * phi, phi + gauss * x * f32(1.0 / np.sqrt(2.0 * np.pi))


def adamw_step_reference(params, state, lr, beta1=0.9, beta2=0.999, eps=1e-8,
                         weight_decay=0.01):
    """One AdamW step written as plain expressions (the formula that
    trainer.AdamW.step evaluates in place). `state` holds "t" and per-param
    "m" and "v" arrays; params without a grad are skipped."""
    state["t"] += 1
    bc1 = 1.0 - beta1 ** state["t"]
    bc2 = 1.0 - beta2 ** state["t"]
    for k, p in params.items():
        g = p.grad
        if g is None:
            continue
        m, v = state["m"][k], state["v"][k]
        m *= beta1
        m += (1 - beta1) * g
        v *= beta2
        v += (1 - beta2) * g * g
        update = (m / bc1) / (np.sqrt(v / bc2) + eps)
        p.data -= np.float32(lr) * (update + weight_decay * p.data).astype(np.float32)


# --- single-rep scoring oracles for the tensor losses of csplade.splade ---

def dot_score(q: SparseRep, d: SparseRep) -> float:
    if q.vocab_size != d.vocab_size:
        raise ValueError(f"vocab mismatch: {q.vocab_size} vs {d.vocab_size}")
    qi, di = 0, 0
    total = 0.0
    qt, dt = q.term_ids, d.term_ids
    while qi < len(qt) and di < len(dt):
        if qt[qi] == dt[di]:
            total += float(q.weights[qi]) * float(d.weights[di])
            qi += 1
            di += 1
        elif qt[qi] < dt[di]:
            qi += 1
        else:
            di += 1
    return total


def rank_loss(q: SparseRep, pos: SparseRep, negs) -> float:
    """InfoNCE: -log softmax(s(q,pos)) over positive + negatives."""
    if not negs:
        raise ValueError("rank_loss: negatives must be non-empty")
    scores = np.array([dot_score(q, pos)] + [dot_score(q, n) for n in negs])
    m = scores.max()
    return float(m + np.log(np.exp(scores - m).sum()) - scores[0])


def flops_reg(batch) -> float:
    """Sum over terms of the squared mean activation across the batch."""
    if not batch:
        raise ValueError("flops_reg: batch must be non-empty")
    vocab = batch[0].vocab_size
    sums = np.zeros(vocab, dtype=np.float64)
    for rep in batch:
        sums[rep.term_ids] += rep.weights
    means = sums / len(batch)
    return float(np.sum(means * means))
