"""Acceptance suite: one criterion per test, one printed pass/fail line each.

The heavyweight artifacts (an adapted model and two contrastively trained
models) are built once per session and shared across criteria.
"""

import math

import numpy as np
import pytest

from conftest import evaluate_mrr, grad_check, random_sparse_rep, to_dense
from csplade import autodiff as ad
from csplade.autodiff import Tensor
from csplade.corpus import build_vocab, tokenize
from csplade.encoder import (BOS_ID, VARIANTS, EncoderConfig, EncoderModel,
                             TokenSequence, echo_expand)
from csplade.evalkit import (bm25_score, bm25_search, build_stats, mrr_at_k,
                             ndcg_at_k, recall_at_k)
from csplade.index import build_index, deserialize, search, serialize
from csplade.quant import (GROUPWISE, PER_CHANNEL, QuantConfig, bench_encode,
                           quantize_weights)
from csplade.splade import (adaptation_loss_batch, flops_reg_t, pool_reps,
                            rank_loss_t, splade_pool)
from csplade.trainer import (AdaptConfig, ContrastiveConfig,
                             empty_rep_fraction, encode_reps_tensor,
                             encode_texts, run_adaptation, run_contrastive)

SEED = 0


def report(capsys, line, ok):
    with capsys.disabled():
        print(f"\n{line}: {'PASS' if ok else 'FAIL'}")
    assert ok, line


# ---------------------------------------------------------------- fixtures

@pytest.fixture(scope="session")
def adapted(synth, tmp_path_factory):
    """Healthy-init bi model after 200 adaptation steps on the benchmark text."""
    cfg = EncoderConfig(vocab_size=synth["vocab"].size, variant="bi", seed=SEED)
    model, _ = run_adaptation(
        EncoderModel(cfg), synth["texts"], synth["vocab"],
        AdaptConfig(steps=200, batch_size=16, seq_len=32, lr=1e-2,
                    warmup_steps=20, seed=SEED))
    path = tmp_path_factory.mktemp("models") / "adapted.ckpt"
    model.save(path)
    return path


def _train(adapted_path, synth, lambda_d):
    cfg = ContrastiveConfig(epochs=50, lr=3e-3, lambda_q=0.003,
                            lambda_d=lambda_d, seed=SEED)
    model, report_ = run_contrastive(
        EncoderModel.load(adapted_path), synth["triples"], synth["corpus"],
        synth["queries"], synth["vocab"], cfg)
    return model, report_


@pytest.fixture(scope="session")
def trained(adapted, synth):
    """Two runs differing only in the document sparsity coefficient."""
    model_0, _ = _train(adapted, synth, lambda_d=0.0)
    model_reg, _ = _train(adapted, synth, lambda_d=0.01)
    return {"lambda_d=0": model_0, "lambda_d=0.01": model_reg}


# ------------------------------------------------------------------- AC-1

def _micro_model_f64(seed):
    cfg = EncoderConfig(vocab_size=10, d_model=8, n_layers=1, n_heads=2,
                        max_seq_len=8, variant="bi", seed=seed)
    model = EncoderModel(cfg)
    for p in model.params.values():
        p.data = p.data.astype(np.float64)
    return model


def _nudge(x, margin=1e-3):
    x[np.abs(x) < margin] += 2 * margin
    return x


def test_ac1_gradient_correctness(capsys):
    from test_autodiff import OPS
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x = _nudge(rng.normal(size=(3, 4)))
        for fn in OPS.values():
            worst = max(worst, grad_check(fn, Tensor(x, dtype=np.float64)))

        # composed pooling + ranking + sparsity pipeline from logits
        span = np.ones((2, 3), dtype=bool)

        def pipeline(logits):
            reps = pool_reps(logits, span)
            return ad.add(rank_loss_t(reps, reps, np.array([0, 1])),
                          ad.scale(flops_reg_t(reps), 0.003))

        worst = max(worst, grad_check(
            pipeline, Tensor(_nudge(rng.normal(size=(2, 3, 6))), dtype=np.float64)))

        # composed adaptation loss from logits
        ids = rng.integers(1, 5, size=(1, 4))

        def adapt_pipeline(logits):
            return adaptation_loss_batch(logits, ids, np.array([4]), 1.0)[0]

        x = _nudge(rng.normal(size=(6, 4)))  # (V, L)
        worst = max(worst, grad_check(
            adapt_pipeline, Tensor(np.ascontiguousarray(x.T[None]), dtype=np.float64)))

    # full encoder: gradients of the contrastive loss w.r.t. parameters
    for seed in (0, 1):
        model = _micro_model_f64(seed)
        ids = np.array([[1, 4, 5, 2], [1, 6, 7, 2]])
        lengths = np.array([4, 4])
        span = np.zeros((2, 4), dtype=bool)
        span[:, 1:] = True

        def model_loss(leaf, name):
            model.params[name] = leaf
            logits = model.forward_batch(ids, lengths)
            reps = pool_reps(logits, span)
            return ad.add(rank_loss_t(reps, reps, np.array([0, 1])),
                          ad.scale(flops_reg_t(reps), 0.003))

        for name in ("tok_emb", "layer0.wq", "layer0.w2", "lnf_b", "logit_bias"):
            original = model.params[name]
            err = grad_check(lambda leaf: model_loss(leaf, name),
                             Tensor(original.data.copy(), dtype=np.float64))
            model.params[name] = original
            worst = max(worst, err)

    report(capsys, f"AC-1 gradient correctness (max rel err {worst:.2e})",
           worst < 1e-4)


# ------------------------------------------------------------------- AC-2

def test_ac2_pooling_hand_values(capsys):
    ok = True
    rng = np.random.default_rng(0)
    ok &= splade_pool(-np.abs(rng.normal(size=(5, 3))) - 0.1, (0, 3)).nnz == 0
    logits = np.full((3, 2), -1.0)
    logits[1] = [1.0, 3.0]
    out = splade_pool(logits, (0, 2))
    ok &= out.term_ids.tolist() == [1]
    ok &= abs(float(out.weights[0]) - 1.386294) < 1e-6
    col = np.array([[-2.0], [0.5], [2.0]])
    single = splade_pool(col, (0, 1))
    ok &= single.term_ids.tolist() == [1, 2]
    ok &= np.allclose(single.weights, np.log1p([0.5, 2.0]), atol=1e-6)
    report(capsys, "AC-2 pooling-transform hand values", bool(ok))


# ------------------------------------------------------------------- AC-3

def test_ac3_dying_relu_reproduction_and_cure(capsys, synth):
    vocab = synth["vocab"]
    cfg = EncoderConfig(vocab_size=vocab.size, variant="bi", seed=SEED)

    # (a) adversarial negative-bias init: everything dead, update exactly zero
    model = EncoderModel(cfg)
    model.apply_logit_offset(-5.0)
    seqs = [tokenize(t, vocab, max_len=32) for t in synth["texts"][:16]]
    reps = encode_reps_tensor(model, seqs[:8])
    d_reps = encode_reps_tensor(model, seqs[8:])
    dead = empty_rep_fraction(reps)
    loss = ad.add(rank_loss_t(reps, d_reps, np.arange(8)),
                  ad.add(ad.scale(flops_reg_t(reps), 0.003),
                         ad.scale(flops_reg_t(d_reps), 0.003)))
    model.zero_grad()
    loss.backward()
    max_grad = max(float(np.abs(p.grad).max()) if p.grad is not None else 0.0
                   for p in model.params.values())
    stalled = dead == 1.0 and max_grad == 0.0

    # (b) adaptation cures it and contrastive loss then falls >= 20%
    model = EncoderModel(cfg)
    model.apply_logit_offset(-5.0)
    model, _ = run_adaptation(model, synth["texts"], vocab,
                              AdaptConfig(steps=500, batch_size=16, seq_len=32,
                                          lr=1e-2, warmup_steps=20, seed=SEED))
    doc_reps = encode_texts(model, vocab, list(synth["corpus"].values())[:200])
    dead_after = np.mean([r.nnz == 0 for r in doc_reps])
    _, train_report = run_contrastive(
        model, synth["triples"], synth["corpus"], synth["queries"], vocab,
        ContrastiveConfig(epochs=8, lr=3e-3, lambda_q=0.003, lambda_d=0.003,
                          seed=SEED))
    first = train_report.total[0]
    best_100 = min(train_report.total[:100])
    decrease = (first - best_100) / first
    cured = dead_after < 0.5 and decrease >= 0.20
    report(capsys,
           f"AC-3 dying-ReLU stall proven (dead={dead:.2f}, max|grad|={max_grad}) "
           f"and cured (dead={dead_after:.2f}, loss drop {decrease:.0%} in 100 steps)",
           stalled and cured)


# ------------------------------------------------------------------- AC-4

def test_ac4_learned_expansion_beats_lexical(capsys, synth, trained):
    stats = build_stats(synth["corpus"])
    bm25_run = {qid: bm25_search(synth["corpus"], text, stats, 10)
                for qid, text in synth["queries"].items()}
    bm25_mrr = mrr_at_k(bm25_run, synth["qrels"], 10)[1]

    untrained = EncoderModel(EncoderConfig(vocab_size=synth["vocab"].size,
                                           variant="bi", seed=SEED))
    untrained_mrr = evaluate_mrr(untrained, synth)
    trained_mrr = evaluate_mrr(trained["lambda_d=0.01"], synth)
    ok = (trained_mrr >= bm25_mrr + 0.3) and (trained_mrr >= untrained_mrr + 0.3)
    report(capsys,
           f"AC-4 trained MRR@10 {trained_mrr:.3f} vs BM25 {bm25_mrr:.3f} "
           f"and untrained {untrained_mrr:.3f} (margin 0.3)", ok)


# ------------------------------------------------------------------- AC-5

def test_ac5_variant_mechanics(capsys, synth):
    # exact causal information barrier
    barrier = True
    for seed in range(3):
        m = EncoderModel(EncoderConfig(vocab_size=20, d_model=16, n_layers=1,
                                       n_heads=2, max_seq_len=16,
                                       variant="causal", seed=seed))
        ids = np.array([BOS_ID, 5, 6, 7, 2])
        base = m.forward_logits(TokenSequence(ids, span=(1, 5)))
        mutated = ids.copy()
        mutated[3] = 11
        out = m.forward_logits(TokenSequence(mutated, span=(1, 5)))
        barrier &= np.array_equal(base[:, :3], out[:, :3])

    # echo and bi: early positions react to late tokens, >= 10 random models
    echo_hits = bi_hits = 0
    for seed in range(10):
        cfg = EncoderConfig(vocab_size=20, d_model=16, n_layers=1, n_heads=2,
                            max_seq_len=16, variant="echo", seed=seed)
        m = EncoderModel(cfg)
        base_seq = echo_expand(TokenSequence([BOS_ID, 5, 6, 7, 2], span=(1, 5)), 16)
        pert_seq = echo_expand(TokenSequence([BOS_ID, 5, 6, 11, 2], span=(1, 5)), 16)
        s = base_seq.span[0]
        if not np.array_equal(m.forward_logits(base_seq)[:, s],
                              m.forward_logits(pert_seq)[:, s]):
            echo_hits += 1
        mb = EncoderModel(EncoderConfig(vocab_size=20, d_model=16, n_layers=1,
                                        n_heads=2, max_seq_len=16,
                                        variant="bi", seed=seed))
        a = mb.forward_logits(TokenSequence([BOS_ID, 5, 6, 7, 2], span=(1, 5)))
        b = mb.forward_logits(TokenSequence([BOS_ID, 5, 6, 11, 2], span=(1, 5)))
        if not np.array_equal(a[:, 1], b[:, 1]):
            bi_hits += 1

    # all three variants train without NaN after adaptation
    finite = True
    for variant in VARIANTS:
        cfg = EncoderConfig(vocab_size=synth["vocab"].size, variant=variant, seed=SEED)
        model = EncoderModel(cfg)
        model, _ = run_adaptation(model, synth["texts"], synth["vocab"],
                                  AdaptConfig(steps=30, batch_size=16, seq_len=24,
                                              lr=3e-3, warmup_steps=5, seed=SEED))
        _, rep = run_contrastive(
            model, synth["triples"][:32], synth["corpus"], synth["queries"],
            synth["vocab"],
            ContrastiveConfig(epochs=1, lr=1e-3, seed=SEED))
        finite &= all(math.isfinite(v) for v in rep.total)

    ok = barrier and echo_hits == 10 and bi_hits == 10 and finite
    report(capsys,
           f"AC-5 variant mechanics (barrier exact, echo {echo_hits}/10, "
           f"bi {bi_hits}/10, all variants finite)", ok)


# ------------------------------------------------------------------- AC-6

@pytest.fixture(scope="module")
def big_reps():
    rng = np.random.default_rng(42)
    vocab_size = 500
    docs = []
    for i in range(10_000):
        nnz = int(rng.integers(3, 20))
        terms = np.sort(rng.choice(vocab_size, size=nnz, replace=False))
        weights = rng.uniform(0.05, 4.0, size=nnz).astype(np.float32)
        from csplade.splade import SparseRep
        docs.append((f"d{i}", SparseRep(terms, weights, vocab_size)))
    queries = [random_sparse_rep(rng, vocab_size, max_nnz=10) for _ in range(100)]
    return docs, queries, vocab_size


def test_ac6_index_oracle_equivalence(capsys, tmp_path, big_reps):
    docs, queries, vocab_size = big_reps
    idx = build_index(docs, bits=0)
    dense = np.zeros((len(docs), vocab_size))
    for i, (_, rep_) in enumerate(docs):
        dense[i, rep_.term_ids] = rep_.weights.astype(np.float64)

    exact = True
    for q in queries:
        got = search(idx, q, 100)
        scores = dense @ to_dense(q)
        cand = np.flatnonzero(scores > 0)
        order = np.lexsort((cand, -scores[cand]))[:100]
        want_ids = [docs[i][0] for i in cand[order]]
        exact &= got.doc_ids == want_ids
        exact &= np.allclose(got.scores, scores[cand[order]], atol=1e-5)

    path = tmp_path / "big.idx"
    serialize(idx, path)
    loaded = deserialize(path)
    q = queries[0]
    a, b = search(idx, q, 100), search(loaded, q, 100)
    round_trip = a.doc_ids == b.doc_ids and np.array_equal(a.scores, b.scores)

    path_8 = tmp_path / "big8.idx"
    serialize(build_index(docs, bits=8), path_8)
    size_0, size_8 = path.stat().st_size, path_8.stat().st_size
    ratio = size_8 / size_0
    size_ok = ratio < 0.40

    ok = exact and round_trip and size_ok
    report(capsys,
           f"AC-6 index oracle equivalence (exact={exact}, round_trip={round_trip}, "
           f"8-bit/raw size ratio {ratio:.1%} < 40%={size_ok})", ok)


# ------------------------------------------------------------------- AC-7

def test_ac7_quantization_tradeoff(capsys, synth, trained):
    model = trained["lambda_d=0.01"]
    fp32 = evaluate_mrr(model, synth)
    q8 = quantize_weights(model, QuantConfig(bits=8, granularity=PER_CHANNEL))
    q4 = quantize_weights(model, QuantConfig(bits=4, granularity=GROUPWISE))
    int8 = evaluate_mrr(q8.dequantized_model(), synth)
    int4 = evaluate_mrr(q4.dequantized_model(), synth)

    seqs = [tokenize(t, synth["vocab"], max_len=32)
            for t in list(synth["queries"].values())[:10]]
    reports = [bench_encode(m, seqs, warmup_iters=2, measure_iters=30,
                            config_name=name)
               for name, m in (("fp32", model), ("int8", q8), ("int4", q4))]
    latency_ok = all(r.qps > 0 and r.p95_ms >= r.p50_ms for r in reports)

    ok = abs(int8 - fp32) <= 0.02 and int4 <= int8 and latency_ok
    report(capsys,
           f"AC-7 quantization tradeoff (fp32 {fp32:.3f}, int8 {int8:.3f}, "
           f"int4 {int4:.3f}; latency reports for 3 configs)", ok)


# ------------------------------------------------------------------- AC-8

def test_ac8_flops_sparsity_control(capsys, synth, trained):
    def avg_doc_nnz(model):
        reps = encode_texts(model, synth["vocab"], synth["corpus"].values())
        return float(np.mean([r.nnz for r in reps]))

    nnz_free = avg_doc_nnz(trained["lambda_d=0"])
    nnz_reg = avg_doc_nnz(trained["lambda_d=0.01"])
    mrr_free = evaluate_mrr(trained["lambda_d=0"], synth)
    mrr_reg = evaluate_mrr(trained["lambda_d=0.01"], synth)
    reduction = (nnz_free - nnz_reg) / nnz_free
    ok = reduction >= 0.20 and abs(mrr_free - mrr_reg) <= 0.1
    report(capsys,
           f"AC-8 sparsity control (doc nnz {nnz_free:.0f} -> {nnz_reg:.0f}, "
           f"-{reduction:.0%}; MRR {mrr_free:.3f} vs {mrr_reg:.3f})", ok)


# ------------------------------------------------------------------- AC-9

def test_ac9_metric_and_bm25_oracles(capsys):
    from test_evalkit import _oracle_metrics, _random_instance
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        run, qrels = _random_instance(rng)
        k = int(rng.integers(1, 12))
        want = _oracle_metrics(run, qrels, k)
        got = (mrr_at_k(run, qrels, k)[1], recall_at_k(run, qrels, k)[1],
               ndcg_at_k(run, qrels, k)[1])
        worst = max(worst, max(abs(g - w) for g, w in zip(got, want)))

    stats = build_stats({"d1": "apple pear", "d2": "grape melon"})
    hand = bm25_score(["apple"], "apple pear".split(), stats)
    bm25_ok = abs(hand - math.log(2.0)) < 1e-6

    import inspect
    sig = inspect.signature(bm25_score)
    defaults_ok = (sig.parameters["k1"].default == 0.9
                   and sig.parameters["b"].default == 0.4)
    ok = worst < 1e-9 and bm25_ok and defaults_ok
    report(capsys,
           f"AC-9 metric oracles (max dev {worst:.1e}) and BM25 closed form "
           f"(k1=0.9, b=0.4)", ok)


# ------------------------------------------------------------------ AC-10

def test_ac10_pipeline_determinism(capsys, tmp_path):
    from csplade.cli import main

    def pipeline(root):
        root.mkdir()
        a = ["synth", "--seed", "3", "--docs", "60", "--queries", "10",
             "--synonym-pairs", "10", "--hard-negs", "2", "--out", str(root)]
        assert main(a) == 0
        model, vocab = root / "m.ckpt", root / "vocab.txt"
        assert main(["adapt", "--corpus", str(root / "corpus.tsv"),
                     "--steps", "20", "--warmup", "2", "--seq-len", "16",
                     "--d-model", "16", "--layers", "1", "--heads", "2",
                     "--max-seq-len", "32", "--variant", "bi",
                     "--vocab-out", str(vocab), "--out", str(model)]) == 0
        trained_ = root / "t.ckpt"
        assert main(["train", "--model", str(model), "--vocab", str(vocab),
                     "--triples", str(root / "triples.jsonl"),
                     "--corpus", str(root / "corpus.tsv"),
                     "--queries", str(root / "queries.tsv"),
                     "--epochs", "2", "--hard-negs", "1", "--variant", "bi",
                     "--out", str(trained_)]) == 0
        reps = root / "reps.txt"
        assert main(["encode", "--model", str(trained_), "--vocab", str(vocab),
                     "--input", str(root / "corpus.tsv"), "--variant", "bi",
                     "--out", str(reps)]) == 0
        idx = root / "index.bin"
        assert main(["index", "--reps", str(reps), "--vocab", str(vocab),
                     "--bits", "8", "--out", str(idx)]) == 0
        run = root / "run.txt"
        assert main(["search", "--queries", str(root / "queries.tsv"),
                     "--index", str(idx), "--model", str(trained_),
                     "--vocab", str(vocab), "--variant", "bi", "--k", "10",
                     "--out", str(run)]) == 0
        metrics = root / "metrics.csv"
        assert main(["eval", "--run", str(run),
                     "--qrels", str(root / "qrels.txt"), "--k", "10",
                     "--out", str(metrics)]) == 0

    pipeline(tmp_path / "run1")
    pipeline(tmp_path / "run2")
    compared = ["m.ckpt", "t.ckpt", "reps.txt", "index.bin", "run.txt",
                "metrics.csv"]
    identical = all((tmp_path / "run1" / n).read_bytes()
                    == (tmp_path / "run2" / n).read_bytes() for n in compared)
    report(capsys,
           f"AC-10 determinism ({len(compared)} artifacts byte-identical)",
           identical)
