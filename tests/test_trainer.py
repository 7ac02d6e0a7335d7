"""Training-loop tests: schedules, determinism, diagnostics, contracts."""

import numpy as np
import pytest

from csplade import autodiff as ad, trainer
from csplade.autodiff import Tensor
from csplade.corpus import SynthSpec, build_vocab, synth_generate, tokenize
from csplade.encoder import BOS_ID, EncoderConfig, EncoderModel
from csplade.trainer import (AdamW, AdaptConfig, ContrastiveConfig,
                             TrainingDivergedError, TrainReport, cosine_lr,
                             dead_dim_fraction, empty_rep_fraction,
                             pack_sequences, prepare_sequence,
                             run_adaptation, run_contrastive)


@pytest.fixture(scope="module")
def small_data():
    corpus, queries, qrels, triples = synth_generate(
        SynthSpec(n_docs=20, n_queries=6, base_vocab_size=30,
                  n_synonym_pairs=8, hard_negatives_per_query=2, seed=1))
    vocab = build_vocab(list(corpus.values()) + list(queries.values()))
    return corpus, queries, qrels, triples, vocab


def small_model(vocab, variant="bi", seed=0):
    cfg = EncoderConfig(vocab_size=vocab.size, d_model=16, n_layers=1, n_heads=2,
                        max_seq_len=32, variant=variant, seed=seed)
    return EncoderModel(cfg)


class TestCosineLR:
    def test_schedule_shape(self):
        total, warmup, peak = 100, 10, 0.5
        assert cosine_lr(0, total, warmup, peak) == 0.0
        assert cosine_lr(warmup, total, warmup, peak) == pytest.approx(peak)
        assert cosine_lr(total, total, warmup, peak) <= 0.01 * peak
        # monotone rise through warmup, fall after
        rise = [cosine_lr(s, total, warmup, peak) for s in range(warmup + 1)]
        fall = [cosine_lr(s, total, warmup, peak) for s in range(warmup, total + 1)]
        assert all(a < b for a, b in zip(rise, rise[1:]))
        assert all(a >= b for a, b in zip(fall, fall[1:]))


class TestConfigs:
    def test_warmup_must_precede_steps(self):
        with pytest.raises(ValueError, match="warmup"):
            AdaptConfig(steps=10, warmup_steps=10)

    @pytest.mark.parametrize("seq_len", [1, 0])
    def test_seq_len_below_two_rejected(self, seq_len):
        with pytest.raises(ValueError, match="seq_len"):
            AdaptConfig(seq_len=seq_len)

    def test_negative_lambdas_rejected(self):
        with pytest.raises(ValueError):
            AdaptConfig(lambda_relu=-1.0)
        with pytest.raises(ValueError):
            ContrastiveConfig(lambda_q=-0.1)

    @pytest.mark.parametrize("cls, field, value, message", [
        (AdaptConfig, "batch_size", 0, "batch_size must be >= 1"),
        (AdaptConfig, "steps", -1, "steps must be >= 0"),
        (AdaptConfig, "warmup_steps", -1, "warmup_steps must be >= 0"),
        (AdaptConfig, "lr", -1e-3, "lr must be >= 0"),
        (ContrastiveConfig, "global_batch_size", 0, "global_batch_size must be >= 1"),
        (ContrastiveConfig, "epochs", -1, "epochs must be >= 0"),
        (ContrastiveConfig, "warmup_steps", -1, "warmup_steps must be >= 0"),
        (ContrastiveConfig, "lr", -1e-3, "lr must be >= 0"),
    ])
    def test_out_of_range_fields_rejected(self, cls, field, value, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            cls(**{field: value})

    def test_zero_steps_and_epochs_allowed(self):
        assert AdaptConfig(steps=0, warmup_steps=5).steps == 0
        assert ContrastiveConfig(epochs=0).epochs == 0

    @pytest.mark.parametrize("total", [1, 2, 19, 20, 30, 650])
    def test_default_warmup_is_five_percent(self, total):
        assert trainer.resolve_warmup(None, total) == int(round(0.05 * total)) < total

    def test_contrastive_warmup_must_precede_steps(self, small_data):
        """The contrastive step count is known only from the triples, so the
        check runs when training starts, with the same message."""
        corpus, queries, _, triples, vocab = small_data
        cfg = ContrastiveConfig(epochs=1, global_batch_size=len(triples), warmup_steps=1)
        with pytest.raises(ValueError, match="warmup_steps must be < steps"):
            run_contrastive(small_model(vocab), triples, corpus, queries, vocab, cfg)


class TestHelpers:
    def test_pack_sequences(self, small_data):
        *_, vocab = small_data
        seqs = [tokenize("qs0 qs1", vocab), tokenize("qs0", vocab)]
        ids, lengths, span = pack_sequences(seqs)
        assert ids.shape == (2, 4)
        assert lengths.tolist() == [4, 3]
        assert ids[1, 3] == 0  # PAD
        assert span[0].tolist() == [False, True, True, True]
        assert span[1].tolist() == [False, True, True, False]

    def test_prepare_sequence_echo_fits_window(self, small_data):
        *_, vocab = small_data
        cfg = EncoderConfig(vocab_size=vocab.size, max_seq_len=16)
        long_text = " ".join(["qs0"] * 40)
        seq = prepare_sequence(long_text, vocab, cfg, echo=True)
        assert seq.length <= 16
        assert seq.ids[0] == BOS_ID

    def test_empty_rep_fraction(self):
        dense = np.zeros((10, 4), dtype=np.float32)
        assert empty_rep_fraction(Tensor(dense)) == 1.0
        dense[3:, 1] = 1.0
        assert empty_rep_fraction(Tensor(dense)) == pytest.approx(0.3)
        dense[:3, 2] = trainer.WEIGHT_FLOOR  # at the floor counts as empty
        assert empty_rep_fraction(Tensor(dense)) == pytest.approx(0.3)
        dense[:, 0] = 1.0
        assert empty_rep_fraction(Tensor(dense)) == 0.0
        with pytest.raises(ValueError, match="empty_rep_fraction"):
            empty_rep_fraction(Tensor(np.zeros((0, 4), dtype=np.float32)))


class TestDeadDimFraction:
    """Share of vocabulary dimensions that no rep of the batch uses."""

    def test_all_dead(self):
        assert dead_dim_fraction(Tensor(np.zeros((3, 8), dtype=np.float32))) == 1.0

    def test_none_dead(self):
        dense = np.eye(4, dtype=np.float32)
        assert dead_dim_fraction(Tensor(dense)) == 0.0

    def test_one_live_column(self):
        dense = np.zeros((5, 10), dtype=np.float32)
        dense[2, 7] = 0.3
        assert dead_dim_fraction(Tensor(dense)) == pytest.approx(0.9)

    def test_weights_at_the_floor_are_dead(self):
        dense = np.full((2, 4), trainer.WEIGHT_FLOOR, dtype=np.float64)
        dense[0, 1] = 2 * trainer.WEIGHT_FLOOR
        assert dead_dim_fraction(Tensor(dense)) == pytest.approx(0.75)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="dead_dim_fraction"):
            dead_dim_fraction(Tensor(np.zeros((0, 8), dtype=np.float32)))


class TestEncodeTexts:
    def test_no_graph_and_bit_equal_to_grad_mode(self, small_data, monkeypatch):
        corpus, *_, vocab = small_data
        model = small_model(vocab)
        texts = list(corpus.values())[:5]
        logits_out = []
        original = model.forward_batch

        def spy(ids, lengths):
            out = original(ids, lengths)
            logits_out.append(out)
            return out

        monkeypatch.setattr(model, "forward_batch", spy)
        reps = trainer.encode_texts(model, vocab, texts)
        assert len(logits_out) == len(texts)
        for out in logits_out:
            assert not out.requires_grad and out._backward is None
        logits_out.clear()
        for text, rep in zip(texts, reps):
            seq = prepare_sequence(text, vocab, model.cfg, False)
            graph = trainer.splade_pool(model.forward_logits(seq), seq.span)
            assert logits_out[-1].requires_grad  # grad mode did build a graph
            assert graph.term_ids.tobytes() == rep.term_ids.tobytes()
            assert graph.weights.tobytes() == rep.weights.tobytes()

    def test_echo_model_pools_echo_sequences(self, small_data):
        """The model's config alone decides echo input: an echo model's reps
        are the pooled reps of the echo-expanded sequences."""
        corpus, *_, vocab = small_data
        model = small_model(vocab, variant="echo")
        texts = list(corpus.values())[:5]
        reps = trainer.encode_texts(model, vocab, texts)
        differs = False
        for text, rep in zip(texts, reps):
            pooled = {}
            for echo in (True, False):
                seq = prepare_sequence(text, vocab, model.cfg, echo)
                pooled[echo] = trainer.encode_reps_tensor(model, [seq]).data[0]
            keep = np.flatnonzero(pooled[True] > trainer.WEIGHT_FLOOR)
            assert rep.term_ids.tolist() == keep.tolist()
            assert rep.weights.tobytes() == pooled[True][keep].tobytes()
            differs |= pooled[True].tobytes() != pooled[False].tobytes()
        assert differs  # echo input changes the reps, so the check has teeth


class TestTrainReport:
    HEADER = ("step,rank_loss,flops_q,flops_d,clm,relu_clm,total,dead_frac,"
              "avg_nnz_q,avg_nnz_d,lr,step_ms,grad_norm,dead_dims")

    def test_csv_round_trip(self, tmp_path):
        names = [name for name, _ in TrainReport.COLUMNS[1:]]
        rows = [{name: 0.125 * (i + 1) + 0.5 * row for i, name in enumerate(names)}
                for row in range(2)]
        r = TrainReport()
        r.append(3, **rows[0])
        r.append(7, **rows[1])
        r.append(8, rank_loss=1.2)  # a column left out reads 0
        path = tmp_path / "report.csv"
        r.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == TrainReport.CSV_HEADER == self.HEADER
        assert lines[1].split(",")[11] == "1.375"  # step_ms, as stored
        loaded = TrainReport.from_csv(path)
        assert len(loaded) == 3 and loaded.step == [3, 7, 8]
        for name in names:
            want = [rows[0][name], rows[1][name], 1.2 if name == "rank_loss" else 0.0]
            assert getattr(loaded, name) == want, name
        loaded.to_csv(tmp_path / "again.csv")
        assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()

    def test_unknown_column_rejected(self):
        r = TrainReport()
        with pytest.raises(ValueError, match="rank_los$"):
            r.append(0, rank_los=1.0)
        assert len(r) == 0
        with pytest.raises(AttributeError):
            r.rank_los

    def test_unknown_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("step,loss\n0,1.0\n")
        with pytest.raises(ValueError, match="header"):
            TrainReport.from_csv(path)

    def test_short_row_rejected(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text(TrainReport.CSV_HEADER + "\n0,1.0,2.0\n")
        with pytest.raises(ValueError, match="short.csv:2"):
            TrainReport.from_csv(path)


class TestAdaptation:
    def test_zero_steps_returns_model_unchanged(self, small_data):
        corpus, *_, vocab = small_data
        model = small_model(vocab)
        before = {k: p.data.copy() for k, p in model.params.items()}
        out, report = run_adaptation(model, corpus.values(), vocab,
                                     AdaptConfig(steps=0))
        assert len(report) == 0
        for k, p in out.params.items():
            np.testing.assert_array_equal(p.data, before[k])

    def test_lambda_zero_total_equals_clm(self, small_data):
        corpus, *_, vocab = small_data
        model = small_model(vocab)
        _, report = run_adaptation(model, corpus.values(), vocab,
                                   AdaptConfig(steps=3, warmup_steps=1,
                                               lambda_relu=0.0, seq_len=16))
        for total, clm in zip(report.total, report.clm):
            assert total == clm

    def test_deterministic(self, small_data):
        corpus, *_, vocab = small_data
        cfg = AdaptConfig(steps=4, warmup_steps=1, seq_len=16, seed=5)
        outs = []
        for _ in range(2):
            m, _ = run_adaptation(small_model(vocab, seed=2), corpus.values(), vocab, cfg)
            outs.append({k: p.data.copy() for k, p in m.params.items()})
        for k in outs[0]:
            np.testing.assert_array_equal(outs[0][k], outs[1][k])

    def test_nan_aborts_with_diagnostics(self, small_data):
        corpus, *_, vocab = small_data
        model = small_model(vocab)
        model.params["tok_emb"].data[:] = np.nan
        with pytest.raises(TrainingDivergedError, match="step 0"):
            run_adaptation(model, corpus.values(), vocab,
                           AdaptConfig(steps=2, warmup_steps=1, seq_len=16))

    def test_report_measures_sparsity(self, small_data, monkeypatch):
        corpus, *_, vocab = small_data
        seen = []
        original = trainer.pool_reps

        def spy(logits, span_mask, *args):
            assert not ad._grad_enabled  # measured outside the graph
            seen.append((logits.data.copy(), span_mask.copy()))
            return original(logits, span_mask, *args)

        monkeypatch.setattr(trainer, "pool_reps", spy)
        _, report = run_adaptation(small_model(vocab), corpus.values(), vocab,
                                   AdaptConfig(steps=3, warmup_steps=1, seq_len=16))
        assert len(seen) == 3
        for (logits, span), nnz, dead, dims in zip(seen, report.avg_nnz_d, report.dead_frac,
                                                   report.dead_dims):
            pooled = np.where(span[:, :, None], logits, -np.inf).max(axis=1)
            live = np.log1p(np.maximum(pooled, 0)) > trainer.WEIGHT_FLOOR
            counts = live.sum(axis=1)
            assert nnz == pytest.approx(counts.mean()) and nnz > 0
            assert dead == pytest.approx((counts == 0).mean())
            assert dims == pytest.approx(1.0 - live.any(axis=0).mean())
        assert report.avg_nnz_q == [0.0] * 3

    def test_report_records_unclipped_grad_norm(self, small_data, monkeypatch):
        """The adaptation row's grad_norm is the global norm of the grads
        the optimizer step saw; adaptation does not clip."""
        corpus, *_, vocab = small_data
        seen = []
        original_step = trainer.AdamW.step

        def step_spy(self, lr):
            grads = [p.grad for p in self.params.values() if p.grad is not None]
            seen.append(np.sqrt(sum(float(np.vdot(g, g)) for g in grads)))
            return original_step(self, lr)

        monkeypatch.setattr(trainer.AdamW, "step", step_spy)
        _, report = run_adaptation(small_model(vocab), corpus.values(), vocab,
                                   AdaptConfig(steps=3, warmup_steps=1, seq_len=16))
        assert report.grad_norm == pytest.approx(seen, rel=1e-12)
        assert all(norm > 0 for norm in report.grad_norm)

    def test_dead_start_reports_all_empty(self, small_data):
        corpus, *_, vocab = small_data
        model = small_model(vocab)
        model.apply_logit_offset(-50.0)
        _, report = run_adaptation(model, corpus.values(), vocab,
                                   AdaptConfig(steps=2, warmup_steps=1, seq_len=16))
        assert report.dead_frac[0] == 1.0 and report.avg_nnz_d[0] == 0.0

    def test_empty_corpus_rejected(self, small_data):
        *_, vocab = small_data
        with pytest.raises(ValueError, match="non-empty"):
            run_adaptation(small_model(vocab), [], vocab,
                           AdaptConfig(steps=5, warmup_steps=1))


class TestContrastive:
    def test_in_batch_negative_count(self, small_data, monkeypatch):
        """2 queries with 1 hard negative each: score row has 4 columns."""
        corpus, queries, _, triples, vocab = small_data
        captured = {}
        original = trainer.splade.rank_loss_t

        def spy(q_reps, d_reps, positives):
            captured["shape"] = (q_reps.shape, d_reps.shape, positives.copy())
            return original(q_reps, d_reps, positives)

        monkeypatch.setattr(trainer.splade, "rank_loss_t", spy)
        cfg = ContrastiveConfig(epochs=1, global_batch_size=2,
                                hard_negatives_per_positive=1, seed=0)
        run_contrastive(small_model(vocab), triples[:2], corpus, queries, vocab, cfg)
        (qb, _), (db, _), positives = captured["shape"]
        assert qb == 2 and db == 4  # 1 positive + 3 negatives per query
        assert positives.tolist() == [0, 2]

    def test_positive_columns_with_unequal_negatives(self, monkeypatch):
        """Triples with 3 and 1 hard negatives give 6 document columns; each
        query's positive column holds its own positive document, whichever
        triple the batch takes first."""
        corpus = {"p1": "alpha beta", "n1a": "gamma", "n1b": "delta", "n1c": "epsilon",
                  "p2": "zeta eta", "n2a": "theta"}
        queries = {"q1": "alpha", "q2": "zeta"}
        triples = [{"query_id": "q1", "positive_ids": ["p1"],
                    "negative_ids": ["n1a", "n1b", "n1c"]},
                   {"query_id": "q2", "positive_ids": ["p2"], "negative_ids": ["n2a"]}]
        vocab = build_vocab([*corpus.values(), *queries.values()])
        model = small_model(vocab)
        key = {}
        for texts in (corpus, queries):
            for name, text in texts.items():
                key[tuple(prepare_sequence(text, vocab, model.cfg, False).ids)] = name
        batches, calls = [], []
        encode, rank_loss = trainer.encode_reps_tensor, trainer.splade.rank_loss_t

        def encode_spy(model, seqs):
            batches.append([key[tuple(s.ids)] for s in seqs])
            return encode(model, seqs)

        def rank_spy(q_reps, d_reps, positives):
            calls.append((batches[-2], batches[-1], positives.tolist()))
            return rank_loss(q_reps, d_reps, positives)

        monkeypatch.setattr(trainer, "encode_reps_tensor", encode_spy)
        monkeypatch.setattr(trainer.splade, "rank_loss_t", rank_spy)
        cfg = ContrastiveConfig(epochs=4, global_batch_size=2,
                                hard_negatives_per_positive=3, seed=0)
        run_contrastive(model, triples, corpus, queries, vocab, cfg)
        assert len(calls) == 4
        for qs, ds, positives in calls:
            assert len(ds) == 6
            assert [ds[c] for c in positives] == [{"q1": "p1", "q2": "p2"}[q] for q in qs]
        assert {tuple(qs) for qs, _, _ in calls} == {("q1", "q2"), ("q2", "q1")}

    def test_lambda_zero_total_is_rank_loss(self, small_data):
        corpus, queries, _, triples, vocab = small_data
        cfg = ContrastiveConfig(epochs=1, lambda_q=0.0, lambda_d=0.0, seed=0)
        _, report = run_contrastive(small_model(vocab), triples, corpus,
                                    queries, vocab, cfg)
        for total, rank in zip(report.total, report.rank_loss):
            assert total == pytest.approx(rank, abs=1e-9)

    def test_total_combines_the_three_terms(self, small_data):
        """The recorded total is the backpropagated float32 loss
        rank_loss + lambda_q * flops_q + lambda_d * flops_d."""
        corpus, queries, _, triples, vocab = small_data
        cfg = ContrastiveConfig(epochs=1, lambda_q=0.1, lambda_d=0.2, seed=0)
        _, report = run_contrastive(small_model(vocab), triples, corpus,
                                    queries, vocab, cfg)
        assert len(report) > 0
        for row in zip(report.total, report.rank_loss, report.flops_q, report.flops_d):
            total, rank, fq, fd = row
            assert fq > 0 and fd > 0
            assert total == pytest.approx(rank + 0.1 * fq + 0.2 * fd, rel=1e-6)

    def test_report_records_grad_norm_before_clipping(self, small_data, monkeypatch):
        corpus, queries, _, triples, vocab = small_data
        returned = []
        original = trainer.clip_grad_norm

        def spy(params, max_norm):
            returned.append(original(params, max_norm))
            return returned[-1]

        monkeypatch.setattr(trainer, "clip_grad_norm", spy)
        _, report = run_contrastive(small_model(vocab), triples, corpus, queries,
                                    vocab, ContrastiveConfig(epochs=1, seed=0))
        assert returned and report.grad_norm == returned
        assert report.dead_dims and all(0.0 <= d < 1.0 for d in report.dead_dims)

    def test_nan_aborts_with_the_three_terms(self, small_data):
        corpus, queries, _, triples, vocab = small_data
        model = small_model(vocab)
        model.params["tok_emb"].data[:] = np.nan
        with pytest.raises(TrainingDivergedError,
                           match=r"contrastive step 0: .*rank_loss=nan, flops_q=nan, flops_d=nan"):
            run_contrastive(model, triples, corpus, queries, vocab,
                            ContrastiveConfig(epochs=1, seed=0))

    def test_deterministic_final_parameters(self, small_data):
        corpus, queries, _, triples, vocab = small_data
        cfg = ContrastiveConfig(epochs=1, seed=3)
        outs = []
        for _ in range(2):
            m, _ = run_contrastive(small_model(vocab, seed=1), triples, corpus,
                                   queries, vocab, cfg)
            outs.append({k: p.data.copy() for k, p in m.params.items()})
        for k in outs[0]:
            np.testing.assert_array_equal(outs[0][k], outs[1][k])

    def test_echo_model_trains_on_echo_sequences(self, small_data, monkeypatch):
        """run_contrastive takes echo input from the model's config: with a
        default ContrastiveConfig, every row that forward_batch sees is the
        echo sequence of a query or document."""
        corpus, queries, _, triples, vocab = small_data
        model = small_model(vocab, variant="echo")
        rows = []
        original = model.forward_batch

        def spy(ids, lengths):
            rows.extend(tuple(r[:n]) for r, n in zip(ids.tolist(), lengths.tolist()))
            return original(ids, lengths)

        monkeypatch.setattr(model, "forward_batch", spy)
        run_contrastive(model, triples, corpus, queries, vocab, ContrastiveConfig(epochs=1))
        echo = {tuple(prepare_sequence(t, vocab, model.cfg, True).ids.tolist())
                for t in [*queries.values(), *corpus.values()]}
        # one query, one positive and up to 3 hard negatives per triple
        assert len(rows) == sum(2 + min(3, len(t["negative_ids"])) for t in triples)
        assert set(rows) <= echo

    def test_missing_positive_rejected(self, small_data):
        corpus, queries, _, _, vocab = small_data
        bad = [{"query_id": "q0", "positive_ids": [], "negative_ids": ["d1"]}]
        with pytest.raises(ValueError, match="positive"):
            run_contrastive(small_model(vocab), bad, corpus, queries, vocab,
                            ContrastiveConfig(epochs=1))

    def test_all_dead_batch_warns(self, small_data):
        corpus, queries, _, triples, vocab = small_data
        model = small_model(vocab)
        model.apply_logit_offset(-50.0)  # guarantees empty representations
        cfg = ContrastiveConfig(epochs=1, seed=0)
        with pytest.warns(RuntimeWarning, match="empty_rep_fraction"):
            run_contrastive(model, triples, corpus, queries, vocab, cfg)

    def test_gradients_clipped_to_global_norm(self, small_data, monkeypatch):
        """Every optimizer step sees a global grad norm <= GRAD_CLIP_NORM."""
        corpus, queries, _, triples, vocab = small_data
        model = small_model(vocab)
        pre_clip = []
        original = trainer.clip_grad_norm

        def spy(params, max_norm):
            pre_clip.append(original(params, max_norm))
            return pre_clip[-1]

        monkeypatch.setattr(trainer, "clip_grad_norm", spy)
        post_clip = []
        original_step = trainer.AdamW.step

        def step_spy(self, lr):
            grads = [p.grad for p in self.params.values() if p.grad is not None]
            post_clip.append(np.sqrt(sum(float(np.vdot(g, g)) for g in grads)))
            return original_step(self, lr)

        monkeypatch.setattr(trainer.AdamW, "step", step_spy)
        cfg = ContrastiveConfig(epochs=1, seed=0)
        run_contrastive(model, triples, corpus, queries, vocab, cfg)
        assert post_clip and len(pre_clip) == len(post_clip)
        assert max(pre_clip) > trainer.GRAD_CLIP_NORM  # clipping was exercised
        assert max(post_clip) <= trainer.GRAD_CLIP_NORM * (1 + 1e-5)

    def test_fused_ops_bit_identical_to_primitive_chains(self, small_data, monkeypatch):
        """Adaptation then contrastive training gives the same parameter bits
        with the fused attention and slice nodes as with the primitive
        chains they replace."""
        from conftest import attention_chain, slice_by_matmul
        corpus, queries, _, triples, vocab = small_data

        def train():
            model = small_model(vocab, variant="causal", seed=4)
            run_adaptation(model, corpus.values(), vocab,
                           AdaptConfig(steps=3, warmup_steps=1, seq_len=16, seed=4))
            model.cfg.variant = "bi"
            run_contrastive(model, triples, corpus, queries, vocab,
                            ContrastiveConfig(epochs=1, seed=4))
            return {k: p.data.tobytes() for k, p in model.params.items()}

        fused = train()
        monkeypatch.setattr(trainer.ad, "attention", attention_chain)
        monkeypatch.setattr(trainer.ad, "slice_axis", slice_by_matmul)
        assert train() == fused


class TestSharedLoop:
    @pytest.mark.parametrize("phase", ["adaptation", "contrastive"])
    def test_sparsity_measured_after_the_timed_step(self, small_data, monkeypatch, phase):
        """In both phases each row's sparsity is measured after the step's
        AdamW update, outside step_ms."""
        corpus, queries, _, triples, vocab = small_data
        events = []
        original_step, original_dims = trainer.AdamW.step, trainer.dead_dim_fraction

        def step_spy(self, lr):
            events.append("step")
            return original_step(self, lr)

        def dims_spy(reps):
            events.append("sparsity")
            return original_dims(reps)

        monkeypatch.setattr(trainer.AdamW, "step", step_spy)
        monkeypatch.setattr(trainer, "dead_dim_fraction", dims_spy)
        if phase == "adaptation":
            _, report = run_adaptation(small_model(vocab), corpus.values(), vocab,
                                       AdaptConfig(steps=3, warmup_steps=1, seq_len=16))
        else:
            _, report = run_contrastive(small_model(vocab), triples, corpus, queries, vocab,
                                        ContrastiveConfig(epochs=2, seed=0))
        assert len(report) > 1 and events == ["step", "sparsity"] * len(report)

    def test_adaptation_does_not_warn_when_dead(self, small_data, recwarn):
        corpus, *_, vocab = small_data
        model = small_model(vocab)
        model.apply_logit_offset(-50.0)
        _, report = run_adaptation(model, corpus.values(), vocab,
                                   AdaptConfig(steps=2, warmup_steps=1, seq_len=16))
        assert report.dead_frac == [1.0, 1.0]
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_non_finite_loss_does_not_warn_empty(self, small_data, recwarn):
        """A diverged contrastive step raises without first warning that its
        (NaN) reps are empty."""
        corpus, queries, _, triples, vocab = small_data
        model = small_model(vocab)
        model.params["tok_emb"].data[:] = np.nan
        with pytest.raises(TrainingDivergedError):
            run_contrastive(model, triples, corpus, queries, vocab,
                            ContrastiveConfig(epochs=1, seed=0))
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


class TestClipGradNorm:
    def _params(self, *grads):
        from csplade.autodiff import Tensor
        params = {}
        for i, g in enumerate(grads):
            p = Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)
            p.grad = None if g is None else np.array(g, dtype=np.float32)
            params[f"p{i}"] = p
        return params

    def test_scales_to_max_norm_keeping_direction(self):
        params = self._params([3.0, 0.0], [0.0, 4.0], None)  # norm 5
        assert trainer.clip_grad_norm(params, 1.0) == pytest.approx(5.0)
        np.testing.assert_allclose(params["p0"].grad, [0.6, 0.0], rtol=1e-6)
        np.testing.assert_allclose(params["p1"].grad, [0.0, 0.8], rtol=1e-6)
        assert params["p2"].grad is None

    def test_shared_gradient_scaled_once_per_parameter(self):
        from csplade import autodiff as ad
        from csplade.autodiff import Tensor
        a = Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)
        b = Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)
        w = Tensor(np.array([3.0, 4.0], dtype=np.float32))
        ad.sum_over_axis(ad.mul(ad.add(a, b), w)).backward()
        assert a.grad is b.grad  # add hands both inputs the same array
        params = {"a": a, "b": b}
        norm = trainer.clip_grad_norm(params, 1.0)  # global norm sqrt(50)
        assert norm == pytest.approx(np.sqrt(50.0))
        for p in params.values():
            np.testing.assert_allclose(p.grad, np.array([3.0, 4.0]) / np.sqrt(50.0),
                                       rtol=1e-6)

    def test_small_gradients_untouched(self):
        params = self._params([0.3, 0.4])
        assert trainer.clip_grad_norm(params, 1.0) == pytest.approx(0.5)
        np.testing.assert_array_equal(params["p0"].grad,
                                      np.array([0.3, 0.4], dtype=np.float32))


class TestAdamW:
    def test_moves_against_gradient(self):
        from csplade.autodiff import Tensor
        p = Tensor(np.array([1.0], dtype=np.float32), requires_grad=True)
        p.grad = np.array([2.0], dtype=np.float32)
        opt = AdamW({"p": p})
        before = p.data.copy()
        opt.step(0.1)
        assert p.data[0] < before[0]

    def test_skips_parameters_without_grad(self):
        from csplade.autodiff import Tensor
        p = Tensor(np.array([1.0], dtype=np.float32), requires_grad=True)
        opt = AdamW({"p": p})
        opt.step(0.1)
        assert p.data[0] == 1.0

    def test_bit_identical_to_reference_formula(self):
        from conftest import adamw_step_reference
        rng = np.random.default_rng(12)
        shapes = {"w": (6, 5), "b": (5,), "frozen": (3, 4)}

        def params():
            return {k: Tensor(np.random.default_rng(1).normal(size=s).astype(np.float32),
                              requires_grad=True) for k, s in shapes.items()}

        mine, ref = params(), params()
        opt = AdamW(mine)
        state = {"t": 0, "m": {k: np.zeros(s, np.float32) for k, s in shapes.items()},
                 "v": {k: np.zeros(s, np.float32) for k, s in shapes.items()}}
        frozen = ref["frozen"].data.copy()
        for step, lr in enumerate((3e-3, 1e-2, 7e-4, 2e-3, 5e-3)):
            for k in ("w", "b"):
                g = (rng.normal(size=shapes[k]) * 10.0 ** (step - 2)).astype(np.float32)
                mine[k].grad, ref[k].grad = g, g.copy()
            opt.step(lr)
            adamw_step_reference(ref, state, lr)
            for k in shapes:
                assert mine[k].data.tobytes() == ref[k].data.tobytes(), (step, k)
                assert opt.m[k].tobytes() == state["m"][k].tobytes(), (step, k)
                assert opt.v[k].tobytes() == state["v"][k].tobytes(), (step, k)
        assert mine["frozen"].data.tobytes() == frozen.tobytes()
        assert not opt.m["frozen"].any() and not opt.v["frozen"].any()
