"""Pooling-transform, scoring, and loss tests (the math core)."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csplade import autodiff as ad
from csplade.autodiff import Tensor, grad_check
from csplade.splade import (LossBreakdown, RepsFormatError, SparseRep,
                            adaptation_loss_batch, flops_reg_t, pool_reps,
                            rank_loss_t, read_reps, splade_pool, write_reps)
from conftest import dot_score, flops_reg, rank_loss


def rep(pairs, vocab_size=10):
    terms = np.array([t for t, _ in pairs], dtype=np.int64)
    weights = np.array([w for _, w in pairs], dtype=np.float32)
    return SparseRep(terms, weights, vocab_size)


class TestSparseRep:
    def test_rejects_unsorted_terms(self):
        with pytest.raises(ValueError, match="increasing"):
            SparseRep([3, 1], [1.0, 1.0], 10)

    def test_rejects_non_positive_weights(self):
        with pytest.raises(ValueError, match="positive"):
            SparseRep([1, 2], [1.0, 0.0], 10)

    def test_rejects_out_of_vocab(self):
        with pytest.raises(ValueError, match="range"):
            SparseRep([1, 10], [1.0, 1.0], 10)

    @pytest.mark.parametrize("bad", [np.inf, np.nan, -np.inf])
    def test_rejects_non_finite_weights(self, bad):
        with pytest.raises(ValueError, match="finite"):
            SparseRep([1, 2], [1.0, bad], 10)

    def test_to_dense(self):
        d = rep([(2, 1.5), (7, 0.5)]).to_dense()
        assert d[2] == 1.5 and d[7] == 0.5 and d.sum() == 2.0


class TestSpladePool:
    def test_all_negative_logits_empty(self):
        logits = -np.abs(np.random.default_rng(0).normal(size=(6, 4))) - 0.1
        assert splade_pool(logits, (0, 4)).nnz == 0

    def test_hand_value_log4(self):
        logits = np.full((3, 2), -1.0)
        logits[1] = [1.0, 3.0]
        out = splade_pool(logits, (0, 2))
        assert out.term_ids.tolist() == [1]
        assert out.weights[0] == pytest.approx(math.log(4.0), abs=1e-6)

    def test_single_column_identity(self):
        logits = np.array([[-2.0], [0.5], [2.0]])
        out = splade_pool(logits, (0, 1))
        assert out.term_ids.tolist() == [1, 2]
        np.testing.assert_allclose(out.weights, np.log1p([0.5, 2.0]), atol=1e-6)

    def test_empty_span_rejected(self):
        with pytest.raises(ValueError, match="span"):
            splade_pool(np.zeros((3, 4)), (2, 2))

    def test_max_only_over_span_columns(self):
        logits = np.zeros((2, 3))
        logits[0] = [9.0, 1.0, 9.0]  # span excludes the 9s
        out = splade_pool(logits, (1, 2))
        assert out.weights[0] == pytest.approx(math.log(2.0), abs=1e-6)

    def test_dominated_position_changes_nothing(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=(8, 3))
        extra = logits.max(axis=1, keepdims=True) - 0.5
        widened = np.concatenate([logits, extra], axis=1)
        a, b = splade_pool(logits, (0, 3)), splade_pool(widened, (0, 4))
        np.testing.assert_array_equal(a.term_ids, b.term_ids)
        np.testing.assert_array_equal(a.weights, b.weights)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 31))
    def test_weights_always_positive(self, seed):
        rng = np.random.default_rng(seed)
        out = splade_pool(rng.normal(scale=3.0, size=(12, 5)), (0, 5))
        assert (out.weights > 0).all()

    def test_pool_reps_matches_splade_pool(self):
        """The differentiable batched pooling agrees with the (V, L) path."""
        rng = np.random.default_rng(2)
        logits = rng.normal(size=(2, 5, 9)).astype(np.float32)
        span = np.zeros((2, 5), dtype=bool)
        span[0, 1:4] = True
        span[1, 2:5] = True
        pooled = pool_reps(Tensor(logits), span).data
        for i, (s, e) in enumerate([(1, 4), (2, 5)]):
            expected = splade_pool(logits[i].T, (s, e)).to_dense(np.float32)
            np.testing.assert_allclose(pooled[i], expected, atol=1e-6)


class TestScoringAndLosses:
    def test_dot_disjoint_supports(self):
        assert dot_score(rep([(1, 2.0)]), rep([(2, 3.0)])) == 0.0

    def test_dot_single_shared_term(self):
        assert dot_score(rep([(5, 2.0)]), rep([(5, 1.5)])) == pytest.approx(3.0)

    def test_dot_vocab_mismatch(self):
        with pytest.raises(ValueError, match="vocab"):
            dot_score(rep([(1, 1.0)], 10), rep([(1, 1.0)], 11))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 31))
    def test_dot_matches_dense_oracle(self, seed):
        from conftest import random_sparse_rep
        rng = np.random.default_rng(seed)
        q, d = random_sparse_rep(rng, 30), random_sparse_rep(rng, 30)
        assert dot_score(q, d) == pytest.approx(float(q.to_dense() @ d.to_dense()), abs=1e-6)

    def test_rank_loss_symmetric_pair(self):
        q = rep([(1, 1.0)])
        assert rank_loss(q, rep([(2, 1.0)]), [rep([(3, 1.0)])]) == pytest.approx(math.log(2), abs=1e-6)

    def test_rank_loss_confident_positive(self):
        q = rep([(1, 1.0)])
        pos = rep([(1, 10.0)])
        loss = rank_loss(q, pos, [rep([(2, 1.0)])])
        assert loss == pytest.approx(math.log1p(math.exp(-10.0)), abs=1e-9)
        assert loss == pytest.approx(4.54e-5, rel=1e-2)

    def test_rank_loss_uniform_negatives(self):
        q = rep([(1, 1.0)])
        negs = [rep([(1, 0.5)]) for _ in range(7)]
        assert rank_loss(q, rep([(1, 0.5)]), negs) == pytest.approx(math.log(8), abs=1e-6)

    def test_rank_loss_empty_negatives_rejected(self):
        with pytest.raises(ValueError, match="negatives"):
            rank_loss(rep([(1, 1.0)]), rep([(1, 1.0)]), [])

    def test_flops_hand_values(self):
        assert flops_reg([rep([]), rep([])]) == 0.0
        assert flops_reg([rep([(3, 2.0)])]) == pytest.approx(4.0)
        assert flops_reg([rep([(0, 1.0)]), rep([(1, 1.0)])]) == pytest.approx(0.5)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 31), st.floats(0.1, 5.0))
    def test_flops_permutation_and_quadratic_scaling(self, seed, c):
        from conftest import random_sparse_rep
        rng = np.random.default_rng(seed)
        batch = [random_sparse_rep(rng, 20) for _ in range(4)]
        base = flops_reg(batch)
        assert flops_reg(batch[::-1]) == pytest.approx(base, rel=1e-9)
        scaled = [SparseRep(r.term_ids, r.weights * c, 20) if r.nnz else r
                  for r in batch]
        assert flops_reg(scaled) == pytest.approx(base * c * c, rel=1e-5)

    def test_flops_reg_t_matches_sparse_version(self):
        from conftest import random_sparse_rep
        rng = np.random.default_rng(3)
        batch = [random_sparse_rep(rng, 15) for _ in range(5)]
        dense = Tensor(np.stack([r.to_dense() for r in batch]), dtype=np.float64)
        assert float(flops_reg_t(dense).data) == pytest.approx(flops_reg(batch), rel=1e-6)

    def test_rank_loss_shift_invariance(self):
        rng = np.random.default_rng(4)
        q = Tensor(rng.uniform(0, 1, (2, 6)), dtype=np.float64)
        d = rng.uniform(0, 1, (4, 6))
        pos = np.array([0, 2])
        base = float(rank_loss_t(q, Tensor(d, dtype=np.float64), pos).data)
        # adding a constant to every score: augment docs with a shared term
        # is awkward; instead verify directly on the score matrix
        scores = q.data @ d.T
        shifted = float(ad.softmax_cross_entropy(Tensor(scores + 7.5, dtype=np.float64), pos).data)
        assert shifted == pytest.approx(base, abs=1e-5)

    def test_loss_breakdown_total(self):
        b = LossBreakdown.combine(1.0, 2.0, 3.0, 0.1, 0.2)
        assert b.total == pytest.approx(1.0 + 0.2 + 0.6, abs=1e-6)


def one_sequence(ids):
    """(1, L) ids and their length: a batch of one unpadded sequence."""
    ids = np.asarray(ids)[None]
    return ids, np.array([ids.shape[1]])


def mean_ce(mat, targets):
    """Numpy oracle: mean softmax cross-entropy of (N, V) rows."""
    shifted = mat - mat.max(axis=1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=1))
    return float(np.mean(logz - shifted[np.arange(len(targets)), targets]))


class TestAdaptationLoss:
    def test_lambda_zero_equals_clm(self):
        rng = np.random.default_rng(5)
        logits = rng.normal(size=(7, 4)).T[None]
        total, clm, _ = adaptation_loss_batch(logits, *one_sequence([1, 2, 3, 2]),
                                              lambda_relu=0.0)
        assert float(total.data) == pytest.approx(float(clm.data), abs=1e-7)

    def test_uniform_zero_logits(self):
        v = 9
        total, clm, relu_clm = adaptation_loss_batch(np.zeros((1, 3, v)),
                                                     *one_sequence([1, 2, 3]), 1.0)
        assert float(clm.data) == pytest.approx(math.log(v), abs=1e-6)
        assert float(relu_clm.data) == pytest.approx(math.log(v), abs=1e-6)
        assert float(total.data) == pytest.approx(2 * math.log(v), abs=1e-6)

    def test_total_is_sum_of_terms(self):
        rng = np.random.default_rng(6)
        logits = rng.normal(size=(8, 5)).T[None]
        ids = np.array([1, 4, 2, 7, 3])
        total, clm, relu_clm = adaptation_loss_batch(logits, *one_sequence(ids),
                                                     lambda_relu=1.0)
        # oracle: recompute each term independently
        pred = logits[0, :-1]
        targets = ids[1:]
        assert float(clm.data) == pytest.approx(mean_ce(pred, targets), abs=1e-5)
        assert float(relu_clm.data) == pytest.approx(
            mean_ce(np.log1p(np.maximum(pred, 0)), targets), abs=1e-5)
        assert float(total.data) == pytest.approx(float(clm.data) + float(relu_clm.data), abs=1e-6)

    def test_short_sequence_rejected(self):
        with pytest.raises(ValueError, match=">= 2"):
            adaptation_loss_batch(np.zeros((1, 1, 5)), *one_sequence([1]))

    def test_single_backward_covers_both_terms(self):
        logits = Tensor(np.random.default_rng(7).normal(size=(6, 4)).T[None],
                        requires_grad=True, dtype=np.float64)
        total, _, _ = adaptation_loss_batch(logits, *one_sequence([1, 2, 3, 1]), 1.0)
        total.backward()
        assert logits.grad is not None and np.isfinite(logits.grad).all()

    def test_padding_excluded(self):
        """Lengths (4, 2) at L = 4: only the 3 + 1 targets inside each
        sequence count, and logits past a sequence's end have no effect."""
        rng = np.random.default_rng(11)
        v = 7
        ids = np.array([[1, 4, 2, 6], [1, 5, 0, 0]])
        lengths = np.array([4, 2])
        x = rng.normal(size=(2, 4, v))
        pred = np.concatenate([x[0, :3], x[1, :1]])
        targets = np.concatenate([ids[0, 1:], ids[1, 1:2]])

        def loss_and_grad(data):
            logits = Tensor(data, requires_grad=True, dtype=np.float64)
            total, clm, relu_clm = adaptation_loss_batch(logits, ids, lengths, 1.0)
            total.backward()
            return float(total.data), float(clm.data), float(relu_clm.data), logits.grad

        total, clm, relu_clm, grad = loss_and_grad(x)
        assert clm == pytest.approx(mean_ce(pred, targets), abs=1e-5)
        assert relu_clm == pytest.approx(mean_ce(np.log1p(np.maximum(pred, 0)), targets),
                                         abs=1e-5)
        # a row predicts a valid target only before its sequence's last token
        valid = np.arange(4)[None, :] < lengths[:, None] - 1
        assert (grad[~valid] == 0).all()

        changed = x.copy()
        changed[1, 2:] = 50.0 * rng.normal(size=(2, v))
        total2, _, _, grad2 = loss_and_grad(changed)
        assert total2 == total
        np.testing.assert_array_equal(grad2[valid], grad[valid])
        assert (grad2[~valid] == 0).all()


class TestComposedGradients:
    def test_pool_rank_flops_pipeline(self):
        """Pooling + InfoNCE + sparsity penalty, checked against finite differences."""
        span = np.ones((2, 3), dtype=bool)

        def f(logits):
            reps = pool_reps(logits, span)
            rank = rank_loss_t(reps, reps, np.array([0, 1]))
            return ad.add(rank, ad.scale(flops_reg_t(reps), 0.01))

        rng = np.random.default_rng(8)
        x = rng.normal(size=(2, 3, 5))
        x[np.abs(x) < 1e-3] += 2e-3
        assert grad_check(f, Tensor(x, dtype=np.float64)) < 1e-6

    def test_adaptation_pipeline(self):
        ids, lengths = one_sequence([1, 3, 2, 3])

        def f(logits):
            total, _, _ = adaptation_loss_batch(logits, ids, lengths, 1.0)
            return total

        rng = np.random.default_rng(9)
        x = rng.normal(size=(5, 4))
        x[np.abs(x) < 1e-3] += 2e-3
        assert grad_check(f, Tensor(np.ascontiguousarray(x.T[None]), dtype=np.float64)) < 1e-6


class TestRepsFile:
    def test_round_trip(self, tmp_path):
        from conftest import random_sparse_rep
        rng = np.random.default_rng(10)
        reps = [(f"d{i}", random_sparse_rep(rng, 25)) for i in range(6)]
        path = tmp_path / "reps.txt"
        write_reps(path, reps)
        loaded = read_reps(path, 25)
        for (id_a, a), (id_b, b) in zip(reps, loaded):
            assert id_a == id_b
            np.testing.assert_array_equal(a.term_ids, b.term_ids)
            np.testing.assert_allclose(a.weights, b.weights, atol=5e-7)

    def test_six_decimal_format(self, tmp_path):
        path = tmp_path / "reps.txt"
        write_reps(path, [("doc1", rep([(3, 1.25)]))])
        assert path.read_text() == "doc1\t3:1.250000\n"

    def test_bad_pair_reports_line(self, tmp_path):
        path = tmp_path / "reps.txt"
        path.write_text("d1\t3:oops\n")
        with pytest.raises(ValueError, match=":1:"):
            read_reps(path, 10)

    @pytest.mark.parametrize("pairs, message", [
        ("3:oops", "bad term:weight pair '3:oops'"),           # bad weight
        ("x:1.0", "bad term:weight pair 'x:1.0'"),             # bad term id
        ("3", "bad term:weight pair '3'"),                     # no weight
        ("3:1.0  4:1.0", "bad term:weight pair ''"),           # empty pair
        ("4:1.0 3:1.0", "strictly increasing"),                # unsorted
        ("3:1.0 3:2.0", "strictly increasing"),                # duplicate
        ("3:1.0 10:1.0", "out of vocabulary range"),           # id = vocab size
        ("-1:1.0", "out of vocabulary range"),                 # negative id
        ("99999999999999999999:1.0", "out of vocabulary range"),  # beyond int64
        ("3:0.0", "strictly positive"),                        # zero weight
        ("3:-0.5", "strictly positive"),                       # negative weight
        ("3:1e-50", "strictly positive"),                      # underflows to 0
        ("3:nan", "finite"),
        ("3:inf", "finite"),
        ("3:1e40", "overflows float32"),
    ])
    def test_bad_line_raises_typed_error_with_location(self, tmp_path, pairs, message):
        """Each bad line is refused with its location, before build_index
        could turn an infinite weight into an infinite scale, and without a
        numpy RuntimeWarning on the way."""
        path = tmp_path / "reps.txt"
        path.write_text(f"d1\t3:1.0\nd2\t{pairs}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RepsFormatError, match=rf"reps\.txt:2: .*{re.escape(message)}"):
                read_reps(path, 10)
