"""BM25 and ranking-metric tests against hand values and brute-force oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bm25_search_loop
from csplade import evalkit
from csplade.evalkit import (DEFAULT_B, DEFAULT_K1, bm25_search, build_stats,
                             metrics_csv, mrr_at_k, ndcg_at_k, recall_at_k)


class TestBM25:
    def test_defaults(self):
        assert DEFAULT_K1 == 0.9 and DEFAULT_B == 0.4

    def test_hand_derived_closed_form(self):
        """Two docs of equal length; query term in exactly one of them.

        idf = ln(1 + (2 - 1 + 0.5) / (1 + 0.5)) = ln 2; with tf=1 and
        |d| = avgdl the fraction is (k1 + 1) / (1 + k1), so the score is
        exactly ln 2.
        """
        corpus = {"d1": "apple pear", "d2": "grape melon"}
        result = bm25_search(corpus, "apple", build_stats(corpus), 2)
        assert result.doc_ids == ["d1"]
        assert result.scores[0] == pytest.approx(math.log(2.0), abs=1e-6)

    def test_absent_term_contributes_zero(self):
        corpus = {"d1": "a b", "d2": "c d"}
        assert len(bm25_search(corpus, "zzz", build_stats(corpus), 5)) == 0

    def test_idf_non_negative(self):
        # term in every doc: raw Robertson idf would be negative
        corpus = {f"d{i}": "common" for i in range(5)}
        result = bm25_search(corpus, "common", build_stats(corpus), 5)
        assert len(result) == 5 and (result.scores > 0.0).all()

    def test_monotone_in_tf(self):
        # four docs of equal length holding "a" 1 to 4 times
        corpus = {f"t{tf}": " ".join(["a"] * tf + ["b"] * (4 - tf)) for tf in range(1, 5)}
        corpus["x"] = "c d e f"
        result = bm25_search(corpus, "a", build_stats(corpus), 5)
        assert result.doc_ids == ["t4", "t3", "t2", "t1"]
        assert (np.diff(result.scores) < 0).all()

    def test_search_hand_corpus(self):
        corpus = {"d1": "cat sat", "d2": "cat cat sat", "d3": "dog ran"}
        stats = build_stats(corpus)
        result = bm25_search(corpus, "cat", stats, 3)
        want_ids, want_scores = bm25_search_loop(corpus, "cat", stats, 3)
        assert result.doc_ids == want_ids == ["d2", "d1"]
        np.testing.assert_allclose(result.scores, want_scores, atol=1e-9)

    def test_empty_query(self):
        corpus = {"d1": "a"}
        assert len(bm25_search(corpus, "", build_stats(corpus), 5)) == 0

    def test_tie_break_ascending_doc_id(self):
        corpus = {"db": "x y", "da": "x y", "dc": "z z"}
        result = bm25_search(corpus, "x", build_stats(corpus), 3)
        assert result.doc_ids == ["da", "db"]


class TestBM25MatchesLoop:
    """bm25_search scores term at a time over postings; the oracle scores
    every doc in a Python loop. Ids and float64 scores must be equal."""

    @staticmethod
    def _check(corpus, query, k):
        stats = build_stats(corpus)
        got = bm25_search(corpus, query, stats, k)
        want_ids, want_scores = bm25_search_loop(corpus, query, stats, k,
                                                 k1=evalkit.DEFAULT_K1, b=evalkit.DEFAULT_B)
        assert got.doc_ids == want_ids
        assert got.scores.dtype == np.float64
        assert got.scores.tobytes() == want_scores.tobytes()

    def test_random_collections(self):
        rng = np.random.default_rng(0)
        words = [f"w{i}" for i in range(12)]
        for trial in range(60):
            n = int(rng.integers(1, 40))
            ids = [f"d{int(i)}" for i in rng.permutation(1000)[:n]]  # unsorted ids
            corpus = {d: " ".join(rng.choice(words, size=int(rng.integers(0, 9))))
                      for d in ids}
            query = " ".join(rng.choice(words + ["unseen"], size=int(rng.integers(0, 5))))
            self._check(corpus, query, int(rng.integers(0, n + 3)))

    def test_ties_repeats_and_params(self, monkeypatch):
        corpus = {"b": "x y", "a": "x y", "c": "x x y", "e": "", "d": "y y y y"}
        for k1, b in ((DEFAULT_K1, DEFAULT_B), (1.2, 0.0)):
            # bm25_search reads the module constants when called
            monkeypatch.setattr(evalkit, "DEFAULT_K1", k1)
            monkeypatch.setattr(evalkit, "DEFAULT_B", b)
            for query in ("x", "x x y", "y x y", "z", "X"):
                for k in (1, 2, 3, 10):
                    self._check(corpus, query, k)

    def test_empty_documents_only(self):
        self._check({"d1": "", "d2": ""}, "a", 5)

    def test_synth_queries(self, synth):
        for text in list(synth["queries"].values())[:50]:
            self._check(synth["corpus"], text, 10)

    def test_postings_hold_tf_per_doc(self):
        stats = build_stats({"d1": "a b a", "d2": "b", "d3": "c a"})
        ordinals, tf = stats.postings["a"]
        assert ordinals.tolist() == [0, 2] and tf.tolist() == [2, 1]
        assert {t: len(o) for t, (o, _) in stats.postings.items()} == {"a": 2, "b": 2, "c": 1}
        assert stats.doc_lengths.tolist() == [3, 1, 2] and stats.avg_doc_len == 2.0
        assert stats.doc_tf == {"d1": {"a": 2, "b": 1}, "d2": {"b": 1}, "d3": {"a": 1, "c": 1}}

    def test_rejects_other_corpus(self):
        stats = build_stats({"d1": "a", "d2": "b"})
        with pytest.raises(ValueError, match="corpus"):
            bm25_search({"d1": "a"}, "a", stats, 3)


class TestMetricsHandValues:
    def test_mrr_first_rank(self):
        per, mean = mrr_at_k({"q1": [("d1", 1.0)]}, {"q1": {"d1": 1}}, 10)
        assert per["q1"] == 1.0 and mean == 1.0

    def test_mrr_second_rank(self):
        run = {"q1": [("dx", 2.0), ("d1", 1.0)]}
        assert mrr_at_k(run, {"q1": {"d1": 1}}, 10)[1] == 0.5

    def test_mrr_beyond_k_is_zero(self):
        run = {"q1": [(f"x{i}", 1.0) for i in range(10)] + [("d1", 0.1)]}
        assert mrr_at_k(run, {"q1": {"d1": 1}}, 10)[1] == 0.0

    def test_recall(self):
        run = {"q1": [("d1", 3.0), ("dx", 2.0), ("d2", 1.0)]}
        qrels = {"q1": {"d1": 1, "d2": 1, "d3": 1}}
        assert recall_at_k(run, qrels, 10)[1] == pytest.approx(2 / 3)

    def test_ndcg_ideal_ordering_is_one(self):
        run = {"q1": [("d1", 3.0), ("d2", 2.0), ("d3", 1.0)]}
        qrels = {"q1": {"d1": 3, "d2": 2, "d3": 1}}
        assert ndcg_at_k(run, qrels, 10)[1] == pytest.approx(1.0)

    def test_ndcg_hand_value(self):
        run = {"q1": [("irrelevant", 2.0), ("d1", 1.0)]}
        qrels = {"q1": {"d1": 1}}
        assert ndcg_at_k(run, qrels, 10)[1] == pytest.approx(1 / math.log2(3), abs=1e-6)

    def test_queries_without_positives_excluded(self):
        run = {"q1": [("d1", 1.0)], "q2": [("d2", 1.0)]}
        qrels = {"q1": {"d1": 1}, "q2": {"d9": 0}}
        per, mean = mrr_at_k(run, qrels, 10)
        assert "q2" not in per and mean == 1.0

    def test_duplicate_docid_rejected(self):
        run = {"q1": [("d1", 2.0), ("d1", 1.0)]}
        with pytest.raises(ValueError, match="duplicate"):
            mrr_at_k(run, {"q1": {"d1": 1}}, 10)

    def test_ndcg_swap_equal_grades_invariant(self):
        qrels = {"q1": {"d1": 2, "d2": 2, "d3": 1}}
        a = ndcg_at_k({"q1": [("d1", 2.0), ("d2", 1.0), ("d3", 0.5)]}, qrels, 10)[1]
        b = ndcg_at_k({"q1": [("d2", 2.0), ("d1", 1.0), ("d3", 0.5)]}, qrels, 10)[1]
        assert a == pytest.approx(b, abs=1e-12)


def _random_instance(rng, n_docs=15, n_queries=4):
    doc_ids = [f"d{i}" for i in range(n_docs)]
    run, qrels = {}, {}
    for qi in range(n_queries):
        qid = f"q{qi}"
        n_ranked = int(rng.integers(0, n_docs + 1))
        ranked = rng.permutation(doc_ids)[:n_ranked]
        run[qid] = [(d, float(n_ranked - i)) for i, d in enumerate(ranked)]
        judged = rng.permutation(doc_ids)[: int(rng.integers(1, 6))]
        qrels[qid] = {d: int(rng.integers(0, 4)) for d in judged}
    return run, qrels


def _oracle_metrics(run, qrels, k):
    """Straight-from-definition re-implementation, kept independent."""
    mrr, rec, ndcg = [], [], []
    for qid, judged in qrels.items():
        relevant = {d for d, r in judged.items() if r > 0}
        if not relevant:
            continue
        ranked = [d for d, _ in run.get(qid, [])][:k]
        rr = 0.0
        for pos, d in enumerate(ranked):
            if d in relevant:
                rr = 1.0 / (pos + 1)
                break
        mrr.append(rr)
        rec.append(len([d for d in ranked if d in relevant]) / len(relevant))
        dcg = sum((2 ** judged.get(d, 0) - 1) / math.log2(pos + 2)
                  for pos, d in enumerate(ranked))
        ideal = sorted((r for r in judged.values() if r > 0), reverse=True)[:k]
        idcg = sum((2 ** r - 1) / math.log2(pos + 2) for pos, r in enumerate(ideal))
        ndcg.append(dcg / idcg if idcg else 0.0)

    def mean(xs):
        return sum(xs) / len(xs) if xs else 0.0

    return mean(mrr), mean(rec), mean(ndcg)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 31), st.integers(1, 12))
def test_metrics_match_independent_oracle(seed, k):
    rng = np.random.default_rng(seed)
    run, qrels = _random_instance(rng)
    want = _oracle_metrics(run, qrels, k)
    got = (mrr_at_k(run, qrels, k)[1], recall_at_k(run, qrels, k)[1],
           ndcg_at_k(run, qrels, k)[1])
    for g, w in zip(got, want):
        assert g == pytest.approx(w, abs=1e-9)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31))
def test_mrr_recall_monotone_in_k(seed):
    rng = np.random.default_rng(seed)
    run, qrels = _random_instance(rng)
    for metric in (mrr_at_k, recall_at_k):
        values = [metric(run, qrels, k)[1] for k in range(1, 16)]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
        assert all(0.0 <= v <= 1.0 for v in values)


def test_metrics_csv_format(tmp_path):
    path = tmp_path / "metrics.csv"
    metrics_csv(path, {"q1": [("d1", 1.0)]}, {"q1": {"d1": 1}}, 10)
    lines = path.read_text().splitlines()
    assert lines[0] == "qid,metric,value"
    assert "q1,mrr@10,1.000000" in lines
    assert "all,mrr@10,1.000000" in lines
    assert any(line.startswith("all,ndcg@10,") for line in lines)
