"""Inverted-index tests: quantization, search oracle, serialization."""

import hashlib
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (brute_force_search, build_index_dicts, random_sparse_rep,
                      scatter_add_search)
from csplade import index
from csplade.index import (MAGIC, IndexFormatError, _index_bytes, build_index,
                           deserialize, ef_decode, ef_encode, read_run, search, serialize, varint_decode, varint_encode,
                           write_run)
from csplade.splade import RepsBatch, SparseRep, read_reps, write_reps


def rep(pairs, vocab_size=10):
    terms = np.array([t for t, _ in pairs], dtype=np.int64)
    weights = np.array([w for _, w in pairs], dtype=np.float32)
    return SparseRep(terms, weights, vocab_size)


def _random_reps(rng, vocab_size, n_docs):
    """Docs with 0-10 random terms each, some weights tied at the maximum
    and some small enough to quantize to the floor of 1."""
    docs = []
    for i in range(n_docs):
        nnz = int(rng.integers(0, min(vocab_size, 10) + 1))
        terms = np.sort(rng.choice(vocab_size, size=nnz, replace=False))
        weights = rng.choice([1e-5, 0.3, 1.7, 4.0], size=nnz) * rng.uniform(0.5, 1.0, size=nnz)
        weights[rng.random(nnz) < 0.2] = 4.0
        docs.append((f"doc{i}", SparseRep(terms, weights.astype(np.float32), vocab_size)))
    return docs


def _assert_same_index(got, want):
    assert (got.vocab_size, got.bits, got.doc_ids) == (want.vocab_size, want.bits, want.doc_ids)
    assert got.scale == want.scale and type(got.scale) is float
    assert got.block_row == want.block_row
    np.testing.assert_array_equal(got.block, want.block)
    assert list(got.postings) == list(want.postings)
    for t, plist in want.postings.items():
        for field in ("ordinals", "impacts"):
            a, b = getattr(got.postings[t], field), getattr(plist, field)
            assert a.dtype == b.dtype and a.tolist() == b.tolist(), (t, field)
    assert _index_bytes(got) == _index_bytes(want)


class TestVarint:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 2 ** 32 - 1), max_size=40))
    def test_round_trip(self, values):
        buf = varint_encode(*values)
        out, end = varint_decode(buf, len(values))
        assert end == len(buf)
        assert out == values

    def test_known_encodings(self):
        assert varint_encode(0) == b"\x00"
        assert varint_encode(127) == b"\x7f"
        assert varint_encode(128) == b"\x80\x01"
        assert varint_encode(300) == b"\xac\x02"

    def test_values_past_32_bits_round_trip(self):
        values = [2 ** 32 + 5, 2 ** 63, 2 ** 64 - 1, 7]
        buf = varint_encode(*values)
        assert varint_encode(2 ** 64 - 1) == b"\xff" * 9 + b"\x01"
        out, end = varint_decode(buf, len(values))
        assert end == len(buf)
        assert out == values

    @pytest.mark.parametrize("buf", [b"", b"\x80", b"\x01\xff\xff", b"\x80" * 11,
                                     b"\xff" * 9 + b"\x02"])  # the last one is 2 ** 64
    def test_truncated_or_overlong_rejected(self, buf):
        second = buf.startswith(b"\x01")  # the first value is fine, the second is not
        with pytest.raises(IndexFormatError, match=f"varint at byte {int(second)}$"):
            varint_decode(buf, 2 if second else 1)


class TestEliasFano:
    @pytest.mark.parametrize("values, universe", [
        ([], 0), ([], 10),                 # empty
        ([0], 1), ([3], 10), ([9], 10),    # single, incl. the last ordinal
        (list(range(16)), 16),             # dense: every ordinal present
        ([0, 1, 5, 9], 10),                # ends on the last ordinal
        ([7, 1000, 99_999], 100_000),      # sparse, wide universe
    ])
    def test_round_trip(self, values, universe):
        buf = ef_encode(values, universe)
        out, end = ef_decode(buf, len(values), universe)
        assert end == len(buf)
        assert out.dtype == np.uint32 and out.tolist() == values

    @settings(max_examples=50, deadline=None)
    @given(st.sets(st.integers(0, 5000), max_size=60), st.integers(0, 100))
    def test_round_trip_property(self, values, slack):
        values = sorted(values)
        universe = (values[-1] + 1 if values else 0) + slack
        buf = ef_encode(values, universe)
        prefix = b"\xff" * 3  # decoding honours the offset
        out, end = ef_decode(prefix + buf, len(values), universe, offset=3)
        assert end == 3 + len(buf) and out.tolist() == values

    def test_size_is_near_two_plus_log_gap_bits(self):
        values = np.arange(0, 10_000, 10)  # 1,000 values, average gap 10
        bits = 8 * len(ef_encode(values, 10_000))
        assert bits <= 1_000 * (2 + np.ceil(np.log2(10))) + 16

    def test_rejects_unsorted_or_out_of_range(self):
        with pytest.raises(ValueError):
            ef_encode([3, 3], 10)
        with pytest.raises(ValueError):
            ef_encode([10], 10)

    def test_truncated(self):
        buf = ef_encode([1, 4, 8], 10)
        with pytest.raises(IndexFormatError, match=r"byte \d+"):
            ef_decode(buf[:-1], 3, 10)


class TestBuildIndex:
    def test_empty(self):
        idx = build_index([], bits=8)
        assert idx.doc_count == 0 and not idx.postings

    def test_single_doc_max_impact(self):
        idx = build_index([("d0", rep([(7, 2.0)]))], bits=8)
        assert idx.scale == pytest.approx(2.0)
        assert idx.postings[7].impacts.tolist() == [255]

    def test_bits_zero_stores_exact_weights(self):
        r = rep([(1, 0.125), (4, 1.75)])
        idx = build_index([("d0", r)], bits=0)
        assert idx.postings[1].impacts[0] == np.float32(0.125)
        assert idx.postings[4].impacts[0] == np.float32(1.75)

    def test_quantization_floor_is_one(self):
        idx = build_index([("d0", rep([(1, 1e-5), (2, 100.0)]))], bits=8)
        assert idx.postings[1].impacts[0] == 1  # never dropped to zero

    def test_quantization_monotone(self):
        rng = np.random.default_rng(0)
        w = np.sort(rng.uniform(0.01, 5.0, 20))
        reps = [(f"d{i}", rep([(1, float(x))])) for i, x in enumerate(w)]
        idx = build_index(reps, bits=8)
        impacts = idx.postings[1].impacts
        assert (np.diff(impacts.astype(int)) >= 0).all()

    def test_duplicate_doc_id_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            build_index([("d0", rep([(1, 1.0)])), ("d0", rep([(2, 1.0)]))])

    def test_invalid_bits(self):
        with pytest.raises(ValueError, match="bits"):
            build_index([], bits=4)

    def test_mixed_vocab_sizes_rejected(self):
        with pytest.raises(ValueError, match="mixed vocab"):
            build_index([("d0", rep([(1, 1.0)], 10)), ("d1", rep([(1, 1.0)], 11))])

    @pytest.mark.parametrize("bits", [0, 8, 16])
    @pytest.mark.parametrize("case", ["empty collection", "empty reps only",
                                      "empty reps among others", "one doc and every doc",
                                      "uint8 keys", "uint16 keys", "uint32 keys"])
    def test_matches_dict_oracle_edge_cases(self, case, bits):
        rng = np.random.default_rng(5)
        empty = SparseRep([], [], 10)
        docs = {
            "empty collection": [],
            "empty reps only": [("a", empty), ("b", empty)],
            "empty reps among others": [("a", empty), ("b", rep([(1, 1.0), (9, 0.25)])),
                                        ("c", empty), ("d", rep([(1, 2.0)]))],
            # term 3 is in every doc, term 7 in doc 4 only
            "one doc and every doc": [(f"d{i}", rep([(3, 0.5 + i)] + [(7, 1e-4)] * (i == 4)))
                                      for i in range(9)],
            "uint8 keys": _random_reps(rng, 256, 20),      # term ids up to 255
            "uint16 keys": _random_reps(rng, 257, 20),     # and 256
            "uint32 keys": _random_reps(rng, 65537, 20),   # and 65536
        }[case]
        _assert_same_index(build_index(docs, bits), build_index_dicts(docs, bits))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 31), st.integers(0, 12),
           st.sampled_from([1, 2, 17, 255, 256, 257, 65536, 65537]), st.sampled_from([0, 8, 16]))
    def test_matches_dict_oracle(self, seed, n_docs, vocab_size, bits):
        docs = _random_reps(np.random.default_rng(seed), vocab_size, n_docs)
        _assert_same_index(build_index(docs, bits), build_index_dicts(docs, bits))

    def test_accepts_a_generator(self):
        docs = _random_reps(np.random.default_rng(3), 40, 25)
        _assert_same_index(build_index(iter(docs), 8), build_index_dicts(docs, 8))

    @pytest.mark.parametrize("bits", [0, 8, 16])
    @pytest.mark.parametrize("block", [5, index.POSTING_BLOCK])
    def test_batch_pairs_and_dict_oracle_agree(self, monkeypatch, tmp_path, bits, block):
        """A batch read from a reps file, the same reps as a list of pairs
        and the dict-of-lists oracle give one index, whether the postings
        fill many blocks (5 per block, cutting docs) or span a few
        (20k postings in blocks of POSTING_BLOCK)."""
        monkeypatch.setattr(index, "POSTING_BLOCK", block)
        docs = _random_reps(np.random.default_rng(block + bits), 300, 60 if block == 5 else 4000)
        docs[1] = ("empty", SparseRep([], [], 300))
        path = tmp_path / "reps.txt"
        write_reps(path, docs)
        batch = read_reps(path, 300)
        assert batch.weights.size > 2 * block  # three blocks or more
        want = build_index_dicts(list(batch), bits)
        _assert_same_index(build_index(batch, bits), want)
        _assert_same_index(build_index(list(batch), bits), want)
        _assert_same_index(build_index(RepsBatch.from_pairs(docs), bits),
                           build_index_dicts(docs, bits))

    def test_batch_of_no_docs(self):
        empty = RepsBatch.from_pairs([])
        assert len(empty) == 0 and empty.indptr.tolist() == [0]
        _assert_same_index(build_index(empty, 8), build_index_dicts([], 8))

    def test_peak_memory_per_posting(self):
        """tracemalloc peak of one build over 50k postings (500 docs, 100
        terms each out of 200) measured 21.6 B per posting (the batch packed
        from the pairs and the output arrays take 10 B, one block's
        temporaries most of the rest), against 57.1 B for the dict-of-lists
        builder in conftest, whose Python int and float per posting this
        bound rules out."""
        rng = np.random.default_rng(0)
        docs = [(f"d{i}", SparseRep(np.sort(rng.choice(200, size=100, replace=False)),
                                    rng.uniform(0.01, 3.0, size=100).astype(np.float32), 200))
                for i in range(500)]
        postings = 500 * 100
        tracemalloc.start()
        try:
            build_index(docs, bits=8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / postings < 32


class TestSearch:
    def test_disjoint_query_empty_result(self):
        idx = build_index([("d0", rep([(1, 1.0)]))], bits=0)
        assert len(search(idx, rep([(5, 1.0)]), 10)) == 0

    def test_hand_ranking(self):
        docs = [("a", rep([(1, 1.0), (2, 2.0)])),
                ("b", rep([(1, 3.0)])),
                ("c", rep([(2, 1.0)]))]
        idx = build_index(docs, bits=0)
        result = search(idx, rep([(1, 1.0), (2, 1.0)]), 3)
        # scores: a=3, b=3, c=1; tie a-vs-b broken by input ordinal
        assert result.doc_ids == ["a", "b", "c"]
        np.testing.assert_allclose(result.scores, [3.0, 3.0, 1.0], atol=1e-6)

    def test_k_exceeds_doc_count(self):
        idx = build_index([("d0", rep([(1, 1.0)]))], bits=0)
        assert len(search(idx, rep([(1, 1.0)]), 99)) == 1

    def test_k_must_be_positive(self):
        idx = build_index([], bits=0)
        with pytest.raises(ValueError, match="k"):
            search(idx, rep([(1, 1.0)]), 0)

    def test_vocab_mismatch(self):
        idx = build_index([("d0", rep([(1, 1.0)], 10))], bits=0)
        with pytest.raises(ValueError, match="vocab"):
            search(idx, rep([(1, 1.0)], 11), 5)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 31))
    def test_matches_brute_force_oracle(self, seed):
        rng = np.random.default_rng(seed)
        docs = [(f"d{i}", random_sparse_rep(rng, 20)) for i in range(30)]
        idx = build_index(docs, bits=0)
        q = random_sparse_rep(rng, 20)
        got = search(idx, q, 10)
        want = brute_force_search(docs, q, 10)
        assert got.doc_ids == want.doc_ids
        np.testing.assert_allclose(got.scores, want.scores, atol=1e-5)

    def test_scores_non_negative_and_sorted(self):
        rng = np.random.default_rng(7)
        docs = [(f"d{i}", random_sparse_rep(rng, 20)) for i in range(40)]
        idx = build_index(docs, bits=8)
        result = search(idx, random_sparse_rep(rng, 20, max_nnz=8), 15)
        assert (result.scores > 0).all()
        assert (np.diff(result.scores) <= 1e-12).all()


def _layout_docs(rng, layout, n_docs=60, vocab_size=16):
    """Docs whose posting lists are all sparse (in under 15 % of the docs,
    below every width's dense-row threshold), all full (in every doc), or
    mixed: sparse at even term ids, in 60-100 % of the docs at odd ones.
    Weights come from a small set, so scores often tie."""
    sparse, full = (0.02, 0.15), (1.0, 1.0)
    ranges = {"sparse": (sparse, sparse), "full": (full, full),
              "mixed": (sparse, (0.6, 1.0))}[layout]
    member = np.zeros((vocab_size, n_docs), dtype=bool)
    for t in range(vocab_size):
        lo, hi = ranges[t % 2]
        count = max(1, int(round(rng.uniform(lo, hi) * n_docs)))
        member[t, rng.choice(n_docs, size=count, replace=False)] = True
    levels = rng.uniform(0.05, 3.0, size=4)
    docs = []
    for d in range(n_docs):
        terms = np.flatnonzero(member[:, d])
        docs.append((f"d{d}", SparseRep(terms, rng.choice(levels, size=terms.size),
                                        vocab_size)))
    return docs


def _assert_search_is_scatter_add(idx, q, k):
    got = search(idx, q, k)
    want_ids, want_scores = scatter_add_search(idx, q, k)
    assert got.doc_ids == want_ids
    assert got.scores.dtype == np.float64
    assert got.scores.tobytes() == want_scores.tobytes()


class TestSearchMatchesScatterAdd:
    """Dense rows, sparse lists and the partition top-k give the rankings and
    float64 scores of plain term-at-a-time scatter-add, bit for bit."""

    @pytest.mark.parametrize("bits", [0, 8, 16])
    @pytest.mark.parametrize("layout", ["sparse", "full", "mixed"])
    def test_random_indexes(self, layout, bits):
        rng = np.random.default_rng([bits, len(layout)])
        for _ in range(4):
            idx = build_index(_layout_docs(rng, layout), bits=bits)
            dense, lists = len(idx.block_row), len(idx.postings)
            assert {"sparse": dense == 0, "full": dense == lists,
                    "mixed": 0 < dense < lists}[layout]
            for k in (1, 5, 10, 100):
                _assert_search_is_scatter_add(idx, random_sparse_rep(rng, 16), k)

    def test_dense_row_rule(self):
        # 8-bit, 10 docs: a row is 10 bytes; a list costs 5 bytes per posting
        docs = [(f"d{i}", rep([(1, 1.0)] + ([(2, 1.0)] if i < 2 else [])
                             + ([(3, 1.0)] if i < 1 else []))) for i in range(10)]
        idx = build_index(docs, bits=8)
        assert sorted(idx.block_row) == [1, 2]
        assert idx.block.dtype == np.float32 and idx.block.flags.c_contiguous
        assert idx.block[idx.block_row[2]].tolist() == [255, 255] + [0] * 8

    @pytest.mark.parametrize("bits", [0, 8])
    def test_ties_at_kth_score(self, bits):
        rng = np.random.default_rng(4)
        tied = rep([(1, 1.0), (2, 0.5)])
        docs = [(f"d{i}", tied if i % 3 else random_sparse_rep(rng, 10, max_nnz=4))
                for i in range(60)]
        idx = build_index(docs, bits=bits)
        q = rep([(1, 0.7), (2, 1.3), (5, 0.2)])
        for k in (1, 3, 10, 39, 40, 41):
            _assert_search_is_scatter_add(idx, q, k)

    def test_k_above_candidates_and_empty_query(self):
        rng = np.random.default_rng(5)
        idx = build_index(_layout_docs(rng, "mixed"), bits=8)
        q = rep([(int(next(iter(idx.postings))), 1.0)], 16)
        _assert_search_is_scatter_add(idx, q, idx.doc_count + 5)
        assert len(search(idx, rep([], 16), 10)) == 0

    @pytest.mark.parametrize("bits", [0, 8, 16])
    def test_weights_spanning_float32_range(self, bits):
        # the filter rescales the query weights by a power of two; weights
        # from float32's subnormals to its largest values share one query
        rng = np.random.default_rng(bits + 20)
        idx = build_index(_layout_docs(rng, "mixed"), bits=bits)
        weights = [1e-45, 1e-38, 3e-30, 1.0, 7e20, 1e38]
        for _ in range(8):
            terms = np.sort(rng.choice(16, size=len(weights), replace=False))
            q = SparseRep(terms, rng.permutation(weights), 16)
            for k in (1, 3, 10, idx.doc_count):
                _assert_search_is_scatter_add(idx, q, k)

    def test_sums_near_float32_overflow(self):
        # unscaled, "d"'s float32 sum stays finite and "e"'s rounds to inf
        # although d's exact score is larger; the filter must rescale the
        # query weights so that no sum overflows
        d = [1.1342743873830482e+38, 1.1342746916191922e+38, 1.1342744887950962e+38]
        e = [1.1342743873830482e+38, 1.1342744887950962e+38, 1.1342745902071442e+38]
        docs = [("d", rep(list(zip((1, 2, 3), d)))), ("e", rep(list(zip((1, 2, 3), e))))]
        docs += [(f"f{i}", rep([(0, 1.0)])) for i in range(6)]  # keeps 1..3 sparse
        idx = build_index(docs, bits=0)
        q = rep([(1, 1.0), (2, 1.0), (3, 1.0)])
        assert search(idx, q, 1).doc_ids == ["d"]
        for k in (1, 2, 8):
            _assert_search_is_scatter_add(idx, q, k)

    @pytest.mark.parametrize("bits", [0, 8, 16])
    def test_products_in_float32_subnormal_range(self, bits):
        # next to a 1e38 weight, weights near 1e-40 stay below float32's
        # normal range after rescaling and keep only a few bits, so the
        # order of the docs that only they score rests on the absolute
        # tolerance
        rng = np.random.default_rng(bits + 25)
        docs = [(f"big{i}", rep([(0, 1.0)])) for i in range(3)]
        docs += [(f"d{i}", rep([(1, rng.uniform(0.5, 1.0)), (2, rng.uniform(0.5, 1.0))]))
                 for i in range(200)]
        idx = build_index(docs, bits=bits)
        for _ in range(40):
            q = rep([(0, 1e38), (1, rng.uniform(1e-41, 1e-39)), (2, rng.uniform(1e-41, 1e-39))])
            for k in (4, 5, 6, 10, 40, 100):
                _assert_search_is_scatter_add(idx, q, k)

    @pytest.mark.parametrize("bits", [0, 8, 16])
    def test_scores_one_ulp_apart_at_kth(self, bits):
        # term 0 impacts 250 or 251, term 1 impacts 1..255 weighted 2**-45:
        # float32 sees only term 0, float64 sees the last bits of term 1
        rng = np.random.default_rng(bits + 30)
        docs = [(f"d{i}", rep([(0, float(rng.integers(250, 252))),
                               (1, float(rng.integers(1, 256)))]))
                for i in range(300)]
        docs.append(("top", rep([(0, 255.0), (1, 255.0)])))  # fixes scale at 255
        idx = build_index(docs, bits=bits)
        q = rep([(0, 1.0), (1, 2.0 ** -45)])
        _, scores = scatter_add_search(idx, q, idx.doc_count)
        one_ulp = np.flatnonzero(scores[:-1] == np.nextafter(scores[1:], np.inf))
        assert one_ulp.size >= 5
        for j in one_ulp[:: max(1, one_ulp.size // 10)]:
            for k in (j + 1, j + 2):  # the k-th place on either side of the ulp
                _assert_search_is_scatter_add(idx, q, int(k))

    @pytest.mark.parametrize("bits", [0, 8, 16])
    def test_scores_within_float32_rounding(self, bits):
        # impacts a few float32 ulps apart: the float32 filter's order
        # differs from the exact one, so only its tolerance keeps the top-k
        rng = np.random.default_rng(bits + 35)
        levels = (1 + np.arange(6) * 2.0 ** -22).astype(np.float32)
        if bits:  # quantized: impacts a step apart near the top of the range
            levels = ((2 ** bits - 6 + np.arange(6)) / (2 ** bits - 1)).astype(np.float32)
        docs = [(f"d{i}", SparseRep([0, 1, 2, 3], rng.choice(levels, 4), 10))
                for i in range(400)]
        idx = build_index(docs, bits=bits)
        for _ in range(10):
            q = SparseRep([0, 1, 2, 3], rng.uniform(0.3, 3.0, 4), 10)
            for k in (1, 2, 5, 10, 37):
                _assert_search_is_scatter_add(idx, q, k)

    @pytest.mark.parametrize("bits", [0, 8, 16])
    def test_fewer_than_k_docs_score(self, bits):
        # random docs over terms 0..11; only three docs hold terms 13 and 14
        rng = np.random.default_rng(bits + 40)
        reps = [random_sparse_rep(rng, 12) for _ in range(50)]
        docs = [(f"d{i}", SparseRep(r.term_ids, r.weights, 16)) for i, r in enumerate(reps)]
        docs[7] = ("d7", rep([(13, 0.5)], 16))
        docs[31] = ("d31", rep([(13, 2.0), (14, 1e-30)], 16))
        docs[40] = ("d40", rep([(14, 3.0)], 16))
        idx = build_index(docs, bits=bits)
        for q in (rep([(13, 1.0), (14, 0.25)], 16), rep([(14, 1e-38)], 16)):
            for k in (1, 2, 3, 4, 10, 100):
                _assert_search_is_scatter_add(idx, q, k)

    @pytest.mark.parametrize("bits", [0, 8, 16])
    def test_k_above_doc_count(self, bits):
        rng = np.random.default_rng(bits + 50)
        idx = build_index(_layout_docs(rng, "mixed"), bits=bits)
        for _ in range(5):
            q = random_sparse_rep(rng, 16)
            for k in (idx.doc_count, idx.doc_count + 1, 10 * idx.doc_count):
                _assert_search_is_scatter_add(idx, q, k)

    @pytest.mark.parametrize("bits", [0, 8, 16])
    def test_only_sparse_list_terms(self, bits):
        rng = np.random.default_rng(bits + 60)
        idx = build_index(_layout_docs(rng, "mixed"), bits=bits)
        sparse = sorted(set(idx.postings) - set(idx.block_row))
        assert len(sparse) >= 2
        for _ in range(5):
            terms = np.sort(rng.choice(sparse, size=min(4, len(sparse)), replace=False))
            q = SparseRep(terms, rng.uniform(0.05, 3.0, size=terms.size), 16)
            for k in (1, 5, 10, 100):
                _assert_search_is_scatter_add(idx, q, k)

    @pytest.mark.parametrize("bits", [0, 8, 16])
    def test_single_candidate_sums_terms_in_order(self, bits):
        # one doc matches: a lone column must still be summed term after
        # term, not pairwise, for the scores to match scatter-add
        rng = np.random.default_rng(bits + 70)
        docs = [(f"d{i}", rep([(19, 1.0)], 20)) for i in range(5)]
        docs.append(("all", SparseRep(np.arange(19), rng.uniform(0.05, 3, 19), 20)))
        idx = build_index(docs, bits=bits)
        for _ in range(20):
            weights = rng.uniform(0.05, 3, 19) * 10.0 ** rng.integers(-6, 7, 19)
            _assert_search_is_scatter_add(idx, SparseRep(np.arange(19), weights, 20), 1)


class TestSerialization:
    def _random_index(self, seed, bits, n=25):
        rng = np.random.default_rng(seed)
        return build_index([(f"d{i}", random_sparse_rep(rng, 20)) for i in range(n)],
                           bits=bits)

    @pytest.mark.parametrize("bits", [0, 8, 16])
    def test_round_trip(self, tmp_path, bits):
        idx = self._random_index(1, bits)
        path = tmp_path / "idx.bin"
        serialize(idx, path)
        loaded = deserialize(path)
        assert loaded.doc_ids == idx.doc_ids
        assert loaded.bits == idx.bits and loaded.scale == np.float32(idx.scale)
        for t, plist in idx.postings.items():
            np.testing.assert_array_equal(loaded.postings[t].ordinals, plist.ordinals)
            np.testing.assert_array_equal(loaded.postings[t].impacts, plist.impacts)

    def test_round_trip_preserves_search(self, tmp_path):
        idx = self._random_index(2, 8)
        path = tmp_path / "idx.bin"
        serialize(idx, path)
        loaded = deserialize(path)
        q = random_sparse_rep(np.random.default_rng(99), 20)
        a, b = search(idx, q, 10), search(loaded, q, 10)
        assert a.doc_ids == b.doc_ids
        np.testing.assert_array_equal(a.scores, b.scores)

    def test_size_matches_file(self, tmp_path):
        """The same postings written at 8, 16 and 0 (float32) bits differ in
        size by exactly the impact bytes: 1, 2 and 4 per posting."""
        sizes = {}
        for bits in (0, 8, 16):
            idx = self._random_index(3, bits)
            path = tmp_path / f"idx{bits}.bin"
            serialize(idx, path)
            sizes[bits] = path.stat().st_size
        postings = sum(len(p.ordinals) for p in idx.postings.values())
        assert sizes[16] - sizes[8] == postings
        assert sizes[0] - sizes[8] == 3 * postings

    def test_empty_index_is_header_plus_count(self, tmp_path):
        idx = build_index([], bits=8)
        path = tmp_path / "empty.bin"
        serialize(idx, path)
        # magic (7) + header (13) + posting-list count (4)
        assert path.stat().st_size == 24
        assert deserialize(path).doc_count == 0

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTANIDX" + b"\x00" * 20)
        with pytest.raises(IndexFormatError, match="magic"):
            deserialize(path)

    def test_truncation_reports_offset(self, tmp_path):
        idx = self._random_index(4, 8)
        path = tmp_path / "t.bin"
        serialize(idx, path)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(IndexFormatError, match=r"byte \d+"):
            deserialize(path)

    def test_build_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        serialize(self._random_index(5, 8), a)
        serialize(self._random_index(5, 8), b)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("bits, sha256", [  # CSPIDX2 bytes before dense rows
        (0, "2070420a291627334c1400b5e62f8314ee82ff547f862821d7d2860416b39665"),
        (8, "f7177698d67a4adf418be7d758be83a5e92e5f760236b9beeaab6996e31b7afb"),
        (16, "04fe2b78f6e0ac8b41f98f1d0e401047ea8aa2e264bb4e71978c75f5bfc288c4"),
    ])
    def test_bytes_unchanged_by_dense_rows(self, tmp_path, bits, sha256):
        idx = build_index(_layout_docs(np.random.default_rng(6), "mixed"), bits=bits)
        assert 0 < len(idx.block_row) < len(idx.postings)
        path = tmp_path / "idx.bin"
        serialize(idx, path)
        blob = path.read_bytes()
        assert hashlib.sha256(blob).hexdigest() == sha256
        serialize(deserialize(path), path)
        assert path.read_bytes() == blob


def _index_over(doc_ids):
    return build_index([(d, rep([(i % 10, 1.0)])) for i, d in enumerate(doc_ids)],
                       bits=8)


class TestDocTable:
    @pytest.mark.parametrize("doc_ids", [
        ["d0"],                                  # one doc
        [f"d{i}" for i in range(300)],           # one run
        ["d0", "d1", "x2", "x3", "d4", "d5"],    # mixed prefixes
        ["d007", "d008", "d9", "d10"],           # leading zeros
        ["0", "1", "2", "10", "11"],             # empty prefix, with a gap
        ["alpha", "beta", "d1", "gamma"],        # non-numeric ids
        ["d1", "d2", "d4", "d5", "d6"],          # gap
        ["d3", "d2", "d1", "d0"],                # out of order
        ["a1b2", "a1b3", "7up", "d99999999999"],  # inner digits, huge number
        ["é1", "é2", "naïve", "x\n1", "x\n2", ""],  # UTF-8, newline, empty id
    ])
    def test_round_trip(self, tmp_path, doc_ids):
        path = tmp_path / "idx.bin"
        serialize(_index_over(doc_ids), path)
        assert deserialize(path).doc_ids == doc_ids

    @pytest.mark.parametrize("doc_ids, table_bytes", [
        ([f"d{i}" for i in range(1000)], 5),  # run header (2), prefix len, "d", 0
        (["d7", "d8"], 4),
        (["d0"], 3),                          # a lone id stays a literal
        (["d01", "d02"], 8),                  # leading zeros: two literals
        ([f"d{10 ** 18 + i}" for i in range(3)], 12),  # 19-digit run: first n takes 9 bytes
    ])
    def test_doc_table_size(self, tmp_path, doc_ids, table_bytes):
        # no postings: magic (7) + header (13) + doc table + list count (4)
        path = tmp_path / "idx.bin"
        serialize(build_index([(d, rep([])) for d in doc_ids], bits=8), path)
        assert path.stat().st_size == 24 + table_bytes


def _raw(doc_count, table, body, vocab_size=10, bits=8):
    """Hand-assembled index file: header, doc table, posting section."""
    return MAGIC + struct.pack("<IIBf", vocab_size, doc_count, bits, 1.0) + table + body


class TestCorruptIndex:
    TABLE_AB = b"\x02a\x02b"  # literal ids "a", "b"

    def _load(self, tmp_path, blob):
        path = tmp_path / "bad.bin"
        path.write_bytes(blob)
        return deserialize(path)

    def test_well_formed_raw_file_loads(self, tmp_path):
        # one list: term 3, ordinals [0, 1] (high bits 0b11), impacts 1, 2
        body = struct.pack("<I", 1) + b"\x03\x02" + b"\x03" + b"\x01\x02"
        idx = self._load(tmp_path, _raw(2, self.TABLE_AB, body))
        assert idx.doc_ids == ["a", "b"]
        assert idx.postings[3].ordinals.tolist() == [0, 1]

    def test_ordinal_beyond_doc_count(self, tmp_path):
        # high bits 0b101 decode to ordinals [0, 2] with doc_count 2
        body = struct.pack("<I", 1) + b"\x03\x02" + b"\x05" + b"\x01\x02"
        with pytest.raises(IndexFormatError, match="below 2"):
            self._load(tmp_path, _raw(2, self.TABLE_AB, body))

    def test_ordinals_not_increasing(self, tmp_path):
        # universe 8, count 2: one low bit each; lows [1, 0] under equal highs
        table = b"".join(b"\x02" + c for c in (b"a", b"b", b"c", b"d", b"e", b"f",
                                                b"g", b"h"))
        body = struct.pack("<I", 1) + b"\x00\x02" + b"\x01" + b"\x03" + b"\x01\x01"
        with pytest.raises(IndexFormatError, match="strictly increasing"):
            self._load(tmp_path, _raw(8, table, body))

    def test_posting_count_above_doc_count(self, tmp_path):
        body = struct.pack("<I", 1) + b"\x03\x03" + b"\x07" + b"\x01\x01\x01"
        with pytest.raises(IndexFormatError, match="count"):
            self._load(tmp_path, _raw(2, self.TABLE_AB, body))

    def test_term_id_beyond_vocab(self, tmp_path):
        body = struct.pack("<I", 1) + b"\x0a\x02" + b"\x03" + b"\x01\x02"
        with pytest.raises(IndexFormatError, match="vocab size 10 at byte"):
            self._load(tmp_path, _raw(2, self.TABLE_AB, body))

    @pytest.mark.parametrize("gap, count, match", [
        (3, 2 ** 32 + 2, "posting count 4294967298"),  # read as 2 when cut to 32 bits
        (2 ** 32 + 3, 2, "term id 4294967299"),        # read as term 3 when cut to 32 bits
    ])
    def test_header_varints_past_32_bits_rejected(self, tmp_path, gap, count, match):
        ok = struct.pack("<I", 1) + b"\x03\x02" + b"\x03" + b"\x01\x02"
        assert self._load(tmp_path, _raw(2, self.TABLE_AB, ok)).postings[3]
        body = struct.pack("<I", 1) + varint_encode(gap, count) \
            + b"\x03" + b"\x01\x02"
        with pytest.raises(IndexFormatError, match=match):
            self._load(tmp_path, _raw(2, self.TABLE_AB, body))

    def test_malformed_run(self, tmp_path):
        run_of_3 = b"\x07\x01d\x00"  # "d0".."d2", but the header says 2 docs
        with pytest.raises(IndexFormatError, match="run"):
            self._load(tmp_path, _raw(2, run_of_3, struct.pack("<I", 0)))

    def test_bad_impact_width(self, tmp_path):
        with pytest.raises(IndexFormatError, match="impact width"):
            self._load(tmp_path, _raw(0, b"", struct.pack("<I", 0), bits=4))

    @pytest.mark.parametrize("scale", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    def test_scale_not_finite_and_positive(self, tmp_path, scale):
        ok = struct.pack("<I", 1) + b"\x03\x02" + b"\x03" + b"\x01\x02"
        blob = bytearray(_raw(2, self.TABLE_AB, ok))
        assert self._load(tmp_path, bytes(blob)).scale == 1.0
        blob[16:20] = struct.pack("<f", scale)  # after magic (7), vocab, docs, bits
        with pytest.raises(IndexFormatError, match="not finite and positive at byte 16"):
            self._load(tmp_path, bytes(blob))

    def test_huge_vocab_size_in_header(self, tmp_path):
        # the search tables follow the lists present, not the header's
        # vocab_size; query terms past the largest indexed term score 0
        rng = np.random.default_rng(13)
        path = tmp_path / "idx.bin"
        serialize(build_index([(f"d{i}", random_sparse_rep(rng, 20)) for i in range(10)],
                              bits=8), path)
        blob = bytearray(path.read_bytes())
        blob[len(MAGIC): len(MAGIC) + 4] = struct.pack("<I", 0xFFFFFFFF)
        idx = self._load(tmp_path, bytes(blob))
        assert idx.vocab_size == 0xFFFFFFFF
        last = max(idx.postings)
        q = SparseRep([last, last + 1, 0xFFFFFFFE], [1.0, 2.0, 3.0], 0xFFFFFFFF)
        _assert_search_is_scatter_add(idx, q, 5)
        assert search(idx, q, 5).doc_ids == search(idx, SparseRep([last], [1.0], 0xFFFFFFFF),
                                                  5).doc_ids
        assert len(search(idx, SparseRep([last + 1, 0xFFFFFFFE], [2.0, 3.0], 0xFFFFFFFF),
                          5)) == 0

    @pytest.mark.parametrize("bits, value", [(0, -1.0), (0, 0.0), (0, np.inf), (0, np.nan),
                                             (8, 0), (16, 0)])
    def test_impact_not_finite_and_positive(self, tmp_path, bits, value):
        # the search's error bound needs finite, positive impacts; the last
        # bytes of a file are the impacts of its last list
        path = tmp_path / "idx.bin"
        serialize(build_index([("a", rep([(3, 1.0)])), ("b", rep([(3, 2.0)]))], bits=bits),
                  path)
        blob = path.read_bytes()
        impact = np.array([value], dtype={0: np.float32, 8: np.uint8, 16: np.uint16}[bits])
        with pytest.raises(IndexFormatError, match="impact not finite and positive"):
            self._load(tmp_path, blob[:-impact.nbytes] + impact.tobytes())

    def test_every_truncation_rejected(self, tmp_path):
        rng = np.random.default_rng(11)
        docs = [(f"d{i}", random_sparse_rep(rng, 20)) for i in range(12)]
        docs.append(("odd one", random_sparse_rep(rng, 20)))
        path = tmp_path / "idx.bin"
        serialize(build_index(docs, bits=16), path)
        blob = path.read_bytes()
        for cut in range(len(blob)):
            with pytest.raises(IndexFormatError, match=r"(byte|offset) \d+"):
                self._load(tmp_path, blob[:cut])

    def test_byte_flips_load_or_raise_format_error(self, tmp_path):
        rng = np.random.default_rng(12)
        docs = [(f"d{i}", random_sparse_rep(rng, 20)) for i in range(10)]
        path = tmp_path / "idx.bin"
        serialize(build_index(docs, bits=8), path)
        blob = path.read_bytes()
        for i in range(len(MAGIC), len(blob)):
            for mask in (0x01, 0x80, 0xFF):
                bad = bytearray(blob)
                bad[i] ^= mask
                try:
                    idx = self._load(tmp_path, bytes(bad))
                except IndexFormatError:
                    continue
                for t, plist in idx.postings.items():
                    assert 0 <= t < idx.vocab_size
                    assert (np.diff(plist.ordinals.astype(np.int64)) > 0).all()
                    assert plist.ordinals[-1] < idx.doc_count


class TestRunFormat:
    def test_round_trip(self, tmp_path):
        run = {"q1": [("d3", 2.5), ("d1", 1.0)], "q2": [("d2", 0.75)]}
        path = tmp_path / "run.txt"
        write_run(path, run, tag="test")
        assert read_run(path) == {"q1": [("d3", 2.5), ("d1", 1.0)],
                                  "q2": [("d2", 0.75)]}

    def test_format_columns(self, tmp_path):
        path = tmp_path / "run.txt"
        write_run(path, {"q1": [("d1", 1.5)]}, tag="sys")
        assert path.read_text() == "q1 Q0 d1 1 1.500000 sys\n"

    def test_bad_column_count(self, tmp_path):
        path = tmp_path / "run.txt"
        path.write_text("q1 Q0 d1 1 1.0\n")
        with pytest.raises(IndexFormatError, match="columns"):
            read_run(path)

    def test_bad_score_names_line(self, tmp_path):
        path = tmp_path / "run.txt"
        path.write_text("q1 Q0 d1 1 1.0 sys\n\nq1 Q0 d2 2 high sys\n")
        with pytest.raises(IndexFormatError, match=f"{path}:3: bad score 'high'"):
            read_run(path)
