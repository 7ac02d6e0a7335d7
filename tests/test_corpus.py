"""Vocabulary, tokenization, file formats, and the synthetic generator."""

import numpy as np
import pytest

from csplade.corpus import (ParseError, SynthSpec, Vocabulary, build_vocab,
                            detokenize, load_qrels, load_triples, load_tsv,
                            save_qrels, save_triples, save_tsv,
                            synth_generate, tokenize)
from csplade.encoder import BOS_ID, EOS_ID, UNK_ID


class TestVocabulary:
    def test_frequency_ranking(self):
        v = build_vocab(["a b", "a"], size=6)
        assert v.lookup("a") == 4 and v.lookup("b") == 5

    def test_empty_input_only_reserved(self):
        assert build_vocab([]).size == 4

    def test_truncated_token_maps_to_unk(self):
        v = build_vocab(["a a b"], size=5)  # room for one real token
        assert v.lookup("a") == 4 and v.lookup("b") == UNK_ID

    def test_tie_broken_by_first_occurrence(self):
        v = build_vocab(["z y", "y z x"])
        assert v.lookup("z") == 4 and v.lookup("y") == 5 and v.lookup("x") == 6

    def test_save_load_round_trip(self, tmp_path):
        v = build_vocab(["hello world of terms"])
        path = tmp_path / "vocab.txt"
        v.save(path)
        assert Vocabulary.load(path).id_to_token == v.id_to_token

    def test_duplicate_tokens_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Vocabulary(["a", "a"])


class TestTokenize:
    def test_basic(self):
        v = build_vocab(["a b"])
        seq = tokenize("a b", v)
        assert seq.ids.tolist() == [BOS_ID, v.lookup("a"), v.lookup("b"), EOS_ID]
        assert seq.span == (1, 4)  # content + EOS, BOS excluded

    def test_empty_text(self):
        seq = tokenize("", build_vocab([]))
        assert seq.ids.tolist() == [BOS_ID, EOS_ID]
        assert seq.span == (1, 2)

    def test_truncation_keeps_eos(self):
        v = build_vocab(["a b c d e f g h"])
        seq = tokenize("a b c d e f g h", v, max_len=5)
        assert seq.length == 5 and seq.ids[-1] == EOS_ID and seq.ids[0] == BOS_ID

    @pytest.mark.parametrize("max_len", [1, 0, -3])
    def test_max_len_below_two_rejected(self, max_len):
        v = build_vocab(["a b c d e"])
        with pytest.raises(ValueError, match="max_len"):
            tokenize("a b c d e", v, max_len=max_len)

    def test_max_len_two_keeps_bos_and_eos(self):
        v = build_vocab(["a b c d e"])
        assert tokenize("a b c d e", v, max_len=2).ids.tolist() == [BOS_ID, EOS_ID]

    def test_detokenize_round_trip(self):
        v = build_vocab(["the quick brown fox"])
        text = "quick fox the"
        assert detokenize(tokenize(text, v), v) == text


class TestFileFormats:
    def test_tsv_round_trip(self, tmp_path):
        data = {"d1": "hello world", "d2": "tab\tinside stays", "d3": ""}
        path = tmp_path / "c.tsv"
        save_tsv(path, data)
        assert load_tsv(path) == data

    def test_tsv_missing_tab(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("d1 no tab here\n")
        with pytest.raises(ParseError, match=":1:"):
            load_tsv(path)

    def test_tsv_duplicate_id(self, tmp_path):
        path = tmp_path / "dup.tsv"
        path.write_text("d1\ta\nd1\tb\n")
        with pytest.raises(ParseError, match=":2:.*duplicate"):
            load_tsv(path)

    def test_qrels_round_trip(self, tmp_path):
        qrels = {"q1": {"d1": 1, "d2": 0}, "q2": {"d3": 2}}
        path = tmp_path / "qrels.txt"
        save_qrels(path, qrels)
        assert load_qrels(path) == qrels

    def test_qrels_example_line(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 0 d1 1\n")
        assert load_qrels(path) == {"q1": {"d1": 1}}

    def test_qrels_bad_column_count(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 0 d1\n")
        with pytest.raises(ParseError, match=":1:"):
            load_qrels(path)

    def test_triples_round_trip(self, tmp_path):
        triples = [{"query_id": "q1", "positive_ids": ["d1"], "negative_ids": ["d2", "d3"]}]
        path = tmp_path / "t.jsonl"
        save_triples(path, triples)
        assert load_triples(path) == triples

    def test_triples_empty_positives_rejected_with_line(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            '{"query_id": "q1", "positive_ids": ["d1"], "negative_ids": []}\n'
            '{"query_id": "q2", "positive_ids": [], "negative_ids": []}\n')
        with pytest.raises(ParseError, match=":2:.*positive"):
            load_triples(path)

    def test_triples_invalid_json(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("{broken\n")
        with pytest.raises(ParseError, match=":1:"):
            load_triples(path)


class TestSynthGenerate:
    def test_deterministic(self):
        spec = SynthSpec(n_docs=50, n_queries=10, seed=11)
        assert synth_generate(spec) == synth_generate(spec)

    def test_zero_surface_overlap_on_slots(self, synth):
        """Every query shares no surface token with its positive document."""
        for qid, judged in synth["qrels"].items():
            q_tokens = set(synth["queries"][qid].split())
            for docid in judged:
                d_tokens = set(synth["corpus"][docid].split())
                assert not q_tokens & d_tokens, (qid, docid)

    def test_counts(self, synth):
        assert len(synth["corpus"]) == 1000
        assert len(synth["queries"]) == 100
        assert sum(len(v) for v in synth["qrels"].values()) >= 100

    def test_every_positive_in_some_triple(self, synth):
        positives = {(t["query_id"], d) for t in synth["triples"]
                     for d in t["positive_ids"]}
        for qid, judged in synth["qrels"].items():
            for docid, rel in judged.items():
                if rel > 0:
                    assert (qid, docid) in positives

    def test_infeasible_spec_rejected(self):
        with pytest.raises(ValueError, match="synonym"):
            SynthSpec(n_synonym_pairs=2, slots_per_query=(2, 3))
        with pytest.raises(ValueError):
            SynthSpec(n_docs=5, n_queries=10)
