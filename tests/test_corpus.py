"""Vocabulary, tokenization, file formats, and the synthetic generator."""

import hashlib
import re

import numpy as np
import pytest

from conftest import detokenize
from csplade.cli import main
from csplade.corpus import (ParseError, SynthSpec, Vocabulary, build_vocab,
                            load_qrels, load_triples, load_tsv, save_qrels,
                            save_triples, save_tsv, synth_generate, tokenize)
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
        with pytest.raises(ValueError, match="duplicate token 'a'"):
            Vocabulary(["a", "a"])
        with pytest.raises(ValueError, match="duplicate token '<eos>'"):
            Vocabulary(["a", "<eos>"])

    def test_control_words_in_vocabulary_text_skipped(self):
        v = build_vocab(["a <unk> b <pad>", "<bos> <eos> a"])
        assert v.id_to_token[4:] == ["a", "b"]
        assert [v.lookup(t) for t in ("<pad>", "<bos>", "<eos>", "<unk>")] == [UNK_ID] * 4

    def test_load_names_line_of_duplicate_token(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("a\nb\n\na\n")
        with pytest.raises(ParseError, match=f"{path}:4: duplicate token 'a'"):
            Vocabulary.load(path)


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

    def test_control_words_are_unknown_words(self):
        v = build_vocab(["a"])
        assert tokenize("<bos> a <eos> <pad>", v).ids.tolist() == \
            [BOS_ID, UNK_ID, v.lookup("a"), UNK_ID, UNK_ID, EOS_ID]

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

    @pytest.mark.parametrize("key", ["d 1", " d1", "d1 ", "d\x0b1", " "])
    def test_tsv_id_with_whitespace_rejected(self, tmp_path, key):
        """A run file splits its columns on whitespace, so an id holding any
        would be read back as more columns than were written."""
        path = tmp_path / "c.tsv"
        path.write_text(f"d0\tfine\n{key}\ttext\n")
        message = f"^{re.escape(str(path))}:2: id {re.escape(repr(key))} holds whitespace$"
        with pytest.raises(ParseError, match=message):
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

    def test_qrels_repeated_judgement_rejected(self, tmp_path):
        """A second judgement of the same (qid, docid) would overwrite the
        first without a word."""
        path = tmp_path / "qrels.txt"
        path.write_text("q1 0 d1 1\nq2 0 d1 1\nq1 0 d1 0\n")
        message = f"^{re.escape(str(path))}:3: duplicate judgement of 'd1' for 'q1'$"
        with pytest.raises(ParseError, match=message):
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

    @pytest.mark.parametrize("line, message", [
        ('{"query_id": 7, "positive_ids": ["d1"], "negative_ids": []}',
         "query_id must be a string"),
        ('{"query_id": "q2", "positive_ids": "d3", "negative_ids": []}',
         "positive_ids must be a list of strings"),
        ('{"query_id": "q2", "positive_ids": ["d1", 3], "negative_ids": []}',
         "positive_ids must be a list of strings"),
        ('{"query_id": "q2", "positive_ids": ["d1"], "negative_ids": null}',
         "negative_ids must be a list of strings"),
        ('["q2", ["d1"], []]', "expected a JSON object"),
    ])
    def test_triples_mistyped_field_rejected_with_line(self, tmp_path, line, message):
        path = tmp_path / "t.jsonl"
        path.write_text('{"query_id": "q1", "positive_ids": ["d1"], "negative_ids": []}\n'
                        + line + "\n")
        with pytest.raises(ParseError, match=f"^{re.escape(str(path))}:2: {message}$"):
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

    @pytest.mark.parametrize("kwargs, field", [
        (dict(doc_len_range=(16, 8)), "doc_len_range"),
        (dict(doc_len_range=(0, 8), slots_per_query=(0, 0)), "doc_len_range"),
        (dict(slots_per_query=(3, 2)), "slots_per_query"),
        (dict(slots_per_query=(0, 0)), "slots_per_query"),
        (dict(slots_per_query=(0, 2)), "slots_per_query"),
        (dict(hard_negatives_per_query=-1), "hard_negatives_per_query"),
        (dict(base_vocab_size=0), "base_vocab_size"),
        (dict(n_synonym_pairs=0), "n_synonym_pairs"),
        (dict(seed=-1), "^seed must be >= 0, got -1$"),
    ])
    def test_bad_spec_names_the_field(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            SynthSpec(**kwargs)

    @pytest.mark.parametrize("n_docs, n_queries, hard_negs", [
        (10, 10, 3), (11, 10, 3), (12, 10, 50), (2, 2, 8), (2, 1, 8), (1, 1, 8),
        (60, 10, 8), (40, 20, 0),
    ])
    def test_hard_negatives(self, n_docs, n_queries, hard_negs):
        """Every query's negatives are distinct docs other than its positive,
        in ascending doc order, as many as the pool allows. Every query is
        checked, so qi = 0 and qi = n_queries - 1, the ends of the pool
        without d{qi}, are covered; at (12, 10, 50) the pool is taken whole."""
        spec = SynthSpec(n_docs=n_docs, n_queries=n_queries,
                         hard_negatives_per_query=hard_negs, seed=3)
        corpus, _, qrels, triples = synth_generate(spec)
        assert [t["query_id"] for t in triples] == [f"q{qi}" for qi in range(n_queries)]
        for t in triples:
            negs = t["negative_ids"]
            assert len(negs) == min(hard_negs, n_docs - 1)
            assert t["positive_ids"] == list(qrels[t["query_id"]])
            assert not set(negs) & set(t["positive_ids"])
            assert set(negs) <= set(corpus)
            nums = [int(d[1:]) for d in negs]
            assert nums == sorted(set(nums))


class TestSynthBytes:
    """The sha256 of each file `csplade synth` writes, for the default spec
    and for the `query` benchmark workload's spec. Any change to the
    generator's draws or to the file formats shows here."""

    @pytest.mark.parametrize("argv, digests", [
        (["--seed", "0"], {
            "corpus.tsv": "e468125ef5b883ba0b4d0d1559a63d2f497f722c43b13e73a94d4dcbc994a622",
            "queries.tsv": "0334e18649e43e85b4c0af58787fc80d7d412b2f5e98e063d6f198f6563bb9ed",
            "qrels.txt": "b3d1f9c6b1c775ba18e7759b87a94772a41c982a0cbd5e69d536b77967a83744",
            "triples.jsonl": "b1f5162d096cdf7a04034074abeb96d5c9d62b61d5a4e2a3230e60511add474f",
        }),
        (["--seed", "1", "--docs", "10000", "--queries", "200"], {
            "corpus.tsv": "869ed83f78463fce994f7f93d9cb3df4345ea7ff104c54c183e6c50bfc1344ec",
            "queries.tsv": "d1386fd1f018c37888e5157186fc92128dfda0500cb7efd54b611f285c024f4f",
            "qrels.txt": "3ed4c9513af3efe60b983e0f75c68492c0143e6512017da35ee84b59fc1c1df6",
            "triples.jsonl": "9b6b69c6f031e06a8679f6e73b3ca986feacfb92cb922cf7b4e840e843c005e8",
        }),
    ], ids=["default", "query-workload"])
    def test_synth_files_pinned(self, tmp_path, argv, digests):
        assert main(["synth", *argv, "--out", str(tmp_path)]) == 0
        for name, digest in digests.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name
