"""End-to-end CLI pipeline tests over a miniature dataset."""

import argparse
import dataclasses
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import csplade
from csplade import corpus as corpus_mod, index as index_mod, trainer
from csplade.cli import build_parser, environment, main
from csplade.corpus import SynthSpec, Vocabulary
from csplade.encoder import EncoderConfig, EncoderModel
from csplade.index import deserialize
from csplade.splade import READ_BLOCK_LINES, SparseRep, write_reps
from csplade.trainer import AdaptConfig, ContrastiveConfig


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    assert run_cli("synth", "--seed", 7, "--docs", 40, "--queries", 8,
                   "--synonym-pairs", 8, "--hard-negs", 2, "--out", out) == 0
    return out


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory, synth_dir):
    """synth -> adapt -> train -> encode -> index -> search -> eval."""
    work = tmp_path_factory.mktemp("work")
    model = work / "adapted.ckpt"
    vocab = work / "vocab.txt"
    assert run_cli("adapt", "--corpus", synth_dir / "corpus.tsv",
                   "--steps", 5, "--warmup", 1, "--seq-len", 16,
                   "--d-model", 16, "--layers", 1, "--heads", 2,
                   "--max-seq-len", 32, "--variant", "bi",
                   "--vocab-out", vocab, "--out", model,
                   "--report", work / "adapt.csv") == 0
    trained = work / "trained.ckpt"
    assert run_cli("train", "--model", model, "--vocab", vocab,
                   "--triples", synth_dir / "triples.jsonl",
                   "--corpus", synth_dir / "corpus.tsv",
                   "--queries", synth_dir / "queries.tsv",
                   "--epochs", 1, "--hard-negs", 1, "--variant", "bi",
                   "--out", trained, "--report", work / "train.csv") == 0
    reps = work / "reps.txt"
    assert run_cli("encode", "--model", trained, "--vocab", vocab,
                   "--input", synth_dir / "corpus.tsv", "--variant", "bi",
                   "--out", reps) == 0
    idx = work / "index.bin"
    assert run_cli("index", "--reps", reps, "--vocab", vocab,
                   "--bits", 8, "--out", idx) == 0
    run = work / "run.txt"
    assert run_cli("search", "--queries", synth_dir / "queries.tsv",
                   "--index", idx, "--model", trained, "--vocab", vocab,
                   "--variant", "bi", "--k", 10, "--out", run) == 0
    metrics = work / "metrics.csv"
    assert run_cli("eval", "--run", run, "--qrels", synth_dir / "qrels.txt",
                   "--k", 10, "--out", metrics) == 0
    return work, synth_dir


class TestSynth:
    def test_outputs_and_manifest(self, synth_dir):
        for name in ("corpus.tsv", "queries.tsv", "qrels.txt", "triples.jsonl",
                     "manifest.json"):
            assert (synth_dir / name).exists(), name
        manifest = json.loads((synth_dir / "manifest.json").read_text())
        assert manifest["subcommand"] == "synth"
        assert manifest["seed"] == 7
        assert manifest["config"]["docs"] == 40
        assert "version" in manifest
        assert set(manifest["env"]) == {"python", "numpy", "blas", "OPENBLAS_NUM_THREADS",
                                        "OMP_NUM_THREADS", "cpu_count"}
        assert manifest["env"]["numpy"] == np.__version__
        assert manifest["inputs"] == {}  # synth reads no file
        assert manifest["wall_s"] > 0
        assert not any(k.startswith("_") for k in manifest["config"])

    def test_env_reports_blas_threads_as_set(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        env = environment()
        assert env["OPENBLAS_NUM_THREADS"] == "1" and env["OMP_NUM_THREADS"] is None
        assert env["cpu_count"] == os.cpu_count()

    def test_deterministic(self, synth_dir, tmp_path):
        assert run_cli("synth", "--seed", 7, "--docs", 40, "--queries", 8,
                       "--synonym-pairs", 8, "--hard-negs", 2,
                       "--out", tmp_path) == 0
        for name in ("corpus.tsv", "queries.tsv", "qrels.txt", "triples.jsonl"):
            assert (tmp_path / name).read_bytes() == (synth_dir / name).read_bytes()


class TestPipeline:
    def test_artifacts_exist(self, pipeline):
        work, _ = pipeline
        for name in ("adapted.ckpt", "vocab.txt", "trained.ckpt", "reps.txt",
                     "index.bin", "run.txt", "metrics.csv", "adapt.csv",
                     "train.csv"):
            assert (work / name).exists(), name

    def test_manifests_written(self, pipeline):
        work, _ = pipeline
        manifest = json.loads((work / "metrics.csv.manifest.json").read_text())
        assert manifest["subcommand"] == "eval"
        # sorted keys on disk
        text = (work / "metrics.csv.manifest.json").read_text()
        assert text.index('"config"') < text.index('"subcommand"')

    def test_manifests_hash_inputs(self, pipeline):
        work, data = pipeline

        def sha(path):
            return hashlib.sha256(path.read_bytes()).hexdigest()

        manifest = json.loads((work / "trained.ckpt.manifest.json").read_text())
        assert manifest["inputs"] == {
            str(p): sha(p) for p in (data / "corpus.tsv", work / "adapted.ckpt", work / "vocab.txt",
                                     data / "triples.jsonl", data / "queries.tsv")}
        assert manifest["wall_s"] > 0 and manifest["env"]["blas"]
        manifest = json.loads((work / "metrics.csv.manifest.json").read_text())
        assert manifest["inputs"] == {str(work / "run.txt"): sha(work / "run.txt"),
                                      str(data / "qrels.txt"): sha(data / "qrels.txt")}

    def test_manifests_record_peak_rss(self, pipeline):
        work, data = pipeline
        for path in [data / "manifest.json", *work.glob("*.manifest.json")]:
            manifest = json.loads(path.read_text())
            assert manifest["peak_rss_mb"] > 0, path
            assert "peak_rss_mb" not in manifest["env"], path

    def test_adapt_manifest_records_the_seq_len_cap(self, pipeline, tmp_path):
        """Texts are cut at min(--seq-len, --max-seq-len); the manifest
        records the cap used, not the requested length."""
        _, data = pipeline
        out = tmp_path / "a.ckpt"
        assert run_cli("adapt", "--corpus", data / "corpus.tsv", "--steps", 2,
                       "--vocab-out", tmp_path / "v.txt", "--out", out) == 0
        config = json.loads(Path(f"{out}.manifest.json").read_text())["config"]
        assert AdaptConfig.seq_len == 128 and EncoderConfig.max_seq_len == 64
        assert config["seq_len"] == 64

    def test_manifests_hash_outputs(self, pipeline):
        work, data = pipeline

        def sha(path):
            return hashlib.sha256(path.read_bytes()).hexdigest()

        expected = {
            data / "manifest.json": [data / n for n in ("corpus.tsv", "queries.tsv",
                                                       "qrels.txt", "triples.jsonl")],
            work / "adapted.ckpt.manifest.json": [work / "adapted.ckpt", work / "vocab.txt",
                                                  work / "adapt.csv"],
            work / "trained.ckpt.manifest.json": [work / "trained.ckpt", work / "train.csv"],
            work / "reps.txt.manifest.json": [work / "reps.txt"],
            work / "index.bin.manifest.json": [work / "index.bin"],
            work / "run.txt.manifest.json": [work / "run.txt"],
            work / "metrics.csv.manifest.json": [work / "metrics.csv"],
        }
        for manifest_path, outputs in expected.items():
            manifest = json.loads(manifest_path.read_text())
            assert manifest["outputs"] == {str(p): sha(p) for p in outputs}, manifest_path

    def test_index_manifest_stats(self, pipeline):
        work, _ = pipeline
        idx = deserialize(work / "index.bin")
        postings = sum(len(p.ordinals) for p in idx.postings.values())
        size = (work / "index.bin").stat().st_size
        manifest = json.loads((work / "index.bin.manifest.json").read_text())
        lists = idx.postings.values()
        widths = [(int(p.impacts.max()) - int(p.impacts.min())).bit_length() for p in lists]
        assert manifest["stats"] == {
            "docs": 40, "postings": postings, "bytes": size,
            "bytes_per_posting": size / postings, "dense_lists": len(idx.block_row),
            "absent_coded_lists": sum(len(p.ordinals) > 20 for p in lists),
            "impact_bits_per_posting":
                sum(w * len(p.ordinals) for w, p in zip(widths, lists)) / postings}
        assert postings > 0 and idx.doc_count == 40

    def test_encode_manifest_stats(self, pipeline):
        """The encode manifest counts what the reps file holds."""
        work, _ = pipeline
        nnz = [len(line.partition("\t")[2].split())
               for line in (work / "reps.txt").read_text().splitlines()]
        manifest = json.loads((work / "reps.txt.manifest.json").read_text())
        assert manifest["stats"] == {"docs": 40, "postings": sum(nnz),
                                     "empty_reps": nnz.count(0), "nnz_mean": sum(nnz) / 40,
                                     "truncated_texts": 0, "dropped_words": 0}

    def test_metrics_csv_shape(self, pipeline):
        work, _ = pipeline
        lines = (work / "metrics.csv").read_text().splitlines()
        assert lines[0] == "qid,metric,value"
        assert sum(1 for l in lines if l.startswith("all,")) == 3

    def test_train_report_header(self, pipeline):
        work, _ = pipeline
        header = (work / "train.csv").read_text().splitlines()[0]
        assert header == ("step,rank_loss,flops_q,flops_d,clm,relu_clm,"
                          "total,dead_frac,avg_nnz_q,avg_nnz_d,lr,step_ms,"
                          "grad_norm,dead_dims")

    def test_bm25_search_path(self, pipeline, tmp_path):
        _, data = pipeline
        out = tmp_path / "bm25.txt"
        assert run_cli("search", "--queries", data / "queries.tsv",
                       "--bm25", "--corpus", data / "corpus.tsv",
                       "--k", 5, "--out", out) == 0
        for line in out.read_text().splitlines():
            assert line.split()[5] == "bm25"


class TestVariantFromCheckpoint:
    def test_encode_and_search_default_to_checkpoint_mode(self, pipeline, tmp_path):
        work, data = pipeline
        reps = tmp_path / "reps.txt"
        assert run_cli("encode", "--model", work / "trained.ckpt", "--vocab", work / "vocab.txt",
                       "--input", data / "corpus.tsv", "--out", reps) == 0
        assert reps.read_bytes() == (work / "reps.txt").read_bytes()
        manifest = json.loads((tmp_path / "reps.txt.manifest.json").read_text())
        assert manifest["config"]["variant"] == "bi"
        run = tmp_path / "run.txt"
        assert run_cli("search", "--queries", data / "queries.tsv", "--index", work / "index.bin",
                       "--model", work / "trained.ckpt", "--vocab", work / "vocab.txt",
                       "--k", 10, "--out", run) == 0
        assert run.read_bytes() == (work / "run.txt").read_bytes()

    @pytest.mark.parametrize("subcommand", ["encode", "search"])
    def test_conflicting_variant_is_one_line_error(self, pipeline, tmp_path, capsys,
                                                   subcommand):
        work, data = pipeline
        args = {
            "encode": ("--input", data / "corpus.tsv"),
            "search": ("--queries", data / "queries.tsv", "--index", work / "index.bin"),
        }[subcommand]
        out = tmp_path / "out.txt"
        assert run_cli(subcommand, "--model", work / "trained.ckpt", "--vocab",
                       work / "vocab.txt", *args, "--variant", "causal", "--out", out) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "--variant causal conflicts with the checkpoint's mode bi" in err
        assert not out.exists()

    def test_adapt_writes_variant_into_checkpoint(self, synth_dir, tmp_path):
        model = tmp_path / "echo.ckpt"
        assert run_cli("adapt", "--corpus", synth_dir / "corpus.tsv", "--steps", 1,
                       "--warmup", 0, "--seq-len", 16, "--d-model", 16, "--layers", 1,
                       "--heads", 2, "--max-seq-len", 32, "--variant", "echo",
                       "--vocab-out", tmp_path / "vocab.txt", "--out", model) == 0
        assert b"\nvariant=echo\n" in model.read_bytes()
        assert EncoderModel.load(model).cfg.variant == "echo"

    def test_train_keeps_checkpoint_mode_by_default(self, pipeline, tmp_path):
        work, data = pipeline
        out = tmp_path / "t.ckpt"
        assert run_cli("train", "--model", work / "adapted.ckpt", "--vocab", work / "vocab.txt",
                       "--triples", data / "triples.jsonl", "--corpus", data / "corpus.tsv",
                       "--queries", data / "queries.tsv", "--epochs", 1, "--hard-negs", 1,
                       "--out", out) == 0
        assert out.read_bytes() == (work / "trained.ckpt").read_bytes()


def run_phase(phase, pipeline, tmp_path, steps, *extra):
    """Run training phase `phase` ("adapt" or "train") of a tiny model for
    `steps` optimizer steps, writing into `tmp_path`; (exit code, checkpoint)."""
    work, data = pipeline
    out = tmp_path / "m.ckpt"
    if phase == "adapt":
        argv = ("--corpus", data / "corpus.tsv", "--steps", steps, "--seq-len", 16,
                "--d-model", 16, "--layers", 1, "--heads", 2, "--max-seq-len", 32,
                "--vocab-out", tmp_path / "vocab.txt")
    else:  # the 8 triples make one batch, so one step per epoch
        argv = ("--model", work / "adapted.ckpt", "--vocab", work / "vocab.txt",
                "--triples", data / "triples.jsonl", "--corpus", data / "corpus.tsv",
                "--queries", data / "queries.tsv", "--epochs", steps, "--batch", 8)
    return run_cli(phase, *argv, *extra, "--out", out), out


class TestWarmup:
    """Both phases warm up for round(0.05 * steps) steps unless --warmup is
    given, the manifest records the count used, and a given count must be
    below the phase's step count."""

    @pytest.mark.parametrize("steps", [1, 2, 20])
    @pytest.mark.parametrize("phase", ["adapt", "train"])
    def test_default_warmup_fits_any_step_count(self, pipeline, tmp_path, phase, steps):
        code, model = run_phase(phase, pipeline, tmp_path, steps, "--report", tmp_path / "r.csv")
        assert code == 0
        manifest = json.loads(Path(f"{model}.manifest.json").read_text())
        assert manifest["config"]["warmup"] == round(0.05 * steps)
        rows = (tmp_path / "r.csv").read_text().splitlines()[1:]
        assert len(rows) == steps

    @pytest.mark.parametrize("phase", ["adapt", "train"])
    def test_explicit_warmup_must_precede_steps(self, pipeline, tmp_path, capsys, phase):
        assert run_phase(phase, pipeline, tmp_path, 2, "--warmup", 2)[0] == 1
        assert "warmup_steps must be < steps" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestParserDefaults:
    """Each option's default is the default of the dataclass field it fills."""

    REQUIRED = {"synth": (), "adapt": ("--corpus",),
                "train": ("--model", "--vocab", "--triples", "--corpus", "--queries")}

    @pytest.mark.parametrize("subcommand, cls, dests", [
        ("synth", SynthSpec, {"seed": "seed", "docs": "n_docs", "queries": "n_queries",
                              "base_vocab": "base_vocab_size",
                              "synonym_pairs": "n_synonym_pairs",
                              "hard_negs": "hard_negatives_per_query"}),
        ("adapt", EncoderConfig, {"d_model": "d_model", "layers": "n_layers",
                                  "heads": "n_heads", "max_seq_len": "max_seq_len",
                                  "seed": "seed"}),
        ("adapt", AdaptConfig, {"steps": "steps", "batch": "batch_size", "seq_len": "seq_len",
                                "lr": "lr", "warmup": "warmup_steps",
                                "lambda_relu": "lambda_relu", "seed": "seed"}),
        ("train", ContrastiveConfig, {"epochs": "epochs", "batch": "global_batch_size",
                                      "hard_negs": "hard_negatives_per_positive", "lr": "lr",
                                      "warmup": "warmup_steps",
                                      "lambda_q": "lambda_q", "lambda_d": "lambda_d",
                                      "seed": "seed"}),
    ])
    def test_defaults_match_dataclass(self, subcommand, cls, dests):
        argv = [subcommand, "--out", "x"]
        for flag in self.REQUIRED[subcommand]:
            argv += [flag, "x"]
        args = vars(build_parser().parse_args(argv))
        field_defaults = {f.name: f.default for f in dataclasses.fields(cls)}
        assert {d: args[d] for d in dests} == {d: field_defaults[f] for d, f in dests.items()}
        if cls is SynthSpec:
            assert (args["doc_len_min"], args["doc_len_max"]) == SynthSpec.doc_len_range


def _two_copies(corpus, path, tail=""):
    """Write the texts of `corpus` twice over to `path` under fresh ids
    (80 documents from the 40 of `synth_dir`: more than one block), then `tail`."""
    texts = [line.partition("\t")[2] for line in corpus.read_text().splitlines()]
    path.write_text("".join(f"{i}\t{text}\n" for i, text in enumerate(texts * 2)) + tail)
    return path


class TestErrors:
    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("synth", "--bogus-flag", 1, "--out", "x")
        assert exc.value.code == 2

    def test_missing_file_exits_one(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("CSPLADE_DEBUG", raising=False)  # one line, no traceback
        assert run_cli("eval", "--run", tmp_path / "nope.txt",
                       "--qrels", tmp_path / "nope.txt",
                       "--out", tmp_path / "m.csv") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_adapt_seq_len_below_two_exits_one(self, synth_dir, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("CSPLADE_DEBUG", raising=False)
        assert run_cli("adapt", "--corpus", synth_dir / "corpus.tsv", "--steps", 2,
                       "--warmup", 1, "--seq-len", 1, "--vocab-out", tmp_path / "v.txt",
                       "--out", tmp_path / "a.ckpt") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ValueError:") and "seq_len" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "a.ckpt").exists()

    @pytest.mark.parametrize("stage, args, message", [
        ("synth", (), "seed must be >= 0, got -1"),
        ("adapt", ("--corpus", "corpus.tsv", "--steps", 2, "--vocab-out", "v.txt"),
         "seed must be >= 0"),
    ])
    def test_negative_seed_exits_one(self, synth_dir, tmp_path, capsys, monkeypatch,
                                     stage, args, message):
        monkeypatch.delenv("CSPLADE_DEBUG", raising=False)
        args = [synth_dir / a if a == "corpus.tsv" else tmp_path / a if a == "v.txt" else a
                for a in args]
        out = tmp_path / "out"
        assert run_cli(stage, *args, "--seed", -1, "--out", out) == 1
        assert capsys.readouterr().err == f"error: ValueError: {message}\n"
        assert sorted(tmp_path.iterdir()) == []

    def test_bad_synth_spec_exits_one(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("CSPLADE_DEBUG", raising=False)
        assert run_cli("synth", "--doc-len-min", 16, "--doc-len-max", 8,
                       "--out", tmp_path) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ValueError:") and "doc_len_range" in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "corpus.tsv").exists()

    @pytest.mark.parametrize("debug", ["0", "1"])
    def test_traceback_only_under_debug(self, tmp_path, capsys, monkeypatch, debug):
        monkeypatch.setenv("CSPLADE_DEBUG", debug)
        assert run_cli("eval", "--run", tmp_path / "nope.txt",
                       "--qrels", tmp_path / "nope.txt",
                       "--out", tmp_path / "m.csv") == 1
        err = capsys.readouterr().err
        last = err.splitlines()[-1]
        assert last.startswith("error: FileNotFoundError:") and "nope.txt" in last
        if debug == "1":
            assert err.startswith("Traceback (most recent call last):")
            assert "cmd_eval" in err and err.count("\n") > 3
        else:
            assert err.count("\n") == 1 and "Traceback" not in err

    def test_adapt_missing_vocab_rejected(self, synth_dir, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("CSPLADE_DEBUG", raising=False)
        assert run_cli("adapt", "--corpus", synth_dir / "corpus.tsv", "--steps", 2,
                       "--warmup", 1, "--vocab", tmp_path / "nope.txt",
                       "--out", tmp_path / "a.ckpt") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: FileNotFoundError:") and "nope.txt" in err
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("subcommand", ["adapt", "train", "encode", "search"])
    def test_vocab_of_another_size_rejected(self, pipeline, tmp_path, capsys, monkeypatch,
                                            subcommand):
        monkeypatch.delenv("CSPLADE_DEBUG", raising=False)
        work, data = pipeline
        vocab = tmp_path / "other.vocab.txt"
        vocab.write_text((work / "vocab.txt").read_text() + "extra_token\n")
        model = work / ("adapted.ckpt" if subcommand in ("adapt", "train") else "trained.ckpt")
        out = tmp_path / "out"
        args = {"adapt": ["--corpus", data / "corpus.tsv", "--steps", 2, "--warmup", 1,
                          "--vocab-out", tmp_path / "v.txt"],
                "train": ["--triples", data / "triples.jsonl", "--corpus", data / "corpus.tsv",
                          "--queries", data / "queries.tsv"],
                "encode": ["--input", data / "corpus.tsv"],
                "search": ["--queries", data / "queries.tsv",
                           "--index", work / "index.bin"]}[subcommand]
        assert run_cli(subcommand, "--model", model, "--vocab", vocab, *args,
                       "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ValueError: vocabulary") and err.count("\n") == 1
        assert str(vocab) in err and str(model) in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["other.vocab.txt"]

    @pytest.mark.parametrize("phase, steps, extra", [
        ("adapt", 2, ("--batch", 0)), ("adapt", -1, ()),
        ("train", 2, ("--batch", 0)), ("train", -1, ()),
    ], ids=["adapt-batch-0", "adapt-steps-negative", "train-batch-0", "train-epochs-negative"])
    def test_invalid_loop_size_writes_nothing(self, pipeline, tmp_path, capsys, monkeypatch,
                                              phase, steps, extra):
        """A batch size below 1 or a negative step or epoch count is a
        one-line error before any file, checkpoint or vocabulary, is written."""
        monkeypatch.delenv("CSPLADE_DEBUG", raising=False)
        assert run_phase(phase, pipeline, tmp_path, steps, *extra)[0] == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ValueError:") and err.count("\n") == 1
        assert ("batch_size must be >= 1" if extra else " must be >= 0") in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy overflow on the way
    def test_diverged_adaptation_writes_nothing(self, pipeline, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("CSPLADE_DEBUG", raising=False)
        assert run_phase("adapt", pipeline, tmp_path, 3, "--warmup", 0, "--lr", 1e30)[0] == 1
        err = capsys.readouterr().err
        assert err.startswith("error: TrainingDivergedError: adaptation step ")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("existing", [False, True], ids=["no-out", "existing-out"])
    def test_empty_document_writes_nothing(self, pipeline, tmp_path, capsys, monkeypatch,
                                           existing):
        """A document with no words, after the first block, is a one-line
        error naming the input and the doc id before anything is encoded:
        --out is neither made nor changed, and no temporary file is left."""
        monkeypatch.delenv("CSPLADE_DEBUG", raising=False)
        work, data = pipeline
        tsv = _two_copies(data / "corpus.tsv", tmp_path / "docs.tsv", "late\t \n")
        out = tmp_path / "reps.txt"
        if existing:
            out.write_bytes(b"earlier reps\n")
        assert run_cli("encode", "--model", work / "trained.ckpt", "--vocab", work / "vocab.txt",
                       "--input", tsv, "--out", out) == 1
        err = capsys.readouterr().err
        assert err == f"error: ValueError: {tsv}: document 'late' has no words to encode\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["docs.tsv"] + (["reps.txt"] if existing else [])
        if existing:
            assert out.read_bytes() == b"earlier reps\n"

    @pytest.mark.parametrize("existing", [False, True], ids=["no-out", "existing-out"])
    def test_failed_encode_leaves_no_partial_reps(self, pipeline, tmp_path, capsys, monkeypatch,
                                                  existing):
        """A failure while the second block is encoded, when the first
        block's lines are already written to the temporary file, removes
        that file and leaves --out as it was."""
        monkeypatch.delenv("CSPLADE_DEBUG", raising=False)
        work, data = pipeline
        tsv = _two_copies(data / "corpus.tsv", tmp_path / "docs.tsv")
        docs = len(tsv.read_text().splitlines())
        out = tmp_path / "reps.txt"
        if existing:
            out.write_bytes(b"earlier reps\n")
        blocks, encode_texts = [], trainer.encode_texts

        def fail_second_block(model, vocab, texts):
            blocks.append(len(texts))
            if len(blocks) == 2:
                partial = [p for p in tmp_path.iterdir() if p.name.endswith(".tmp")]
                assert len(partial) == 1 and partial[0].name.startswith("reps.txt.")
                raise RuntimeError("encoder failed")
            return encode_texts(model, vocab, texts)

        monkeypatch.setattr(trainer, "encode_texts", fail_second_block)
        assert run_cli("encode", "--model", work / "trained.ckpt", "--vocab", work / "vocab.txt",
                       "--input", tsv, "--out", out) == 1
        assert capsys.readouterr().err == "error: RuntimeError: encoder failed\n"
        assert blocks == [READ_BLOCK_LINES, docs - READ_BLOCK_LINES]
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["docs.tsv"] + (["reps.txt"] if existing else [])
        if existing:
            assert out.read_bytes() == b"earlier reps\n"

    @pytest.mark.parametrize("existing", [False, True], ids=["no-out", "existing-out"])
    def test_failed_index_write_leaves_no_partial_index(self, pipeline, tmp_path, capsys,
                                                         monkeypatch, existing):
        """A failure while serialize streams the third posting list into the
        temporary file removes that file and leaves --out as it was."""
        monkeypatch.delenv("CSPLADE_DEBUG", raising=False)
        work, _ = pipeline
        out = tmp_path / "index.bin"
        if existing:
            out.write_bytes(b"earlier index\n")
        lists, ef_encode = [], index_mod.ef_encode

        def fail_third_list(values, universe):
            lists.append(len(values))
            if len(lists) == 3:
                partial = [p for p in tmp_path.iterdir() if p.name.endswith(".tmp")]
                assert len(partial) == 1 and partial[0].name.startswith("index.bin.")
                raise RuntimeError("write failed")
            return ef_encode(values, universe)

        monkeypatch.setattr(index_mod, "ef_encode", fail_third_list)
        assert run_cli("index", "--reps", work / "reps.txt", "--vocab", work / "vocab.txt",
                       "--bits", 8, "--out", out) == 1
        assert capsys.readouterr().err == "error: RuntimeError: write failed\n"
        assert len(lists) == 3
        assert sorted(p.name for p in tmp_path.iterdir()) == (["index.bin"] if existing else [])
        if existing:
            assert out.read_bytes() == b"earlier index\n"

    def test_empty_query_rejected(self, pipeline, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("CSPLADE_DEBUG", raising=False)
        work, _ = pipeline
        queries = tmp_path / "queries.tsv"
        queries.write_text("q1\tsome words\nq2\t\n")
        assert run_cli("search", "--queries", queries, "--index", work / "index.bin",
                       "--model", work / "trained.ckpt", "--vocab", work / "vocab.txt",
                       "--out", tmp_path / "run.txt") == 1
        err = capsys.readouterr().err
        assert err == f"error: ValueError: {queries}: query 'q2' has no words to encode\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["queries.tsv"]

    def test_bm25_requires_corpus(self, pipeline, tmp_path, capsys):
        _, data = pipeline
        assert run_cli("search", "--queries", data / "queries.tsv",
                       "--bm25", "--out", tmp_path / "r.txt") == 1
        assert "corpus" in capsys.readouterr().err

    def test_bench_is_not_a_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("bench", "--out", "x")
        assert exc.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    def test_adapt_zero_heads_exits_one(self, synth_dir, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("CSPLADE_DEBUG", raising=False)
        assert run_cli("adapt", "--corpus", synth_dir / "corpus.tsv", "--steps", 2,
                       "--heads", 0, "--vocab-out", tmp_path / "v.txt",
                       "--out", tmp_path / "a.ckpt") == 1
        assert capsys.readouterr().err == "error: ValueError: n_heads must be >= 1, got 0\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("field, value, message", [
        ("positive_ids", '"d3"', "positive_ids must be a list of strings"),
        ("query_id", "7", "query_id must be a string"),
    ])
    def test_mistyped_triple_exits_one(self, pipeline, tmp_path, capsys, monkeypatch,
                                       field, value, message):
        monkeypatch.delenv("CSPLADE_DEBUG", raising=False)
        work, data = pipeline
        triples = tmp_path / "triples.jsonl"
        fields = {"query_id": '"q0"', "positive_ids": '["d0"]', "negative_ids": "[]", field: value}
        triples.write_text("{" + ", ".join(f'"{k}": {v}' for k, v in fields.items()) + "}\n")
        assert run_cli("train", "--model", work / "adapted.ckpt", "--vocab", work / "vocab.txt",
                       "--triples", triples, "--corpus", data / "corpus.tsv",
                       "--queries", data / "queries.tsv", "--out", tmp_path / "t.ckpt") == 1
        assert capsys.readouterr().err == f"error: ParseError: {triples}:1: {message}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["triples.jsonl"]

    @pytest.mark.parametrize("triple, message", [
        ({"query_id": "qzz", "positive_ids": ["d0"], "negative_ids": []},
         "triple for qzz: query 'qzz' is not among the queries"),
        ({"query_id": "q0", "positive_ids": ["d0"], "negative_ids": ["nope"]},
         "triple for q0: document 'nope' is not in the corpus"),
    ], ids=["query", "document"])
    def test_triple_naming_a_missing_id_exits_one(self, pipeline, tmp_path, capsys,
                                                  monkeypatch, triple, message):
        """The triples are checked against the queries and the corpus before
        the first step, so a missing id never fails a run part-way."""
        monkeypatch.delenv("CSPLADE_DEBUG", raising=False)
        work, data = pipeline
        triples = tmp_path / "triples.jsonl"
        # the bad triple last, after every good one
        triples.write_text((data / "triples.jsonl").read_text() + json.dumps(triple) + "\n")
        assert run_cli("train", "--model", work / "adapted.ckpt", "--vocab", work / "vocab.txt",
                       "--triples", triples, "--corpus", data / "corpus.tsv",
                       "--queries", data / "queries.tsv", "--out", tmp_path / "t.ckpt") == 1
        assert capsys.readouterr().err == f"error: ValueError: {message}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["triples.jsonl"]


def _without_step_ms(report_csv):
    """A report CSV's bytes without its step_ms column, the one column that
    holds a wall time."""
    rows = [line.split(",") for line in report_csv.read_text().splitlines()]
    i = rows[0].index("step_ms")
    return "".join(",".join(r[:i] + r[i + 1:]) + "\n" for r in rows).encode()


class TestEncodeBytes:
    """The bytes of a small fixed pipeline (synth, adapt 5 steps, train 1
    epoch, encode) for each variant, pinned by sha256: the reps `csplade
    encode` writes, the trained checkpoint, and both training reports
    without their step_ms column. The reps hashes were taken with the
    graph-building forward, so they pin that the inference path gives the
    same reps. All hashes depend on float32 rounding in the BLAS GEMMs
    (taken with OpenBLAS 0.3 on x86-64); a BLAS build that rounds
    differently needs new hashes, and then every variant should change
    together."""

    PINNED = {  # variant -> sha256 of (trained.ckpt, adapt.csv, train.csv)
        "causal": ("a140d89c8b0fc131d975b24fe80bfb853892bb934b6470c5a3337a5db47663d3",
                   "3419b91e2bd0bbe71ccd91604e6bdb27df1234d250663e68bfd6980bd1a64a1d",
                   "7003f87c0c15a0469e840f7e439b8d3445b0857381611f6ad86e95f6401c14e4"),
        "echo": ("536d6aaa482c698e9fd5fdfcb1ab55d7bf61ce23aa9f9089ba107ef9f35dfab5",
                 "3419b91e2bd0bbe71ccd91604e6bdb27df1234d250663e68bfd6980bd1a64a1d",
                 "f8b9292fc2cab1d26f3d4397118d1ef4c3b3e3169152a4202fec1c56fbef4977"),
        "bi": ("db79810ee464f53e1d6df7e53dad056396e14e96b8fab812dc0608c45ffc90d4",
               "60af8d2ed0d85e88ee2f4a4de190b82079f5018ae53e3f52f3d9f6442d212e4e",
               "de190e8e071625561488c4dd8c32490ba1dc4614c4953a3397514023150b39d7"),
    }

    @pytest.mark.parametrize("variant, sha256", [
        ("causal", "2c96c62c0a575c4f6757d96ad669d530f236af19f708c1d8f42757c3e9f11313"),
        ("echo", "eee32e73906d3bafa1682bbf1e2e659b65a4a959b7ed97bd13cab3e39bf653ef"),
        ("bi", "7b35508196da47690dd68a43b5d3be4b64084a8adc5b80a929670a1c1a98adbb"),
    ])
    def test_reps_bytes_pinned(self, synth_dir, tmp_path, variant, sha256):
        adapted, vocab = tmp_path / "adapted.ckpt", tmp_path / "vocab.txt"
        assert run_cli("adapt", "--corpus", synth_dir / "corpus.tsv",
                       "--steps", 5, "--warmup", 1, "--seq-len", 16,
                       "--d-model", 16, "--layers", 1, "--heads", 2,
                       "--max-seq-len", 32, "--variant", variant,
                       "--vocab-out", vocab, "--out", adapted,
                       "--report", tmp_path / "adapt.csv") == 0
        trained = tmp_path / "trained.ckpt"
        assert run_cli("train", "--model", adapted, "--vocab", vocab,
                       "--triples", synth_dir / "triples.jsonl",
                       "--corpus", synth_dir / "corpus.tsv",
                       "--queries", synth_dir / "queries.tsv",
                       "--epochs", 1, "--hard-negs", 1, "--out", trained,
                       "--report", tmp_path / "train.csv") == 0
        reps = tmp_path / "reps.txt"
        assert run_cli("encode", "--model", trained, "--vocab", vocab,
                       "--input", synth_dir / "corpus.tsv", "--out", reps) == 0
        assert hashlib.sha256(reps.read_bytes()).hexdigest() == sha256
        got = tuple(hashlib.sha256(data).hexdigest() for data in (
            trained.read_bytes(), _without_step_ms(tmp_path / "adapt.csv"),
            _without_step_ms(tmp_path / "train.csv")))
        assert got == self.PINNED[variant]


class TestWhatTheEncoderSaw:
    """Words spelled like control tokens are unknown words, and the stages
    that encode text count the texts the model window cuts. An echo model at
    max_seq_len 16 keeps (16 - 3) // 2 = 6 words of a text."""

    @pytest.fixture(scope="class")
    def echo_model(self, tmp_path_factory):
        work = tmp_path_factory.mktemp("echo")
        Vocabulary([f"w{i}" for i in range(10)]).save(work / "vocab.txt")
        EncoderModel(EncoderConfig(vocab_size=14, d_model=16, n_layers=1, n_heads=2,
                                   max_seq_len=16, variant="echo")).save(work / "m.ckpt")
        return work

    def test_encode_search_control_words_and_truncation(self, echo_model, tmp_path):
        model, vocab = echo_model / "m.ckpt", echo_model / "vocab.txt"
        docs = tmp_path / "docs.tsv"
        docs.write_text("d0\t<bos> <eos>\nd1\tw0 w1 w2 w3 w4 w5 w6 w7 w8 w9\n"
                        "d2\tw1 w2\nd3\tzz yy\n")
        reps = tmp_path / "reps.txt"
        assert run_cli("encode", "--model", model, "--vocab", vocab, "--input", docs,
                       "--out", reps) == 0
        lines = reps.read_text().splitlines()
        assert lines[0].partition("\t")[2] == lines[3].partition("\t")[2]  # two unknown words
        stats = json.loads(Path(f"{reps}.manifest.json").read_text())["stats"]
        assert (stats["truncated_texts"], stats["dropped_words"]) == (1, 4)

        idx = tmp_path / "index.bin"
        assert run_cli("index", "--reps", reps, "--vocab", vocab, "--out", idx) == 0
        queries = tmp_path / "queries.tsv"
        queries.write_text("q0\t<pad> <eos>\nq1\tw0 w1 w2 w3 w4 w5 w6 w7\n")
        run = tmp_path / "run.txt"
        assert run_cli("search", "--queries", queries, "--index", idx, "--model", model,
                       "--vocab", vocab, "--out", run) == 0
        stats = json.loads(Path(f"{run}.manifest.json").read_text())["stats"]
        assert stats == {"truncated_texts": 1, "dropped_words": 2}

    def test_train_counts_truncated_training_texts(self, synth_dir, tmp_path):
        corpus = corpus_mod.load_corpus(synth_dir / "corpus.tsv")
        queries = corpus_mod.load_queries(synth_dir / "queries.tsv")
        vocab = corpus_mod.build_vocab(list(corpus.values()) + list(queries.values()))
        vocab.save(tmp_path / "vocab.txt")
        EncoderModel(EncoderConfig(vocab_size=vocab.size, d_model=16, n_layers=1, n_heads=2,
                                   max_seq_len=16, variant="echo")).save(tmp_path / "m.ckpt")
        out = tmp_path / "t.ckpt"
        assert run_cli("train", "--model", tmp_path / "m.ckpt", "--vocab", tmp_path / "vocab.txt",
                       "--triples", synth_dir / "triples.jsonl",
                       "--corpus", synth_dir / "corpus.tsv",
                       "--queries", synth_dir / "queries.tsv",
                       "--epochs", 1, "--hard-negs", 1, "--out", out) == 0
        triples = corpus_mod.load_triples(synth_dir / "triples.jsonl")
        texts = [queries[q] for q in {t["query_id"] for t in triples}]
        texts += [corpus[d] for d in {d for t in triples
                                      for d in t["positive_ids"] + t["negative_ids"]}]
        over = [len(t.split()) - 6 for t in texts if len(t.split()) > 6]
        assert over  # synth documents hold 8 to 16 words
        stats = json.loads(Path(f"{out}.manifest.json").read_text())["stats"]
        assert stats == {"truncated_texts": len(over), "dropped_words": sum(over)}


def _traced_peak(*argv):
    """The tracemalloc peak of one successful `cli.main(argv)`."""
    tracemalloc.start()
    try:
        assert run_cli(*argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


class TestPeakMemory:
    """Peaks of the offline write path on a random-init model over a
    1,000-token vocabulary (reps of ~940 terms, ~12 kB a line)."""

    @pytest.fixture(scope="class")
    def model(self, tmp_path_factory):
        work = tmp_path_factory.mktemp("memory")
        Vocabulary([f"w{i}" for i in range(996)]).save(work / "vocab.txt")
        EncoderModel(EncoderConfig(vocab_size=1000, d_model=16, n_layers=1, n_heads=2,
                                   max_seq_len=32, variant="bi")).save(work / "m.ckpt")
        return work

    def test_encode_peak_bounded_by_a_block(self, model, tmp_path):
        """The peak of `csplade encode` does not grow with the collection:
        its reps are written a block at a time. Measured: 2.56 MB over 2
        blocks of documents and 2.44 MB over 8, against 3.33 and 5.51 MB
        when every rep was held until the last one was encoded. Both reps
        files exceed the 1 MB chunk in which the manifest hashes them."""
        peaks = []
        for blocks in (2, 8):
            tsv = tmp_path / f"docs{blocks}.tsv"
            tsv.write_text("".join(f"d{i}\tw{i % 50} w{i % 7} w{i % 13}\n"
                                   for i in range(blocks * READ_BLOCK_LINES)))
            out = tmp_path / f"reps{blocks}.txt"
            peaks.append(_traced_peak("encode", "--model", model / "m.ckpt",
                                      "--vocab", model / "vocab.txt", "--input", tsv,
                                      "--out", out))
            assert out.stat().st_size > 1 << 20
        assert peaks[1] - peaks[0] < 256 * 1024

    def test_index_peak_per_posting(self, model, tmp_path):
        """`csplade index` holds only the index while it writes it: the reps
        batch is dropped once the index is built. On 2,000 documents of 100
        random terms each, the peak measured 16.1 B per posting, against
        21.5 B when the batch stayed alive through serialize."""
        rng = np.random.default_rng(0)
        reps = tmp_path / "reps.txt"
        write_reps(reps, ((f"d{i}", SparseRep(np.sort(rng.choice(1000, 100, replace=False)),
                                              rng.uniform(0.01, 3.0, 100), 1000))
                          for i in range(2000)))
        peak = _traced_peak("index", "--reps", reps, "--vocab", model / "vocab.txt",
                            "--bits", 8, "--out", tmp_path / "index.bin")
        assert peak / (2000 * 100) < 19


_BLOCKED_IMPORTS = '''
import importlib, importlib.abc, pkgutil, sys

class Block(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in ("scipy", "numba"):
            raise ImportError(f"blocked: {name}")

sys.meta_path.insert(0, Block())
for name in ("scipy", "numba"):
    try:
        importlib.import_module(name)
    except ImportError:
        continue
    sys.exit(f"{name} was not blocked")
import csplade
for m in pkgutil.iter_modules(csplade.__path__, "csplade."):
    importlib.import_module(m.name)
    print(m.name)
'''


def test_runtime_imports_without_scipy_or_numba():
    """The runtime is numpy-only: every csplade module imports while scipy
    and numba fail to import."""
    src = Path(csplade.__file__).parent
    env = dict(os.environ, PYTHONPATH=str(src.parent))
    proc = subprocess.run([sys.executable, "-c", _BLOCKED_IMPORTS], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    modules = {f"csplade.{p.stem}" for p in src.glob("*.py") if p.stem != "__init__"}
    assert set(proc.stdout.split()) == modules


def _readme_commands():
    """The argv of each `csplade ...` command in the README's bash blocks,
    backslash continuations joined."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"^```bash\n(.*?)^```", readme, re.S | re.M):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("csplade "):
                commands.append(shlex.split(line)[1:])
    return commands


class TestReadme:
    """The README's CLI examples parse, and they show every subcommand."""

    def test_every_example_parses(self, capsys):
        commands = _readme_commands()
        assert commands
        for argv in commands:
            try:
                build_parser().parse_args(argv)
            except SystemExit:
                pytest.fail(f"README example does not parse: csplade {shlex.join(argv)}\n"
                            + capsys.readouterr().err)

    def test_every_subcommand_has_an_example(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert {argv[0] for argv in _readme_commands()} == set(sub.choices)
