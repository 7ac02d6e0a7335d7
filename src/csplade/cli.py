"""Command-line pipeline: synth -> adapt -> train -> encode -> index ->
search -> eval, plus the quantization latency benchmark.

Every subcommand writes a JSON manifest (sorted keys) with the fully
resolved configuration next to its outputs, and is bit-reproducible for
a fixed seed. Subcommands communicate through files only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from . import __version__, corpus as corpus_mod, evalkit, index as index_mod
from . import quant, splade, trainer
from .corpus import SynthSpec
from .encoder import VARIANTS, EncoderConfig, EncoderModel
from .quant import QuantConfig
from .trainer import AdaptConfig, ContrastiveConfig


# arguments that name a file a subcommand reads
INPUT_ARGS = ("corpus", "model", "vocab", "triples", "queries", "input", "reps",
              "index", "run", "qrels")


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def input_hashes(args):
    """{path: sha256} of every existing file named by an input argument."""
    paths = (getattr(args, name, None) for name in INPUT_ARGS)
    return {p: _sha256(p) for p in paths if isinstance(p, str) and Path(p).is_file()}


def environment():
    """Versions, the BLAS build, and the BLAS thread settings as the
    process found them (None when unset; the code sets no thread count)."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
            "cpu_count": os.cpu_count()}


def write_manifest(path, subcommand, args, outputs, stats=None):
    """The resolved config plus the environment, the sha256 of each input
    (hashed by `main` before the stage ran) and of each output, the stage's
    wall time and, when given, the stage's `stats`."""
    wall_s = round(time.perf_counter() - args._started, 6)
    config = {k: v for k, v in vars(args).items() if k != "func" and not k.startswith("_")}
    manifest = {
        "subcommand": subcommand,
        "config": config,
        "env": environment(),
        "inputs": args._inputs,
        "outputs": {str(o): _sha256(o) for o in outputs},
        "seed": config.get("seed"),
        "version": __version__,
        "wall_s": wall_s,
    }
    if stats is not None:
        manifest["stats"] = stats
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        json.dump(manifest, f, sort_keys=True, indent=2)
        f.write("\n")


def _resolve_checkpoint(args, model, vocab, vocab_name, retrain=False):
    """Check a loaded checkpoint against the stage's other inputs.

    A vocabulary whose size differs from the checkpoint's vocab_size is
    rejected. --variant is resolved against the checkpoint's stored variant,
    the only mode the library reads: without --variant the checkpoint's
    variant is used (and recorded in args); an explicit --variant may switch
    `model.cfg.variant` only when `retrain` is set, and an inference
    subcommand rejects a mismatch instead of silently running the model in
    a mode it was not trained in.
    """
    if vocab.size != model.cfg.vocab_size:
        raise ValueError(f"vocabulary {vocab_name} has {vocab.size} tokens but checkpoint "
                         f"{args.model} has vocab_size {model.cfg.vocab_size}")
    if args.variant is None:
        args.variant = model.cfg.variant
    elif args.variant != model.cfg.variant and not retrain:
        raise ValueError(f"--variant {args.variant} conflicts with the checkpoint's "
                         f"mode {model.cfg.variant}; omit --variant to use it")
    model.cfg.variant = args.variant


def _load_model(args, retrain=False):
    """The --model checkpoint and its --vocab, checked by `_resolve_checkpoint`."""
    model = EncoderModel.load(args.model)
    vocab = corpus_mod.Vocabulary.load(args.vocab)
    _resolve_checkpoint(args, model, vocab, args.vocab, retrain)
    return model, vocab


def cmd_synth(args):
    spec = SynthSpec(
        n_docs=args.docs, n_queries=args.queries,
        base_vocab_size=args.base_vocab, n_synonym_pairs=args.synonym_pairs,
        doc_len_range=(args.doc_len_min, args.doc_len_max),
        hard_negatives_per_query=args.hard_negs, seed=args.seed)
    collection, queries, qrels, triples = corpus_mod.synth_generate(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    corpus_mod.save_tsv(out / "corpus.tsv", collection)
    corpus_mod.save_tsv(out / "queries.tsv", queries)
    corpus_mod.save_qrels(out / "qrels.txt", qrels)
    corpus_mod.save_triples(out / "triples.jsonl", triples)
    write_manifest(out / "manifest.json", "synth", args,
                   [out / n for n in ("corpus.tsv", "queries.tsv", "qrels.txt", "triples.jsonl")])
    return 0


def _save_trained(args, subcommand, model, report, outputs=()):
    """Write a training phase's checkpoint, --report and manifest."""
    args.warmup = report.warmup_steps  # the manifest records the count used
    model.save(args.out)
    outputs = [args.out, *outputs]
    if args.report:
        report.to_csv(args.report)
        outputs.append(args.report)
    write_manifest(str(args.out) + ".manifest.json", subcommand, args, outputs)
    return 0


def cmd_adapt(args):
    collection = corpus_mod.load_corpus(args.corpus)
    if args.vocab:
        vocab = corpus_mod.Vocabulary.load(args.vocab)
    else:
        vocab = corpus_mod.build_vocab(collection.values(), size=args.vocab_size)
    cfg = AdaptConfig(steps=args.steps, batch_size=args.batch, seq_len=args.seq_len, lr=args.lr,
                      warmup_steps=args.warmup, lambda_relu=args.lambda_relu, seed=args.seed)
    if args.model:
        model = EncoderModel.load(args.model)
        _resolve_checkpoint(args, model, vocab, args.vocab or f"built from {args.corpus}",
                            retrain=True)
    else:
        args.variant = args.variant or EncoderConfig.variant
        model = EncoderModel(EncoderConfig(
            vocab_size=vocab.size, d_model=args.d_model, n_layers=args.layers,
            n_heads=args.heads, max_seq_len=args.max_seq_len, variant=args.variant,
            seed=args.seed))
    model, report = trainer.run_adaptation(model, collection.values(), vocab, cfg)
    vocab_out = Path(args.vocab_out or (Path(args.out).with_suffix(".vocab.txt")))
    vocab.save(vocab_out)
    return _save_trained(args, "adapt", model, report, [vocab_out])


def cmd_train(args):
    model, vocab = _load_model(args, retrain=True)
    collection = corpus_mod.load_corpus(args.corpus)
    queries = corpus_mod.load_queries(args.queries)
    triples = corpus_mod.load_triples(args.triples)
    cfg = ContrastiveConfig(epochs=args.epochs, global_batch_size=args.batch, lr=args.lr,
                            hard_negatives_per_positive=args.hard_negs, warmup_steps=args.warmup,
                            lambda_q=args.lambda_q, lambda_d=args.lambda_d, seed=args.seed)
    model, report = trainer.run_contrastive(model, triples, collection, queries, vocab, cfg)
    return _save_trained(args, "train", model, report)


def cmd_encode(args):
    model, vocab = _load_model(args)
    texts = corpus_mod.load_tsv(args.input)
    reps = trainer.encode_texts(model, vocab, texts.values())
    splade.write_reps(args.out, zip(texts.keys(), reps))
    write_manifest(str(args.out) + ".manifest.json", "encode", args, [args.out])
    return 0


def cmd_index(args):
    vocab = corpus_mod.Vocabulary.load(args.vocab)
    reps = splade.read_reps(args.reps, vocab.size)
    idx = index_mod.build_index(reps, bits=args.bits)
    index_mod.serialize(idx, args.out)
    postings = sum(len(p.ordinals) for p in idx.postings.values())
    size = Path(args.out).stat().st_size
    stats = {"docs": idx.doc_count, "postings": postings, "bytes": size,
             "bytes_per_posting": size / postings if postings else None,
             "dense_lists": len(idx.block_row)}
    write_manifest(str(args.out) + ".manifest.json", "index", args, [args.out], stats)
    return 0


def cmd_search(args):
    queries = corpus_mod.load_queries(args.queries)
    run = {}
    if args.bm25:
        if not args.corpus:
            raise ValueError("--bm25 search requires --corpus")
        collection = corpus_mod.load_corpus(args.corpus)
        stats = evalkit.build_stats(collection)
        for qid, text in queries.items():
            run[qid] = evalkit.bm25_search(collection, text, stats, args.k)
        tag = "bm25"
    else:
        if not (args.index and args.model and args.vocab):
            raise ValueError("model search requires --index, --model and --vocab")
        idx = index_mod.deserialize(args.index)
        model, vocab = _load_model(args)
        for qid, text in queries.items():
            rep = trainer.encode_texts(model, vocab, [text])[0]
            run[qid] = index_mod.search(idx, rep, args.k)
        tag = f"csplade-{args.variant}"
    index_mod.write_run(args.out, run, tag=tag)
    write_manifest(str(args.out) + ".manifest.json", "search", args, [args.out])
    return 0


def cmd_eval(args):
    run = index_mod.read_run(args.run)
    qrels = corpus_mod.load_qrels(args.qrels)
    evalkit.metrics_csv(args.out, run, qrels, args.k)
    write_manifest(str(args.out) + ".manifest.json", "eval", args, [args.out])
    return 0


def cmd_bench(args):
    model, vocab = _load_model(args)
    queries = corpus_mod.load_queries(args.queries)
    seqs = [trainer.prepare_sequence(t, vocab, model.cfg, model.cfg.variant == "echo")
            for t in queries.values()]
    configs = [
        ("fp32", None),
        ("int8", QuantConfig(bits=8, granularity=quant.PER_CHANNEL)),
        ("int4", QuantConfig(bits=4, granularity=quant.GROUPWISE,
                             group_size=args.group_size)),
    ]
    rows = [quant.CSV_HEADER]
    for name, qcfg in configs:
        target = model if qcfg is None else quant.quantize_weights(model, qcfg)
        report = quant.bench_encode(target, seqs, warmup_iters=args.warmup,
                                    measure_iters=args.iters, config_name=name)
        rows.append(report.csv_row())
        print(rows[-1])
    with open(args.out, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(rows) + "\n")
    write_manifest(str(args.out) + ".manifest.json", "bench", args, [args.out])
    return 0


def _add_variant(p, default="the checkpoint's mode"):
    p.add_argument("--variant", choices=VARIANTS, default=None,
                   help=f"attention/input variant: causal, echo or bi (default: {default})")


def build_parser():
    parser = argparse.ArgumentParser(prog="csplade",
                                     description="desk-scale learned sparse retrieval")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    # every default below is read from the dataclass the option fills
    p = sub.add_parser("synth", help="generate the synthetic mismatch benchmark")
    p.add_argument("--seed", type=int, default=SynthSpec.seed)
    p.add_argument("--docs", type=int, default=SynthSpec.n_docs)
    p.add_argument("--queries", type=int, default=SynthSpec.n_queries)
    p.add_argument("--base-vocab", type=int, default=SynthSpec.base_vocab_size)
    p.add_argument("--synonym-pairs", type=int, default=SynthSpec.n_synonym_pairs)
    p.add_argument("--doc-len-min", type=int, default=SynthSpec.doc_len_range[0])
    p.add_argument("--doc-len-max", type=int, default=SynthSpec.doc_len_range[1])
    p.add_argument("--hard-negs", type=int, default=SynthSpec.hard_negatives_per_query)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("adapt", help="adaptation-phase training on unlabeled text")
    p.add_argument("--corpus", required=True)
    p.add_argument("--model", help="optional checkpoint to continue from")
    p.add_argument("--vocab", help="existing vocabulary file to reuse")
    p.add_argument("--vocab-out", help="where to write the vocabulary (default <out>.vocab.txt)")
    p.add_argument("--vocab-size", type=int, default=None)
    p.add_argument("--d-model", type=int, default=EncoderConfig.d_model)
    p.add_argument("--layers", type=int, default=EncoderConfig.n_layers)
    p.add_argument("--heads", type=int, default=EncoderConfig.n_heads)
    p.add_argument("--max-seq-len", type=int, default=EncoderConfig.max_seq_len)
    p.add_argument("--steps", type=int, default=AdaptConfig.steps)
    p.add_argument("--batch", type=int, default=AdaptConfig.batch_size)
    p.add_argument("--seq-len", type=int, default=AdaptConfig.seq_len)
    p.add_argument("--lr", type=float, default=AdaptConfig.lr)
    p.add_argument("--warmup", type=int, default=AdaptConfig.warmup_steps,
                   help="warm-up steps, below --steps (default: round(0.05 * steps))")
    p.add_argument("--lambda-relu", type=float, default=AdaptConfig.lambda_relu)
    p.add_argument("--seed", type=int, default=AdaptConfig.seed,
                   help="seeds both the encoder's init and the adaptation batches")
    p.add_argument("--report")
    p.add_argument("--out", required=True)
    _add_variant(p, "the --model checkpoint's mode, else causal")
    p.set_defaults(func=cmd_adapt)

    p = sub.add_parser("train", help="contrastive training with hard negatives")
    p.add_argument("--model", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--triples", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--epochs", type=int, default=ContrastiveConfig.epochs)
    p.add_argument("--batch", type=int, default=ContrastiveConfig.global_batch_size)
    p.add_argument("--hard-negs", type=int, default=ContrastiveConfig.hard_negatives_per_positive)
    p.add_argument("--lr", type=float, default=ContrastiveConfig.lr)
    p.add_argument("--warmup", type=int, default=ContrastiveConfig.warmup_steps,
                   help="warm-up steps, below the step count (default: round(0.05 * steps))")
    p.add_argument("--lambda-q", type=float, default=ContrastiveConfig.lambda_q)
    p.add_argument("--lambda-d", type=float, default=ContrastiveConfig.lambda_d)
    p.add_argument("--seed", type=int, default=ContrastiveConfig.seed)
    p.add_argument("--report")
    p.add_argument("--out", required=True)
    _add_variant(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("encode", help="encode a TSV collection into sparse reps")
    p.add_argument("--model", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    _add_variant(p)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("index", help="build the impact-quantized inverted index")
    p.add_argument("--reps", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--bits", type=int, default=8, choices=sorted(index_mod.IMPACT_DTYPES))
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("search", help="run queries against an index (or BM25)")
    p.add_argument("--queries", required=True)
    p.add_argument("--index")
    p.add_argument("--model")
    p.add_argument("--vocab")
    p.add_argument("--bm25", action="store_true")
    p.add_argument("--corpus", help="corpus TSV (required for --bm25)")
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--out", required=True)
    _add_variant(p)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("eval", help="score a TREC run against qrels")
    p.add_argument("--run", required=True)
    p.add_argument("--qrels", required=True)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="encoding latency across fp32/int8/int4")
    p.add_argument("--model", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--queries", required=True)
    p.add_argument("--warmup", type=int, default=5)
    p.add_argument("--iters", type=int, default=30)
    p.add_argument("--group-size", type=int, default=QuantConfig.group_size)
    p.add_argument("--out", required=True)
    _add_variant(p)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args._started = time.perf_counter()
        args._inputs = input_hashes(args)
        return args.func(args)
    except Exception as exc:  # data/contract errors -> exit 1, one line
        if os.environ.get("CSPLADE_DEBUG") == "1":  # plus the traceback
            traceback.print_exc(file=sys.stderr)
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
