"""Per-layer spans and counters for every csplade module, and the
per-layer metrics computed from them.

``install`` wraps the public functions listed here; ``summarize`` turns
the recorded spans into the ``per_layer`` metrics of BENCHMARK.json.
Units of work ("per unit") are optimizer steps in ``train``, encoded
documents in ``ingest`` and queries in ``query``.
"""

from __future__ import annotations

import os

import numpy as np

OPS = ("add", "sub", "mul", "scale", "matmul", "relu", "gelu", "reparam_relu",
       "log1p", "exp", "transpose", "reshape", "max_over_axis", "sum_over_axis",
       "mean_over_axis", "embedding", "masked_fill", "layer_norm", "softmax",
       "softmax_cross_entropy")
COMPOSITE_OPS = ("sub", "mean_over_axis")  # build no node of their own
CLI_STAGES = ("adapt", "train", "encode", "index", "search", "eval")

_TIMED = {  # metric name -> span label whose mean inclusive ms per call it reports
    "encoder.forward_batch.ms": "encoder.forward_batch",
    "splade.pool_reps.ms": "splade.pool_reps",
    "splade.rank_loss_t.ms": "splade.rank_loss_t",
    "splade.flops_reg_t.ms": "splade.flops_reg_t",
    "splade.adaptation_loss_batch.ms": "splade.adaptation_loss_batch",
    "splade.splade_pool.ms": "splade.splade_pool",
    "splade.write_reps.ms": "splade.write_reps",
    "splade.read_reps.ms": "splade.read_reps",
    "trainer.adamw_step.ms": "trainer.adamw_step",
    "trainer.encode_texts.ms": "trainer.encode_texts",
    "corpus.synth_generate.ms": "corpus.synth_generate",
    "corpus.build_vocab.ms": "corpus.build_vocab",
    "corpus.load_tsv.ms": "corpus.load_tsv",
    "corpus.tokenize.ms": "corpus.tokenize",
    "index.build_index.ms": "index.build_index",
    "index.serialize.ms": "index.serialize",
    "index.deserialize.ms": "index.deserialize",
    "index.search.ms": "index.search",
    "evalkit.bm25_search.ms": "evalkit.bm25_search",
    "evalkit.build_stats.ms": "evalkit.build_stats",
    "evalkit.mrr_at_k.ms": "evalkit.mrr_at_k",
    "quant.quantize_weights.int8.ms": "quant.quantize_weights.int8",
    "quant.quantize_weights.int4.ms": "quant.quantize_weights.int4",
}
_CALLS = {
    "encoder.forward_batch.calls": "encoder.forward_batch",
    "encoder.forward_logits.calls": "encoder.forward_logits",
    "corpus.tokenize.calls": "corpus.tokenize",
}


def _per_layer_units():
    units = {}
    for op in OPS:
        units[f"autodiff.{op}.fwd_ms"] = "ms"
        if op not in COMPOSITE_OPS:
            units[f"autodiff.{op}.bwd_ms"] = "ms"
        units[f"autodiff.{op}.calls"] = "count"
    units["autodiff.backward_ms"] = "ms"
    units["autodiff.nodes_per_step"] = "count"
    units.update({name: "ms" for name in _TIMED})
    units.update({name: "count" for name in _CALLS})
    units.update({
        "encoder.tokens": "count",
        "encoder.pad_frac": "frac",
        "splade.doc_nnz_mean": "count",
        "splade.query_nnz_mean": "count",
        "trainer.batch_ms": "ms",
        "trainer.encode_texts.texts": "count",
        "index.postings_scanned": "count",
        "index.candidates": "count",
        "index.returned_frac": "frac",
        "index.bytes": "B",
        "index.postings": "count",
        "evalkit.bm25.docs_scanned": "count",
        "evalkit.bm25.docs_matched": "count",
        "evalkit.bm25.matched_frac": "frac",
        "evalkit.mrr_at_10": "score",
        "quant.param_bytes.int8": "B",
        "quant.param_bytes.int4": "B",
    })
    for stage in CLI_STAGES:
        units[f"cli.{stage}.self_ms"] = "ms"
    units["trace.overhead_s"] = "s"
    units["trace.overhead_pct"] = "%"
    return units


PER_LAYER_UNITS = _per_layer_units()


def install(tracer, patches, cs):
    """Wrap the public functions of every csplade module."""
    ad = cs.autodiff
    fn = patches.function

    def op_wrapper(op):
        bwd_label = f"autodiff.{op}.bwd"

        def after(args, out):
            if getattr(out, "op", None) == op and out._backward is not None:
                tracer.nodes[tracer.tag] = tracer.nodes.get(tracer.tag, 0) + 1
                out._backward = tracer.wrap(bwd_label, out._backward)
        return lambda f: tracer.wrap(f"autodiff.{op}", f, after)

    for op in OPS:
        fn(ad, op, op_wrapper(op))
    patches.method(ad.Tensor, "backward", lambda f: tracer.wrap("autodiff.backward", f))

    def count_tokens(args, out):
        ids, lengths = np.asarray(args[1]), np.asarray(args[2])
        tracer.add("encoder.tokens", int(lengths.sum()))
        tracer.add("encoder.positions", int(ids.size))

    model_cls = cs.encoder.EncoderModel
    patches.method(model_cls, "forward_batch",
                   lambda f: tracer.wrap("encoder.forward_batch", f, count_tokens))
    patches.method(model_cls, "forward_logits",
                   lambda f: tracer.wrap("encoder.forward_logits", f))

    def count_nnz(args, out):
        tracer.add(f"nnz.{tracer.role}", out.nnz)
        tracer.add(f"reps.{tracer.role}")

    for name in ("pool_reps", "rank_loss_t", "flops_reg_t", "adaptation_loss_batch",
                 "write_reps", "read_reps"):
        fn(cs.splade, name, lambda f, name=name: tracer.wrap(f"splade.{name}", f))
    fn(cs.splade, "splade_pool", lambda f: tracer.wrap("splade.splade_pool", f, count_nnz))

    patches.method(cs.trainer.AdamW, "step", lambda f: tracer.wrap("trainer.adamw_step", f))
    fn(cs.trainer, "encode_texts", lambda f: tracer.wrap(
        "trainer.encode_texts", f, lambda args, out: tracer.add("texts", len(out))))
    for name in ("run_adaptation", "run_contrastive"):
        fn(cs.trainer, name, lambda f, name=name: tracer.wrap(f"trainer.{name}", f))

    for name in ("synth_generate", "build_vocab", "load_tsv", "tokenize"):
        fn(cs.corpus, name, lambda f, name=name: tracer.wrap(f"corpus.{name}", f))

    def index_gauges(args, out):
        tracer.counts["index.postings"] = sum(len(p.ordinals) for p in out.postings.values())
        tracer.counts["index.docs"] = out.doc_count

    def search_counts(args, out):
        idx, q = args[0], args[1]
        seen = np.zeros(idx.doc_count, dtype=bool)
        for t in q.term_ids:
            plist = idx.postings.get(int(t))
            if plist is not None:
                seen[plist.ordinals] = True
                tracer.add("search.postings", len(plist.ordinals))
        tracer.add("search.queries")
        tracer.add("search.candidates", int(seen.sum()))
        tracer.add("search.returned", len(out))

    fn(cs.index, "build_index", lambda f: tracer.wrap("index.build_index", f, index_gauges))

    def load_gauges(args, out):
        index_gauges(args, out)
        tracer.counts["index.bytes"] = os.path.getsize(args[0])

    fn(cs.index, "deserialize", lambda f: tracer.wrap("index.deserialize", f, load_gauges))
    fn(cs.index, "serialize", lambda f: tracer.wrap(
        "index.serialize", f,
        lambda args, out: tracer.counts.__setitem__("index.bytes", os.path.getsize(args[1]))))
    fn(cs.index, "search", lambda f: tracer.wrap("index.search", f, search_counts))

    cache = {"stats": None, "inverted": {}}  # term -> doc ids, per CollectionStats

    def bm25_counts(args, out):
        collection, text, stats = args[0], args[1], args[2]
        if cache["stats"] is not stats:
            inverted = {}
            for doc_id, tf in stats.doc_tf.items():
                for term in tf:
                    inverted.setdefault(term, set()).add(doc_id)
            cache.update(stats=stats, inverted=inverted)
        inverted = cache["inverted"]
        matched = set().union(*(inverted.get(t, ()) for t in text.lower().split()))
        tracer.add("bm25.queries")
        tracer.add("bm25.scanned", len(collection))
        tracer.add("bm25.matched", len(matched & collection.keys()))

    fn(cs.evalkit, "bm25_search", lambda f: tracer.wrap("evalkit.bm25_search", f, bm25_counts))
    for name in ("build_stats", "mrr_at_k"):
        fn(cs.evalkit, name, lambda f, name=name: tracer.wrap(f"evalkit.{name}", f))

    def quantize(f):
        def gauge(args, out):
            tracer.counts[f"quant.param_bytes.int{args[1].bits}"] = out.param_bytes()
        by_bits = {bits: tracer.wrap(f"quant.quantize_weights.int{bits}", f, gauge)
                   for bits in (4, 8)}
        return lambda model, qcfg: by_bits[qcfg.bits](model, qcfg)

    fn(cs.quant, "quantize_weights", quantize)

    def stage(name, f):
        traced = tracer.wrap(f"cli.{name}", f)
        role = "query" if name == "search" else "doc"

        def run_stage(args):
            previous, tracer.role = tracer.role, role
            try:
                return traced(args)
            finally:
                tracer.role = previous
        return run_stage

    for name in CLI_STAGES:
        fn(cs.cli, f"cmd_{name}", lambda f, name=name: stage(name, f))


def _ratio(a, b):
    return float(a) / float(b) if b else 0.0


def summarize(tracer, unit_tags, n_units, steps=()):
    """Per-layer metrics (name -> value) from the recorded spans.

    ``unit_tags`` are the tags of the spans that belong to units of work;
    ``steps`` are (tag, start, end) optimizer-step intervals (train only).
    """
    sp = tracer.spans()
    n_names = len(tracer.names)
    ids = {label: i for i, label in enumerate(tracer.names)}
    dur = sp["end"] - sp["start"]
    has_parent = sp["parent"] >= 0
    covered = np.bincount(sp["parent"][has_parent], weights=dur[has_parent],
                          minlength=len(dur))
    self_t = dur - covered
    unit = np.isin(sp["tag"], np.asarray(list(unit_tags), dtype=np.int32))

    def by_name(weights=None, mask=None):
        names = sp["name"] if mask is None else sp["name"][mask]
        w = None if weights is None else (weights if mask is None else weights[mask])
        return np.bincount(names, weights=w, minlength=n_names)

    calls, total = by_name(), by_name(dur)
    self_total = by_name(self_t)
    unit_calls, unit_self, unit_dur = by_name(mask=unit), by_name(self_t, unit), by_name(dur, unit)

    def get(arr, label):
        i = ids.get(label)
        return float(arr[i]) if i is not None else 0.0

    def mean_ms(label):
        return _ratio(get(total, label) * 1e3, get(calls, label))

    per_unit = max(n_units, 1)
    m = {}
    for op in OPS:
        m[f"autodiff.{op}.fwd_ms"] = get(unit_self, f"autodiff.{op}") * 1e3 / per_unit
        if op not in COMPOSITE_OPS:
            m[f"autodiff.{op}.bwd_ms"] = get(unit_self, f"autodiff.{op}.bwd") * 1e3 / per_unit
        m[f"autodiff.{op}.calls"] = get(unit_calls, f"autodiff.{op}") / per_unit
    m["autodiff.backward_ms"] = get(unit_dur, "autodiff.backward") * 1e3 / per_unit
    m["autodiff.nodes_per_step"] = sum(tracer.nodes.get(t, 0) for t in unit_tags) / per_unit
    for name, label in _TIMED.items():
        m[name] = mean_ms(label)
    for name, label in _CALLS.items():
        m[name] = get(calls, label)

    c = tracer.counts
    m["encoder.tokens"] = float(c.get("encoder.tokens", 0))
    positions = c.get("encoder.positions", 0)
    m["encoder.pad_frac"] = 1.0 - _ratio(c.get("encoder.tokens", 0), positions) if positions else 0.0
    m["splade.doc_nnz_mean"] = _ratio(c.get("index.postings", 0), c.get("index.docs", 0))
    m["splade.query_nnz_mean"] = _ratio(c.get("nnz.query", 0), c.get("reps.query", 0))
    m["trainer.batch_ms"] = _batch_ms(sp, ids, dur, steps)
    m["trainer.encode_texts.texts"] = float(c.get("texts", 0))
    m["index.postings_scanned"] = _ratio(c.get("search.postings", 0), c.get("search.queries", 0))
    m["index.candidates"] = _ratio(c.get("search.candidates", 0), c.get("search.queries", 0))
    m["index.returned_frac"] = _ratio(c.get("search.returned", 0), c.get("search.candidates", 0))
    m["index.bytes"] = float(c.get("index.bytes", 0))
    m["index.postings"] = float(c.get("index.postings", 0))
    m["evalkit.bm25.docs_scanned"] = _ratio(c.get("bm25.scanned", 0), c.get("bm25.queries", 0))
    m["evalkit.bm25.docs_matched"] = _ratio(c.get("bm25.matched", 0), c.get("bm25.queries", 0))
    m["evalkit.bm25.matched_frac"] = _ratio(c.get("bm25.matched", 0), c.get("bm25.scanned", 0))
    for bits in (8, 4):
        m[f"quant.param_bytes.int{bits}"] = float(c.get(f"quant.param_bytes.int{bits}", 0))
    for stage in CLI_STAGES:
        label = f"cli.{stage}"
        m[f"cli.{stage}.self_ms"] = _ratio(get(self_total, label) * 1e3, get(calls, label))
    return m


_STEP_WORK = ("autodiff.", "encoder.", "splade.", "trainer.adamw_step")


def _batch_ms(sp, ids, dur, steps):
    """Mean per step of the step interval minus its forward, backward and
    optimizer spans (the direct children of the training loop)."""
    if not steps:
        return 0.0
    loops = [ids[label] for label in ("trainer.run_adaptation", "trainer.run_contrastive")
             if label in ids]
    work = [i for label, i in ids.items() if label.startswith(_STEP_WORK)]
    parent = sp["parent"]
    in_loop = (parent >= 0) & np.isin(sp["name"][np.maximum(parent, 0)], loops)
    mask = in_loop & np.isin(sp["name"], work)
    spent = {}
    for tag, d in zip(sp["tag"][mask], dur[mask]):
        spent[int(tag)] = spent.get(int(tag), 0.0) + float(d)
    rest = [(end - start) - spent.get(tag, 0.0) for tag, start, end in steps]
    return float(np.mean(rest)) * 1e3
