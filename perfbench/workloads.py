"""The three benchmark workloads: ``train``, ``ingest`` and ``query``.

Each workload generates its inputs with ``corpus.synth_generate`` from the
workload seed, prepares what it needs once (``fixture``, untimed), then
sets up several times (``setup``, timed) and runs passes of a fixed body
(``body``). ``verify`` checks a pass's outputs; a failed check counts as a
failed operation. The program only ever sees the generated files.
"""

from __future__ import annotations

import hashlib
import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from tracing import PauseClock, ReturnClock, StepClock

K = 10  # retrieval depth for search, BM25 and MRR


class BenchError(RuntimeError):
    pass


@dataclass
class Pass:
    wall_s: float
    op_ms: list                 # samples of the workload's main operation
    aux_ms: list                # samples of its secondary operation
    units: int                  # steps, documents or queries in this pass
    unit_tags: list
    attempted: int = 0
    failed: int = 0
    outputs: dict = field(default_factory=dict)
    detail: dict = field(default_factory=dict)


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def pct(samples, q):
    return float(np.percentile(np.asarray(samples, dtype=np.float64), q))


def parse_metric_csv(path, name):
    with open(path, encoding="utf-8") as f:
        for line in f:
            qid, metric, value = line.rstrip("\n").split(",")
            if qid == "all" and metric == name:
                return float(value)
    raise BenchError(f"{path}: no aggregate {name}")


def count_postings(reps_path):
    """Postings in an index built from a reps file: one per term:weight pair."""
    n = 0
    with open(reps_path, encoding="utf-8") as f:
        for line in f:
            n += len(line.rstrip("\n").partition("\t")[2].split())
    return n


class Workload:
    name = ""
    setup_reps = 5
    # Set-ups are taken inside the passes: ``clock`` pauses for one after
    # every ``setup_every`` events (steps, documents, queries), so that
    # set-up time is sampled over the same stretches of the machine's
    # fluctuating speed as the work.
    clock = None
    setup_every = 0
    model_variant = None   # fixture model: attention variant and contrastive epochs
    model_epochs = 0

    def __init__(self, cs, workdir, seed, tiny, patches):
        self.cs = cs
        self.dir = Path(workdir)
        self.seed = seed
        self.tiny = tiny
        self.patches = patches
        self.tracer = None
        self.input_hashes = None
        m = self.dir / "model"
        self.model_path = str(m / ("model.ckpt" if self.model_epochs else "adapted.ckpt"))
        self.vocab_path = str(m / "adapted.vocab.txt")

    # -- helpers -------------------------------------------------------
    def path(self, name):
        return str(self.dir / name)

    def csplade(self, *argv):
        """One CLI stage, in process."""
        rc = self.cs.cli.main([str(a) for a in argv])
        if rc != 0:
            raise BenchError(f"csplade {argv[0]} exited with {rc}")

    def generate_inputs(self):
        """Write the synth inputs; returns {file: sha256}."""
        corpus = self.cs.corpus
        docs, queries, qrels, triples = corpus.synth_generate(self.spec())
        corpus.save_tsv(self.path("corpus.tsv"), docs)
        corpus.save_tsv(self.path("queries.tsv"), queries)
        corpus.save_qrels(self.path("qrels.txt"), qrels)
        corpus.save_triples(self.path("triples.jsonl"), triples)
        return {n: sha256(self.path(n))
                for n in ("corpus.tsv", "queries.tsv", "qrels.txt", "triples.jsonl")}

    def train_model(self):
        """The fixture model at ``model_path``: trained briefly on fixed data
        with a fixed seed, so identical in every run. How sparse a briefly
        trained model comes out swings widely from seed to seed, and would
        otherwise set the cost of every later stage."""
        corpus, variant = self.cs.corpus, self.model_variant
        spec = corpus.SynthSpec(n_docs=60, n_queries=10, seed=0) if self.tiny \
            else corpus.SynthSpec(seed=0)
        docs, queries, _, triples = corpus.synth_generate(spec)
        m = self.dir / "model"
        m.mkdir(exist_ok=True)
        corpus.save_tsv(m / "corpus.tsv", docs)
        corpus.save_tsv(m / "queries.tsv", queries)
        corpus.save_triples(m / "triples.jsonl", triples)
        self.csplade("adapt", "--corpus", m / "corpus.tsv", "--steps", 5 if self.tiny else 30,
                     "--warmup", 1 if self.tiny else 5, "--batch", 16, "--seq-len", 32,
                     "--lr", "1e-2", "--variant", variant, "--seed", 0,
                     "--out", m / "adapted.ckpt")
        if self.model_epochs:
            self.csplade("train", "--model", m / "adapted.ckpt", "--vocab", self.vocab_path,
                         "--triples", m / "triples.jsonl", "--corpus", m / "corpus.tsv",
                         "--queries", m / "queries.tsv", "--epochs", self.model_epochs,
                         "--lr", "3e-3", "--variant", variant, "--seed", 0,
                         "--out", self.model_path)

    def has_fixture(self):
        return self.model_variant is not None

    def timed_setup(self):
        """One set-up; returns (seconds, same inputs as the first generation?)."""
        t0 = perf_counter()
        hashes = self.generate_inputs()
        self.setup()
        return perf_counter() - t0, hashes == self.input_hashes

    # -- per workload --------------------------------------------------
    def spec(self):
        raise NotImplementedError

    def fixture(self):
        """Untimed preparation, run in a child process so that its memory
        does not count in ``peak_rss_mb``; writes files only."""
        if self.model_variant:
            self.train_model()

    def setup(self):
        pass

    def body(self):
        raise NotImplementedError

    def verify(self, p):
        pass

    def detail(self, passes):
        return {}


class Train(Workload):
    """The research loop through ``cli.main``: adapt, contrastive train,
    encode, index, search and eval, with the ``bi`` variant."""

    name = "train"
    setup_reps = 20  # a set-up takes ~0.1 s here: more of them steady the median

    def __init__(self, *args):
        super().__init__(*args)
        self.clock = StepClock(self.patches, self.cs.trainer.AdamW)
        if self.tiny:
            self.adapt_steps, self.epochs, self.setup_every = 20, 3, 10
        else:
            self.adapt_steps, self.epochs, self.setup_every = 200, 50, 45
        self.batch = 8

    def spec(self):
        if self.tiny:
            return self.cs.corpus.SynthSpec(n_docs=60, n_queries=10, seed=self.seed)
        return self.cs.corpus.SynthSpec(seed=self.seed)  # 1,000 docs, 100 queries

    def bm25_mrr(self):
        """BM25 MRR@10 on the same data: the bar the learned model must clear."""
        ev, corpus = self.cs.evalkit, self.cs.corpus
        docs = corpus.load_tsv(self.path("corpus.tsv"))
        queries = corpus.load_tsv(self.path("queries.tsv"))
        stats = ev.build_stats(docs)
        run = {qid: ev.bm25_search(docs, text, stats, K) for qid, text in queries.items()}
        return ev.mrr_at_k(run, corpus.load_qrels(self.path("qrels.txt")), K)[1]

    def body(self):
        p, seed = self.path, self.seed
        clock = self.clock
        clock.tracer = self.tracer
        first, paused = len(clock.steps), clock.paused_s
        t0 = perf_counter()
        clock.phase = "adapt"
        self.csplade("adapt", "--corpus", p("corpus.tsv"), "--steps", self.adapt_steps,
                     "--warmup", 2 if self.tiny else 20, "--batch", 16, "--seq-len", 32,
                     "--lr", "1e-2", "--variant", "bi", "--seed", seed,
                     "--report", p("adapt.csv"), "--out", p("adapted.ckpt"))
        self._untag()
        clock.phase = "contrastive"
        self.csplade("train", "--model", p("adapted.ckpt"), "--vocab", p("adapted.vocab.txt"),
                     "--triples", p("triples.jsonl"), "--corpus", p("corpus.tsv"),
                     "--queries", p("queries.tsv"), "--epochs", self.epochs,
                     "--batch", self.batch, "--lr", "3e-3", "--variant", "bi", "--seed", seed,
                     "--report", p("train.csv"), "--out", p("trained.ckpt"))
        self._untag()
        clock.phase = None
        self.csplade("encode", "--model", p("trained.ckpt"), "--vocab", p("adapted.vocab.txt"),
                     "--input", p("corpus.tsv"), "--variant", "bi", "--out", p("reps.txt"))
        self.csplade("index", "--reps", p("reps.txt"), "--vocab", p("adapted.vocab.txt"),
                     "--bits", 8, "--out", p("index.bin"))
        self.csplade("search", "--queries", p("queries.tsv"), "--index", p("index.bin"),
                     "--model", p("trained.ckpt"), "--vocab", p("adapted.vocab.txt"),
                     "--variant", "bi", "--k", K, "--out", p("run.txt"))
        self.csplade("eval", "--run", p("run.txt"), "--qrels", p("qrels.txt"), "--k", K,
                     "--out", p("metrics.csv"))
        wall = perf_counter() - t0 - (clock.paused_s - paused)
        steps = clock.steps[first:]
        adapt = [(e - s) * 1e3 for ph, _, s, e in steps if ph == "adapt"]
        contrastive = [(e - s) * 1e3 for ph, _, s, e in steps if ph == "contrastive"]
        return Pass(wall, contrastive, adapt, len(steps), [t for _, t, _, _ in steps],
                    outputs={"steps": steps})

    def _untag(self):
        if self.tracer is not None:
            self.tracer.tag = -1

    def verify(self, p):
        """Every step ran with a finite loss, and MRR@10 beats BM25."""
        n_triples = len(self.cs.corpus.load_triples(self.path("triples.jsonl")))
        expected = {"adapt": self.adapt_steps,
                    "contrastive": self.epochs * math.ceil(n_triples / self.batch)}
        for phase, report in (("adapt", "adapt.csv"), ("contrastive", "train.csv")):
            want = expected[phase]
            finite = _finite_losses(self.path(report))
            timed = sum(1 for ph, *_ in p.outputs["steps"] if ph == phase)
            p.attempted += want
            p.failed += max(0, want - min(finite, timed)) + max(0, timed - want)
        mrr = parse_metric_csv(self.path("metrics.csv"), f"mrr@{K}")
        bm25_mrr = self.bm25_mrr()
        p.attempted += 1
        p.failed += int(not mrr > bm25_mrr)
        p.outputs["index_bytes"] = Path(self.path("index.bin")).stat().st_size
        p.outputs["postings"] = count_postings(self.path("reps.txt"))
        p.detail = {"mrr_at_10": mrr, "bm25_mrr_at_10": bm25_mrr}

    def detail(self, passes):
        adapt = [x for p in passes for x in p.aux_ms]
        contrastive = [x for p in passes for x in p.op_ms]
        return {
            "train_s": statistics.median(p.wall_s for p in passes),
            "adapt_step_ms_p50": pct(adapt, 50),
            "contrastive_step_ms_p50": pct(contrastive, 50),
            "contrastive_step_ms_p95": pct(contrastive, 95),
            "adapt_steps": len(adapt),
            "contrastive_steps": len(contrastive),
            **passes[-1].detail,
        }


def _finite_losses(report_csv):
    """Rows of a TrainReport CSV whose total loss is finite."""
    with open(report_csv, encoding="utf-8") as f:
        header = f.readline().rstrip("\n").split(",")
        col = header.index("total")
        return sum(1 for line in f if math.isfinite(float(line.split(",")[col])))


class Ingest(Workload):
    """The offline write path on one collection: ``csplade encode`` with a
    causal+echo model, ``csplade index --bits 8``, then
    ``index.deserialize``."""

    name = "ingest"
    model_variant = "echo"

    def __init__(self, *args):
        super().__init__(*args)
        self.clock = ReturnClock(self.patches, self.cs.splade, "splade_pool")
        self.setup_every = 40 if self.tiny else 2000

    def spec(self):
        n_docs = 200 if self.tiny else 10000
        return self.cs.corpus.SynthSpec(n_docs=n_docs, n_queries=10 if self.tiny else 100,
                                        seed=self.seed)

    def body(self):
        p, cs, clock = self.path, self.cs, self.clock
        if self.tracer is not None:
            self.tracer.tag = 0
        first, calls, paused = len(clock.intervals_ms), clock.calls, clock.paused_s
        clock.restart()
        t0 = perf_counter()
        self.csplade("encode", "--model", self.model_path, "--vocab", self.vocab_path,
                     "--input", p("corpus.tsv"), "--variant", "echo", "--out", p("reps.txt"))
        t1 = perf_counter()
        self.csplade("index", "--reps", p("reps.txt"), "--vocab", self.vocab_path,
                     "--bits", 8, "--out", p("index.bin"))
        t2 = perf_counter()
        loaded = cs.index.deserialize(p("index.bin"))
        t3 = perf_counter()
        if self.tracer is not None:
            self.tracer.tag = -1
        encode_s = t1 - t0 - (clock.paused_s - paused)
        docs = clock.calls - calls
        return Pass(encode_s + t3 - t1, list(clock.intervals_ms[first:]), [(t2 - t1) * 1e3],
                    docs, [0], outputs={"loaded": loaded, "docs": docs},
                    detail={"encode_s": encode_s, "load_s": t3 - t2})

    def verify(self, p):
        """Every document is in the index, in order, and the load gives back
        exactly the index built in memory from the same reps."""
        cs = self.cs
        vocab = cs.corpus.Vocabulary.load(self.vocab_path)
        doc_ids = list(cs.corpus.load_tsv(self.path("corpus.tsv")))
        built = cs.index.build_index(cs.splade.read_reps(self.path("reps.txt"), vocab.size),
                                     bits=8)
        p.attempted += len(doc_ids) + 1
        p.failed += sum(a != b for a, b in zip(doc_ids, built.doc_ids)) \
            + abs(len(doc_ids) - len(built.doc_ids)) + abs(len(doc_ids) - p.outputs["docs"]) \
            + int(not _same_index(built, p.outputs.pop("loaded")))
        p.outputs["index_bytes"] = Path(self.path("index.bin")).stat().st_size
        p.outputs["postings"] = sum(len(pl.ordinals) for pl in built.postings.values())

    def detail(self, passes):
        return {
            "encode_docs_per_s": statistics.median(p.units / p.detail["encode_s"] for p in passes),
            "index_write_s": pct([x for p in passes for x in p.aux_ms], 50) / 1e3,
            "index_load_s": statistics.median(p.detail["load_s"] for p in passes),
            "docs": passes[-1].units,
        }


def _same_index(a, b):
    if (a.vocab_size, a.bits, a.doc_ids) != (b.vocab_size, b.bits, b.doc_ids):
        return False
    if np.float32(a.scale) != np.float32(b.scale) or a.postings.keys() != b.postings.keys():
        return False
    return all(np.array_equal(pa.ordinals, b.postings[t].ordinals)
               and np.array_equal(pa.impacts, b.postings[t].impacts)
               for t, pa in a.postings.items())


class Query(Workload):
    """The serving path: per query ``trainer.encode_texts`` then
    ``index.search`` (the loop of ``cmd_search``), and BM25 on the same query."""

    name = "query"
    setup_reps = 9  # one set-up reads 1.1-2.3 s within a run: more of them steady the median
    model_variant = "bi"
    model_epochs = 1
    checked = 32  # queries whose top-k is compared with the exhaustive oracle

    def __init__(self, *args):
        super().__init__(*args)
        self.clock = PauseClock()
        self.setup_every = 10 if self.tiny else 100

    def spec(self):
        if self.tiny:
            return self.cs.corpus.SynthSpec(n_docs=200, n_queries=20, seed=self.seed)
        return self.cs.corpus.SynthSpec(n_docs=10000, n_queries=200, seed=self.seed)

    def fixture(self):
        """A bi model trained briefly; the collection encoded in batches of
        64 and indexed at 8 bits."""
        p, cs = self.path, self.cs
        self.train_model()
        model = cs.encoder.EncoderModel.load(self.model_path)
        vocab = cs.corpus.Vocabulary.load(self.vocab_path)
        docs = cs.corpus.load_tsv(p("corpus.tsv"))
        reps = []
        texts = list(docs.values())
        for b in range(0, len(texts), 64):
            seqs = [cs.trainer.prepare_sequence(t, vocab, model.cfg, False)
                    for t in texts[b:b + 64]]
            dense = cs.trainer.encode_reps_tensor(model, seqs).data
            for row in dense:
                keep = np.flatnonzero(row > cs.splade.WEIGHT_FLOOR)
                reps.append(cs.splade.SparseRep(keep, row[keep], vocab.size))
        cs.index.serialize(cs.index.build_index(list(zip(docs, reps)), bits=8), p("index.bin"))

    def setup(self):
        """What serving needs before the first query."""
        cs, p = self.cs, self.path
        self.idx = self.model = self.docs = self.stats = None  # a server holds one of each
        self.idx = cs.index.deserialize(p("index.bin"))
        self.model = cs.encoder.EncoderModel.load(self.model_path)
        self.vocab = cs.corpus.Vocabulary.load(self.vocab_path)
        self.docs = cs.corpus.load_tsv(p("corpus.tsv"))
        self.queries = cs.corpus.load_tsv(p("queries.tsv"))
        self.stats = cs.evalkit.build_stats(self.docs)
        for qcfg in (cs.quant.QuantConfig(bits=8, granularity=cs.quant.PER_CHANNEL),
                     cs.quant.QuantConfig(bits=4, granularity=cs.quant.GROUPWISE)):
            cs.quant.quantize_weights(self.model, qcfg)

    def body(self):
        cs, tracer = self.cs, self.tracer
        if tracer is not None:
            tracer.role = "query"
        run, checked, query_ms, bm25_ms = {}, [], [], []
        paused = self.clock.paused_s
        t0 = perf_counter()
        for i, (qid, text) in enumerate(self.queries.items()):
            if tracer is not None:
                tracer.tag = i
            t = perf_counter()
            rep = cs.trainer.encode_texts(self.model, self.vocab, [text])[0]
            result = cs.index.search(self.idx, rep, K)
            t1 = perf_counter()
            cs.evalkit.bm25_search(self.docs, text, self.stats, K)
            t2 = perf_counter()
            query_ms.append((t1 - t) * 1e3)
            bm25_ms.append((t2 - t1) * 1e3)
            run[qid] = result
            if i < self.checked:
                checked.append((rep, result))
            self.clock.tick(t2, i + 1)
        wall = perf_counter() - t0 - (self.clock.paused_s - paused)
        if tracer is not None:
            tracer.tag, tracer.role = -1, "doc"
        n = len(query_ms)
        return Pass(wall, query_ms, bm25_ms, n, list(range(n)),
                    outputs={"run": run, "checked": checked})

    def verify(self, p):
        """Checked queries' top-k equals an exhaustive oracle over the
        index's own dequantized impacts, ties broken by ordinal."""
        ordinal = {d: i for i, d in enumerate(self.idx.doc_ids)}
        p.attempted += 2 * p.units
        for rep, result in p.outputs.pop("checked"):
            want, scores = _oracle_topk(self.idx, rep, K)
            got = np.array([ordinal[d] for d in result.doc_ids], dtype=np.int64)
            ok = np.array_equal(got, want) and np.allclose(result.scores, scores,
                                                          rtol=1e-12, atol=0.0)
            p.failed += int(not ok)
        qrels = self.cs.corpus.load_qrels(self.path("qrels.txt"))
        p.detail = {"mrr_at_10": self.cs.evalkit.mrr_at_k(p.outputs.pop("run"), qrels, K)[1]}
        p.outputs["index_bytes"] = Path(self.path("index.bin")).stat().st_size
        p.outputs["postings"] = sum(len(pl.ordinals) for pl in self.idx.postings.values())

    def detail(self, passes):
        q = [x for p in passes for x in p.op_ms]
        return {
            "query_ms_p50": pct(q, 50),
            "query_ms_p99": pct(q, 99),
            "bm25_query_ms_p50": pct([x for p in passes for x in p.aux_ms], 50),
            "queries": len(q),
            **passes[-1].detail,
        }


def _oracle_topk(idx, rep, k):
    """Score every document from the dequantized postings, term by term in
    ascending term order; ties go to the lower ordinal."""
    scores = np.zeros(idx.doc_count, dtype=np.float64)
    factor = idx.dequant_factor()
    for t, w in zip(rep.term_ids, rep.weights):
        plist = idx.postings.get(int(t))
        if plist is not None:
            scores[plist.ordinals.astype(np.int64)] += \
                float(w) * (plist.impacts.astype(np.float64) * factor)
    cand = np.flatnonzero(scores > 0)
    order = cand[np.lexsort((cand, -scores[cand]))][:k]
    return order, scores[order]


WORKLOADS = {w.name: w for w in (Train, Ingest, Query)}
