"""Two-phase training: adaptation on unlabeled text, then contrastive.

Also holds the AdamW optimizer, the cosine-with-warmup schedule, the
dead-dimension diagnostic, and the batch encode helpers shared with the
CLI inference path.
"""

from __future__ import annotations

import functools
import time
import warnings
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import splade
from .autodiff import Tensor
from .corpus import Vocabulary, tokenize
from .encoder import PAD_ID, EncoderModel, TokenSequence, echo_expand
from .splade import (WEIGHT_FLOOR, adaptation_loss_batch, flops_reg_t, pool_reps,
                     splade_pool)

# Largest global L2 norm of the parameter gradients in a contrastive step.
# Unclipped, InfoNCE over ~200 active terms saturates early and the norm
# runs from ~74 in the first steps to ~4 later, enough to collapse document
# sparsity and make the trained quality depend on the seed.
GRAD_CLIP_NORM = 1.0

# AdamW hyperparameters (Loshchilov & Hutter 2019); both phases use these.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
WEIGHT_DECAY = 0.01

WARMUP_FRACTION = 0.05  # share of a phase's steps that warm up when no count is given


class TrainingDivergedError(RuntimeError):
    pass


def resolve_warmup(warmup_steps, total_steps):
    """The warm-up step count of a phase of `total_steps` steps: None means
    round(WARMUP_FRACTION * total_steps); a given count must be below it."""
    if warmup_steps is None:
        return int(round(WARMUP_FRACTION * total_steps))
    if total_steps > 0 and warmup_steps >= total_steps:
        raise ValueError("warmup_steps must be < steps")
    return warmup_steps


def _check_minimums(cfg, **minimums):
    """Raise ValueError for the first set field of `cfg` below its minimum."""
    for name, low in minimums.items():
        value = getattr(cfg, name)
        if value is not None and value < low:
            raise ValueError(f"{name} must be >= {low}")


@dataclass
class AdaptConfig:
    steps: int = 500
    batch_size: int = 16
    seq_len: int = 128  # at least BOS and EOS
    lr: float = 3e-3
    warmup_steps: int | None = None  # None: see resolve_warmup
    lambda_relu: float = 1.0
    seed: int = 0

    def __post_init__(self):
        _check_minimums(self, steps=0, batch_size=1, seq_len=2, lr=0, warmup_steps=0,
                        lambda_relu=0)
        resolve_warmup(self.warmup_steps, self.steps)


@dataclass
class ContrastiveConfig:
    epochs: int = 3
    global_batch_size: int = 8
    hard_negatives_per_positive: int = 3
    lr: float = 2e-3
    warmup_steps: int | None = None  # None: see resolve_warmup
    lambda_q: float = 0.003
    lambda_d: float = 0.003
    seed: int = 0

    def __post_init__(self):
        _check_minimums(self, epochs=0, global_batch_size=1, hard_negatives_per_positive=0,
                        lr=0, warmup_steps=0, lambda_q=0, lambda_d=0)


class TrainReport:
    """One row per optimizer step. COLUMNS declares each CSV column once, with
    its format; a column reads back as a list by name (`report.total`). A
    column that a phase does not measure is 0."""

    COLUMNS = (("step", "d"), ("rank_loss", ".6f"), ("flops_q", ".6f"),
               ("flops_d", ".6f"), ("clm", ".6f"), ("relu_clm", ".6f"),
               ("total", ".6f"), ("dead_frac", ".6f"), ("avg_nnz_q", ".3f"),
               ("avg_nnz_d", ".3f"), ("lr", ".8f"), ("step_ms", ".3f"),
               ("grad_norm", ".6f"), ("dead_dims", ".6f"))
    CSV_HEADER = ",".join(name for name, _ in COLUMNS)

    def __init__(self):
        self.columns = {name: [] for name, _ in self.COLUMNS}
        self.warmup_steps = None  # the count the training loop used

    def __getattr__(self, name):
        try:
            return self.__dict__["columns"][name]
        except KeyError:
            raise AttributeError(name) from None

    def append(self, step, **values):
        unknown = values.keys() - self.columns.keys()
        if unknown:
            raise ValueError(f"unknown report column {', '.join(sorted(unknown))}")
        values["step"] = step
        for name, column in self.columns.items():
            column.append(values.get(name, 0.0))

    def __len__(self):
        return len(self.step)

    def to_csv(self, path):
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            f.write(self.CSV_HEADER + "\n")
            for row in zip(*self.columns.values()):
                f.write(",".join(format(v, fmt) for v, (_, fmt) in zip(row, self.COLUMNS)) + "\n")

    @classmethod
    def from_csv(cls, path):
        """Read a report written by `to_csv`."""
        report = cls()
        names = [name for name, _ in cls.COLUMNS[1:]]
        with open(path, "r", encoding="utf-8") as f:
            if f.readline().rstrip("\n") != cls.CSV_HEADER:
                raise ValueError(f"unexpected report header in {path}")
            for n, line in enumerate(f, 2):
                step, *vals = line.rstrip("\n").split(",")
                if len(vals) != len(names):
                    raise ValueError(f"{path}:{n}: expected {len(cls.COLUMNS)} fields")
                report.append(int(step), **dict(zip(names, map(float, vals))))
        return report


def cosine_lr(step, total_steps, warmup_steps, peak):
    """Linear warmup to `peak`, then cosine decay to zero; needs
    0 <= warmup_steps < total_steps (see resolve_warmup)."""
    if step < warmup_steps:
        return peak * step / warmup_steps
    frac = (step - warmup_steps) / (total_steps - warmup_steps)
    return peak * 0.5 * (1.0 + np.cos(np.pi * min(frac, 1.0)))


class AdamW:
    """AdamW with decoupled weight decay; hyperparameters are the ADAM_* and
    WEIGHT_DECAY constants."""

    def __init__(self, params):
        self.params = dict(params)
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}

    def step(self, lr):
        self.t += 1
        b1, b2 = ADAM_BETA1, ADAM_BETA2
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        for k, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            m = self.m[k]
            v = self.v[k]
            # m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g and
            # p -= lr ((m / bc1) / (sqrt(v / bc2) + eps) + wd p), evaluated
            # in float32 in two scratch arrays
            tmp = np.multiply(g, 1 - b1)
            m *= b1
            m += tmp
            np.multiply(g, 1 - b2, out=tmp)
            tmp *= g
            v *= b2
            v += tmp
            np.divide(v, bc2, out=tmp)
            np.sqrt(tmp, out=tmp)
            tmp += ADAM_EPS
            update = np.divide(m, bc1)
            update /= tmp
            np.multiply(p.data, WEIGHT_DECAY, out=tmp)
            update += tmp
            update *= np.float32(lr)
            p.data -= update

    def zero_grad(self):
        for p in self.params.values():
            p.zero_grad()


def clip_grad_norm(params, max_norm):
    """Scale all gradients so their global L2 norm is <= max_norm.

    Returns the norm before clipping; parameters without a grad are skipped.
    Each grad is replaced, not scaled in place: one array may be the grad of
    several tensors (see autodiff.Tensor._accumulate).
    """
    norm = float(np.sqrt(sum(float(np.vdot(p.grad, p.grad))
                             for p in params.values() if p.grad is not None)))
    if norm > max_norm:
        factor = max_norm / norm
        for p in params.values():
            if p.grad is not None:
                p.grad = p.grad * factor
    return norm


def pack_sequences(seqs):
    """Pad a list of TokenSequence to (ids, lengths, span_mask) arrays."""
    max_len = max(s.length for s in seqs)
    ids = np.full((len(seqs), max_len), PAD_ID, dtype=np.int64)
    lengths = np.zeros(len(seqs), dtype=np.int64)
    span_mask = np.zeros((len(seqs), max_len), dtype=bool)
    for i, s in enumerate(seqs):
        ids[i, : s.length] = s.ids
        lengths[i] = s.length
        start, stop = s.span
        span_mask[i, start:stop] = True
    return ids, lengths, span_mask


def prepare_sequence(text, vocab, model_cfg, echo):
    """Tokenize and optionally echo-expand to fit the model window."""
    if echo:
        budget = (model_cfg.max_seq_len - 3) // 2 + 2  # room to repeat content
        seq = tokenize(text, vocab, max_len=budget)
        return echo_expand(seq, model_cfg.max_seq_len)
    return tokenize(text, vocab, max_len=model_cfg.max_seq_len)


def encode_reps_tensor(model, seqs):
    """Differentiable batch encode: sequences -> pooled (B, V) reps."""
    ids, lengths, span_mask = pack_sequences(seqs)
    logits = model.forward_batch(ids, lengths)
    return pool_reps(logits, span_mask)


def encode_texts(model, vocab, texts):
    """Inference path: raw texts -> list of SparseRep, building no graph.
    Texts are echo-expanded when the model's config says so."""
    reps = []
    with ad.no_grad():
        for text in texts:
            seq = prepare_sequence(text, vocab, model.cfg, model.cfg.variant == "echo")
            reps.append(splade_pool(model.forward_logits(seq), seq.span))
    return reps


def _live(reps: Tensor, caller) -> np.ndarray:
    """(B, V) mask of the pooled weights above WEIGHT_FLOOR."""
    if reps.shape[0] == 0:
        raise ValueError(f"{caller}: empty batch")
    return reps.data > WEIGHT_FLOOR


def empty_rep_fraction(reps: Tensor) -> float:
    """Fraction of the (B, V) representations with an empty support."""
    return float((~_live(reps, "empty_rep_fraction").any(axis=1)).mean())


def dead_dim_fraction(reps: Tensor) -> float:
    """Fraction of vocabulary dimensions with no weight above WEIGHT_FLOOR
    in any representation of the (B, V) batch: the dimensions a dying ReLU
    has switched off."""
    return float(1.0 - _live(reps, "dead_dim_fraction").any(axis=0).mean())


def _sparsity(q_reps, d_reps):
    """A report row's sparsity columns for a step's query reps (None in
    adaptation) and document reps; dead_frac counts both."""
    nnz = {column: float((reps.data > WEIGHT_FLOOR).sum(axis=1).mean())
           for column, reps in (("avg_nnz_q", q_reps), ("avg_nnz_d", d_reps)) if reps is not None}
    dead = empty_rep_fraction(d_reps)
    if q_reps is not None:
        n_q, n_d = q_reps.shape[0], d_reps.shape[0]
        dead = (empty_rep_fraction(q_reps) * n_q + dead * n_d) / (n_q + n_d)
    return dict(nnz, dead_frac=dead, dead_dims=dead_dim_fraction(d_reps))


def _train(phase, model, batches, objective, total_steps, cfg, max_norm):
    """The optimizer loop of both phases. Per batch: zero-grad, `objective(step,
    batch)` -> (loss, {column: float}, reps), finite check, backward, clipping
    to `max_norm`, cosine LR and AdamW, which `step_ms` times; then the
    sparsity of `reps()`, the step's (query or None, document) reps."""
    report = TrainReport()
    report.warmup_steps = warmup = resolve_warmup(cfg.warmup_steps, total_steps)
    optimizer = AdamW(model.params)
    for step, batch in enumerate(batches):
        t0 = time.perf_counter()
        optimizer.zero_grad()
        total, terms, reps = objective(step, batch)
        if not np.isfinite(total.data):
            raise TrainingDivergedError(
                f"{phase} step {step}: non-finite loss "
                f"({', '.join(f'{k}={v}' for k, v in terms.items())})")
        total.backward()
        norm = clip_grad_norm(model.params, max_norm)
        lr = cosine_lr(step, total_steps, warmup, cfg.lr)
        optimizer.step(lr)
        step_ms = (time.perf_counter() - t0) * 1e3
        report.append(step, **terms, total=float(total.data), lr=lr, step_ms=step_ms,
                      grad_norm=norm, **_sparsity(*reps()))
    return report


def run_adaptation(model: EncoderModel, texts, vocab: Vocabulary, cfg: AdaptConfig):
    """Adapt the model on unlabeled text: CLM plus log-saturated CLM loss.
    Gradients are not clipped."""
    seq_len = min(cfg.seq_len, model.cfg.max_seq_len)
    tokenized = [tokenize(t, vocab, max_len=seq_len) for t in texts]
    if not tokenized:
        raise ValueError("run_adaptation: corpus must be non-empty")
    rng = np.random.default_rng(cfg.seed)
    picks = (rng.integers(0, len(tokenized), size=cfg.batch_size) for _ in range(cfg.steps))
    batches = (pack_sequences([tokenized[i] for i in p]) for p in picks)

    def objective(step, batch):
        ids, lengths, span_mask = batch
        logits = model.forward_batch(ids, lengths)
        total, clm, relu_clm = adaptation_loss_batch(logits, ids, lengths, cfg.lambda_relu)

        def reps():
            with ad.no_grad():  # the sparsity the step's logits pool to
                return None, pool_reps(logits, span_mask)

        return total, dict(clm=float(clm.data), relu_clm=float(relu_clm.data)), reps

    return model, _train("adaptation", model, batches, objective, cfg.steps, cfg, np.inf)


def run_contrastive(model: EncoderModel, triples, corpus, queries,
                    vocab: Vocabulary, cfg: ContrastiveConfig):
    """Contrastive phase: hard negatives plus all other in-batch documents.

    Texts are echo-expanded when the model's config says so. Before each
    optimizer step the parameter gradients are scaled so that their global
    L2 norm is at most GRAD_CLIP_NORM (Pascanu et al. 2013).
    """
    if missing := [t["query_id"] for t in triples if not t["positive_ids"]]:
        raise ValueError(f"triple for {missing[0]} has no positive")
    rng = np.random.default_rng(cfg.seed)
    h = cfg.hard_negatives_per_positive

    @functools.cache  # each text is tokenized once across epochs
    def seq_for(text):
        return prepare_sequence(text, vocab, model.cfg, model.cfg.variant == "echo")

    def batches():
        for _ in range(cfg.epochs):
            order = rng.permutation(len(triples))
            for b0 in range(0, len(order), cfg.global_batch_size):
                q_seqs, d_seqs, positives = [], [], []
                for triple in [triples[i] for i in order[b0: b0 + cfg.global_batch_size]]:
                    q_seqs.append(seq_for(queries[triple["query_id"]]))
                    pos = triple["positive_ids"]
                    pos_id = pos[int(rng.integers(len(pos)))] if len(pos) > 1 else pos[0]
                    positives.append(len(d_seqs))  # triples may add unequal numbers of docs
                    d_seqs.append(seq_for(corpus[pos_id]))
                    pool = triple["negative_ids"]
                    if h > 0 and pool:
                        picks = rng.choice(len(pool), size=min(h, len(pool)), replace=False)
                        d_seqs += [seq_for(corpus[pool[i]]) for i in sorted(picks)]
                yield q_seqs, d_seqs, np.array(positives)

    def objective(step, batch):
        q_seqs, d_seqs, positives = batch
        q_reps = encode_reps_tensor(model, q_seqs)
        d_reps = encode_reps_tensor(model, d_seqs)
        rank = splade.rank_loss_t(q_reps, d_reps, positives)
        fq, fd = flops_reg_t(q_reps), flops_reg_t(d_reps)
        total = ad.add(rank, ad.add(ad.scale(fq, cfg.lambda_q), ad.scale(fd, cfg.lambda_d)))

        def reps():
            if empty_rep_fraction(q_reps) == 1.0 and empty_rep_fraction(d_reps) == 1.0:
                warnings.warn(
                    f"step {step}: all representations empty (empty_rep_fraction=1.0); "
                    "training is stalled by dead ReLU units", RuntimeWarning)
            return q_reps, d_reps

        terms = dict(rank_loss=float(rank.data), flops_q=float(fq.data), flops_d=float(fd.data))
        return total, terms, reps

    steps = cfg.epochs * -(-len(triples) // cfg.global_batch_size)
    return model, _train("contrastive", model, batches(), objective, steps, cfg, GRAD_CLIP_NORM)
