"""Two-phase training: adaptation on unlabeled text, then contrastive.

Also holds the AdamW optimizer, the cosine-with-warmup schedule, the
dead-dimension diagnostic, and the batch encode helpers shared with the
CLI inference path.
"""

from __future__ import annotations

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


class TrainingDivergedError(RuntimeError):
    pass


@dataclass
class AdaptConfig:
    steps: int = 500
    batch_size: int = 16
    seq_len: int = 128
    lr: float = 3e-3
    warmup_steps: int = 20
    lambda_relu: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.steps > 0 and self.warmup_steps >= self.steps:
            raise ValueError("warmup_steps must be < steps")
        if self.lambda_relu < 0:
            raise ValueError("lambda_relu must be >= 0")
        if self.seq_len < 2:
            raise ValueError("seq_len must be >= 2 (BOS and EOS)")


@dataclass
class ContrastiveConfig:
    epochs: int = 3
    global_batch_size: int = 8
    hard_negatives_per_positive: int = 3
    lr: float = 2e-3
    warmup_fraction: float = 0.05
    lambda_q: float = 0.003
    lambda_d: float = 0.003
    seed: int = 0

    def __post_init__(self):
        if self.hard_negatives_per_positive < 0:
            raise ValueError("hard_negatives_per_positive must be >= 0")
        if self.lambda_q < 0 or self.lambda_d < 0:
            raise ValueError("FLOPs coefficients must be >= 0")


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
    """Linear warmup to `peak`, then cosine decay to zero."""
    if total_steps <= 0:
        return 0.0
    if warmup_steps > 0 and step < warmup_steps:
        return peak * step / warmup_steps
    if total_steps == warmup_steps:
        return peak
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


def grad_norm(params) -> float:
    """Global L2 norm of the gradients; parameters without a grad are skipped."""
    return float(np.sqrt(sum(float(np.vdot(p.grad, p.grad))
                             for p in params.values() if p.grad is not None)))


def clip_grad_norm(params, max_norm):
    """Scale all gradients so their global L2 norm is <= max_norm.

    Returns the norm before clipping. Each grad is replaced, not scaled in
    place: one array may be the grad of several tensors (see
    autodiff.Tensor._accumulate).
    """
    norm = grad_norm(params)
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


def _nnz_mean(reps: Tensor) -> float:
    return float((reps.data > WEIGHT_FLOOR).sum(axis=1).mean())


def run_adaptation(model: EncoderModel, texts, vocab: Vocabulary, cfg: AdaptConfig):
    """Adapt the model on unlabeled text: CLM plus log-saturated CLM loss."""
    texts = list(texts)
    if not texts:
        raise ValueError("run_adaptation: corpus must be non-empty")
    report = TrainReport()
    if cfg.steps == 0:
        return model, report
    rng = np.random.default_rng(cfg.seed)
    seq_len = min(cfg.seq_len, model.cfg.max_seq_len)
    tokenized = [tokenize(t, vocab, max_len=seq_len) for t in texts]
    optimizer = AdamW(model.params)

    for step in range(cfg.steps):
        picks = rng.integers(0, len(tokenized), size=cfg.batch_size)
        batch = [tokenized[i] for i in picks]
        ids, lengths, span_mask = pack_sequences(batch)
        t0 = time.perf_counter()
        optimizer.zero_grad()
        logits = model.forward_batch(ids, lengths)
        total, clm, relu_clm = adaptation_loss_batch(logits, ids, lengths,
                                                     lambda_relu=cfg.lambda_relu)
        if not np.isfinite(total.data):
            raise TrainingDivergedError(
                f"adaptation step {step}: non-finite loss "
                f"(clm={float(clm.data)}, relu_clm={float(relu_clm.data)})")
        total.backward()
        lr = cosine_lr(step, cfg.steps, cfg.warmup_steps, cfg.lr)
        optimizer.step(lr)
        step_ms = (time.perf_counter() - t0) * 1e3
        with ad.no_grad():  # the sparsity the step's logits pool to
            reps = pool_reps(logits, span_mask)
        report.append(step, clm=float(clm.data), relu_clm=float(relu_clm.data),
                      total=float(total.data), dead_frac=empty_rep_fraction(reps),
                      avg_nnz_d=_nnz_mean(reps), lr=lr, step_ms=step_ms,
                      grad_norm=grad_norm(model.params),  # unclipped
                      dead_dims=dead_dim_fraction(reps))
    return model, report


def run_contrastive(model: EncoderModel, triples, corpus, queries,
                    vocab: Vocabulary, cfg: ContrastiveConfig):
    """Contrastive phase: hard negatives plus all other in-batch documents.

    Texts are echo-expanded when the model's config says so. Before each
    optimizer step the parameter gradients are scaled so that their global
    L2 norm is at most GRAD_CLIP_NORM (Pascanu et al. 2013).
    """
    for t in triples:
        if not t["positive_ids"]:
            raise ValueError(f"triple for {t['query_id']} has no positive")
    report = TrainReport()
    rng = np.random.default_rng(cfg.seed)
    steps_per_epoch = (len(triples) + cfg.global_batch_size - 1) // cfg.global_batch_size
    total_steps = cfg.epochs * steps_per_epoch
    warmup = int(round(cfg.warmup_fraction * total_steps))
    optimizer = AdamW(model.params)
    h = cfg.hard_negatives_per_positive
    step = 0
    seq_cache = {}
    echo = model.cfg.variant == "echo"

    def seq_for(text_map, key):
        if key not in seq_cache:
            seq_cache[key] = prepare_sequence(text_map[key[1]], vocab, model.cfg, echo)
        return seq_cache[key]

    for _ in range(cfg.epochs):
        order = rng.permutation(len(triples))
        for b0 in range(0, len(order), cfg.global_batch_size):
            chosen = order[b0: b0 + cfg.global_batch_size]
            q_seqs, d_seqs, positives = [], [], []
            for ti in chosen:
                triple = triples[ti]
                q_seqs.append(seq_for(queries, ("q", triple["query_id"])))
                pos_id = triple["positive_ids"][0]
                if len(triple["positive_ids"]) > 1:
                    pos_id = triple["positive_ids"][int(rng.integers(len(triple["positive_ids"])))]
                positives.append(len(d_seqs))  # triples may add unequal numbers of docs
                d_seqs.append(seq_for(corpus, ("d", pos_id)))
                pool = triple["negative_ids"]
                if h > 0 and pool:
                    picks = rng.choice(len(pool), size=min(h, len(pool)), replace=False)
                    for i in sorted(picks):
                        d_seqs.append(seq_for(corpus, ("d", pool[i])))

            t0 = time.perf_counter()
            optimizer.zero_grad()
            q_reps = encode_reps_tensor(model, q_seqs)
            d_reps = encode_reps_tensor(model, d_seqs)
            rank = splade.rank_loss_t(q_reps, d_reps, np.array(positives))
            fq = flops_reg_t(q_reps)
            fd = flops_reg_t(d_reps)
            total = ad.add(rank, ad.add(ad.scale(fq, cfg.lambda_q),
                                        ad.scale(fd, cfg.lambda_d)))
            terms = dict(rank_loss=float(rank.data), flops_q=float(fq.data),
                         flops_d=float(fd.data))
            if not np.isfinite(total.data):
                raise TrainingDivergedError(
                    f"contrastive step {step}: non-finite loss "
                    f"({', '.join(f'{k}={v}' for k, v in terms.items())})")
            dead_q = empty_rep_fraction(q_reps)
            dead_d = empty_rep_fraction(d_reps)
            dead = (dead_q * len(q_seqs) + dead_d * len(d_seqs)) / (len(q_seqs) + len(d_seqs))
            if dead_q == 1.0 and dead_d == 1.0:
                warnings.warn(
                    f"step {step}: all representations empty (empty_rep_fraction=1.0); "
                    "training is stalled by dead ReLU units", RuntimeWarning)
            total.backward()
            norm = clip_grad_norm(model.params, GRAD_CLIP_NORM)
            lr = cosine_lr(step, total_steps, warmup, cfg.lr)
            optimizer.step(lr)
            report.append(step, **terms, total=float(total.data), dead_frac=dead,
                          avg_nnz_q=_nnz_mean(q_reps), avg_nnz_d=_nnz_mean(d_reps),
                          lr=lr, step_ms=(time.perf_counter() - t0) * 1e3,
                          grad_norm=norm, dead_dims=dead_dim_fraction(d_reps))
            step += 1
    return model, report
