"""Toy decoder-only transformer with switchable attention masking.

Produces per-position vocabulary logits through a weight-tied LM head.
The config's variant (causal, echo or bi) controls how much right-context
a position sees: echo input and dropping the causal mask are the two
mechanisms that give it some.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

PAD_ID = 0
BOS_ID = 1
EOS_ID = 2
UNK_ID = 3
SEP_ID = BOS_ID  # separator between echo occurrences reuses BOS

# causal: the causal mask; echo: the causal mask over echo-expanded input;
# bi: no mask, every position attends to every other
VARIANTS = ("causal", "echo", "bi")

CHECKPOINT_MAGIC = b"CSPL1"


class SequenceTooLongError(ValueError):
    pass


@dataclass
class EncoderConfig:
    vocab_size: int
    d_model: int = 64
    n_layers: int = 2
    n_heads: int = 4
    max_seq_len: int = 64
    variant: str = "causal"
    seed: int = 0

    def __post_init__(self):
        if self.vocab_size < 4:
            raise ValueError("vocab_size must be >= 4 (PAD/BOS/EOS/UNK reserved)")
        if self.d_model % self.n_heads != 0:
            raise ValueError(f"d_model={self.d_model} not divisible by n_heads={self.n_heads}")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}, expected one of {VARIANTS}")
        if self.variant == "echo" and self.max_seq_len < 2:
            raise ValueError("the echo variant needs max_seq_len >= 2")

    def to_text(self):
        lines = []
        for f in fields(self):
            lines.append(f"{f.name}={getattr(self, f.name)}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text):
        kv = {}
        for line in text.strip().splitlines():
            k, _, v = line.partition("=")
            kv[k] = v
        names = [f.name for f in fields(cls)]
        for name in names:
            if name not in kv:
                raise ValueError(f"encoder config is missing key {name!r}")
        for key, value in kv.items():
            if key not in names:
                raise ValueError(f"encoder config has unknown key {key!r}")
            if key != "variant":
                try:
                    kv[key] = int(value)
                except ValueError:
                    raise ValueError(f"encoder config {key}={value!r} is not an integer") from None
        return cls(**kv)


@dataclass
class TokenSequence:
    """Token ids plus the span of positions eligible for pooling."""

    ids: np.ndarray
    span: tuple  # half-open (start, stop) into ids

    def __post_init__(self):
        self.ids = np.asarray(self.ids, dtype=np.int64)
        start, stop = self.span
        if not (0 <= start <= stop <= len(self.ids)):
            raise ValueError(f"span {self.span} outside sequence of length {len(self.ids)}")

    @property
    def length(self):
        return len(self.ids)


def echo_expand(seq: TokenSequence, max_seq_len: int) -> TokenSequence:
    """[BOS, x.., SEP, x.., EOS] with the span on the second occurrence.

    The second copy attends to the full first copy under a causal mask,
    which is what buys bidirectional context without changing the model.
    """
    ids = seq.ids
    content = ids[(ids != BOS_ID) & (ids != EOS_ID) & (ids != PAD_ID)]
    n = len(content)
    if n == 0:
        raise ValueError("echo_expand: no content tokens to echo")
    total = 2 * n + 3
    if total > max_seq_len:
        raise SequenceTooLongError(
            f"echo_expand: doubled length {total} exceeds max_seq_len {max_seq_len}")
    out = np.concatenate([[BOS_ID], content, [SEP_ID], content, [EOS_ID]]).astype(np.int64)
    return TokenSequence(out, span=(n + 2, 2 * n + 2))


def _init_params(cfg: EncoderConfig):
    """Ordered parameter dict; iteration order is the checkpoint block order."""
    rng = np.random.default_rng(cfg.seed)
    d, v = cfg.d_model, cfg.vocab_size
    proj_std = 0.02 / np.sqrt(cfg.n_layers)

    def p(arr):
        return Tensor(arr.astype(np.float32), requires_grad=True)

    params = {}
    params["tok_emb"] = p(rng.normal(0.0, 0.02, (v, d)))
    params["pos_emb"] = p(rng.normal(0.0, 0.02, (cfg.max_seq_len, d)))
    for i in range(cfg.n_layers):
        pre = f"layer{i}."
        params[pre + "ln1_g"] = p(np.ones(d))
        params[pre + "ln1_b"] = p(np.zeros(d))
        for name in ("wq", "wk", "wv", "wo"):
            params[pre + name] = p(rng.normal(0.0, proj_std, (d, d)))
        for name in ("bq", "bk", "bv", "bo"):
            params[pre + name] = p(np.zeros(d))
        params[pre + "ln2_g"] = p(np.ones(d))
        params[pre + "ln2_b"] = p(np.zeros(d))
        params[pre + "w1"] = p(rng.normal(0.0, proj_std, (d, 4 * d)))
        params[pre + "b1"] = p(np.zeros(4 * d))
        params[pre + "w2"] = p(rng.normal(0.0, proj_std, (4 * d, d)))
        params[pre + "b2"] = p(np.zeros(d))
    params["lnf_g"] = p(np.ones(d))
    params["lnf_b"] = p(np.zeros(d))
    params["logit_bias"] = p(np.zeros(v))
    return params


class EncoderModel:
    """Decoder transformer; LM head is the transposed token embedding."""

    def __init__(self, cfg: EncoderConfig):
        self.cfg = cfg
        self.params = _init_params(cfg)

    def zero_grad(self):
        for p in self.params.values():
            p.zero_grad()

    def apply_logit_offset(self, offset: float):
        """Shift all output logits by a constant.

        With a large negative offset every pooled pre-activation is below
        zero, which reproduces the dead-ReLU initialization failure.
        """
        self.params["logit_bias"].data += np.float32(offset)

    def forward_batch(self, ids: np.ndarray, lengths: np.ndarray) -> Tensor:
        """Batched forward: ids (B, L) padded with PAD -> logits (B, L, V).

        When no graph is being recorded (inside `no_grad()`, or when no
        parameter requires grad) the logits are computed on plain arrays
        and returned as an untracked Tensor, bit-identical to the `.data`
        of the graph path.
        """
        cfg = self.cfg
        ids = np.asarray(ids, dtype=np.int64)
        lengths = np.asarray(lengths, dtype=np.int64)
        b, l = ids.shape
        if l > cfg.max_seq_len:
            raise SequenceTooLongError(f"sequence length {l} exceeds max_seq_len {cfg.max_seq_len}")
        pm = self.params
        banned = self._banned_keys(lengths, l)
        if not ad._needs_grad(*pm.values()):
            return Tensor(self._forward_arrays(ids, banned))

        x = ad.add(ad.embedding(pm["tok_emb"], ids),
                   ad.embedding(pm["pos_emb"], np.broadcast_to(np.arange(l), (b, l))))

        for i in range(cfg.n_layers):
            pre = f"layer{i}."
            hn = ad.layer_norm(x, pm[pre + "ln1_g"], pm[pre + "ln1_b"])
            q = ad.add(ad.matmul(hn, pm[pre + "wq"]), pm[pre + "bq"])
            k = ad.add(ad.matmul(hn, pm[pre + "wk"]), pm[pre + "bk"])
            v = ad.add(ad.matmul(hn, pm[pre + "wv"]), pm[pre + "bv"])
            ctx = ad.attention(q, k, v, banned, cfg.n_heads)
            x = ad.add(x, ad.add(ad.matmul(ctx, pm[pre + "wo"]), pm[pre + "bo"]))

            hn = ad.layer_norm(x, pm[pre + "ln2_g"], pm[pre + "ln2_b"])
            mid = ad.gelu(ad.add(ad.matmul(hn, pm[pre + "w1"]), pm[pre + "b1"]))
            x = ad.add(x, ad.add(ad.matmul(mid, pm[pre + "w2"]), pm[pre + "b2"]))

        x = ad.layer_norm(x, pm["lnf_g"], pm["lnf_b"])
        logits = ad.add(ad.matmul(x, ad.transpose(pm["tok_emb"])), pm["logit_bias"])
        return logits

    def _banned_keys(self, lengths, l):
        """The attention mask of a (B, L) batch: a bool array broadcastable
        to (B, 1, L, L), True where a query may not attend to a key. Keys
        after the query are banned unless the variant is bi, and pad keys
        past a sequence's length always. None when no key is banned."""
        pos = np.arange(l)
        banned = None
        if self.cfg.variant != "bi":
            banned = pos[None, :] > pos[:, None]                   # keys after the query
        if (lengths < l).any():
            pad = (pos >= lengths[:, None])[:, None, None, :]      # (B, 1, 1, L)
            banned = pad if banned is None else pad | banned
        return banned

    def _forward_arrays(self, ids, banned):
        """The forward of `forward_batch` on plain arrays: each op's numpy
        arithmetic, with the B x L positions folded into rows so that every
        projection is one GEMM, and residual and bias adds made in place."""
        cfg = self.cfg
        pm = {name: p.data for name, p in self.params.items()}
        b, l = ids.shape
        d = cfg.d_model

        def affine(h, w, bias):  # h @ w + bias on (rows, .) arrays
            out = h @ pm[w]
            out += pm[bias]
            return out

        x = ad._embedding(pm["tok_emb"], ids)
        x += pm["pos_emb"][:l]
        x = x.reshape(b * l, d)
        for i in range(cfg.n_layers):
            pre = f"layer{i}."
            hn, _ = ad._layer_norm(x, pm[pre + "ln1_g"], pm[pre + "ln1_b"], False)
            q, k, v = (affine(hn, pre + "w" + c, pre + "b" + c).reshape(b, l, d) for c in "qkv")
            ctx, _ = ad._attention(q, k, v, banned, cfg.n_heads)
            x += affine(ctx.reshape(b * l, d), pre + "wo", pre + "bo")

            hn, _ = ad._layer_norm(x, pm[pre + "ln2_g"], pm[pre + "ln2_b"], False)
            mid, _ = ad._gelu(affine(hn, pre + "w1", pre + "b1"), False)
            x += affine(mid, pre + "w2", pre + "b2")

        x, _ = ad._layer_norm(x, pm["lnf_g"], pm["lnf_b"], False)
        logits = x @ pm["tok_emb"].T
        logits += pm["logit_bias"]
        return logits.reshape(b, l, cfg.vocab_size)

    def forward_logits(self, seq: TokenSequence) -> np.ndarray:
        """Single-sequence inference path; returns a (V, L) float array."""
        ids = seq.ids[None, :]
        logits = self.forward_batch(ids, np.array([seq.length]))
        return logits.data[0].T.copy()

    # --- checkpoint format: magic, config key=value block, blank line,
    #     raw little-endian float32 parameter blocks in dict order ---

    def save(self, path):
        with open(path, "wb") as f:
            f.write(CHECKPOINT_MAGIC + b"\n")
            f.write(self.cfg.to_text().encode("utf-8"))
            f.write(b"\n")
            for p in self.params.values():
                f.write(np.ascontiguousarray(p.data, dtype="<f4").tobytes())

    @classmethod
    def load(cls, path):
        with open(path, "rb") as f:
            blob = f.read()
        if not blob.startswith(CHECKPOINT_MAGIC + b"\n"):
            raise ValueError(f"bad checkpoint magic in {path}")
        head_end = blob.find(b"\n\n", len(CHECKPOINT_MAGIC))
        if head_end < 0:
            raise ValueError(f"unterminated config block in checkpoint {path}: "
                             "no blank line after the config")
        cfg = EncoderConfig.from_text(blob[len(CHECKPOINT_MAGIC) + 1:head_end].decode("utf-8"))
        model = cls(cfg)
        buf = io.BytesIO(blob[head_end + 2:])
        for name, p in model.params.items():
            raw = buf.read(p.data.size * 4)
            if len(raw) != p.data.size * 4:
                raise ValueError(f"checkpoint truncated at parameter {name}")
            p.data = np.frombuffer(raw, dtype="<f4").reshape(p.data.shape).astype(np.float32)
        if buf.read(1):
            raise ValueError("trailing bytes after final parameter block")
        return model
