"""Calibration-free weight-only quantization and an encode-latency benchmark.

Symmetric linear quantization: int8 uses one scale per row (channel),
int4 uses one scale per group of 32 values within a row. Activations
stay float32; the forward contract matches the full-precision model.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .autodiff import no_grad
from .encoder import EncoderConfig, EncoderModel

PER_CHANNEL = "per-channel"
GROUPWISE = "group-wise"


@dataclass
class QuantConfig:
    bits: int = 8
    granularity: str = PER_CHANNEL
    group_size: int = 32

    def __post_init__(self):
        if self.bits not in (4, 8):
            raise ValueError("bits must be 4 or 8")
        if self.granularity not in (PER_CHANNEL, GROUPWISE):
            raise ValueError(f"unknown granularity {self.granularity!r}")

    def describe(self):
        return f"int{self.bits}-{self.granularity}"


def _quantize_array(w, cfg: QuantConfig):
    """Returns (int8 codes, scales, group shape info)."""
    qmax = 2 ** (cfg.bits - 1) - 1
    if cfg.granularity == PER_CHANNEL:
        groups = w.reshape(w.shape[0], -1)
    else:
        if w.shape[-1] % cfg.group_size != 0:
            raise ValueError(
                f"group_size {cfg.group_size} does not divide axis length {w.shape[-1]}")
        groups = w.reshape(-1, cfg.group_size)
    scales = np.abs(groups).max(axis=1, keepdims=True) / qmax
    scales[scales == 0] = 1.0  # all-zero group: any scale maps 0 -> 0
    codes = np.clip(np.round(groups / scales), -qmax, qmax).astype(np.int8)
    return codes, scales.astype(np.float32)


def _dequantize_array(codes, scales, shape):
    return (codes.astype(np.float32) * scales).reshape(shape)


class QuantizedModel:
    """Weight-only quantized encoder; 1-D params (norms, biases) stay fp32."""

    def __init__(self, cfg: EncoderConfig, qcfg: QuantConfig, blocks, fp_params):
        self.cfg = cfg
        self.qcfg = qcfg
        self.blocks = blocks        # name -> (codes, scales, shape)
        self.fp_params = fp_params  # name -> float32 array
        self._dequantized = None

    def param_bytes(self):
        total = 0
        for codes, scales, _ in self.blocks.values():
            total += codes.size * (0.5 if self.qcfg.bits == 4 else 1)
            total += scales.size * 4
        for arr in self.fp_params.values():
            total += arr.size * 4
        return int(total)

    def dequantized_model(self) -> EncoderModel:
        if self._dequantized is None:
            arrays = {name: _dequantize_array(*block) for name, block in self.blocks.items()}
            self._dequantized = EncoderModel.from_arrays(self.cfg, {**arrays, **self.fp_params})
        return self._dequantized


def quantize_weights(model: EncoderModel, cfg: QuantConfig) -> QuantizedModel:
    blocks = {}
    fp_params = {}
    for name, p in model.params.items():
        if not np.isfinite(p.data).all():
            raise ValueError(f"non-finite weights in {name}")
        if p.data.ndim >= 2:
            codes, scales = _quantize_array(p.data, cfg)
            blocks[name] = (codes, scales, p.data.shape)
        else:
            fp_params[name] = p.data.astype(np.float32).copy()
    return QuantizedModel(model.cfg, cfg, blocks, fp_params)


@dataclass
class LatencyReport:
    config: str
    bits: int
    granularity: str
    qps: float
    p50_ms: float
    p95_ms: float
    mem_bytes: int
    # the arithmetic the timed forward runs: quantized weights are
    # dequantized first, so every config computes in float32
    compute: str = "fp32"

    def csv_row(self):
        return (f"{self.config},{self.bits},{self.granularity},{self.compute},"
                f"{self.qps:.2f},{self.p50_ms:.3f},{self.p95_ms:.3f},{self.mem_bytes}")


CSV_HEADER = "config,bits,granularity,compute,qps,p50_ms,p95_ms,mem_bytes"


def bench_encode(model, queries, warmup_iters=5, measure_iters=30,
                 config_name=None) -> LatencyReport:
    """Wall-clock encode-only benchmark over pre-tokenized queries, one
    forward per query.

    `model` is either an EncoderModel or a QuantizedModel; tokenization is
    excluded by construction (queries are TokenSequence objects).
    """
    if measure_iters < 30:
        raise ValueError("measure_iters must be >= 30")
    if isinstance(model, QuantizedModel):
        fwd_model = model.dequantized_model()
        bits = model.qcfg.bits
        gran = model.qcfg.granularity
        mem = model.param_bytes()
        name = config_name or model.qcfg.describe()
    else:
        fwd_model = model
        bits, gran = 32, "none"
        mem = int(sum(p.data.size * 4 for p in model.params.values()))
        name = config_name or "fp32"

    seqs = list(queries)
    per_query_ms = np.empty(measure_iters)
    with no_grad():
        for i in range(warmup_iters):
            fwd_model.forward_logits(seqs[i % len(seqs)])
        start_all = time.perf_counter()
        for i in range(measure_iters):
            t0 = time.perf_counter()
            fwd_model.forward_logits(seqs[i % len(seqs)])
            per_query_ms[i] = (time.perf_counter() - t0) * 1e3
        elapsed = time.perf_counter() - start_all
    return LatencyReport(
        config=name,
        bits=bits,
        granularity=gran,
        qps=measure_iters / elapsed,
        p50_ms=float(np.percentile(per_query_ms, 50)),
        p95_ms=float(np.percentile(per_query_ms, 95)),
        mem_bytes=mem,
    )
