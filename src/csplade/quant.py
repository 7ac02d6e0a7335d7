"""Calibration-free weight-only quantization.

Symmetric linear quantization: int8 uses one scale per row (channel),
int4 uses one scale per group of 32 values within a row and stores its
codes two to a byte. A quantized model runs on its dequantized float32
weights, so it saves parameter bytes (`param_bytes`), not time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
        if self.group_size < 1:
            raise ValueError(f"group_size must be >= 1, got {self.group_size}")


def _quantize_array(w, cfg: QuantConfig):
    """Returns (codes, float32 scales, one per row or group). int8 codes
    are one int8 per weight; int4 codes are uint8 bytes holding two codes
    each (see _pack_int4)."""
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
    if cfg.bits == 4:
        codes = _pack_int4(codes)
    return codes, scales.astype(np.float32)


def _pack_int4(codes):
    """int8 codes in [-8, 7], in C order, as 4-bit two's complement, two
    to a byte, the first in the low nibble; an odd count pads a zero."""
    nibbles = np.append(codes.ravel(), np.zeros(codes.size % 2, np.int8)).view(np.uint8) & 0xF
    return nibbles[0::2] | (nibbles[1::2] << 4)


def _unpack_int4(packed, count):
    codes = np.empty(2 * packed.size, dtype=np.int8)
    codes[0::2] = packed & 0xF
    codes[1::2] = packed >> 4
    return ((codes ^ 8) - 8)[:count]  # sign-extend the 4-bit codes


def _dequantize_array(codes, scales, shape):
    if codes.dtype == np.uint8:  # packed int4: one row of codes per scale
        codes = _unpack_int4(codes, math.prod(shape)).reshape(scales.shape[0], -1)
    return (codes.astype(np.float32) * scales).reshape(shape)


class QuantizedModel:
    """Weight-only quantized encoder; 1-D params (norms, biases) stay fp32."""

    def __init__(self, cfg: EncoderConfig, qcfg: QuantConfig, blocks, fp_params):
        self.cfg = cfg
        self.qcfg = qcfg
        self.blocks = blocks        # name -> (codes, scales, shape)
        self.fp_params = fp_params  # name -> float32 array

    def param_bytes(self):
        """The bytes the model holds: codes, scales and float32 params."""
        return (sum(codes.nbytes + scales.nbytes for codes, scales, _ in self.blocks.values())
                + sum(arr.nbytes for arr in self.fp_params.values()))

    def dequantized_model(self) -> EncoderModel:
        arrays = {name: _dequantize_array(*block) for name, block in self.blocks.items()}
        return EncoderModel.from_arrays(self.cfg, {**arrays, **self.fp_params})


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

