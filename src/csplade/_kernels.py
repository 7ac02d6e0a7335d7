"""Hot inner loop for the index: the varint codec.

Numba-jitted when the optional numba extra is installed, pure numpy
otherwise; set CSPLADE_NUMBA=0 to force the numpy fallbacks (same results,
slower).
"""

from __future__ import annotations

import os

import numpy as np

USE_NUMBA = os.environ.get("CSPLADE_NUMBA", "1") != "0"
if USE_NUMBA:
    try:
        from numba import njit
    except ImportError:  # numba is an optional extra: fall back to numpy
        USE_NUMBA = False

if not USE_NUMBA:
    def njit(*args, **kwargs):
        if args and callable(args[0]):
            return args[0]
        return lambda f: f


@njit(cache=True)
def _varint_encode_jit(values, out):
    pos = 0
    for i in range(values.shape[0]):
        v = values[i]
        while v >= 0x80:
            out[pos] = (v & 0x7F) | 0x80
            v >>= 7
            pos += 1
        out[pos] = v
        pos += 1
    return pos


@njit(cache=True)
def _varint_decode_jit(buf, count, out):
    pos = 0
    for i in range(count):
        result = np.uint64(0)
        shift = np.uint64(0)
        while True:
            if pos >= buf.shape[0]:
                return -1
            byte = buf[pos]
            if shift == np.uint64(63) and byte > 1:  # value past 64 bits
                return -1
            pos += 1
            result |= np.uint64(byte & 0x7F) << shift
            if byte < 0x80:
                break
            shift += np.uint64(7)
        out[i] = result
    return pos


def _varint_encode_np(values, out):
    pos = 0
    for v in values:
        v = int(v)
        while v >= 0x80:
            out[pos] = (v & 0x7F) | 0x80
            v >>= 7
            pos += 1
        out[pos] = v
        pos += 1
    return pos


def _varint_decode_np(buf, count, out):
    pos = 0
    for i in range(count):
        result = 0
        shift = 0
        while True:
            if pos >= buf.shape[0]:
                return -1
            byte = int(buf[pos])  # plain int: uint8 would overflow on << shift
            if shift == 63 and byte > 1:  # value past 64 bits
                return -1
            pos += 1
            result |= (byte & 0x7F) << shift
            if byte < 0x80:
                break
            shift += 7
        out[i] = result
    return pos


if USE_NUMBA:
    _varint_encode = _varint_encode_jit
    _varint_decode = _varint_decode_jit
else:
    _varint_encode = _varint_encode_np
    _varint_decode = _varint_decode_np


def varint_encode(values: np.ndarray) -> bytes:
    """Encode uint64 values as LEB128 bytes (at most ten bytes each)."""
    values = np.ascontiguousarray(values, dtype=np.uint64)
    out = np.empty(values.size * 10 + 1, dtype=np.uint8)
    n = _varint_encode(values, out)
    return out[:n].tobytes()


def varint_decode(buf: bytes, count: int, offset: int = 0):
    """Decode `count` values starting at byte `offset`; returns (uint64
    values, end).

    Raises ValueError when the buffer ends inside a value or a value does
    not fit in 64 bits.
    """
    arr = np.frombuffer(buf, dtype=np.uint8)[offset:]
    out = np.empty(count, dtype=np.uint64)
    used = _varint_decode(arr, count, out)
    if used < 0:
        raise ValueError(f"truncated or overlong varint after byte {offset}")
    return out, offset + used
