"""The index's varint codec: unsigned LEB128, seven bits per byte, low
group first, the high bit set on every byte but a value's last.

Every caller codes one or two values at a time (a posting-list header or a
doc-table record), so a plain per-byte loop is the fastest form here.
"""

from __future__ import annotations

import numpy as np

# Always False: no accelerated codec exists. Kept because perfbench/record.py
# reads it into the benchmark's run record.
USE_NUMBA = False


def varint_encode(values: np.ndarray) -> bytes:
    """Encode uint64 values as LEB128 bytes (at most ten bytes each)."""
    out = bytearray()
    for v in np.ascontiguousarray(values, dtype=np.uint64).tolist():
        while v >= 0x80:
            out.append((v & 0x7F) | 0x80)
            v >>= 7
        out.append(v)
    return bytes(out)


def varint_decode(buf: bytes, count: int, offset: int = 0):
    """Decode `count` values starting at byte `offset`; returns (uint64
    values, end).

    Raises ValueError when the buffer ends inside a value or a value does
    not fit in 64 bits.
    """
    values = []
    pos = offset
    for _ in range(count):
        value = shift = 0
        while True:
            if pos >= len(buf) or (shift == 63 and buf[pos] > 1):
                raise ValueError(f"truncated or overlong varint after byte {offset}")
            byte = buf[pos]
            pos += 1
            value |= (byte & 0x7F) << shift
            if byte < 0x80:
                break
            shift += 7
        values.append(value)
    return np.array(values, dtype=np.uint64), pos
