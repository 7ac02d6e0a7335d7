"""Jitted kernels and their pure-numpy fallbacks must agree exactly."""

import os
import subprocess
import sys

import numpy as np
import pytest

from csplade import _kernels
from csplade._kernels import (_varint_decode_np, _varint_encode_np,
                              varint_decode, varint_encode)


def test_varint_fallback_matches_active_kernel():
    rng = np.random.default_rng(1)
    values = rng.integers(0, 2 ** 32, size=100, dtype=np.uint64)
    out_np = np.empty(values.size * 5 + 1, dtype=np.uint8)
    n = _varint_encode_np(values, out_np)
    assert out_np[:n].tobytes() == varint_encode(values)
    decoded = np.empty(values.size, dtype=np.uint64)
    used = _varint_decode_np(out_np[:n], values.size, decoded)
    assert used == n
    np.testing.assert_array_equal(decoded.astype(np.uint32),
                                  varint_decode(out_np[:n].tobytes(), values.size)[0])


def test_numba_env_flag_selects_fallback():
    """CSPLADE_NUMBA=0 forces the numpy implementations at import time."""
    code = (
        "import csplade._kernels as k\n"
        "assert not k.USE_NUMBA\n"
        "import numpy as np\n"
        "buf = k.varint_encode(np.array([0, 127, 128, 300], dtype=np.uint64))\n"
        "vals, end = k.varint_decode(buf, 4)\n"
        "assert vals.tolist() == [0, 127, 128, 300] and end == len(buf)\n"
    )
    env = dict(os.environ, CSPLADE_NUMBA="0")
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def test_active_path_reports_numba_by_default():
    pytest.importorskip("numba")
    if os.environ.get("CSPLADE_NUMBA", "1") != "0":
        assert _kernels.USE_NUMBA
