"""The run record: what ran, on what, with which inputs."""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

_BLAS_THREAD_FNS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads")


def blas_info():
    import numpy as np
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    out = {"name": info.get("name"), "version": info.get("version"), "threads": None}
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            libs = {line.split()[-1] for line in f if "blas" in line.lower()}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in _BLAS_THREAD_FNS:
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out["threads"] = fn()
                return out
    return out


def git_commit(root):
    """HEAD of the checkout, read from .git without running git."""
    git = Path(root) / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            ref_file = git / ref
            if ref_file.is_file():
                return ref_file.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return None
        return head
    except OSError:
        return None


def environment(root):
    import numpy as np
    import scipy
    from csplade import _kernels
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
        "nproc": len(os.sched_getaffinity(0)),
        "use_numba": bool(_kernels.USE_NUMBA),
        "git_commit": git_commit(root),
    }
