"""Thread pinning and the environment record printed with every run."""

from __future__ import annotations

import importlib.util
import os
import platform
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> None:
    """One BLAS/OpenMP thread; takes effect only if numpy is not yet imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def _git_commit(root: Path) -> str:
    """HEAD of ``root/.git`` if present; never searches parent directories."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas_version(np) -> str:
    try:
        return str(np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"])
    except Exception:  # the build-info layout differs across numpy releases
        return "unknown"


def _backend() -> str:
    try:
        from eccbounds import _kernels
    except ImportError:  # a later layout may drop the kernel module
        return "none"
    return str(getattr(_kernels, "BACKEND", "unknown"))


def describe(root: Path) -> dict[str, object]:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_version(np),
        "backend": _backend(),
        "numba": importlib.util.find_spec("numba") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "commit": _git_commit(root),
        "loop": "closed",
        "clients": 1,
    }
