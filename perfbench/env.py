"""Process set-up shared by the benchmark's entry scripts.

Must run before numpy is imported: BLAS reads its thread count from the
environment when it loads.  The benchmark fixes that count itself, so
two commits are measured with the same setting whatever the caller's
environment holds.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

# One BLAS thread: the benchmark measures one stream on one core, and the
# kernels' matrices are too small for BLAS threads to pay for themselves.
BLAS_THREADS = "1"
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

ROOT = Path(__file__).resolve().parent.parent  # checkout root
BUILD = ROOT / ".bench_build"  # weight cache and per-run scratch files
SRC = ROOT / "src"


class MissingSource(Exception):
    """The checkout holds no faceveil package to benchmark."""


def prepare():
    """Pin BLAS threads and put the checkout's own package first on sys.path."""
    if "numpy" in sys.modules:
        raise RuntimeError("env.prepare() must run before numpy is imported")
    for var in _THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    if not (SRC / "faceveil" / "__init__.py").is_file():
        raise MissingSource(f"no faceveil package under {SRC}")
    sys.path.insert(0, str(SRC))
