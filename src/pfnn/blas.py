"""The BLAS facts a run's bytes depend on, read from numpy's bundled OpenBLAS.

GEMM results are bit-reproducible for one numpy build, one OpenBLAS
kernel and one BLAS thread count. ``pfnn train`` writes all three to
run.log; a numpy without a bundled scipy-openblas reads ``unknown``.
"""

from __future__ import annotations

import ctypes
from pathlib import Path

import numpy as np


def _openblas_function(name: str, restype):
    """``name`` from the OpenBLAS that numpy loaded, or None where numpy
    bundles none."""
    libs = sorted(Path(np.__file__).parent.parent.glob("numpy.libs/libscipy_openblas64_*.so"))
    if not libs:
        return None
    try:
        fn = getattr(ctypes.CDLL(str(libs[0])), name)
    except (OSError, AttributeError):
        return None
    fn.argtypes, fn.restype = [], restype
    return fn


def openblas_kernel() -> str:
    """The kernel OpenBLAS picked for this CPU (or by ``OPENBLAS_CORETYPE``)."""
    corename = _openblas_function("scipy_openblas_get_corename64_", ctypes.c_char_p)
    return corename().decode() if corename else "unknown"


def openblas_threads() -> str:
    """OpenBLAS's thread count (``OPENBLAS_NUM_THREADS`` pins it)."""
    threads = _openblas_function("scipy_openblas_get_num_threads64_", ctypes.c_int)
    return str(threads()) if threads else "unknown"


def blas_environment() -> str:
    """numpy version, OpenBLAS kernel and thread count, as one log field list."""
    return f"numpy={np.__version__} openblas_kernel={openblas_kernel()} blas_threads={openblas_threads()}"
