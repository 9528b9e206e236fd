import os

import numpy as np

try:
    from numpy._core import _multiarray_umath as _umath
except ImportError:  # numpy 1.x
    from numpy.core import _multiarray_umath as _umath

# the BLAS thread count sets the last digits of the Platt fit's dot products
_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def pytest_report_header(config):
    """The numpy build, SIMD kernels and thread settings that the pinned
    digests and golden fits depend on."""
    simd = [t for t in _umath.__cpu_dispatch__ if _umath.__cpu_features__.get(t)]
    threads = " ".join(f"{v}={os.environ.get(v, '(unset)')}" for v in _THREAD_VARS)
    return [
        f"numpy {np.__version__}, SIMD {'+'.join(simd) or 'baseline'}",
        f"threads: {threads}",
    ]
