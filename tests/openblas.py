"""numpy's bundled OpenBLAS, held to one thread where a test needs its bits."""

import contextlib
import ctypes

import numpy as np

_NUMPY_BLAS = ctypes.CDLL(np._core._multiarray_umath.__file__)


@contextlib.contextmanager
def one_blas_thread():
    """numpy's bundled OpenBLAS on one thread for the block.  On more, a
    ``gemv`` of 460,800 entries or more is split across them, each part
    grouping its rows from its own first row, so the whole product's bits
    depend on the thread count (a (601, 1000) product on 2 threads: row 300)."""
    get = _NUMPY_BLAS.scipy_openblas_get_num_threads64_
    put = _NUMPY_BLAS.scipy_openblas_set_num_threads64_
    threads = get()
    put(1)
    try:
        yield
    finally:
        put(threads)
