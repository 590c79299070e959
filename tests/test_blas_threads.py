"""The suite runs on one BLAS thread per process, as a CLI run does:
`conftest.py` imports `fedlora`, which sets the thread variables, before any
test module loads NumPy and its BLAS reads them."""

import ctypes
import os

import numpy  # noqa: F401  (loads the BLAS being read)
import pytest

import fedlora  # noqa: F401  (sets OPENBLAS_NUM_THREADS to 1 unless the caller set it)

GET_THREADS = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
               "openblas_get_num_threads")


def loaded_openblas_threads():
    """The thread count of the OpenBLAS loaded in this process, or None if no
    loaded object has an OpenBLAS get-threads entry point."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in GET_THREADS:
            if hasattr(lib, name):
                get_threads = getattr(lib, name)
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                return get_threads()
    return None


def test_the_suite_runs_on_one_blas_thread_per_process():
    if os.environ.get("OPENBLAS_NUM_THREADS") != "1":
        pytest.skip("the caller set OPENBLAS_NUM_THREADS")
    threads = loaded_openblas_threads()
    if threads is None:
        pytest.skip("no OpenBLAS entry point among the loaded objects")
    assert threads == 1
