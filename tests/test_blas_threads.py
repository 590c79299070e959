"""The suite runs on one BLAS thread per process, as a CLI run does:
`conftest.py` imports `fedlora`, which sets the thread variables, before any
test module loads NumPy and its BLAS reads them."""

import os

import numpy  # noqa: F401  (loads the BLAS being read)
import pytest

import fedlora  # noqa: F401  (sets OPENBLAS_NUM_THREADS to 1 unless the caller set it)
from fedlora.cli import loaded_openblas_threads


def test_the_suite_runs_on_one_blas_thread_per_process():
    if os.environ.get("OPENBLAS_NUM_THREADS") != "1":
        pytest.skip("the caller set OPENBLAS_NUM_THREADS")
    threads = loaded_openblas_threads()
    if threads is None:
        pytest.skip("no OpenBLAS entry point among the loaded objects")
    assert threads == 1
