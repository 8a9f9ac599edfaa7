"""Report the BLAS kernels the run uses, and fix Hypothesis's examples.

The golden bits depend on the OpenBLAS kernels numpy dispatches to at run
time (OPENBLAS_CORETYPE selects another set), so a failing golden should
show which core it ran under.

Every run draws the same Hypothesis examples and keeps no example database,
so a run neither depends on nor writes .hypothesis/ state. What Hypothesis
still stores (its cache of literals read from the test sources) goes to one
fixed directory under the system temp dir, not into the checkout, unless
HYPOTHESIS_STORAGE_DIRECTORY names another.
"""

import ctypes
import os
import tempfile

import numpy as np
from hypothesis import settings

os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY",
                      os.path.join(tempfile.gettempdir(), "grnnlab-hypothesis"))

settings.register_profile("fixed", derandomize=True, database=None)
settings.load_profile("fixed")


def openblas_core() -> str:
    """The runtime core of numpy's bundled scipy-openblas, or "unknown"."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        corename = lib.scipy_openblas_get_corename64_
    except (AttributeError, OSError):
        return "unknown"
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


def pytest_report_header(config):
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return (f"numpy {np.__version__}, {blas.get('name', 'blas')} "
            f"{blas.get('version', 'unknown')}, OpenBLAS core {openblas_core()}")
