"""The golden tables of a second OpenBLAS core, checked on this host."""

import os
import subprocess
import sys

import grnnlab as g


def test_goldens_hold_under_haswell_kernels():
    # test_golden.py in a child whose OpenBLAS runs its Haswell (AVX2)
    # kernels, so it checks the Haswell tables
    src = os.path.dirname(os.path.dirname(g.__file__))
    golden = os.path.join(os.path.dirname(__file__), "test_golden.py")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", golden],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": src, "OPENBLAS_CORETYPE": "Haswell"},
    )
    assert "OpenBLAS core Haswell" in proc.stdout, proc.stdout
    assert proc.returncode == 0, proc.stdout
