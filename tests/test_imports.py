import os
import subprocess
import sys

import grnnlab as g

# The package modules `import grnnlab` loads. Set-up time (perfbench's
# setup_s) is mostly import time, so a module added to this path has to be
# added here on purpose.
IMPORTED = {
    "grnnlab",
    "grnnlab.accumulator",
    "grnnlab.adamw",
    "grnnlab.batching",
    "grnnlab.dropout",
    "grnnlab.dynamics",
    "grnnlab.engine",
    "grnnlab.errors",
    "grnnlab.events",
    "grnnlab.gradcheck",
    "grnnlab.gru",
    "grnnlab.mlp",
    "grnnlab.model",
    "grnnlab.oracles",
    "grnnlab.rng",
    "grnnlab.synthtask",
}

PROBE = """
import sys
import grnnlab
print(" ".join(sorted(m for m in sys.modules if m.split(".")[0] == "grnnlab")))
"""


def test_package_import_loads_the_pinned_modules():
    src = os.path.dirname(os.path.dirname(g.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], capture_output=True, text=True, check=True,
        timeout=60, env={**os.environ, "PYTHONPATH": src},
    )
    assert set(proc.stdout.split()) == IMPORTED
