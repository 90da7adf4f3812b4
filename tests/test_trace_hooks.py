"""The traced benchmark's hooks still find every function they wrap.

``perfbench/tracing.py`` rebinds public functions of the package by name
(``Tracer.install``), so renaming or deleting one of them breaks
``perfbench/run.py --trace 1`` without any other test failing.  The install
runs in a subprocess because it rebinds the modules for the whole process.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import sys
sys.path[:0] = [{perfbench!r}, {src!r}]
import neural_atoms.training
from tracing import Tracer
Tracer().install()
"""


def test_tracer_installs_on_the_package():
    script = SCRIPT.format(perfbench=str(ROOT / "perfbench"), src=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
