"""The benchmark's own output checks, run for one second on each workload.

``perfbench/run.py`` ends every run by checking its last round: batched
against one-graph outputs, the gradient against finite differences, the
checkpoint round trip and, for the atom workload, the allocations.  A
traced run times the calls into each module as well.  Each run here must
end with ``"correct": true`` and no failed operation.  It writes only under
``perfbench/out/``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


@pytest.mark.parametrize("workload, trace", [("lri-atoms", 1), ("lri-vnode", 0),
                                             ("contact-gin", 0)])
def test_one_second_run_passes_its_checks(workload, trace):
    done = subprocess.run([sys.executable, str(RUN), "--workload", workload, "--seconds", "1",
                           "--seed", "9001", "--trace", str(trace)],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert last["correct"] is True, done.stderr
    assert last["failed"] == 0
