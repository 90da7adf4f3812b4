"""numpy is the package's one runtime dependency: no module imports anything else
outside the standard library, ``pyproject.toml`` lists exactly what is imported,
and every command and the slot-form GIN forward run where scipy cannot load."""

import ast
import inspect
import re
import subprocess
import sys
import tomllib
from pathlib import Path

import neural_atoms
from helpers import contact_like_graph

PACKAGE = Path(neural_atoms.__file__).parent
ROOT = PACKAGE.parents[1]


def imported_top_level_modules(path: Path) -> set[str]:
    """Top-level names of the absolute imports anywhere in ``path``."""
    modules = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            modules.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.add(node.module.split(".")[0])
    return modules


def test_package_imports_only_the_standard_library_numpy_and_itself():
    modules = set().union(*map(imported_top_level_modules, sorted(PACKAGE.glob("*.py"))))
    third_party = modules - sys.stdlib_module_names - {"neural_atoms"}
    assert third_party == {"numpy"}
    with open(ROOT / "pyproject.toml", "rb") as fh:
        requirements = tomllib.load(fh)["project"]["dependencies"]
    assert {re.match(r"[A-Za-z0-9_.-]+", line).group() for line in requirements} == third_party


def test_a_function_local_import_is_found(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("import os.path\nfrom . import files\n"
                      "def f():\n    from scipy.special import erfc\n", encoding="utf-8")
    assert imported_top_level_modules(module) == {"os", "scipy"}


NO_SCIPY_SCRIPT = """
import json, sys
sys.modules["scipy"] = None
sys.path[:0] = [{src!r}]
import numpy as np
from neural_atoms.autodiff import SlotMatrix, Tensor
from neural_atoms.cli import main
from neural_atoms.gnn import MlpParams, gin_forward
from neural_atoms.graphs import MolecularGraph, batch_graphs
{contact_like_graph}
work = sys.argv[1]
with open(work + "/system.json", "w", encoding="utf-8") as fh:
    json.dump({{"Z": [1, -1], "positions": [[0.1, 0.1, 0.1], [0.6, 0.6, 0.6]],
               "cell_edge": 1.0, "a": 0.4, "real_cutoff": 2, "recip_cutoff": 2}}, fh)
data, run = work + "/tiny.jsonl", work + "/run"
for argv in (["generate", "--out", data, "--graphs", "8", "--path-len", "5", "--colors", "3"],
             ["train", "--dataset", data, "--out", run, "--augment", "neural-atoms",
              "--layers", "2", "--hidden", "8", "--heads", "2", "--proportion", "0.5",
              "--epochs", "1", "--batch", "4"],
             ["evaluate", "--checkpoint", run + "/checkpoint.json", "--dataset", data],
             ["export-alloc", "--checkpoint", run + "/checkpoint.json", "--dataset", data,
              "--out", work + "/alloc"],
             ["ewald", "--system", work + "/system.json", "--out", work + "/matrix.csv"]):
    assert main(argv) == 0, argv
rng = np.random.default_rng(0)
graphs = [contact_like_graph(rng, int(n)) for n in rng.integers(40, 161, 64)]
batch = batch_graphs(graphs)
assert isinstance(batch.closed_neighborhood(normalised=False), SlotMatrix)
gin_forward(Tensor(batch.node_features), batch, MlpParams.init(4, 8, 8, rng))
"""


def test_every_command_and_the_slot_forward_run_without_scipy(tmp_path):
    # a fresh process, since this one has imported scipy for the test oracles
    script = NO_SCIPY_SCRIPT.format(src=str(PACKAGE.parent),
                                    contact_like_graph=inspect.getsource(contact_like_graph))
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path)], capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert {p.name for p in tmp_path.iterdir()} == {"system.json", "tiny.jsonl", "run", "alloc",
                                                   "matrix.csv"}
