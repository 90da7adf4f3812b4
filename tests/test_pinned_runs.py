"""Two tiny seeded training runs pinned against files an earlier version wrote.

Each run's dataset is generated here; its ``metrics.csv`` and
``checkpoint.json`` are committed under ``tests/data/<run>/``.  A skipped,
repeated or reordered batch moves the history and the weights; a different
BLAS build moves them by far less than the 1e-9 relative tolerance.

To rewrite the files after a deliberate change of what training computes:

    PYTHONPATH=src:tests python -c "import test_pinned_runs as t; t.write_pinned_runs()"
"""

import csv
import json
import os
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest

from neural_atoms.graphs import MolecularGraph, generate_lri_task, save_dataset
from neural_atoms.model import TrainConfig
from neural_atoms.training import train

DATA = Path(__file__).resolve().parent / "data"
RTOL = 1e-9


def contact_graphs(count, seed):
    """Ragged chains with a few cross links, each with two or more labelled pairs."""
    rng = np.random.default_rng(seed)
    graphs = []
    for _ in range(count):
        n = int(rng.integers(5, 11))
        edges = [(i, i + 1) for i in range(n - 1)] + [(0, int(rng.integers(2, n)))]
        pairs = [(0, 2, 1), (1, n - 1, 0), (2, n - 2, 0), (int(rng.integers(3, n - 1)), n - 1, 1)]
        graphs.append(MolecularGraph(num_nodes=n, edges=edges,
                                     node_features=rng.normal(size=(n, 3)), pair_labels=pairs))
    return graphs


# run name -> (graphs of its dataset, TrainConfig fields besides dataset and out)
PINNED_RUNS = {
    "gcn-atoms-lri": (lambda: generate_lri_task(26, 6, 3, seed=5),
                      dict(augment="neural-atoms", layers=2, hidden=4, heads=2, proportion=0.5,
                           epochs=3, lr=0.02, batch=4, seed=3)),
    "gin-vnode-contact": (lambda: contact_graphs(11, seed=8),
                          dict(backbone="gin", augment="virtual-node", virtual_nodes=2,
                               task="pair-contact", layers=2, hidden=4, epochs=3, lr=0.02,
                               batch=3, seed=2)),
}


def run_pinned(name, directory):
    """Train run ``name`` inside ``directory`` with relative paths; return its out dir."""
    make_graphs, fields = PINNED_RUNS[name]
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    here = os.getcwd()
    os.chdir(directory)
    try:
        save_dataset(make_graphs(), "train.jsonl")
        train(TrainConfig(dataset="train.jsonl", out="out", **fields))
    finally:
        os.chdir(here)
    return directory / "out"


def write_pinned_runs():
    """Regenerate the committed files from the current code."""
    for name in PINNED_RUNS:
        with tempfile.TemporaryDirectory() as scratch:
            out = run_pinned(name, scratch)
            (DATA / name).mkdir(exist_ok=True)
            for file in ("metrics.csv", "checkpoint.json"):
                shutil.copyfile(out / file, DATA / name / file)


def read_rows(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def assert_history_matches(got, want):
    """Same (epoch, split, metric) rows in the same order; values to RTOL."""
    assert [row[:3] for row in got] == [row[:3] for row in want]
    np.testing.assert_allclose([float(row[3]) for row in got], [float(row[3]) for row in want],
                               rtol=RTOL, atol=0)


@pytest.mark.parametrize("name", list(PINNED_RUNS))
def test_training_reproduces_the_pinned_run(tmp_path, name):
    out = run_pinned(name, tmp_path)
    got_rows, want_rows = read_rows(out / "metrics.csv"), read_rows(DATA / name / "metrics.csv")
    assert got_rows[0] == want_rows[0]
    assert_history_matches(got_rows[1:], want_rows[1:])

    got = json.loads((out / "checkpoint.json").read_text(encoding="utf-8"))
    want = json.loads((DATA / name / "checkpoint.json").read_text(encoding="utf-8"))
    for key in ("config", "feature_dim", "out_dim", "avg_nodes", "epoch"):
        assert got[key] == want[key], key
    assert_history_matches(got["history"], want["history"])
    assert list(got["params"]) == list(want["params"])
    for param, entry in want["params"].items():
        assert got["params"][param]["shape"] == entry["shape"], param
        np.testing.assert_allclose(got["params"][param]["data"], entry["data"],
                                   rtol=RTOL, atol=0, err_msg=param)
