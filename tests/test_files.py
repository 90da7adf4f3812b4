"""The file formats: tables and datasets replace the previous file only once
they are complete, and a dataset that is not UTF-8 is refused."""

import re
from contextlib import contextmanager

import numpy as np
import pytest

from neural_atoms import ewald, files, graphs
from neural_atoms.files import replacing, write_table
from neural_atoms.graphs import DatasetError, MolecularGraph, generate_lri_task, load_dataset
from test_ewald import balanced_dipole_free_system


class FailingWriter:
    """Passes on the first write, then fails, as a disk that fills up midway."""

    def __init__(self, fh):
        self.fh, self.writes = fh, 0

    def write(self, text):
        if self.writes:
            raise OSError("disk full")
        self.writes += 1
        return self.fh.write(text)


# command whose output the writer makes: (module whose `replacing` it calls, a call of it)
WRITERS = {
    "generate": (graphs, lambda path: graphs.save_dataset(
        generate_lri_task(4, 5, 3, seed=0), path)),
    "export-alloc": (files, lambda path: write_table(
        path, ["node", "atom_0", "atom_1", "atom_2"],
        ([i] + row for i, row in enumerate(np.random.default_rng(0).random((5, 3)).tolist())))),
    "ewald": (files, lambda path: ewald.write_interaction_heatmap(
        ewald.ewald_sum_matrix(balanced_dipole_free_system(9, splitting=0.4)), 0.0, path)),
}


def previous_file(tmp_path):
    path = tmp_path / "out" / "file.txt"
    path.parent.mkdir()
    path.write_text("previous\n")
    return path


@pytest.mark.parametrize("command", sorted(WRITERS))
def test_write_failing_midway_keeps_previous_file(tmp_path, monkeypatch, command):
    module, write = WRITERS[command]
    path = previous_file(tmp_path)

    @contextmanager
    def failing(target, newline=None):
        with replacing(target, newline) as fh:
            yield FailingWriter(fh)

    with monkeypatch.context() as patch:
        patch.setattr(module, "replacing", failing)
        with pytest.raises(OSError, match="disk full"):
            write(path)
    assert path.read_text() == "previous\n"
    assert [p.name for p in path.parent.iterdir()] == ["file.txt"]
    write(path)
    assert path.read_text().count("\n") > 2
    assert [p.name for p in path.parent.iterdir()] == ["file.txt"]


def test_unlabeled_graph_keeps_previous_dataset(tmp_path):
    path = previous_file(tmp_path)
    unlabeled = MolecularGraph(2, [(0, 1)], np.ones((2, 1)))
    with pytest.raises(DatasetError, match="no label"):
        graphs.save_dataset(generate_lri_task(3, 4, 2, seed=1) + [unlabeled], path)
    assert path.read_text() == "previous\n"
    assert [p.name for p in path.parent.iterdir()] == ["file.txt"]


def test_graph_with_both_label_kinds_keeps_previous_dataset(tmp_path):
    path = previous_file(tmp_path)
    both = MolecularGraph(2, [(0, 1)], np.ones((2, 1)), graph_label=1, pair_labels=[(0, 1, 1)])
    with pytest.raises(DatasetError, match="both graph_label and pair_labels"):
        graphs.save_dataset(generate_lri_task(3, 4, 2, seed=1) + [both], path)
    assert path.read_text() == "previous\n"
    assert [p.name for p in path.parent.iterdir()] == ["file.txt"]


def test_replacing_creates_the_directory_and_round_trips(tmp_path):
    path = tmp_path / "a" / "b" / "data.jsonl"
    graphs.save_dataset(generate_lri_task(4, 5, 3, seed=2), path)
    assert len(load_dataset(path)) == 4
    assert [p.name for p in path.parent.iterdir()] == ["data.jsonl"]


def test_allocation_csv_round_trips(tmp_path):
    rng = np.random.default_rng(4)
    alloc = rng.random(size=(6, 3))
    path = tmp_path / "alloc.csv"
    write_table(path, ["node", "atom_0", "atom_1", "atom_2"],
                ([i] + list(row) for i, row in enumerate(alloc)))
    rows_ = path.read_text().strip().split("\n")
    assert rows_[0] == "node,atom_0,atom_1,atom_2"
    assert len(rows_) == 7
    parsed = np.array([[float(v) for v in line.split(",")[1:]] for line in rows_[1:]])
    np.testing.assert_array_equal(parsed, alloc)


def test_table_writes_floats_as_repr_and_other_cells_as_csv_does(tmp_path):
    path = tmp_path / "table.csv"
    third = 1.0 / 3.0
    write_table(path, ["a", 1, "b c"],
                [[0, "train", third, np.float64(third), np.float32(0.1), True, None, "x,y"]])
    assert path.read_bytes() == (
        b"a,1,b c\r\n"
        + f'0,train,{third!r},{third!r},{float(np.float32(0.1))!r},True,,"x,y"\r\n'.encode())


def test_dataset_that_is_not_utf8_names_the_file(tmp_path):
    path = tmp_path / "data.jsonl"
    graphs.save_dataset(generate_lri_task(3, 4, 2, seed=1), path)
    path.write_bytes(path.read_bytes() + b'{"num_nodes": "\xff"}\n')
    with pytest.raises(DatasetError, match=re.escape(f"dataset {path} is not UTF-8 text")):
        load_dataset(path)
