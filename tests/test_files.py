"""Output files replace the previous ones only once they are complete."""

from contextlib import contextmanager

import numpy as np
import pytest

from neural_atoms import ewald, graphs, neural_atom
from neural_atoms.files import replacing
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


# command whose output the writer makes: (module holding the writer, a call of it)
WRITERS = {
    "generate": (graphs, lambda path: graphs.save_dataset(
        generate_lri_task(4, 5, 3, seed=0), path)),
    "export-alloc": (neural_atom, lambda path: neural_atom.write_allocation_csv(
        np.random.default_rng(0).random((5, 3)), path)),
    "ewald": (ewald, lambda path: ewald.write_interaction_heatmap(
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


def test_replacing_creates_the_directory_and_round_trips(tmp_path):
    path = tmp_path / "a" / "b" / "data.jsonl"
    graphs.save_dataset(generate_lri_task(4, 5, 3, seed=2), path)
    assert len(load_dataset(path)) == 4
    assert [p.name for p in path.parent.iterdir()] == ["data.jsonl"]
