"""End-to-end tests of the command line interface."""

import csv
import inspect
import json
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from neural_atoms import cli
from neural_atoms.cli import main
from neural_atoms.graphs import MolecularGraph, load_dataset, save_dataset
from neural_atoms.model import TrainConfig
from helpers import contact_like_graph


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture()
def tiny_dataset(tmp_path):
    path = tmp_path / "tiny.jsonl"
    code = run_cli("generate", "--out", str(path), "--graphs", "16",
                   "--path-len", "5", "--colors", "3", "--seed", "2")
    assert code == 0
    return path


@pytest.fixture()
def trained_na_checkpoint(tmp_path, tiny_dataset):
    out = tmp_path / "na_run"
    code = run_cli("train", "--dataset", str(tiny_dataset), "--out", str(out),
                   "--augment", "neural-atoms", "--layers", "2", "--hidden", "8",
                   "--heads", "2", "--proportion", "0.5", "--epochs", "1",
                   "--batch", "8", "--seed", "1")
    assert code == 0
    return out / "checkpoint.json"


class TestGenerate:
    def test_writes_loadable_balanced_dataset(self, tiny_dataset):
        graphs = load_dataset(tiny_dataset)
        assert len(graphs) == 16
        assert sum(g.graph_label for g in graphs) == 8

    @pytest.mark.parametrize("flag, value, field", [
        ("--seed", "-1", "seed"), ("--path-len", "1", "path_len"), ("--colors", "1", "colors")])
    def test_bad_arguments_are_exit_one_naming_the_field(self, tmp_path, capsys, flag, value,
                                                         field):
        path = tmp_path / "bad.jsonl"
        assert run_cli("generate", "--out", str(path), "--graphs", "4", flag, value) == 1
        assert field in capsys.readouterr().err
        assert not path.exists()

    def test_same_seed_same_bytes(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        run_cli("generate", "--out", str(a), "--graphs", "10", "--seed", "5")
        run_cli("generate", "--out", str(b), "--graphs", "10", "--seed", "5")
        assert a.read_bytes() == b.read_bytes()


class TestTrain:
    def test_config_file_plus_flag_override(self, tmp_path, tiny_dataset):
        config = {"dataset": str(tiny_dataset), "out": str(tmp_path / "from_file"),
                  "layers": 2, "hidden": 8, "epochs": 3, "batch": 8}
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        out = tmp_path / "overridden"
        code = run_cli("train", "--config", str(config_path),
                       "--epochs", "1", "--out", str(out))
        assert code == 0
        record = json.loads((out / "checkpoint.json").read_text())
        assert record["config"]["epochs"] == 1
        assert record["config"]["hidden"] == 8

    def test_missing_dataset_is_a_clean_failure(self, tmp_path, capsys):
        code = run_cli("train", "--dataset", str(tmp_path / "nope.jsonl"),
                       "--out", str(tmp_path / "x"), "--epochs", "1")
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_empty_regression_label_is_exit_one_naming_the_line(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text(json.dumps({"num_nodes": 2, "edges": [[0, 1]],
                                    "node_feats": [[1.0], [2.0]], "graph_label": []}) + "\n")
        code = run_cli("train", "--dataset", str(path), "--out", str(tmp_path / "run"),
                       "--task", "graph-regression", "--epochs", "1")
        assert code == 1
        assert capsys.readouterr().err.startswith("error: line 1: graph_label must be")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("field, bad", [("lr", True), ("lr", "0.1"), ("proportion", None)])
    def test_non_number_float_field_in_config_is_a_clean_failure(
            self, tmp_path, tiny_dataset, capsys, field, bad):
        config = {"dataset": str(tiny_dataset), "out": str(tmp_path / "run"), field: bad}
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        code = run_cli("train", "--config", str(config_path), "--epochs", "1")
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err and field in err
        assert not (tmp_path / "run").exists()

    def test_int_too_large_for_a_float_in_config_is_a_clean_failure(
            self, tmp_path, tiny_dataset, capsys):
        config = {"dataset": str(tiny_dataset), "out": str(tmp_path / "run"), "lr": 10 ** 400}
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        assert len(str(config["lr"])) == 401
        code = run_cli("train", "--config", str(config_path), "--epochs", "1")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: lr ") and "Traceback" not in err
        assert not (tmp_path / "run").exists()

    def test_bad_enum_exits_with_usage(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli("train", "--backbone", "transformer")
        assert exc.value.code == 2



class TestEvaluate:
    def test_prints_metrics(self, tiny_dataset, trained_na_checkpoint, capsys):
        code = run_cli("evaluate", "--checkpoint", str(trained_na_checkpoint),
                       "--dataset", str(tiny_dataset))
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        names = [line.split()[0] for line in lines]
        assert names == ["accuracy", "loss"]
        float(lines[0].split()[1])

    def test_requires_checkpoint_flag(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("evaluate", "--dataset", "whatever.jsonl")
        assert exc.value.code == 2

    def test_unreadable_checkpoint_is_exit_one(self, tiny_dataset, tmp_path, capsys):
        code = run_cli("evaluate", "--checkpoint", str(tmp_path / "missing.json"),
                       "--dataset", str(tiny_dataset))
        assert code == 1
        assert "error:" in capsys.readouterr().err


    @pytest.mark.parametrize("corrupt", [
        lambda record: next(iter(record["params"].values())).pop("shape"),
        lambda record: record.update(feature_dim="5"),
    ], ids=["entry without shape", "string feature_dim"])
    def test_malformed_checkpoint_is_exit_one(self, tiny_dataset, trained_na_checkpoint,
                                              tmp_path, capsys, corrupt):
        record = json.loads(trained_na_checkpoint.read_text())
        corrupt(record)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(record))
        code = run_cli("evaluate", "--checkpoint", str(bad), "--dataset", str(tiny_dataset))
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["3", "null", '{"config": 3}'])
    def test_checkpoint_not_holding_objects_is_exit_one(self, tiny_dataset,
                                                        trained_na_checkpoint, tmp_path,
                                                        capsys, text):
        if text.startswith("{"):
            record = json.loads(trained_na_checkpoint.read_text())
            record.update(json.loads(text))
            text = json.dumps(record)
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        code = run_cli("evaluate", "--checkpoint", str(bad), "--dataset", str(tiny_dataset))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "must" in err and "object" in err

    @pytest.mark.parametrize("width", [1, 3])
    def test_regression_targets_of_another_width_are_exit_one(self, tmp_path, capsys, width):
        rng = np.random.default_rng(9)

        def regression_dataset(name, width):
            graphs = [MolecularGraph(4, [(0, 1), (1, 2), (2, 3)], rng.normal(size=(4, 3)),
                                     rng.normal(size=width)) for _ in range(4)]
            save_dataset(graphs, tmp_path / name)
            return str(tmp_path / name)

        assert run_cli("train", "--dataset", regression_dataset("train.jsonl", 2),
                       "--out", str(tmp_path / "run"), "--task", "graph-regression",
                       "--layers", "1", "--hidden", "4", "--epochs", "1") == 0
        capsys.readouterr()
        code = run_cli("evaluate", "--checkpoint", str(tmp_path / "run" / "checkpoint.json"),
                       "--dataset", regression_dataset("other.jsonl", width))
        assert code == 1
        assert f"dataset needs {width} outputs, model produces 2" in capsys.readouterr().err


class TestEwald:
    def test_writes_heatmap(self, tmp_path):
        system = {"Z": [1, -1], "positions": [[0.1, 0.1, 0.1], [0.6, 0.6, 0.6]],
                  "cell_edge": 1.0, "a": 0.4, "real_cutoff": 4, "recip_cutoff": 4}
        system_path = tmp_path / "system.json"
        system_path.write_text(json.dumps(system), encoding="utf-8")
        out = tmp_path / "matrix.csv"
        code = run_cli("ewald", "--system", str(system_path), "--out", str(out),
                       "--threshold", "0.0")
        assert code == 0
        with open(out, encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["atom", "0", "1"]
        values = np.array([[float(v) for v in row[1:]] for row in rows[1:]])
        assert values.shape == (2, 2) and (values >= 0.0).all()

    def test_invalid_system_is_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"Z": [0], "positions": [[0, 0, 0]],
                                   "cell_edge": 1.0, "a": 0.4,
                                   "real_cutoff": 2, "recip_cutoff": 2}))
        code = run_cli("ewald", "--system", str(bad), "--out",
                       str(tmp_path / "m.csv"))
        assert code == 1
        assert "nonzero" in capsys.readouterr().err

    def test_z_too_large_for_64_bits_is_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"Z": [10 ** 30, -1], "positions": [[0.1] * 3, [0.6] * 3],
                                   "cell_edge": 1.0, "a": 0.4,
                                   "real_cutoff": 2, "recip_cutoff": 2}))
        code = run_cli("ewald", "--system", str(bad), "--out", str(tmp_path / "m.csv"))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'Z'" in err and "Traceback" not in err
        assert not (tmp_path / "m.csv").exists()

    def test_list_cell_edge_is_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"Z": [1, -1], "positions": [[0.1, 0.1, 0.1], [0.6, 0.6, 0.6]],
                                   "cell_edge": [1.0], "a": 0.4,
                                   "real_cutoff": 2, "recip_cutoff": 2}))
        code = run_cli("ewald", "--system", str(bad), "--out", str(tmp_path / "m.csv"))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'cell_edge'" in err
        assert not (tmp_path / "m.csv").exists()


class TestExportAlloc:
    def test_one_file_per_layer(self, tmp_path, tiny_dataset, trained_na_checkpoint):
        out = tmp_path / "alloc"
        code = run_cli("export-alloc", "--checkpoint", str(trained_na_checkpoint),
                       "--dataset", str(tiny_dataset), "--graph", "3",
                       "--out", str(out))
        assert code == 0
        files = sorted(p.name for p in out.iterdir())
        assert files == ["alloc_layer0.csv", "alloc_layer1.csv"]
        with open(out / "alloc_layer0.csv", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "node"
        assert len(rows) == 6  # header + 5 path nodes

    def test_plain_checkpoint_has_no_allocations(self, tmp_path, tiny_dataset, capsys):
        out = tmp_path / "plain_run"
        run_cli("train", "--dataset", str(tiny_dataset), "--out", str(out),
                "--layers", "1", "--hidden", "8", "--epochs", "1", "--batch", "8")
        code = run_cli("export-alloc", "--checkpoint", str(out / "checkpoint.json"),
                       "--dataset", str(tiny_dataset), "--graph", "0",
                       "--out", str(tmp_path / "alloc"))
        assert code == 1
        assert "neural atoms" in capsys.readouterr().err

    def test_graph_index_bounds(self, tmp_path, tiny_dataset,
                                trained_na_checkpoint, capsys):
        code = run_cli("export-alloc", "--checkpoint", str(trained_na_checkpoint),
                       "--dataset", str(tiny_dataset), "--graph", "99",
                       "--out", str(tmp_path / "alloc"))
        assert code == 1
        assert "99" in capsys.readouterr().err


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        run_cli("optimize")
    assert exc.value.code == 2


def test_help_lists_subcommands(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("--help")
    assert exc.value.code == 0
    text = capsys.readouterr().out
    for name in ("train", "evaluate", "generate", "ewald", "export-alloc"):
        assert name in text


NO_SCIPY_SCRIPT = """
import sys
sys.path[:0] = [{src!r}]
import numpy as np
import {module}
from neural_atoms.autodiff import SlotMatrix, Tensor
from neural_atoms.gnn import MlpParams, gin_forward
from neural_atoms.graphs import MolecularGraph, batch_graphs
{contact_like_graph}
rng = np.random.default_rng(0)
graphs = [contact_like_graph(rng, int(n)) for n in rng.integers(40, 161, 64)]
batch = batch_graphs(graphs)
assert isinstance(batch.closed_neighborhood(normalised=False), SlotMatrix)
gin_forward(Tensor(batch.node_features), batch, MlpParams.init(4, 8, 8, rng))
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


@pytest.mark.parametrize("module, loads_scipy", [("neural_atoms.cli", False),
                                                 ("neural_atoms.training", False),
                                                 ("neural_atoms.ewald", True)])
def test_only_ewald_loads_scipy(module, loads_scipy):
    # a fresh process, since this one has imported scipy already; ewald is the control
    script = NO_SCIPY_SCRIPT.format(src=str(Path(__file__).resolve().parents[1] / "src"),
                                    module=module,
                                    contact_like_graph=inspect.getsource(contact_like_graph))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert (done.stdout.strip() != "[]") == loads_scipy, done.stdout


LIMITED_CLI_SCRIPT = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
sys.path[:0] = [{src!r}]
from neural_atoms.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("label", [10 ** 7, 10 ** 9, 10 ** 30])
def test_class_label_not_below_the_graph_count_is_exit_one(tmp_path, label):
    # a head sized by the label would take 2.4 GB or more, so the run gets 1 GiB of
    # address space: a regression fails this test, not the machine
    rng = np.random.default_rng(0)
    data = tmp_path / "labels.jsonl"
    save_dataset([MolecularGraph(3, [(0, 1), (1, 2)], rng.normal(size=(3, 2)), graph_label=y)
                  for y in (0, label)], data)
    script = LIMITED_CLI_SCRIPT.format(src=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run([sys.executable, "-c", script, "train", "--dataset", str(data),
                           "--out", str(tmp_path / "run"), "--epochs", "1"],
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stderr) == (
        1, f"error: graph 1 has class label {label}, not below the dataset's 2 graphs\n")
    assert not (tmp_path / "run").exists()


# (field, value in the config file, flag text on the line, value the flag sets)
TRAIN_FLAGS = [
    ("dataset", "file.jsonl", "line.jsonl", "line.jsonl"),
    ("out", "file_out", "line_out", "line_out"),
    ("backbone", "gcn", "gin", "gin"),
    ("augment", "virtual-node", "neural-atoms", "neural-atoms"),
    ("layers", 4, "2", 2),
    ("hidden", 16, "8", 8),
    ("heads", 3, "1", 1),
    ("k_strategy", "incremental", "decremental", "decremental"),
    ("proportion", 0.5, "0.25", 0.25),
    ("virtual_nodes", 2, "3", 3),
    ("epochs", 5, "1", 1),
    ("lr", 0.1, "0.005", 0.005),
    ("batch", 16, "8", 8),
    ("seed", 7, "11", 11),
    ("task", "graph-regression", "pair-contact", "pair-contact"),
]


def test_train_flags_cover_every_config_field():
    assert [case[0] for case in TRAIN_FLAGS] == [f.name for f in fields(TrainConfig)]


@pytest.mark.parametrize("field, in_file, on_line, parsed", TRAIN_FLAGS,
                         ids=[case[0] for case in TRAIN_FLAGS])
def test_train_flag_sets_its_field_over_the_config(tmp_path, monkeypatch, field, in_file,
                                                   on_line, parsed):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"dataset": "file.jsonl", "out": "file_out",
                                       field: in_file}), encoding="utf-8")
    seen = []
    monkeypatch.setattr(cli, "train", lambda cfg: (seen.append(cfg), "checkpoint.json"))
    assert run_cli("train", "--config", str(config_path)) == 0
    assert run_cli("train", "--config", str(config_path),
                   "--" + field.replace("_", "-"), on_line) == 0
    from_file, from_line = seen
    assert getattr(from_file, field) == in_file
    value = getattr(from_line, field)
    assert value == parsed and type(value) is type(parsed)
    assert from_line.to_dict() == dict(from_file.to_dict(), **{field: parsed})


@pytest.mark.parametrize("changes", [{"dataset": None}, {"dataset": ["d.jsonl"]},
                                     {"out": 5}, {"dataset": 0}],
                         ids=["null dataset", "list dataset", "number out", "zero dataset"])
def test_non_string_path_in_config_is_exit_one(tmp_path, tiny_dataset, capsys, changes):
    config = dict({"dataset": str(tiny_dataset), "out": str(tmp_path / "run"), "epochs": 1},
                  **changes)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    assert run_cli("train", "--config", str(config_path)) == 1
    field = next(iter(changes))
    assert capsys.readouterr().err.startswith(f"error: {field} must be a path string")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("text", ["[1, 2]", "3", "null"])
def test_config_file_not_holding_an_object_is_exit_one(tmp_path, capsys, text):
    config_path = tmp_path / "config.json"
    config_path.write_text(text, encoding="utf-8")
    assert run_cli("train", "--config", str(config_path)) == 1
    assert capsys.readouterr().err.startswith(
        f"error: config file {config_path} must hold a JSON object")


# (command line with FILE for the bad document, the document's role)
DOCUMENT_COMMANDS = [
    (["evaluate", "--checkpoint", "FILE", "--dataset", "DATA"], "checkpoint"),
    (["export-alloc", "--checkpoint", "FILE", "--dataset", "DATA", "--out", "OUT"],
     "checkpoint"),
    (["ewald", "--system", "FILE", "--out", "OUT"], "system file"),
    (["train", "--config", "FILE", "--dataset", "DATA", "--out", "OUT"], "config file"),
]
BAD_DOCUMENTS = {"truncated": b'{"config": {"hidden": ', "non-utf8": b'{"\xff": 1}',
                 "list": b"[1, 2]"}


@pytest.mark.parametrize("kind", sorted(BAD_DOCUMENTS))
@pytest.mark.parametrize("argv, role", DOCUMENT_COMMANDS,
                         ids=[argv[0] for argv, _ in DOCUMENT_COMMANDS])
def test_bad_document_is_exit_one_naming_role_and_path(tmp_path, tiny_dataset, capsys, argv,
                                                      role, kind):
    document = tmp_path / "bad.json"
    document.write_bytes(BAD_DOCUMENTS[kind])
    out = tmp_path / "out"
    names = {"FILE": str(document), "DATA": str(tiny_dataset), "OUT": str(out)}
    assert run_cli(*[names.get(word, word) for word in argv]) == 1
    assert capsys.readouterr().err.startswith(f"error: {role} {document} ")
    assert not out.exists()


def test_nan_threshold_is_exit_one(tmp_path, capsys):
    system = {"Z": [1, -1], "positions": [[0.1, 0.1, 0.1], [0.6, 0.6, 0.6]],
              "cell_edge": 1.0, "a": 0.4, "real_cutoff": 2, "recip_cutoff": 2}
    system_path = tmp_path / "system.json"
    system_path.write_text(json.dumps(system), encoding="utf-8")
    out = tmp_path / "matrix.csv"
    code = run_cli("ewald", "--system", str(system_path), "--out", str(out),
                   "--threshold", "nan")
    assert code == 1
    assert capsys.readouterr().err.startswith("error: threshold must be non-negative")
    assert not out.exists()
