"""End-to-end tests of the command line interface."""

import csv
import json
from dataclasses import fields

import numpy as np
import pytest

from neural_atoms import cli
from neural_atoms.cli import main
from neural_atoms.graphs import load_dataset
from neural_atoms.model import TrainConfig


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
    assert capsys.readouterr().err.startswith("error: config file must hold a JSON object")


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
