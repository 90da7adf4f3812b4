"""Tests for the optimizer, training loop, metrics, and checkpoints."""

import csv
import json
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from neural_atoms import files, training
from neural_atoms.autodiff import Tensor, backward, bce_with_logits, softmax_cross_entropy
from neural_atoms.files import write_table
from neural_atoms.graphs import (DatasetError, MolecularGraph, batch_graphs,
                                 generate_lri_task, load_dataset, save_dataset)
from neural_atoms.model import ConfigError, GraphPropertyModel, TrainConfig
from neural_atoms.training import (
    Adam,
    TrainingError,
    checkpoint_arrays,
    dataset_dimensions,
    evaluate,
    fit,
    load_checkpoint,
    save_checkpoint,
    train,
    _contact_reciprocal_ranks,
)
from helpers import TensorByTensorAdam, head_block, mean_reciprocal_rank

DATA = Path(__file__).resolve().parent / "data"


def looped_reciprocal_ranks(batch, scores):
    """Oracle: graph by graph and positive by positive, 1/(1 + negatives scoring higher)."""
    out = []
    cursor = 0
    for graph in batch.graphs:
        pairs = graph.pair_labels or []
        graph_scores = scores[cursor:cursor + len(pairs)]
        cursor += len(pairs)
        flags = np.array([hit for _, _, hit in pairs])
        negatives = graph_scores[flags == 0]
        for value in graph_scores[flags == 1]:
            out.append(1.0 / (1 + int((negatives > value).sum())))
    return out


def lri_config(tmp_path, name="run", **overrides):
    data = tmp_path / "train.jsonl"
    if not data.exists():
        save_dataset(generate_lri_task(32, 6, 3, seed=7), data)
    base = dict(dataset=str(data), out=str(tmp_path / name), layers=2,
                hidden=8, heads=2, proportion=0.5, epochs=2, lr=0.01,
                batch=8, seed=0)
    base.update(overrides)
    return TrainConfig(**base)


def pair_graph(rng, n=6, feature_dim=3):
    return MolecularGraph(
        num_nodes=n, edges=[(i, i + 1) for i in range(n - 1)],
        node_features=rng.normal(size=(n, feature_dim)),
        pair_labels=[(0, n - 1, 1), (0, 1, 0), (1, 3, 0), (2, 5, 0)])


class TestAdam:
    def test_single_step_matches_hand_computation(self):
        # with fresh state every factor cancels: x <- x - lr * g / (|g| + eps)
        p = Tensor(np.array([[1.0]]), requires_grad=True)
        p.grad = np.array([[2.0]])
        Adam(p, lr=0.1).step()
        want = 1.0 - 0.1 * (2.0 / (2.0 + 1e-8))
        assert abs(p.data[0, 0] - want) < 1e-15

    def test_two_steps_follow_moment_recursion(self):
        p = Tensor(np.array([[0.5]]), requires_grad=True)
        opt = Adam(p, lr=0.05)
        m = v = 0.0
        x = 0.5
        for g in (1.5, -0.3):
            p.grad = np.array([[g]])
            opt.step()
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            mhat = m / (1 - 0.9 ** opt.step_count)
            vhat = v / (1 - 0.999 ** opt.step_count)
            x -= 0.05 * mhat / (np.sqrt(vhat) + 1e-8)
        assert abs(p.data[0, 0] - x) < 1e-12

    def test_missing_gradient_is_an_error(self):
        p = Tensor(np.array([[1.0]]), requires_grad=True)
        with pytest.raises(TrainingError, match="no gradient"):
            Adam(p, lr=0.1).step()

    def test_flat_step_matches_tensor_by_tensor_bitwise(self):
        """20 steps on the 2-head lri-atoms model, one parameter with gradient 0."""
        graphs = generate_lri_task(64, 20, 4, seed=1)
        cfg = TrainConfig(dataset="unused", out="unused", augment="neural-atoms", layers=3,
                          hidden=32, heads=2)
        flat_model, oracle_model = (GraphPropertyModel(cfg, *dataset_dimensions(graphs, cfg.task))
                                    for _ in range(2))
        flat, oracle = Adam(flat_model.flat, cfg.lr), TensorByTensorAdam(oracle_model.tensors(),
                                                                         cfg.lr)
        rng = np.random.default_rng(3)
        for _ in range(20):
            batch = batch_graphs([graphs[i] for i in rng.permutation(64)[:16]])
            for model in (flat_model, oracle_model):
                loss, _, _ = training._batch_loss(model, batch)
                backward(loss, model.tensors())
                exchange = model.atom_layers[1].exchange
                exchange.qkv.grad[head_block(exchange, 1, 1)] = 0.0
            flat.step()
            oracle.step()
            for (name, got), (_, want) in zip(flat_model.parameters(), oracle_model.parameters()):
                assert np.array_equal(got.data, want.data), name
        untouched = dict(checkpoint_arrays(flat_model))["layer1.atoms.exchange.head1.wk"]
        fresh = GraphPropertyModel(cfg, *dataset_dimensions(graphs, cfg.task))
        assert np.array_equal(untouched, dict(checkpoint_arrays(fresh))[
            "layer1.atoms.exchange.head1.wk"])


class TestDatasetDimensions:
    def test_classification_counts_classes(self):
        graphs = generate_lri_task(10, 5, 3, seed=0)
        feature_dim, out_dim, avg = dataset_dimensions(graphs, "graph-classification")
        assert feature_dim == 4 and out_dim == 2 and avg == 5.0

    def test_regression_width_consistency(self):
        rng = np.random.default_rng(1)
        def labelled(width):
            return MolecularGraph(num_nodes=3, edges=[(0, 1)],
                                  node_features=rng.normal(size=(3, 2)),
                                  graph_label=rng.normal(size=width))
        graphs = [labelled(3), labelled(3)]
        assert dataset_dimensions(graphs, "graph-regression")[1] == 3
        with pytest.raises(DatasetError, match="one width"):
            dataset_dimensions([labelled(3), labelled(2)], "graph-regression")

    def test_pair_contact_graph_without_pairs_is_named(self):
        rng = np.random.default_rng(3)
        graphs = [pair_graph(rng) for _ in range(4)]
        graphs[2].pair_labels = []
        with pytest.raises(DatasetError, match="pair labels on every graph; graph 2 has none"):
            dataset_dimensions(graphs, "pair-contact")

    def test_pair_labelled_dataset_is_refused_for_classification(self, tmp_path):
        rng = np.random.default_rng(3)
        data = tmp_path / "pairs.jsonl"
        save_dataset([pair_graph(rng) for _ in range(4)], data)
        cfg = TrainConfig(dataset=str(data), out=str(tmp_path / "run"), layers=1, hidden=4,
                          heads=2, epochs=1)
        with pytest.raises(DatasetError, match="graph-classification needs a graph label on "
                                               "every graph; graph 0 has none"):
            train(cfg)
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("label, shown", [(-1, "-1"), (np.array([0.5]), r"\[0.5\]")],
                             ids=["negative", "float vector"])
    def test_bad_classification_label_names_the_graph(self, tmp_path, label, shown):
        graphs = generate_lri_task(6, 5, 3, seed=0)
        graphs[4].graph_label = label
        data = tmp_path / "labels.jsonl"
        save_dataset(graphs, data)
        cfg = TrainConfig(dataset=str(data), out=str(tmp_path / "run"), layers=1, hidden=4,
                          heads=2, epochs=1)
        with pytest.raises(DatasetError, match="classification labels must be non-negative "
                                               f"integers; graph 4 has {shown}$"):
            train(cfg)
        assert not (tmp_path / "run").exists()

    def test_task_label_mismatches(self):
        graphs = generate_lri_task(4, 5, 3, seed=0)
        with pytest.raises(DatasetError, match="float vectors"):
            dataset_dimensions(graphs, "graph-regression")
        with pytest.raises(DatasetError, match="pair labels"):
            dataset_dimensions(graphs, "pair-contact")


class TestTrainLoop:
    def test_metrics_csv_has_one_block_per_epoch(self, tmp_path):
        cfg = lri_config(tmp_path, epochs=1)
        _, checkpoint_path = train(cfg)
        with open(tmp_path / "run" / "metrics.csv", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["epoch", "split", "metric", "value"]
        body = rows[1:]
        assert {r[0] for r in body} == {"0"}
        assert [r[2] for r in body] == ["loss", "accuracy"]
        assert checkpoint_path.exists()

    def test_two_runs_write_byte_identical_artifacts(self, tmp_path):
        cfg_a = lri_config(tmp_path, name="a", augment="neural-atoms")
        cfg_b = lri_config(tmp_path, name="b", augment="neural-atoms")
        train(cfg_a)
        train(cfg_b)
        metrics_a = (tmp_path / "a" / "metrics.csv").read_bytes()
        metrics_b = (tmp_path / "b" / "metrics.csv").read_bytes()
        assert metrics_a == metrics_b
        ckpt_a = json.loads((tmp_path / "a" / "checkpoint.json").read_text())
        ckpt_b = json.loads((tmp_path / "b" / "checkpoint.json").read_text())
        ckpt_a["config"]["out"] = ckpt_b["config"]["out"]
        assert ckpt_a == ckpt_b

    def test_loss_drops_on_learnable_task(self, tmp_path):
        cfg = lri_config(tmp_path, augment="neural-atoms", epochs=6,
                         layers=1, lr=0.02)
        model, _ = train(cfg)
        _, record = load_checkpoint(tmp_path / "run" / "checkpoint.json")
        losses = [row[3] for row in record["history"] if row[2] == "loss"]
        assert losses[5] < losses[0]

    def test_exploding_loss_aborts_with_context(self, tmp_path):
        # one Adam step moves weights by about lr, so squaring them across
        # two layers overflows f64 and the loss turns non-finite
        cfg = lri_config(tmp_path, lr=1e160, epochs=3)
        with pytest.raises(TrainingError, match="epoch"):
            with np.errstate(over="ignore", invalid="ignore"):
                train(cfg)


    def test_non_finite_gradient_aborts_before_the_step(self, tmp_path, monkeypatch):
        cfg = lri_config(tmp_path, epochs=2)
        real_backward = training.backward
        seen = {"calls": 0}

        def poisoning_backward(loss, params):
            real_backward(loss, params)
            seen["calls"] += 1
            if seen["calls"] == 6:          # 4 batches an epoch: epoch 1, batch 2
                assert np.isfinite(loss.item())
                params[0].grad[0] = np.nan       # the one flat leaf every parameter views
                seen["params"], seen["before"] = params, [p.data.copy() for p in params]

        monkeypatch.setattr(training, "backward", poisoning_backward)
        with pytest.raises(TrainingError,
                           match=r"gradient norm nan at epoch 1, batch starting at 8"):
            train(cfg)
        assert all(np.array_equal(b, p.data) for b, p in zip(seen["before"], seen["params"]))
        assert not (tmp_path / "run" / "checkpoint.json").exists()


class TestFit:
    @pytest.mark.parametrize("overrides", [dict(augment="neural-atoms"),
                                           dict(backbone="gin", augment="virtual-node",
                                                virtual_nodes=2)])
    def test_records_are_the_metrics_rows_and_evaluate_between_them_changes_nothing(
            self, tmp_path, overrides):
        cfg = lri_config(tmp_path, epochs=3, **overrides)
        _, checkpoint_path = train(cfg)
        graphs = load_dataset(cfg.dataset)
        heldout = generate_lri_task(12, 6, 3, seed=9)
        model = GraphPropertyModel(cfg, *dataset_dimensions(graphs, cfg.task))
        history, held = [], []
        for epoch, metrics in fit(model, graphs, cfg):
            history += [[epoch, "train", name, value] for name, value in metrics.items()]
            held.append(evaluate(model, heldout, batch_size=5))
        with open(checkpoint_path.parent / "metrics.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert rows == [[str(e), split, name, repr(value)] for e, split, name, value in history]
        assert len(held) == 3 and held[0] != held[2]

        # the files train writes, rewritten from the records of the run with evaluate calls
        write_table(tmp_path / "fit" / "metrics.csv", training.METRICS_HEADER, history)
        save_checkpoint(model, cfg.epochs, history, tmp_path / "fit" / "checkpoint.json")
        for name in ("metrics.csv", "checkpoint.json"):
            assert (tmp_path / "fit" / name).read_bytes() == (
                checkpoint_path.parent / name).read_bytes()


class TestCheckpoint:
    def test_round_trip_restores_exact_parameters_and_metrics(self, tmp_path):
        cfg = lri_config(tmp_path, augment="neural-atoms")
        model, path = train(cfg)
        graphs = generate_lri_task(12, 6, 3, seed=9)
        before = evaluate(model, graphs)
        loaded, record = load_checkpoint(path)
        for (name_a, ta), (name_b, tb) in zip(model.parameters(),
                                              loaded.parameters()):
            assert name_a == name_b
            assert np.array_equal(ta.data, tb.data), name_a
        assert evaluate(loaded, graphs) == before
        assert record["epoch"] == cfg.epochs

    def test_a_step_after_loading_moves_the_loaded_values(self, tmp_path):
        # loading writes into the flat buffer the parameters view, so a step moves them
        _, path = train(lri_config(tmp_path, augment="neural-atoms"))
        loaded, record = load_checkpoint(path)
        loaded.flat.grad[...] = 1.0
        Adam(loaded.flat, lr=0.01).step()
        for name, arr in checkpoint_arrays(loaded):
            stored = np.array(record["params"][name]["data"]).reshape(arr.shape)
            np.testing.assert_allclose(arr, stored - 0.01, rtol=0, atol=1e-9)

    def test_missing_and_unknown_parameters_are_rejected(self, tmp_path):
        cfg = lri_config(tmp_path)
        model, path = train(cfg)
        record = json.loads(path.read_text())

        broken = dict(record, params={k: v for k, v in record["params"].items()
                                      if k != "head.weight"})
        bad_path = tmp_path / "broken.json"
        bad_path.write_text(json.dumps(broken))
        with pytest.raises(TrainingError, match="head.weight"):
            load_checkpoint(bad_path)

        entry = record["params"]["head.weight"]
        wrong = dict(record, params=dict(
            record["params"],
            **{"head.weight": {"shape": [1, 1], "data": [0.0]}}))
        bad_path.write_text(json.dumps(wrong))
        with pytest.raises(TrainingError, match="shape"):
            load_checkpoint(bad_path)

        extra = dict(record, params=dict(record["params"],
                                         **{"layer9.mystery": entry}))
        bad_path.write_text(json.dumps(extra))
        with pytest.raises(TrainingError, match="unknown parameters"):
            load_checkpoint(bad_path)

    def test_save_handles_fractions_exactly(self, tmp_path):
        cfg = lri_config(tmp_path)
        model, _ = train(cfg)
        # overwrite one parameter with awkward values and round-trip it
        target = model.head["weight"]
        awkward = np.array([0.1, 1e-300, np.pi, -2.0 ** -52, 1e300, 3.0])
        target.data[...] = np.resize(awkward, target.data.size).reshape(target.shape)
        path = tmp_path / "exact.json"
        save_checkpoint(model, 2, [], path)
        loaded, _ = load_checkpoint(path)
        assert np.array_equal(dict(loaded.parameters())["head.weight"].data,
                              target.data)


    def test_non_finite_parameters_are_rejected_on_save_and_load(self, tmp_path):
        cfg = lri_config(tmp_path)
        model, path = train(cfg)
        saved = path.read_bytes()
        model.head["bias"].data[0] = np.inf
        with pytest.raises(TrainingError, match="head.bias"):
            save_checkpoint(model, 2, [], path)
        assert path.read_bytes() == saved

        record = json.loads(saved)
        record["params"]["head.bias"]["data"][0] = float("nan")
        bad_path = tmp_path / "nan.json"
        bad_path.write_text(json.dumps(record))
        with pytest.raises(TrainingError, match="head.bias"):
            load_checkpoint(bad_path)

    def test_failed_write_leaves_previous_file_intact(self, tmp_path, monkeypatch):
        cfg = lri_config(tmp_path)
        model, path = train(cfg)
        run_dir = path.parent
        metrics_path = run_dir / "metrics.csv"
        listing = sorted(p.name for p in run_dir.iterdir())
        saved_checkpoint, saved_metrics = path.read_bytes(), metrics_path.read_bytes()

        replacing = training.replacing

        class HalfWriter:
            """Passes on the first 100 characters of a write, then fails."""

            def __init__(self, fh):
                self.fh = fh

            def write(self, text):
                self.fh.write(text[:100])
                raise OSError("disk full")

        @contextmanager
        def half_replacing(target, newline=None):
            with replacing(target, newline) as fh:
                yield HalfWriter(fh)

        with monkeypatch.context() as patch:
            patch.setattr(training, "replacing", half_replacing)
            with pytest.raises(OSError, match="disk full"):
                save_checkpoint(model, 3, [], path)
        # a second run fails partway through metrics.csv, before its checkpoint
        with monkeypatch.context() as patch:
            patch.setattr(files, "replacing", half_replacing)
            with pytest.raises(OSError, match="disk full"):
                train(cfg)
        assert path.read_bytes() == saved_checkpoint
        assert metrics_path.read_bytes() == saved_metrics
        assert sorted(p.name for p in run_dir.iterdir()) == listing


@pytest.mark.parametrize("name", ["gcn-atoms-checkpoint.json", "gin-vnode-checkpoint.json"])
def test_committed_checkpoint_loads_and_saves_byte_for_byte(tmp_path, name):
    """Files written by an earlier version: any moved name, order or value shows here."""
    path = DATA / name
    model, record = load_checkpoint(path)
    save_checkpoint(model, record["epoch"], record["history"], tmp_path / name)
    assert (tmp_path / name).read_bytes() == path.read_bytes()


@pytest.fixture(scope="module")
def saved_record(tmp_path_factory):
    """The JSON record of one short training run's checkpoint."""
    _, path = train(lri_config(tmp_path_factory.mktemp("saved")))
    return json.loads(path.read_text())


# (what is malformed, edit of a saved record, words the error must hold)
MALFORMED_CHECKPOINTS = [
    ("entry not an object", lambda r: r["params"].update({"head.weight": [0.0, 1.0]}),
     "head.weight.*object"),
    ("entry without data", lambda r: r["params"]["head.weight"].pop("data"),
     "head.weight.*'data'"),
    ("entry without shape", lambda r: r["params"]["head.weight"].pop("shape"),
     "head.weight.*'shape'"),
    ("string data", lambda r: r["params"]["head.weight"].update(
        data=[repr(x) for x in r["params"]["head.weight"]["data"]]), "head.weight.*not numeric"),
    ("data short of the shape", lambda r: r["params"]["head.weight"]["data"].pop(),
     "head.weight.*fill"),
    ("string feature_dim", lambda r: r.update(feature_dim="5"), "feature_dim.*positive integer"),
    ("zero out_dim", lambda r: r.update(out_dim=0), "out_dim.*positive integer"),
    ("infinite avg_nodes", lambda r: r.update(avg_nodes=float("inf")), "avg_nodes.*finite"),
    ("negative avg_nodes", lambda r: r.update(avg_nodes=-6.0),
     "checkpoint.*avg_nodes must be at least 1, got -6.0"),
    ("config not an object", lambda r: r.update(config=3), "'config' must be an object"),
    ("null config", lambda r: r.update(config=None), "'config' must be an object"),
    ("bool in data", lambda r: r["params"]["head.weight"]["data"].__setitem__(0, True),
     "head.weight.*bool"),
    ("bool in shape", lambda r: r["params"]["head.bias"].update(shape=[True, 2]),
     "head.bias.*bool"),
    ("shape not a list", lambda r: r["params"]["head.bias"].update(shape=5),
     "head.bias.*shape 5: shape is not a list"),
    ("zero layers", lambda r: r["config"].update(layers=0),
     "checkpoint 'config'.*layers must hold positive integers, got 0"),
    ("unknown config key", lambda r: r["config"].update(colour="red"),
     "checkpoint 'config'.*unknown config keys \\['colour'\\]"),
    ("atoms with avg_nodes below one", lambda r: (r["config"].update(augment="neural-atoms"),
                                                  r.update(avg_nodes=0.5)),
     "checkpoint.*avg_nodes must be at least 1, got 0.5"),
]


class TestMalformedCheckpoint:
    @pytest.mark.parametrize("case, edit, message", MALFORMED_CHECKPOINTS,
                             ids=[case[0] for case in MALFORMED_CHECKPOINTS])
    def test_is_a_named_error(self, tmp_path, saved_record, case, edit, message):
        record = json.loads(json.dumps(saved_record))
        edit(record)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(record))
        with pytest.raises(TrainingError, match=message):
            load_checkpoint(path)

    @pytest.mark.parametrize("text", ["3", "null", "[1, 2]", '"checkpoint"'])
    def test_file_not_holding_an_object_is_a_named_error(self, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        with pytest.raises(TrainingError, match="bad.json must hold a JSON object"):
            load_checkpoint(path)


class TestEvaluate:
    def test_feature_mismatch_is_an_error(self, tmp_path):
        cfg = lri_config(tmp_path)
        model, _ = train(cfg)
        rng = np.random.default_rng(2)
        other = [MolecularGraph(num_nodes=3, edges=[(0, 1)],
                                node_features=rng.normal(size=(3, 9)),
                                graph_label=0)]
        with pytest.raises(ConfigError, match="features"):
            evaluate(model, other)

    def test_constant_predictor_mae_is_mean_absolute_deviation(self):
        rng = np.random.default_rng(8)
        targets = rng.normal(size=(10, 2))
        graphs = [MolecularGraph(num_nodes=4, edges=[(0, 1), (1, 2), (2, 3)],
                                 node_features=rng.normal(size=(4, 3)),
                                 graph_label=y) for y in targets]
        cfg = TrainConfig(dataset="unused", out="unused",
                          task="graph-regression", layers=1, hidden=4, heads=2)
        model = GraphPropertyModel(cfg, feature_dim=3, out_dim=2, avg_nodes=4.0)
        model.head["weight"].data[...] = 0.0
        model.head["bias"].data[...] = targets.mean(axis=0)
        mae = evaluate(model, graphs)["mae"]
        assert mae == np.abs(targets - targets.mean(axis=0)).mean()

    def test_pair_contact_reports_mrr(self, tmp_path):
        rng = np.random.default_rng(4)
        graphs = [pair_graph(rng) for _ in range(6)]
        data = tmp_path / "pairs.jsonl"
        save_dataset(graphs, data)
        cfg = TrainConfig(dataset=str(data), out=str(tmp_path / "pc"),
                          task="pair-contact", layers=1, hidden=8, heads=2,
                          epochs=1, lr=0.01, batch=4, seed=0)
        model, _ = train(cfg)
        metrics = evaluate(model, graphs)
        assert set(metrics) == {"loss", "mrr"}
        assert 0.0 < metrics["mrr"] <= 1.0


    def test_metrics_equal_a_recorded_forward(self, tmp_path, monkeypatch):
        cfg = lri_config(tmp_path, augment="virtual-node", virtual_nodes=2)
        model, _ = train(cfg)
        graphs = generate_lri_task(20, 6, 3, seed=9)
        losses = []

        def spy(logits, labels):
            losses.append(softmax_cross_entropy(logits, labels))
            return losses[-1]

        monkeypatch.setattr(training, "softmax_cross_entropy", spy)
        metrics = evaluate(model, graphs, batch_size=8)
        assert len(losses) == 3 and all(loss.entry is None for loss in losses)

        # the same batches forwarded with the tape on, scored by hand
        total, correct = 0.0, 0
        for start in range(0, 20, 8):
            chunk = graphs[start:start + 8]
            logits = model.forward(batch_graphs(chunk)).graph_outputs
            labels = np.array([g.graph_label for g in chunk])
            loss = softmax_cross_entropy(logits, labels)
            assert loss.entry is not None
            total += loss.item() * len(chunk)
            correct += int((logits.data.argmax(axis=1) == labels).sum())
        assert metrics == {"loss": total / 20, "accuracy": correct / 20}

    def test_pair_contact_builds_each_batch_once(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(5)
        graphs = [pair_graph(rng) for _ in range(10)]
        cfg = TrainConfig(dataset="unused", out="unused", task="pair-contact",
                          layers=1, hidden=8, heads=2)
        model = GraphPropertyModel(cfg, feature_dim=3, out_dim=1, avg_nodes=6.0)
        built, losses = [], []

        def counting_batch(chunk):
            built.append(len(chunk))
            return batch_graphs(chunk)

        def spy(logits, targets):
            losses.append(bce_with_logits(logits, targets))
            return losses[-1]

        monkeypatch.setattr(training, "batch_graphs", counting_batch)
        monkeypatch.setattr(training, "bce_with_logits", spy)
        metrics = evaluate(model, graphs, batch_size=4)
        assert built == [4, 4, 2]
        assert all(loss.entry is None for loss in losses)
        ranks = _contact_reciprocal_ranks(
            batch_graphs(graphs), model.forward(batch_graphs(graphs)).pair_scores.data[:, 0])
        assert abs(metrics["mrr"] - np.mean(ranks)) < 1e-12


class TestMeanReciprocalRank:
    def test_hand_summed_example(self):
        assert abs(mean_reciprocal_rank([1, 2, 4]) - (1 + 0.5 + 0.25) / 3) < 1e-12

    def test_all_first_is_exactly_one(self):
        assert mean_reciprocal_rank([1, 1, 1]) == 1.0

    def test_rejects_bad_ranks(self):
        with pytest.raises(ValueError):
            mean_reciprocal_rank([])
        with pytest.raises(ValueError):
            mean_reciprocal_rank([1, 0])

    def test_rank_counts_strictly_better_negatives(self):
        rng = np.random.default_rng(0)
        graph = MolecularGraph(
            num_nodes=4, edges=[(0, 1), (1, 2), (2, 3)],
            node_features=rng.normal(size=(4, 2)),
            pair_labels=[(0, 3, 1), (0, 1, 0), (1, 2, 0), (0, 2, 0)])
        batch = batch_graphs([graph])
        # positive scores 2.0; negatives 3.0, 2.0, 1.0 -> one strictly better
        ranks = _contact_reciprocal_ranks(batch, np.array([2.0, 3.0, 2.0, 1.0]))
        assert ranks == [0.5]

    @staticmethod
    def labelled_graph(n, pairs):
        return MolecularGraph(num_nodes=n, edges=[(i, i + 1) for i in range(n - 1)],
                              node_features=np.ones((n, 1)), pair_labels=pairs)

    def test_batch_ranks_match_the_graph_by_graph_loop(self):
        rng = np.random.default_rng(3)
        graphs = [self.labelled_graph(6, [(0, 5, 1), (1, 4, 0), (0, 2, 1), (2, 5, 0), (1, 3, 0)]),
                  self.labelled_graph(4, [(0, 1, 0), (1, 2, 0)]),          # no positives
                  self.labelled_graph(5, [(0, 4, 1), (1, 3, 1)]),          # no negatives
                  self.labelled_graph(3, []),
                  self.labelled_graph(7, [(0, 6, 1), (2, 4, 0), (1, 5, 0), (3, 6, 1),
                                          (0, 3, 0), (2, 6, 0), (1, 4, 0), (0, 5, 0)])]
        batch = batch_graphs(graphs)
        for scores in (rng.normal(size=17), rng.integers(-2, 3, size=17).astype(float)):
            got = _contact_reciprocal_ranks(batch, scores)
            assert got == looped_reciprocal_ranks(batch, scores)
        # the graph without negatives ranks both its positives first
        assert got[2:4] == [1.0, 1.0]

    def test_ties_count_for_the_positive_and_graphs_do_not_mix(self):
        graphs = [self.labelled_graph(4, [(0, 3, 1), (0, 1, 0), (1, 2, 0)]),
                  self.labelled_graph(4, [(0, 3, 1), (0, 2, 0)])]
        batch = batch_graphs(graphs)
        # graph 0: both negatives tie the positive; graph 1's negative at 9.0
        # beats only its own positive, not graph 0's
        ranks = _contact_reciprocal_ranks(batch, np.array([1.0, 1.0, 1.0, 5.0, 9.0]))
        assert ranks == [1.0, 0.5]

    def test_no_positives_give_no_ranks(self):
        batch = batch_graphs([self.labelled_graph(3, [(0, 2, 0), (0, 1, 0)])])
        assert _contact_reciprocal_ranks(batch, np.array([0.3, -0.1])) == []


def test_evaluate_needs_as_many_outputs_as_the_dataset_has_classes():
    cfg = TrainConfig(dataset="unused", out="unused", layers=1, hidden=4, heads=2)
    model = GraphPropertyModel(cfg, feature_dim=3, out_dim=2, avg_nodes=4.0)
    rng = np.random.default_rng(6)
    graphs = [MolecularGraph(num_nodes=4, edges=[(0, 1), (1, 2), (2, 3)],
                             node_features=rng.normal(size=(4, 3)), graph_label=label)
              for label in (0, 2, 1)]
    with pytest.raises(ConfigError, match="dataset needs 3 outputs, model produces 2"):
        evaluate(model, graphs)


@pytest.mark.parametrize("width", [1, 3])
def test_evaluate_regression_needs_as_many_targets_as_the_model_has_outputs(width):
    cfg = TrainConfig(dataset="unused", out="unused", task="graph-regression",
                      layers=1, hidden=4, heads=2)
    model = GraphPropertyModel(cfg, feature_dim=3, out_dim=2, avg_nodes=4.0)
    rng = np.random.default_rng(6)
    graphs = [MolecularGraph(num_nodes=4, edges=[(0, 1), (1, 2), (2, 3)],
                             node_features=rng.normal(size=(4, 3)),
                             graph_label=rng.normal(size=width)) for _ in range(4)]
    with pytest.raises(ConfigError, match=f"dataset needs {width} outputs, model produces 2"):
        evaluate(model, graphs)


def graphs_with_two_unlabelled(tmp_path):
    """A saved pair-contact dataset of 8 graphs, where graphs 3 and 6 label no pair."""
    rng = np.random.default_rng(11)
    graphs = [pair_graph(rng) for _ in range(8)]
    for i in (3, 6):
        graphs[i].pair_labels = []
    data = tmp_path / "pairs.jsonl"
    save_dataset(graphs, data)
    return graphs, data


@pytest.mark.parametrize("seed", range(6))
def test_training_on_graphs_without_pairs_fails_on_every_seed(tmp_path, seed):
    _, data = graphs_with_two_unlabelled(tmp_path)
    cfg = TrainConfig(dataset=str(data), out=str(tmp_path / "pc"), task="pair-contact",
                      layers=1, hidden=4, heads=2, epochs=1, batch=2, seed=seed)
    with pytest.raises(DatasetError, match="pair labels on every graph; graph 3 has none"):
        train(cfg)
    assert not (tmp_path / "pc").exists()


@pytest.mark.parametrize("batch_size", [64, 1])
def test_evaluating_graphs_without_pairs_fails_at_every_batch_size(tmp_path, batch_size):
    graphs, _ = graphs_with_two_unlabelled(tmp_path)
    cfg = TrainConfig(dataset="unused", out="unused", task="pair-contact",
                      layers=1, hidden=4, heads=2)
    model = GraphPropertyModel(cfg, feature_dim=3, out_dim=1, avg_nodes=6.0)
    with pytest.raises(DatasetError, match="pair labels on every graph; graph 3 has none"):
        evaluate(model, graphs, batch_size=batch_size)


def mixed_width_graphs(tmp_path, odd):
    """Eight one-feature graphs, but graph ``odd`` has two, saved as a dataset."""
    rng = np.random.default_rng(3)
    graphs = [MolecularGraph(4, [(0, 1), (1, 2), (2, 3)],
                             rng.normal(size=(4, 2 if i == odd else 1)), graph_label=i % 2)
              for i in range(8)]
    data = tmp_path / "mixed.jsonl"
    save_dataset(graphs, data)
    return graphs, data


@pytest.mark.parametrize("odd, message", [(5, "graph 5 has 2 node features, graph 0 has 1"),
                                          (0, "graph 1 has 1 node features, graph 0 has 2")],
                         ids=["graph-5-odd", "graph-0-odd"])
@pytest.mark.parametrize("batch", [1, 2])
@pytest.mark.parametrize("seed", range(4))
def test_training_on_mixed_feature_widths_names_the_graph(tmp_path, seed, batch, odd, message):
    _, data = mixed_width_graphs(tmp_path, odd)
    cfg = TrainConfig(dataset=str(data), out=str(tmp_path / "run"), layers=1, hidden=4,
                      heads=2, epochs=1, batch=batch, seed=seed)
    with pytest.raises(DatasetError, match=message):
        train(cfg)
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("batch_size", [64, 1])
def test_evaluating_mixed_feature_widths_names_the_graph(tmp_path, batch_size):
    graphs, _ = mixed_width_graphs(tmp_path, 5)
    cfg = TrainConfig(dataset="unused", out="unused", layers=1, hidden=4, heads=2)
    model = GraphPropertyModel(cfg, feature_dim=1, out_dim=2, avg_nodes=4.0)
    with pytest.raises(DatasetError, match="graph 5 has 2 node features, graph 0 has 1"):
        evaluate(model, graphs, batch_size=batch_size)


@pytest.mark.parametrize("batch_size", [0, -1])
def test_evaluate_refuses_a_batch_size_below_one(batch_size):
    graphs = generate_lri_task(4, 5, 3, seed=0)
    cfg = TrainConfig(dataset="unused", out="unused", layers=1, hidden=4, heads=2)
    model = GraphPropertyModel(cfg, feature_dim=4, out_dim=2, avg_nodes=5.0)
    with pytest.raises(ConfigError, match=f"batch_size must hold positive integers, "
                                          f"got {batch_size}"):
        evaluate(model, graphs, batch_size=batch_size)


def test_evaluate_pair_contact_without_positives_is_an_error():
    rng = np.random.default_rng(7)
    graphs = [MolecularGraph(num_nodes=5, edges=[(i, i + 1) for i in range(4)],
                             node_features=rng.normal(size=(5, 3)),
                             pair_labels=[(0, 4, 0), (1, 3, 0)]) for _ in range(3)]
    cfg = TrainConfig(dataset="unused", out="unused", task="pair-contact",
                      layers=1, hidden=4, heads=2)
    model = GraphPropertyModel(cfg, feature_dim=3, out_dim=1, avg_nodes=5.0)
    with pytest.raises(DatasetError, match="no positive pairs to rank"):
        evaluate(model, graphs)


# (what is malformed, edit of a saved record, words the error must hold)
MALFORMED_TOP_LEVEL = [
    ("no avg_nodes", lambda r: r.pop("avg_nodes"), "checkpoint is missing 'avg_nodes'"),
    ("no params", lambda r: r.pop("params"), "checkpoint is missing 'params'"),
    ("params a list", lambda r: r.update(params=[1.0]), "'params' must be an object"),
    ("null params", lambda r: r.update(params=None), "'params' must be an object"),
]


@pytest.mark.parametrize("case, edit, message", MALFORMED_TOP_LEVEL,
                         ids=[case[0] for case in MALFORMED_TOP_LEVEL])
def test_malformed_checkpoint_top_level_is_a_named_error(tmp_path, saved_record, case, edit,
                                                         message):
    record = json.loads(json.dumps(saved_record))
    edit(record)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(record))
    with pytest.raises(TrainingError, match=message):
        load_checkpoint(path)
