"""Tests for configuration handling and model assembly."""

import ast
import dataclasses
import importlib.util
import json
import re
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from neural_atoms.autodiff import GradTape, Tensor, backward, softmax_cross_entropy
from neural_atoms import attention as attention_module
from neural_atoms import autodiff as autodiff_module
from neural_atoms import gnn as gnn_module
from neural_atoms import model as model_module
from neural_atoms import neural_atom as neural_atom_module
from neural_atoms import virtual_node as virtual_node_module
from neural_atoms.gnn import gcn_forward
from neural_atoms.graphs import MolecularGraph, batch_graphs, generate_lri_task
from neural_atoms.model import ConfigError, GraphPropertyModel, TrainConfig
from neural_atoms.training import Adam, _batch_loss, dataset_dimensions
from helpers import (add_row, broadcast_then_add, concat_rows, expand_then_add, matmul,
                     mean_then_add, mul, neural_atom_block, rows, side_by_side_gathers, sum_all)
from test_autodiff import composed_affine
from test_virtual_node import looped_batch_round, mean_rows


def make_config(**overrides):
    base = dict(dataset="unused.jsonl", out="unused", layers=2, hidden=8,
                heads=2, epochs=1, batch=4, seed=3)
    base.update(overrides)
    return TrainConfig(**base)


def chain_graph(n, feature_dim, seed=0):
    rng = np.random.default_rng(seed)
    edges = [(i, i + 1) for i in range(n - 1)]
    return MolecularGraph(num_nodes=n, edges=edges,
                          node_features=rng.normal(size=(n, feature_dim)),
                          graph_label=int(rng.integers(2)))


class TestTrainConfig:
    def test_rejects_unknown_enum_values(self):
        with pytest.raises(ConfigError, match="backbone"):
            make_config(backbone="sage")
        with pytest.raises(ConfigError, match="augment"):
            make_config(augment="atoms")
        with pytest.raises(ConfigError, match="task"):
            make_config(task="link-prediction")

    def test_rejects_bad_numbers(self):
        with pytest.raises(ConfigError, match="lr"):
            make_config(lr=0.0)
        with pytest.raises(ConfigError, match="layers"):
            make_config(layers=0)
        with pytest.raises(ConfigError, match="proportion"):
            make_config(proportion=-0.1)
        with pytest.raises(ConfigError, match="seed"):
            make_config(seed=-1)

    def test_rejects_bools_for_integer_fields(self):
        for name in ("layers", "hidden", "heads", "virtual_nodes", "epochs", "batch", "seed"):
            with pytest.raises(ConfigError, match=name):
                make_config(**{name: True})

    def test_rejects_bad_atom_schedule_settings(self):
        # caught when the config is built, whatever the augment
        with pytest.raises(ConfigError, match="k_strategy"):
            make_config(k_strategy="bogus")
        for bad in (0.0, 3.0, 1.0 + 1e-9, float("nan"), float("inf")):
            with pytest.raises(ConfigError, match="proportion"):
                make_config(proportion=bad)
        assert make_config(proportion=1.0).proportion == 1.0

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            TrainConfig.from_dict({"dataset": "a", "out": "b", "momentum": 0.9})
        with pytest.raises(ConfigError, match="dataset"):
            TrainConfig.from_dict({"out": "b"})

    def test_file_round_trip(self, tmp_path):
        cfg = make_config(augment="neural-atoms", proportion=0.25)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg.to_dict()), encoding="utf-8")
        assert TrainConfig.from_dict(json.loads(path.read_text(encoding="utf-8"))) == cfg

    @pytest.mark.parametrize("name", ["lr", "proportion"])
    @pytest.mark.parametrize("bad", [True, False, "0.1", None, [0.1],
                                     float("nan"), float("inf"), -float("inf")])
    def test_from_dict_rejects_non_numbers_for_float_fields(self, name, bad):
        with pytest.raises(ConfigError, match=name):
            TrainConfig.from_dict({"dataset": "a", "out": "b", name: bad})


class TestModelConstruction:
    def test_same_seed_gives_identical_parameters(self):
        cfg = make_config(augment="neural-atoms")
        a = GraphPropertyModel(cfg, feature_dim=5, out_dim=2, avg_nodes=10.0)
        b = GraphPropertyModel(cfg, feature_dim=5, out_dim=2, avg_nodes=10.0)
        names_a = [n for n, _ in a.parameters()]
        assert names_a == [n for n, _ in b.parameters()]
        for (_, ta), (_, tb) in zip(a.parameters(), b.parameters()):
            assert np.array_equal(ta.data, tb.data)

    def test_parameters_depend_on_dataset_only_through_atom_count(self):
        # avg node counts 10 and 12 both floor to the same K at p=0.4, so the
        # models must be parameter-for-parameter identical
        cfg = make_config(augment="neural-atoms", proportion=0.4)
        a = GraphPropertyModel(cfg, feature_dim=5, out_dim=2, avg_nodes=10.0)
        b = GraphPropertyModel(cfg, feature_dim=5, out_dim=2, avg_nodes=12.0)
        assert a.k_counts == b.k_counts
        for (na, ta), (nb, tb) in zip(a.parameters(), b.parameters()):
            assert na == nb and np.array_equal(ta.data, tb.data)

    @pytest.mark.parametrize("augment", ["none", "neural-atoms", "virtual-node"])
    def test_avg_nodes_below_one_is_refused_for_every_augment(self, augment):
        cfg = make_config(augment=augment)
        with pytest.raises(ConfigError, match="avg_nodes must be at least 1, got 0.4"):
            GraphPropertyModel(cfg, 5, 2, avg_nodes=0.4)
        assert GraphPropertyModel(cfg, 5, 2, avg_nodes=1).avg_nodes == 1.0

    def test_parameter_names_are_unique(self):
        for augment in ("none", "neural-atoms", "virtual-node"):
            cfg = make_config(augment=augment, backbone="gin")
            model = GraphPropertyModel(cfg, 5, 2, 12.0)
            names = [n for n, _ in model.parameters()]
            assert len(names) == len(set(names))

    def test_plain_model_has_only_backbone_and_head(self):
        model = GraphPropertyModel(make_config(), 5, 2, 12.0)
        names = [n for n, _ in model.parameters()]
        assert names == ["layer0.gcn.weight", "layer1.gcn.weight",
                         "head.bias", "head.weight"]

    def test_atom_count_is_set_by_schedule_not_graph_sizes(self):
        cfg = make_config(augment="neural-atoms", proportion=0.5)
        model = GraphPropertyModel(cfg, 3, 2, avg_nodes=8.0)
        assert model.k_counts == [4, 4]
        # the same parameters serve graphs of any size
        small = batch_graphs([chain_graph(3, 3, seed=1)])
        large = batch_graphs([chain_graph(40, 3, seed=2)])
        assert model.forward(small).graph_outputs.shape == (1, 2)
        assert model.forward(large).graph_outputs.shape == (1, 2)


class TestForward:
    def test_output_shapes_for_graph_tasks(self):
        graphs = [chain_graph(n, 4, seed=n) for n in (3, 5, 7)]
        model = GraphPropertyModel(make_config(), 4, 3, 5.0)
        out = model.forward(batch_graphs(graphs))
        assert out.graph_outputs.shape == (3, 3)
        assert out.node_states.shape == (15, 8)
        assert out.traces is None

    def test_batched_forward_matches_single_graph_forwards(self):
        graphs = [chain_graph(n, 4, seed=10 + n) for n in (4, 6, 5)]
        for augment in ("none", "neural-atoms", "virtual-node"):
            cfg = make_config(augment=augment)
            model = GraphPropertyModel(cfg, 4, 2, 5.0)
            batched = model.forward(batch_graphs(graphs)).graph_outputs.data
            for i, g in enumerate(graphs):
                single = model.forward(batch_graphs([g])).graph_outputs.data
                assert np.abs(batched[i] - single[0]).max() < 1e-12, augment

    def test_neural_atom_stack_matches_block_chain_on_one_graph(self):
        cfg = make_config(augment="neural-atoms", layers=2)
        model = GraphPropertyModel(cfg, 4, 2, 6.0)
        graph = chain_graph(6, 4, seed=3)

        h = Tensor(graph.node_features)
        batch = batch_graphs([graph])
        for i in range(2):
            h, _ = neural_atom_block(
                h, batch,
                lambda x, b, i=i: gcn_forward(x, b, model.gnn_layers[i]),
                model.atom_layers[i])
        out = model.forward(batch)
        assert np.array_equal(out.node_states.data, h.data)

    def test_traces_cover_every_layer_and_graph(self):
        cfg = make_config(augment="neural-atoms", layers=2, proportion=0.5)
        model = GraphPropertyModel(cfg, 4, 2, 6.0)
        graphs = [chain_graph(6, 4, seed=1), chain_graph(4, 4, seed=2)]
        out = model.forward(batch_graphs(graphs), collect_traces=True)
        assert len(out.traces) == 2 and len(out.traces[0]) == 2
        assert out.traces[0][0].node_allocation.shape == (6, 3)
        assert out.traces[0][1].node_allocation.shape == (4, 3)
        assert out.traces[1][0].atom_states.shape == (3, 8)

    def test_pair_contact_scores_one_row_per_pair(self):
        rng = np.random.default_rng(0)
        graphs = []
        for n in (5, 6):
            g = MolecularGraph(
                num_nodes=n, edges=[(i, i + 1) for i in range(n - 1)],
                node_features=rng.normal(size=(n, 3)),
                pair_labels=[(0, n - 1, 1), (1, 2, 0), (0, 2, 0)])
            graphs.append(g)
        cfg = make_config(task="pair-contact")
        model = GraphPropertyModel(cfg, 3, 1, 5.5)
        out = model.forward(batch_graphs(graphs))
        assert out.pair_scores.shape == (6, 1)
        assert out.graph_outputs is None

    def test_pair_contact_needs_pair_labels(self):
        cfg = make_config(task="pair-contact")
        model = GraphPropertyModel(cfg, 4, 1, 5.0)
        with pytest.raises(ConfigError, match="pair labels"):
            model.forward(batch_graphs([chain_graph(5, 4)]))

    def test_feature_width_mismatch_is_reported(self):
        model = GraphPropertyModel(make_config(), 4, 2, 5.0)
        with pytest.raises(ConfigError, match="features"):
            model.forward(batch_graphs([chain_graph(5, 3)]))


def test_virtual_node_count_changes_forward_not_interface():
    graphs = generate_lri_task(4, 6, 3, seed=5)
    batch = batch_graphs(graphs)
    feature_dim = graphs[0].feature_dim
    out_single = GraphPropertyModel(
        make_config(augment="virtual-node", virtual_nodes=1),
        feature_dim, 2, 6.0).forward(batch)
    out_triple = GraphPropertyModel(
        make_config(augment="virtual-node", virtual_nodes=3),
        feature_dim, 2, 6.0).forward(batch)
    assert out_single.graph_outputs.shape == out_triple.graph_outputs.shape
    assert not np.array_equal(out_single.graph_outputs.data,
                              out_triple.graph_outputs.data)


def with_pairs(graphs):
    """The graphs with three labelled pairs each in place of their graph label."""
    return [MolecularGraph(g.num_nodes, g.edges, g.node_features,
                           pair_labels=[(0, g.num_nodes - 1, 1), (0, 1, 0), (1, g.num_nodes - 1, 0)])
            for g in graphs]


@pytest.mark.parametrize("overrides", [
    dict(augment="none"), dict(augment="neural-atoms"), dict(augment="virtual-node"),
    dict(backbone="gin", task="pair-contact"),
], ids=["none", "neural-atoms", "virtual-node", "pair-contact"])
def test_forward_tape_length_does_not_grow_with_batch_size(overrides):
    """The atom block, the virtual node, the readout and the pair head run once per batch."""
    graphs = generate_lri_task(64, 8, 3, seed=4)
    pairs = overrides.get("task") == "pair-contact"
    if pairs:
        graphs = with_pairs(graphs)
    model = GraphPropertyModel(make_config(layers=3, **overrides),
                               graphs[0].feature_dim, 1 if pairs else 2, 8.0)

    def tape_length(chunk):
        out = model.forward(batch_graphs(chunk))
        out = out.pair_scores if pairs else out.graph_outputs
        return len(GradTape.trace(sum_all(out)).entries)

    assert tape_length(graphs) == tape_length(graphs[:1])


def ragged_graphs(feature_dim):
    """Chains, a 1-node graph and an edgeless graph in one batch."""
    rng = np.random.default_rng(7)
    graphs = [chain_graph(n, feature_dim, seed=20 + n) for n in (5, 3)]
    graphs.insert(1, MolecularGraph(num_nodes=1, edges=[],
                                    node_features=rng.normal(size=(1, feature_dim)),
                                    graph_label=0))
    graphs.append(MolecularGraph(num_nodes=4, edges=[],
                                 node_features=rng.normal(size=(4, feature_dim)),
                                 graph_label=1))
    return graphs


def perfbench_checks():
    """The benchmark's own ``perfbench/checks.py``, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "checks.py"
    spec = importlib.util.spec_from_file_location("perfbench_checks", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("heads", [1, 2, 3])
def test_traces_pass_the_benchmark_allocation_check(heads):
    graphs = ragged_graphs(4)
    model = GraphPropertyModel(make_config(augment="neural-atoms", layers=3, heads=heads),
                               *dataset_dimensions(graphs, "graph-classification"))
    traces = model.forward(batch_graphs(graphs), collect_traces=True).traces
    assert len(traces) == 3 and all(len(trace) == len(graphs) for trace in traces)
    checks = perfbench_checks()
    checks.check_allocations(traces)
    # the traces are read-only, so the poke goes into a copy
    poked = dataclasses.replace(traces[1], allocations=traces[1].allocations.copy())
    poked.allocations[0, poked.offsets[1]] += 1e-6     # graph 1's one node
    with pytest.raises(checks.CheckFailed, match="layer 1 graph 1"):
        checks.check_allocations([traces[0], poked, traces[2]])


@pytest.mark.parametrize("layout", ["ragged", "equal"])
def test_traces_keep_their_bytes_through_backward_and_an_adam_step(layout):
    # on graphs of one size the allocations view the array the backward reads
    graphs = ragged_graphs(4) if layout == "ragged" else [chain_graph(5, 4, s) for s in range(4)]
    model = GraphPropertyModel(make_config(augment="neural-atoms", layers=3),
                               *dataset_dimensions(graphs, "graph-classification"))
    optimizer = Adam(model.flat, 0.02)
    labels = np.array([g.graph_label for g in graphs])
    out = model.forward(batch_graphs(graphs), collect_traces=True)
    arrays = [a for trace in out.traces for a in (trace.offsets, trace.atom_states,
                                                   trace.exchanged_states, trace.allocations)]
    before = [a.tobytes() for a in arrays]
    backward(softmax_cross_entropy(out.graph_outputs, labels), [model.flat])
    optimizer.step()
    assert [a.tobytes() for a in arrays] == before


def looped_virtual_node_forward(model, batch):
    """Oracle: the model's forward with the graph-by-graph virtual-node loop."""
    h = Tensor(batch.node_features)
    vstates = Tensor(np.zeros((len(batch) * model.cfg.virtual_nodes, model.cfg.hidden)))
    for i in range(model.cfg.layers):
        h = model._message_pass(h, batch, i)
        h, vstates = looped_batch_round(h, vstates, model.vn_layers[i], batch.offsets)
    pooled = concat_rows([mean_rows(rows(h, lo, hi))
                          for lo, hi in zip(batch.offsets[:-1], batch.offsets[1:])])
    return add_row(matmul(pooled, model.head["weight"]), model.head["bias"])


@pytest.mark.parametrize("count", [1, 3])
def test_virtual_node_forward_matches_graph_by_graph_loop(count):
    graphs = ragged_graphs(4)
    model = GraphPropertyModel(make_config(augment="virtual-node", virtual_nodes=count,
                                           layers=3), 4, 2, 3.0)
    batch = batch_graphs(graphs)
    params = model.tensors()
    weights = Tensor(np.random.default_rng(count).normal(size=(len(graphs), 2)))

    def run(forward):
        logits = forward(batch)
        backward(sum_all(mul(logits, weights)), params)
        return logits.data, [p.grad.copy() for p in params]

    logits, grads = run(lambda b: model.forward(b).graph_outputs)
    ref_logits, ref_grads = run(lambda b: looped_virtual_node_forward(model, b))
    assert np.abs(logits - ref_logits).max() < 1e-10
    names = [name for name, _ in model.parameters()]
    for name, got, ref in zip(names, grads, ref_grads):
        assert np.abs(got - ref).max() < 1e-10, name
    assert np.abs(grads[names.index("layer0.vnode.w1")]).max() > 0


# The benchmark's workloads, and lri-atoms at 1, 3 and 4 heads besides its 2: model
# settings and the most tape entries per batch
WORKLOAD_MODELS = {
    "contact-gin": (dict(backbone="gin", task="pair-contact"), 12),
    "lri-vnode": (dict(augment="virtual-node"), 20),
    "lri-atoms": (dict(augment="neural-atoms"), 44),
    "lri-atoms-1-head": (dict(augment="neural-atoms", heads=1), 44),
    "lri-atoms-3-heads": (dict(augment="neural-atoms", heads=3), 44),
    "lri-atoms-4-heads": (dict(augment="neural-atoms", heads=4), 44),
}


def workload_batch_loss(overrides: dict) -> Tensor:
    """The training loss of one 64-graph batch of 20-node paths at hidden 32 and
    3 layers, 2 heads unless ``overrides`` says otherwise."""
    graphs = generate_lri_task(64, 20, 4, seed=1)
    if overrides.get("task") == "pair-contact":
        graphs = with_pairs(graphs)
    cfg = TrainConfig(dataset="unused", out="unused", layers=3, hidden=32,
                      **{"heads": 2, **overrides})
    model = GraphPropertyModel(cfg, *dataset_dimensions(graphs, cfg.task))
    return _batch_loss(model, batch_graphs(graphs))[0]


@pytest.mark.parametrize("workload", sorted(WORKLOAD_MODELS))
def test_training_tape_per_workload_batch_has_no_unfused_bias_or_relu(workload):
    """One ``affine`` entry per weight product, with its bias and ReLU inside."""
    overrides, most = WORKLOAD_MODELS[workload]
    names = [e.name for e in GradTape.trace(workload_batch_loss(overrides)).entries]
    assert len(names) <= most
    assert "affine" in names and not {"add_row", "relu"} & set(names)


@pytest.mark.parametrize("overrides", [
    dict(augment="neural-atoms", heads=1), dict(augment="neural-atoms", heads=2),
    dict(augment="neural-atoms", heads=3), dict(augment="virtual-node", virtual_nodes=1),
    dict(augment="virtual-node", virtual_nodes=2), dict(backbone="gin", task="pair-contact"),
], ids=["lri-atoms-1-head", "lri-atoms-2-heads", "lri-atoms-3-heads", "lri-vnode-1",
        "lri-vnode-2", "contact-gin"])
def test_every_op_output_on_a_workload_tape_is_c_contiguous(overrides):
    """The bits of a product depend on the memory order of its operands, so no
    op hands a later one a strided array: only leaves are views.  The atom
    projection's W_q, W_k^T and W_v, three per layer, are such leaves, and the
    check sees them."""
    loss = workload_batch_loss(overrides)
    entries = GradTape.trace(loss).entries
    outputs = {id(t): t for e in entries for t in e.inputs if t.entry is not None}
    outputs[id(loss)] = loss
    assert len(outputs) == len(entries)
    assert all(t.data.flags.c_contiguous for t in outputs.values())
    leaves = [t for e in entries for t in e.inputs if t.entry is None]
    strided = [t for t in leaves if not t.data.flags.c_contiguous]
    assert len(strided) == (9 if overrides.get("augment") == "neural-atoms" else 0)


def engine_op_names() -> set[str]:
    """Every tape-entry name that ``autodiff.py`` passes to ``_result``, read from its source."""
    tree = ast.parse(Path(autodiff_module.__file__).read_text(encoding="utf-8"))
    return {node.args[1].value for node in ast.walk(tree)
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_result"}


def test_every_engine_op_records_on_some_training_tape():
    """No op lives in the engine for the tests alone: the training tapes of every
    backbone, augment and task together record each of them."""
    graphs = ragged_graphs(4)
    datasets = {
        "graph-classification": graphs,
        "graph-regression": [MolecularGraph(g.num_nodes, g.edges, g.node_features,
                                            graph_label=np.array([0.5, -1.0]))
                             for g in graphs],
        "pair-contact": with_pairs([g for g in graphs if g.num_nodes > 1]),
    }
    augments = [dict(augment="none"), dict(augment="neural-atoms"),
                dict(augment="virtual-node", virtual_nodes=1),
                dict(augment="virtual-node", virtual_nodes=2)]
    recorded = set()
    for backbone in ("gcn", "gin"):
        for augment in augments:
            for task, data in datasets.items():
                model = GraphPropertyModel(make_config(backbone=backbone, task=task, **augment),
                                           *dataset_dimensions(data, task))
                loss, _, _ = _batch_loss(model, batch_graphs(data))
                recorded |= {e.name for e in GradTape.trace(loss).entries}
    assert recorded == engine_op_names()


def test_readme_layout_states_the_engine_op_count_and_names_every_op():
    """README's ``autodiff.py`` entry keeps up with the engine: its op count and
    its list of op names are those of :func:`engine_op_names`."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    entry = re.search(r"^  autodiff\.py +(.*?)\n  \S", readme, re.M | re.S).group(1)
    count, listed = re.search(r"(\d+) ops, each recorded by some training tape: ([^;]*);",
                              " ".join(entry.split())).groups()
    assert int(count) == len(engine_op_names())
    assert set(re.split(r", | and ", listed)) == engine_op_names()


@pytest.mark.parametrize("overrides", [
    dict(), dict(backbone="gin"), dict(augment="virtual-node", virtual_nodes=2),
    dict(augment="neural-atoms"), dict(backbone="gin", task="pair-contact"),
], ids=["gcn", "gin", "virtual-node", "neural-atoms", "pair-contact"])
def test_fused_affine_matches_composed_ops_on_the_whole_model(overrides, monkeypatch):
    """Loss and every gradient, bit for bit, as with matmul, add and relu recorded
    apart, the pair head's two gathers joined by concat_cols, each enhancement
    an add after its segment_broadcast or segment_expand, and the virtual-node
    means gathered down the states and added."""
    task = overrides.get("task", "graph-classification")
    graphs = ragged_graphs(4)
    if task == "pair-contact":
        graphs = with_pairs([g for g in graphs if g.num_nodes > 1])
    model = GraphPropertyModel(make_config(layers=3, **overrides),
                               *dataset_dimensions(graphs, task))
    rng = np.random.default_rng(8)
    for t in model.tensors():
        # non-zero biases, and a ReLU that cuts some rows but not all
        t.data += rng.normal(0.0, 0.3, size=t.shape)
    batch = batch_graphs(graphs)

    def run():
        loss, _, _ = _batch_loss(model, batch)
        backward(loss, model.tensors())
        ops = Counter(e.name for e in GradTape.trace(loss).entries)
        return [loss.data] + [t.grad.copy() for t in model.tensors()], ops

    fused, fused_ops = run()
    # the virtual-node update is gnn.mlp, so gnn's affine covers it too; the
    # atom block's residuals go through attention's and neural_atom's
    for module in (gnn_module, model_module, attention_module, neural_atom_module):
        monkeypatch.setattr(module, "affine", composed_affine)
    monkeypatch.setattr(model_module, "gather_rows", side_by_side_gathers)
    for module in (neural_atom_module, virtual_node_module):
        monkeypatch.setattr(module, "segment_broadcast", broadcast_then_add)
    monkeypatch.setattr(virtual_node_module, "segment_expand", expand_then_add)
    monkeypatch.setattr(virtual_node_module, "segment_mean", mean_then_add)
    composed, composed_ops = run()
    assert "relu" in composed_ops and "affine" in fused_ops and "affine" not in composed_ops
    if "virtual_nodes" in overrides:
        # per layer, the pooled mean's add, the state mix's and the output's: all
        # three composed forms ran; the readout's segment_mean is the fourth
        assert fused_ops["segment_mean"] == 4 and fused_ops["segment_expand"] == 3
        assert composed_ops["add"] == 9 and composed_ops["gather_rows"] == 3
    assert "matmul" in composed_ops
    assert ("concat_cols" in composed_ops) == (task == "pair-contact")
    assert not {"matmul", "concat_cols", "add"} & fused_ops.keys()
    names = ["loss"] + [name for name, _ in model.parameters()]
    for name, got, want in zip(names, fused, composed):
        np.testing.assert_array_equal(got, want, err_msg=name)
    assert all(np.abs(g).max() > 0 for g in fused[1:3])


@pytest.mark.parametrize("overrides", [
    dict(), dict(backbone="gin"), dict(augment="virtual-node", virtual_nodes=2),
    dict(augment="neural-atoms", heads=1), dict(augment="neural-atoms", heads=3),
    dict(backbone="gin", task="pair-contact"),
], ids=["gcn", "gin", "virtual-node", "neural-atoms-1-head", "neural-atoms-3-heads",
        "pair-contact"])
def test_named_parameters_cover_the_flat_buffer_exactly_once(overrides):
    """Every checkpointed tensor is trained: its data and gradient view ``flat``,
    and the named tensors together cover each element of it once."""
    task = overrides.get("task", "graph-classification")
    graphs = ragged_graphs(4)
    if task == "pair-contact":
        graphs = with_pairs([g for g in graphs if g.num_nodes > 1])
    model = GraphPropertyModel(make_config(layers=3, **overrides),
                               *dataset_dimensions(graphs, task))
    for buffer, of in ((model.flat.data, lambda t: t.data), (model.flat.grad, lambda t: t.grad)):
        buffer[...] = 0.0
        for name, t in model.parameters():
            assert np.shares_memory(of(t), buffer), name
            of(t)[...] += 1.0
        np.testing.assert_array_equal(buffer, 1.0)


@pytest.mark.parametrize("name", ["dataset", "out"])
@pytest.mark.parametrize("bad", [None, ["d.jsonl"], 5, 0, Path("d.jsonl")],
                         ids=["null", "list", "five", "zero", "path"])
def test_config_rejects_non_string_paths(name, bad):
    with pytest.raises(ConfigError, match=f"{name} must be a path string"):
        TrainConfig.from_dict({"dataset": "d.jsonl", "out": "run", name: bad})
