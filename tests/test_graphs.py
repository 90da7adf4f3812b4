"""Graph container, dataset IO, and synthetic-task tests."""

import json

import numpy as np
import pytest

from neural_atoms.graphs import (
    DatasetError,
    GraphError,
    MolecularGraph,
    batch_graphs,
    generate_lri_task,
    load_dataset,
    save_dataset,
)
from helpers import permute_graph


def make_graph(n=4, dim=3, seed=0, label=1):
    rng = np.random.default_rng(seed)
    edges = [(i, i + 1) for i in range(n - 1)]
    return MolecularGraph(n, edges, rng.normal(size=(n, dim)), graph_label=label)


class TestMolecularGraph:
    def test_rejects_out_of_range_edge(self):
        with pytest.raises(GraphError):
            MolecularGraph(3, [(0, 5)], np.zeros((3, 2)), graph_label=0)

    def test_rejects_self_loop(self):
        with pytest.raises(GraphError):
            MolecularGraph(3, [(1, 1)], np.zeros((3, 2)), graph_label=0)

    def test_rejects_non_finite_features(self):
        feats = np.zeros((2, 2))
        feats[0, 0] = np.nan
        with pytest.raises(GraphError):
            MolecularGraph(2, [(0, 1)], feats, graph_label=0)

    @pytest.mark.parametrize("feats", [
        [[True], [0.5]], [[1.0], ["0.5"]],
        np.array([[True], [False]]), np.array([["1.0"], ["0.5"]]),
    ], ids=["bool-list", "string-list", "bool-array", "string-array"])
    def test_refuses_features_that_would_be_coerced(self, feats):
        with pytest.raises(GraphError, match="node_feats"):
            MolecularGraph(2, [(0, 1)], feats, graph_label=0)

    def test_keeps_integer_features_and_plain_number_lists(self):
        for feats in (np.array([[1], [2]]), [[1], [2.0]], np.array([[1.0], [2.0]], dtype=object)):
            graph = MolecularGraph(2, [(0, 1)], feats, graph_label=0)
            assert graph.node_features.dtype == np.float64
            assert graph.node_features.tolist() == [[1.0], [2.0]]

    def test_rejects_bad_pair_flag(self):
        with pytest.raises(GraphError):
            MolecularGraph(3, [(0, 1)], np.zeros((3, 2)), pair_labels=[(0, 2, 7)])


class TestPermute:
    def test_round_trip_through_inverse(self):
        g = make_graph(n=6, seed=3)
        perm = [2, 0, 5, 1, 4, 3]
        inverse = [perm.index(i) for i in range(6)]
        back = permute_graph(permute_graph(g, perm), inverse)
        np.testing.assert_array_equal(back.node_features, g.node_features)
        assert back.edges == g.edges

    def test_features_follow_nodes(self):
        g = make_graph(n=3, seed=1)
        out = permute_graph(g, [2, 0, 1])
        np.testing.assert_array_equal(out.node_features[2], g.node_features[0])

    def test_rejects_non_bijection(self):
        with pytest.raises(GraphError):
            permute_graph(make_graph(n=3), [0, 0, 2])

    def test_pair_labels_are_relabeled(self):
        g = MolecularGraph(3, [(0, 1), (1, 2)], np.zeros((3, 2)),
                           pair_labels=[(0, 2, 1)])
        out = permute_graph(g, [1, 2, 0])
        assert out.pair_labels == [(1, 0, 1)]


class TestBatching:
    def test_offsets_are_prefix_sums(self):
        batch = batch_graphs([make_graph(n=2), make_graph(n=3)])
        np.testing.assert_array_equal(batch.offsets, [0, 2, 5])
        assert batch.total_nodes == 5

    def test_merged_graph_shifts_edges(self):
        batch = batch_graphs([make_graph(n=2), make_graph(n=3)])
        merged = batch.merged_graph()
        assert merged.dtype == np.intp and merged.tolist() == [[0, 1], [2, 3], [3, 4]]
        assert batch.merged_graph() is merged

    def test_degrees_count_each_edge_twice(self):
        # a path's degrees are 1, 2, 2, 1, and S = D^-1/2 counts the self-loop too
        path = MolecularGraph(4, [(0, 1), (1, 2), (2, 3)], np.zeros((4, 1)), graph_label=0)
        batch = batch_graphs([make_graph(n=2, dim=1), path])
        s = 1.0 / np.sqrt([2.0, 2.0, 2.0, 3.0, 3.0, 2.0])
        a = np.eye(6) + np.eye(6, k=1) + np.eye(6, k=-1)
        a[1, 2] = a[2, 1] = 0.0
        got = batch.closed_neighborhood(normalised=True).apply(np.eye(6))
        np.testing.assert_allclose(got, s[:, None] * a * s, rtol=0, atol=1e-15)
        assert batch.closed_neighborhood(normalised=True) is batch.closed_neighborhood(True)

    def test_rejects_mixed_feature_dims(self):
        with pytest.raises(GraphError):
            batch_graphs([make_graph(dim=3), make_graph(dim=4)])

    def test_features_stack_in_order(self):
        a, b = make_graph(n=2, seed=5), make_graph(n=3, seed=6)
        batch = batch_graphs([a, b])
        np.testing.assert_array_equal(batch.node_features[:2], a.node_features)
        np.testing.assert_array_equal(batch.node_features[2:], b.node_features)


class TestDatasetIO:
    def test_round_trip(self, tmp_path):
        graphs = [make_graph(n=3, seed=i, label=i % 2) for i in range(5)]
        graphs.append(MolecularGraph(4, [(0, 1), (2, 3)],
                                     np.random.default_rng(9).normal(size=(4, 3)),
                                     pair_labels=[(0, 3, 1), (1, 2, 0)]))
        path = tmp_path / "data.jsonl"
        save_dataset(graphs, path)
        loaded = load_dataset(path)
        assert len(loaded) == len(graphs)
        for got, want in zip(loaded, graphs):
            assert got.num_nodes == want.num_nodes
            assert got.edges == want.edges
            np.testing.assert_array_equal(got.node_features, want.node_features)
            assert got.graph_label == want.graph_label
            assert got.pair_labels == want.pair_labels

    def test_float_labels_round_trip_exactly(self, tmp_path):
        rng = np.random.default_rng(1)
        g = MolecularGraph(2, [(0, 1)], rng.normal(size=(2, 2)),
                           graph_label=rng.normal(size=3))
        path = tmp_path / "reg.jsonl"
        save_dataset([g], path)
        np.testing.assert_array_equal(load_dataset(path)[0].graph_label, g.graph_label)

    def test_unknown_key_is_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = {"num_nodes": 2, "edges": [[0, 1]], "node_feats": [[1.0], [2.0]], "graph_label": 0}
        bad = dict(good, smiles="CCO")
        path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        with pytest.raises(DatasetError, match="line 2"):
            load_dataset(path)

    def test_both_label_kinds_is_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        record = {"num_nodes": 2, "edges": [[0, 1]], "node_feats": [[1.0], [2.0]],
                  "graph_label": 0, "pair_labels": [[0, 1, 1]]}
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(DatasetError, match="exactly one"):
            load_dataset(path)

    def test_missing_label_is_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        record = {"num_nodes": 2, "edges": [[0, 1]], "node_feats": [[1.0], [2.0]]}
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(DatasetError, match="line 1"):
            load_dataset(path)

    def test_empty_regression_label_is_rejected_with_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = {"num_nodes": 2, "edges": [[0, 1]], "node_feats": [[1.0], [2.0]],
                "graph_label": [0.5]}
        path.write_text(json.dumps(good) + "\n" + json.dumps(dict(good, graph_label=[])) + "\n")
        with pytest.raises(DatasetError, match="line 2: graph_label must be .* non-empty"):
            load_dataset(path)

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"num_nodes": 2,\n')
        with pytest.raises(DatasetError, match="line 1"):
            load_dataset(path)

    def test_out_of_range_edge_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        record = {"num_nodes": 2, "edges": [[0, 9]], "node_feats": [[1.0], [2.0]], "graph_label": 0}
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(DatasetError, match="line 1"):
            load_dataset(path)

    PAIR_RECORD = {"num_nodes": 3, "edges": [[0, 1], [1, 2]],
                   "node_feats": [[0.5], [1], [2.0]], "pair_labels": [[0, 2, 1], [0, 1, 0]]}

    @pytest.mark.parametrize("key, value, message", [
        ("num_nodes", 3.9, "num_nodes"),
        ("num_nodes", "3", "num_nodes"),
        ("num_nodes", True, "num_nodes"),
        ("edges", [[0, 1.7], [1, 2]], "edge endpoint"),
        ("edges", [[True, 2]], "edge endpoint"),
        ("edges", [[0, "1"]], "edge endpoint"),
        ("pair_labels", [[0, 2.5, 1]], "pair label node"),
        ("pair_labels", [["0", 2, 1]], "pair label node"),
        ("pair_labels", [[0, 2, True]], "pair label flag"),
        ("node_feats", [["0.5"], [1], [2.0]], "node_feats"),
        ("node_feats", [[0.5], [True], [2.0]], "node_feats"),
    ], ids=["num-nodes-fraction", "num-nodes-string", "num-nodes-bool",
            "edge-fraction", "edge-bool", "edge-string", "pair-fraction", "pair-string",
            "pair-flag-bool", "feature-string", "feature-bool"])
    def test_values_that_would_be_coerced_are_rejected_with_line(self, tmp_path, key, value,
                                                                 message):
        path = tmp_path / "bad.jsonl"
        bad = dict(self.PAIR_RECORD, **{key: value})
        path.write_text(json.dumps(self.PAIR_RECORD) + "\n" + json.dumps(bad) + "\n")
        with pytest.raises(DatasetError, match=f"line 2: {message}"):
            load_dataset(path)

    # (a defect of one pair-labelled line, the words its error must hold)
    LINE_DEFECTS = [
        ("too few feature rows", lambda r: r.update(node_feats=[[0.5], [1]]),
         r"node_features must be \(3, D\) with D >= 1, got \(2, 1\)"),
        ("pair node out of range", lambda r: r.update(pair_labels=[[0, 7, 1]]),
         r"pair label \(0, 7\) out of range"),
        ("no edges", lambda r: r.pop("edges"), "missing required key 'edges'"),
    ]

    @pytest.mark.parametrize("case, edit, message", LINE_DEFECTS,
                             ids=[case[0] for case in LINE_DEFECTS])
    def test_line_defect_is_named_with_line(self, tmp_path, case, edit, message):
        record = json.loads(json.dumps(self.PAIR_RECORD))
        edit(record)
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(DatasetError, match=f"line 1: {message}"):
            load_dataset(path)

    @pytest.mark.parametrize("text", ["", "\n  \n\n"], ids=["empty", "blank lines"])
    def test_file_without_graphs_is_refused(self, tmp_path, text):
        path = tmp_path / "none.jsonl"
        path.write_text(text)
        with pytest.raises(DatasetError, match="dataset .*none.jsonl holds no graphs"):
            load_dataset(path)

    def test_integral_numbers_load_as_ints(self, tmp_path):
        path = tmp_path / "ok.jsonl"
        record = dict(self.PAIR_RECORD, num_nodes=3.0, edges=[[0.0, 1], [1, 2]])
        path.write_text(json.dumps(record) + "\n")
        graph = load_dataset(path)[0]
        assert graph.num_nodes == 3 and type(graph.num_nodes) is int
        assert graph.edges == [(0, 1), (1, 2)] and type(graph.edges[0][0]) is int
        assert graph.pair_labels == [(0, 2, 1), (0, 1, 0)]
        np.testing.assert_array_equal(graph.node_features, [[0.5], [1.0], [2.0]])

    def test_numpy_integers_are_valid_indices(self):
        graph = MolecularGraph(np.int64(3), [(np.int64(0), np.int32(1))], np.zeros((3, 1)),
                               pair_labels=[(np.int64(0), 2, np.int64(1))])
        assert graph.edges == [(0, 1)] and graph.pair_labels == [(0, 2, 1)]
        with pytest.raises(GraphError, match="edge endpoint"):
            MolecularGraph(3, [(np.float64(0.5), 1)], np.zeros((3, 1)))


class TestLriTask:
    def test_deterministic_in_seed(self, tmp_path):
        a = generate_lri_task(40, 10, 3, seed=123)
        b = generate_lri_task(40, 10, 3, seed=123)
        pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_dataset(a, pa)
        save_dataset(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_different_seeds_differ(self):
        a = generate_lri_task(40, 10, 3, seed=0)
        b = generate_lri_task(40, 10, 3, seed=1)
        assert any(x.graph_label != y.graph_label
                   or not np.array_equal(x.node_features, y.node_features)
                   for x, y in zip(a, b))

    def test_labels_balanced(self):
        for n in (50, 101, 2000):
            graphs = generate_lri_task(n, 8, 4, seed=7)
            mean = np.mean([g.graph_label for g in graphs])
            assert abs(mean - 0.5) <= 0.02

    def test_label_matches_endpoint_colors(self):
        for g in generate_lri_task(200, 12, 5, seed=2):
            colors = g.node_features[:, :-1]
            first, last = colors[0].argmax(), colors[-1].argmax()
            assert g.graph_label == int(first == last)
            # interior nodes carry no color, every node carries the exists flag
            assert not colors[1:-1].any()
            np.testing.assert_array_equal(g.node_features[:, -1], 1.0)

    def test_path_structure(self):
        g = generate_lri_task(2, 6, 2, seed=0)[0]
        assert g.edges == [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]

    def test_rejects_degenerate_parameters(self):
        with pytest.raises(GraphError):
            generate_lri_task(10, 1, 3, seed=0)
        with pytest.raises(GraphError):
            generate_lri_task(10, 5, 1, seed=0)

    def test_integral_floats_are_the_integers(self):
        as_floats = generate_lri_task(12, 5.0, 3.0, seed=4.0)
        as_ints = generate_lri_task(12, 5, 3, seed=4)
        assert [(g.edges, g.graph_label) for g in as_floats] == \
            [(g.edges, g.graph_label) for g in as_ints]
        for a, b in zip(as_floats, as_ints):
            np.testing.assert_array_equal(a.node_features, b.node_features)

    @pytest.mark.parametrize("field, args", [
        ("seed", dict(seed=-1)), ("seed", dict(seed=1.5)), ("seed", dict(seed="1")),
        ("path_len", dict(path_len=4.5)), ("path_len", dict(path_len=True)),
        ("num_colors", dict(num_colors=2.5)), ("num_colors", dict(num_colors=None)),
    ])
    def test_every_argument_follows_the_one_input_rule(self, field, args):
        call = {"num_graphs": 10, "path_len": 5, "num_colors": 3, "seed": 0, **args}
        with pytest.raises(GraphError, match=field):
            generate_lri_task(**call)


GOOD_LINE = {"num_nodes": 2, "edges": [[0, 1]], "node_feats": [[1.0], [2.0]], "graph_label": 0}


@pytest.mark.parametrize("line", ["[1, 2]", "3", '"graph"', "null"])
def test_line_not_holding_an_object_is_rejected_with_line_number(tmp_path, line):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(GOOD_LINE) + "\n" + line + "\n")
    with pytest.raises(DatasetError, match="line 2: expected a JSON object"):
        load_dataset(path)


def test_blank_lines_are_skipped(tmp_path):
    path = tmp_path / "gaps.jsonl"
    other = dict(GOOD_LINE, graph_label=1)
    path.write_text("\n" + json.dumps(GOOD_LINE) + "\n\n   \n" + json.dumps(other) + "\n\n")
    assert [g.graph_label for g in load_dataset(path)] == [0, 1]
