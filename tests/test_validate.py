"""The one integer/number/choice rule, at every constructor that takes outside values.

A value must be accepted or refused the same way whether it comes from a
file or is passed to a constructor directly, so the integer fields of each
class are run through one table of values here.
"""

import json
import math

import numpy as np
import pytest

from neural_atoms.ewald import EwaldError, EwaldSystem
from neural_atoms.graphs import DatasetError, GraphError, MolecularGraph, load_dataset
from neural_atoms.model import ConfigError, GraphPropertyModel, TrainConfig
from neural_atoms.training import dataset_dimensions
from neural_atoms.validate import choice, integer, number

TWO_CHARGES = dict(atomic_numbers=np.array([1, -1]),
                   positions=np.array([[0.1, 0.1, 0.1], [0.6, 0.6, 0.6]]),
                   cell_edge=1.0, splitting=0.4, real_cutoff=2, recip_cutoff=2)
CONFIG = dict(dataset="d.jsonl", out="run")


def build_system(name, value):
    return EwaldSystem(**dict(TWO_CHARGES, **{name: value}))


def build_graph(name, value):
    return MolecularGraph(value, [(0, 1)], np.zeros((2, 1)))


def build_config(name, value):
    return TrainConfig(**dict(CONFIG, **{name: value}))


def build_model(name, value):
    dims = dict(dict(feature_dim=3, out_dim=2), **{name: value})
    return GraphPropertyModel(TrainConfig(**CONFIG), avg_nodes=10.0, **dims)


# (builder, field): every integer field a constructor takes from outside.  A
# cutoff of 2.5 once built half-integer lattice vectors and a wrong matrix.
INTEGER_FIELDS = ([(build_system, name) for name in ("real_cutoff", "recip_cutoff")]
                  + [(build_graph, "num_nodes")]
                  + [(build_config, name) for name in ("layers", "hidden", "heads",
                                                       "virtual_nodes", "epochs", "batch",
                                                       "seed")]
                  + [(build_model, name) for name in ("feature_dim", "out_dim")])
FIELD_IDS = [f"{builder.__name__.removeprefix('build_')}.{name}"
             for builder, name in INTEGER_FIELDS]
ERRORS = {build_system: EwaldError, build_graph: GraphError, build_config: ConfigError,
          build_model: ConfigError}


@pytest.mark.parametrize("builder, name", INTEGER_FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("value", [True, 2.5, "2", None], ids=repr)
def test_integer_field_refuses_non_integers(builder, name, value):
    with pytest.raises(ERRORS[builder], match=name):
        builder(name, value)


@pytest.mark.parametrize("builder, name", INTEGER_FIELDS, ids=FIELD_IDS)
@pytest.mark.parametrize("value", [2, 2.0, np.int64(2)], ids=repr)
def test_integer_field_stores_integers_as_int(builder, name, value):
    stored = getattr(builder(name, value), name)
    assert stored == 2 and type(stored) is int


@pytest.mark.parametrize("edge", [True, "1", None, [1.0], math.inf, math.nan], ids=repr)
def test_system_refuses_a_cell_edge_that_is_no_finite_number(edge):
    with pytest.raises(EwaldError, match="cell_edge"):
        EwaldSystem(**dict(TWO_CHARGES, cell_edge=edge))


def test_graph_refuses_a_bool_class_label():
    with pytest.raises(GraphError, match="graph_label"):
        MolecularGraph(2, [(0, 1)], np.zeros((2, 1)), graph_label=True)


@pytest.mark.parametrize("label", [np.int64(1), np.int32(1), 1])
def test_graph_stores_an_integer_class_label_as_int(label):
    graph = MolecularGraph(2, [(0, 1)], np.zeros((2, 1)), graph_label=label)
    assert graph.graph_label == 1 and type(graph.graph_label) is int
    assert dataset_dimensions([graph], "graph-classification") == (1, 2, 2.0)


@pytest.mark.parametrize("label", [1.0, np.float64(1.0), "1", [True, False], [True, 1.5], ["1.0"],
                                   [[1.0]], [np.nan]], ids=repr)
def test_graph_refuses_a_label_that_is_neither_class_nor_float_vector(label):
    with pytest.raises(GraphError, match="graph_label"):
        MolecularGraph(2, [(0, 1)], np.zeros((2, 1)), graph_label=label)


def test_graph_keeps_a_float_vector_label():
    graph = MolecularGraph(2, [(0, 1)], np.zeros((2, 1)), graph_label=[1, 2.5])
    assert graph.graph_label.dtype == np.float64
    np.testing.assert_array_equal(graph.graph_label, [1.0, 2.5])


def test_model_refuses_bool_dimensions():
    with pytest.raises(ConfigError, match="feature_dim"):
        GraphPropertyModel(TrainConfig(**CONFIG), True, True, 3.0)


@pytest.mark.parametrize("value, expected", [
    (np.float64(3.0), 3), (np.uint8(3), 3), (10 ** 30, 10 ** 30), (-4.0, -4),
])
def test_integer_accepts_integral_numbers(value, expected):
    got = integer(value, "n", ValueError)
    assert got == expected and type(got) is int


@pytest.mark.parametrize("value", [np.True_, math.inf, -math.inf, math.nan, np.float32(0.5),
                                   1 + 0j, b"2"], ids=repr)
def test_integer_refuses_what_is_not_an_integral_number(value):
    with pytest.raises(ValueError, match="n must hold"):
        integer(value, "n", ValueError)


@pytest.mark.parametrize("minimum, value, words", [
    (1, 0, "must hold positive integers, got 0"),
    (0, -1, "must hold non-negative integers, got -1"),
    (1, "3", "must hold numbers that are positive integers, got '3'"),
])
def test_integer_minimum_is_named_in_the_error(minimum, value, words):
    with pytest.raises(ConfigError, match=words):
        integer(value, "n", ConfigError, minimum)
    assert integer(minimum, "n", ConfigError, minimum) == minimum


def test_number_accepts_numpy_numbers_as_float():
    for value in (np.float32(0.5), np.int64(3), 7):
        got = number(value, "x", ValueError)
        assert got == float(value) and type(got) is float


@pytest.mark.parametrize("value", [True, np.False_, "0.5", None, [0.5], math.nan, math.inf],
                         ids=repr)
def test_number_refuses_what_is_not_a_finite_number(value):
    with pytest.raises(EwaldError, match="x must hold numbers"):
        number(value, "x", EwaldError)


@pytest.mark.parametrize("value", [10 ** 400, -10 ** 400], ids=["huge", "huge negative"])
def test_number_refuses_an_int_too_large_for_a_float_with_the_callers_error(value):
    with pytest.raises(ConfigError, match="lr must hold numbers that are finite"):
        number(value, "lr", ConfigError)


def test_choice_names_the_options():
    choice("gin", "backbone", ("gcn", "gin"), ConfigError)
    with pytest.raises(ConfigError, match=r"backbone must be one of \('gcn', 'gin'\), got 1"):
        choice(1, "backbone", ("gcn", "gin"), ConfigError)


@pytest.mark.parametrize("label", [True, "1", 1.5, [True, 1.5]], ids=repr)
def test_dataset_line_with_a_label_that_is_no_class_is_refused(tmp_path, label):
    good = {"num_nodes": 2, "edges": [[0, 1]], "node_feats": [[1.0], [2.0]], "graph_label": 0}
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(good) + "\n" + json.dumps(dict(good, graph_label=label)) + "\n")
    with pytest.raises(DatasetError, match="line 2: graph_label"):
        load_dataset(path)
