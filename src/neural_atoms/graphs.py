"""Graph containers, JSON Lines datasets, and the synthetic long-range task.

A dataset is a UTF-8 text file with one JSON object per line.  Every line
carries ``num_nodes``, ``edges`` (undirected ``[u, v]`` pairs), ``node_feats``
(one feature row per node), and exactly one of ``graph_label`` (an int class
or a float vector) or ``pair_labels`` (``[u, v, 0|1]`` triples).  Unknown
keys are rejected so that silently ignored typos cannot corrupt experiments,
and values are not coerced: a bool, a string or a fraction where an integer
belongs, or a bool or a string among the features, is an error.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .autodiff import BlockMatrix, SlotMatrix, symmetric_matrix
from .files import replacing
from .validate import integer, number


class GraphError(ValueError):
    """A graph violates its structural invariants."""


class DatasetError(ValueError):
    """A dataset file is malformed; the message carries the line number."""


_LINE_KEYS = {"num_nodes", "edges", "node_feats", "graph_label", "pair_labels"}


@dataclass
class MolecularGraph:
    """An undirected graph with dense node features and an optional label.

    Edges are stored once per undirected pair and never as self-loops;
    layers that need self-connections add them on the fly.  The edges must
    not change once the graph is built: their array form is cached.
    """

    num_nodes: int
    edges: list[tuple[int, int]]
    node_features: np.ndarray
    graph_label: int | np.ndarray | None = None
    pair_labels: list[tuple[int, int, int]] | None = None
    _edge_index: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.num_nodes = integer(self.num_nodes, "num_nodes", GraphError, minimum=1)
        feats = self.node_features
        if not (isinstance(feats, np.ndarray) and feats.dtype.kind in "iuf"):
            # bools, strings and objects would convert to floats; the one rule refuses them
            feats = np.asarray(feats, dtype=object)
            for value in feats.ravel():
                number(value, "node_feats", GraphError)
        feats = np.asarray(feats, dtype=np.float64)
        if feats.ndim != 2 or feats.shape[0] != self.num_nodes or feats.shape[1] < 1:
            raise GraphError(
                f"node_features must be ({self.num_nodes}, D) with D >= 1, got {feats.shape}")
        if not np.isfinite(feats).all():
            raise GraphError("node_features contain non-finite values")
        self.node_features = feats
        checked = []
        for u, v in self.edges:
            # an edge read from JSON holds plain ints; only others need the full check
            if type(u) is not int or type(v) is not int:
                u, v = (integer(u, "edge endpoint", GraphError),
                        integer(v, "edge endpoint", GraphError))
            if not (0 <= u < self.num_nodes and 0 <= v < self.num_nodes):
                raise GraphError(f"edge ({u}, {v}) out of range for {self.num_nodes} nodes")
            if u == v:
                raise GraphError(f"self-loop on node {u} is not allowed")
            checked.append((u, v))
        self.edges = checked
        if self.pair_labels is not None:
            pairs = []
            for u, v, hit in self.pair_labels:
                # as for edges, plain ints need no further check
                if type(u) is not int or type(v) is not int or type(hit) is not int:
                    u, v, hit = (integer(u, "pair label node", GraphError),
                                 integer(v, "pair label node", GraphError),
                                 integer(hit, "pair label flag", GraphError))
                if not (0 <= u < self.num_nodes and 0 <= v < self.num_nodes):
                    raise GraphError(f"pair label ({u}, {v}) out of range")
                if hit not in (0, 1):
                    raise GraphError(f"pair label flag must be 0 or 1, got {hit}")
                pairs.append((u, v, hit))
            self.pair_labels = pairs
        if isinstance(self.graph_label, (int, np.integer)):  # a class, and True is refused
            self.graph_label = integer(self.graph_label, "graph_label", GraphError)
        elif self.graph_label is not None:
            if np.ndim(self.graph_label) != 1 or np.size(self.graph_label) == 0:
                raise GraphError("graph_label must be an int or a finite, non-empty 1-D "
                                 "float array")
            self.graph_label = np.array([number(v, "graph_label", GraphError)
                                         for v in self.graph_label])

    @property
    def feature_dim(self) -> int:
        return self.node_features.shape[1]

    @property
    def edge_index(self) -> np.ndarray:
        """The edges as an (E, 2) intp array, built on first use."""
        if self._edge_index is None:
            edges = np.array(self.edges, dtype=np.intp)
            # only an empty list needs the reshape; a view would keep two
            # array objects alive per graph of a dataset
            self._edge_index = edges if edges.size else edges.reshape(0, 2)
        return self._edge_index


@dataclass
class GraphBatch:
    """Several graphs packed into one disjoint union.

    ``offsets`` has one entry per graph plus a trailing total, so graph ``i``
    owns merged rows ``offsets[i]:offsets[i + 1]``.
    """

    graphs: list[MolecularGraph]
    offsets: np.ndarray
    node_features: np.ndarray
    _edge_index: np.ndarray | None = field(default=None, repr=False, compare=False)
    _neighborhoods: dict = field(default_factory=dict, repr=False, compare=False)
    _pairs: tuple[np.ndarray, np.ndarray, np.ndarray] | None = field(
        default=None, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.graphs)

    @property
    def total_nodes(self) -> int:
        return int(self.offsets[-1])

    def merged_graph(self) -> np.ndarray:
        """The disjoint union's edges as an (E, 2) intp array (cached).

        They are the graphs' edge arrays shifted by their offsets, and are not
        validated again, as every graph was when it was built.  The array
        lives as long as the batch: freed once the matrix is built, it lets
        glibc trim the heap, and the next batch page-faults to grow it back.
        """
        if self._edge_index is None:
            parts = [g.edge_index for g in self.graphs]
            shift = np.repeat(self.offsets[:-1], [len(p) for p in parts])
            self._edge_index = (np.concatenate(parts) + shift[:, None]).astype(np.intp, copy=False)
        return self._edge_index

    def closed_neighborhood(self, normalised: bool) -> BlockMatrix | SlotMatrix:
        """S(A + I)S of the union with S = D^-1/2 when ``normalised``, else A + I; built once.

        D counts the self-loop, so every degree is at least 1.  The matrix is
        block-diagonal over the graphs' segments, and :func:`symmetric_matrix`
        stores it as dense per-graph blocks when they are small, as for
        molecules of tens of atoms, and as slots otherwise.
        """
        if normalised not in self._neighborhoods:
            edges = self.merged_graph()
            inv_sqrt = None
            if normalised:
                degrees = np.bincount(edges.ravel(), minlength=self.total_nodes)
                inv_sqrt = 1.0 / np.sqrt(degrees + 1.0)
            self._neighborhoods[normalised] = symmetric_matrix(edges, self.offsets, inv_sqrt)
        return self._neighborhoods[normalised]

    def pair_indices(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Merged-row (u, v) and float flag arrays of every labelled pair (cached)."""
        if self._pairs is None:
            parts = [np.array(g.pair_labels or [], dtype=np.int64).reshape(-1, 3)
                     for g in self.graphs]
            triples = np.concatenate(parts)
            shift = np.repeat(self.offsets[:-1], [len(p) for p in parts])
            self._pairs = (triples[:, 0] + shift, triples[:, 1] + shift,
                           triples[:, 2].astype(np.float64))
        return self._pairs


def batch_graphs(graphs: list[MolecularGraph]) -> GraphBatch:
    """Pack graphs into one batch; offsets are the prefix sums of node counts."""
    if not graphs:
        raise GraphError("cannot batch an empty list of graphs")
    dims = {g.feature_dim for g in graphs}
    if len(dims) != 1:
        raise GraphError(f"inconsistent feature dimensions in batch: {sorted(dims)}")
    counts = [g.num_nodes for g in graphs]
    offsets = np.concatenate([[0], np.cumsum(counts)])
    features = np.concatenate([g.node_features for g in graphs], axis=0)
    return GraphBatch(list(graphs), offsets, features)


# ---------------------------------------------------------------------------
# JSON Lines input/output
# ---------------------------------------------------------------------------


def _graph_from_record(record: dict, plain: bool) -> MolecularGraph:
    """The graph of one decoded line; ``plain`` vouches it holds no string or bool value."""
    unknown = set(record) - _LINE_KEYS
    if unknown:
        raise DatasetError(f"unknown keys {sorted(unknown)}")
    for key in ("num_nodes", "edges", "node_feats"):
        if key not in record:
            raise DatasetError(f"missing required key '{key}'")
    has_graph = "graph_label" in record
    has_pairs = "pair_labels" in record
    if has_graph == has_pairs:
        raise DatasetError("need exactly one of 'graph_label' or 'pair_labels'")
    feats = record["node_feats"]
    # the graph checks and stores each edge and pair as a tuple itself
    return MolecularGraph(record["num_nodes"], record["edges"],
                          np.asarray(feats, dtype=np.float64) if plain else feats,
                          record.get("graph_label"), record.get("pair_labels"))


def load_dataset(path) -> list[MolecularGraph]:
    """Read a JSON Lines dataset; any defect is reported with its line number."""
    graphs = []
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as err:
                    raise DatasetError(f"line {lineno}: invalid JSON ({err.msg})") from err
                if not isinstance(record, dict):
                    raise DatasetError(f"line {lineno}: expected a JSON object")
                # a line with no string value quotes only its keys, and one with
                # no bool spells neither true nor false; reading that off the text
                # costs far less than a scan of every feature
                plain = ("true" not in line and "false" not in line
                         and line.count('"') == 2 * len(record))
                try:
                    graphs.append(_graph_from_record(record, plain))
                except (DatasetError, GraphError, TypeError, ValueError) as err:
                    raise DatasetError(f"line {lineno}: {err}") from err
    except UnicodeDecodeError as err:
        # text mode decodes a chunk ahead of the line being parsed, so the
        # error's line and position would not be the file's
        raise DatasetError(f"dataset {path} is not UTF-8 text: {err.reason}") from None
    if not graphs:
        raise DatasetError(f"dataset {path} holds no graphs")
    return graphs


def save_dataset(graphs: list[MolecularGraph], path) -> None:
    """Write graphs as JSON Lines; floats round-trip exactly through repr.

    The file takes the place of ``path`` only once every graph is written.
    """
    with replacing(path) as fh:
        for g in graphs:
            record: dict = {
                "num_nodes": g.num_nodes,
                "edges": [[u, v] for u, v in g.edges],
                "node_feats": g.node_features.tolist(),
            }
            if g.pair_labels is not None:
                record["pair_labels"] = [[u, v, hit] for u, v, hit in g.pair_labels]
            else:
                label = g.graph_label
                if label is None:
                    raise DatasetError("cannot save a graph with no label of either kind")
                record["graph_label"] = label.tolist() if isinstance(label, np.ndarray) else int(label)
            fh.write(json.dumps(record) + "\n")


# ---------------------------------------------------------------------------
# Synthetic long-range task
# ---------------------------------------------------------------------------


def generate_lri_task(num_graphs: int, path_len: int, num_colors: int,
                      seed: int) -> list[MolecularGraph]:
    """Path graphs whose label is 1 iff the two endpoint colors match.

    Node features have ``num_colors`` one-hot color channels plus a constant
    1 "exists" channel; interior nodes carry only the exists channel, so the
    label is decidable only by comparing the two ends of the path.  Exactly
    ``num_graphs // 2`` graphs are positive, which keeps the class balance
    within 2% of one half for any size above 25.
    """
    num_graphs = integer(num_graphs, "num_graphs", GraphError, minimum=1)
    # two path nodes so the endpoints differ, two colors for a non-trivial task
    path_len = integer(path_len, "path_len", GraphError, minimum=2)
    num_colors = integer(num_colors, "num_colors", GraphError, minimum=2)
    seed = integer(seed, "seed", GraphError, minimum=0)
    rng = np.random.default_rng(seed)
    labels = np.zeros(num_graphs, dtype=np.int64)
    labels[: num_graphs // 2] = 1
    rng.shuffle(labels)

    edges = [(i, i + 1) for i in range(path_len - 1)]
    graphs = []
    for label in labels:
        if label == 1:
            first = last = int(rng.integers(num_colors))
        else:
            first = int(rng.integers(num_colors))
            last = int(rng.integers(num_colors - 1))
            if last >= first:
                last += 1
        feats = np.zeros((path_len, num_colors + 1))
        feats[:, num_colors] = 1.0
        feats[0, first] = 1.0
        feats[-1, last] = 1.0
        graphs.append(MolecularGraph(path_len, list(edges), feats, graph_label=int(label)))
    return graphs
