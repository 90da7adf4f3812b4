"""Model assembly: configuration, parameter construction, and the forward pass.

A model is a stack of message-passing layers, each optionally followed by a
neural-atom block or a virtual-node round, finished by a task head.  Graphs
in a batch share parameters but never exchange information: message passing
runs on the merged block-diagonal graph, while the neural-atom block, the
virtual-node round and the mean readout run once per batch on the graphs'
row segments, so an atom, a virtual node or a graph vector only ever sees
its own graph's nodes.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np

from .autodiff import Tensor, affine, gather_rows, pack, parameter, segment_mean
from .gnn import GcnLayerParams, MlpParams, gcn_forward, gin_forward, mlp
from .graphs import GraphBatch
from .neural_atom import NeuralAtomLayerParams, NeuralAtomTrace, enhance_segments
from .validate import choice, integer, number
from .virtual_node import multi_virtual_node_layer

BACKBONES = ("gcn", "gin")
AUGMENTS = ("none", "neural-atoms", "virtual-node")
TASKS = ("graph-classification", "graph-regression", "pair-contact")
STRATEGIES = ("fixed", "decremental", "incremental")
CHOICES = {"backbone": BACKBONES, "augment": AUGMENTS, "task": TASKS, "k_strategy": STRATEGIES}


class ConfigError(ValueError):
    """A training configuration violates its invariants."""


@dataclass
class TrainConfig:
    """Run settings; field names double as CLI flag names (dash for underscore)."""

    dataset: str
    out: str
    backbone: str = "gcn"
    augment: str = "none"
    layers: int = 3
    hidden: int = 32
    heads: int = 2
    k_strategy: str = "fixed"
    proportion: float = 0.2
    virtual_nodes: int = 1
    epochs: int = 50
    lr: float = 0.02
    batch: int = 64
    seed: int = 0
    task: str = "graph-classification"

    def __post_init__(self):
        for name in ("dataset", "out"):
            if not isinstance(getattr(self, name), str):
                raise ConfigError(f"{name} must be a path string, got {getattr(self, name)!r}")
        for name, options in CHOICES.items():
            choice(getattr(self, name), name, options, ConfigError)
        for name in ("layers", "hidden", "heads", "virtual_nodes", "epochs", "batch"):
            setattr(self, name, integer(getattr(self, name), name, ConfigError, minimum=1))
        self.seed = integer(self.seed, "seed", ConfigError, minimum=0)
        for name in ("lr", "proportion"):
            setattr(self, name, number(getattr(self, name), name, ConfigError))
        if not self.lr > 0.0:
            raise ConfigError(f"lr must be positive, got {self.lr!r}")
        if not 0.0 < self.proportion <= 1.0:
            raise ConfigError(f"proportion must lie in (0, 1], got {self.proportion!r}")

    @classmethod
    def from_dict(cls, record: dict) -> "TrainConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(record) - known
        if unknown:
            raise ConfigError(f"unknown config keys {sorted(unknown)}")
        if "dataset" not in record or "out" not in record:
            raise ConfigError("config needs both 'dataset' and 'out'")
        return cls(**record)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def compute_k_schedule(strategy: str, proportion: float, avg_nodes: float,
                       n_layers: int) -> list[int]:
    """Atom counts of ``n_layers`` blocks, each floored, then clamped to at least 1.

    ``fixed`` gives every block floor(proportion * avg_nodes); ``decremental``
    gives the first block that and each later one floor(proportion * the count
    before); ``incremental`` reverses the decremental counts.  The inputs are
    those :class:`TrainConfig` and :class:`GraphPropertyModel` checked.
    """
    counts = [max(1, math.floor(proportion * avg_nodes))]
    while len(counts) < n_layers:
        counts.append(counts[-1] if strategy == "fixed"
                      else max(1, math.floor(proportion * counts[-1])))
    return counts[::-1] if strategy == "incremental" else counts


@dataclass
class ModelOutput:
    """Everything one forward pass produces; ``traces`` holds one per atom layer."""

    node_states: Tensor
    graph_outputs: Tensor | None = None
    pair_scores: Tensor | None = None
    traces: list[NeuralAtomTrace] | None = field(default=None)


def named_leaves(prefix: str, params) -> Iterator[tuple[str, Tensor]]:
    """``(f"{prefix}.{field}", tensor)`` for every leaf of a parameter dataclass,
    in field order, with nested dataclasses walked in place."""
    for f in fields(params):
        name, value = f"{prefix}.{f.name}", getattr(params, f.name)
        yield from named_leaves(name, value) if is_dataclass(value) else [(name, value)]


class GraphPropertyModel:
    """Config-driven stack of layers plus a task head.

    Parameter construction order is fixed, so two models built from the
    same config and seed hold byte-identical arrays.  They are then packed
    into ``flat``, one leaf whose data and gradient every parameter views.
    """

    def __init__(self, cfg: TrainConfig, feature_dim: int, out_dim: int,
                 avg_nodes: float):
        self.cfg = cfg
        self.feature_dim = integer(feature_dim, "feature_dim", ConfigError, minimum=1)
        self.out_dim = integer(out_dim, "out_dim", ConfigError, minimum=1)
        self.avg_nodes = number(avg_nodes, "avg_nodes", ConfigError)
        if not self.avg_nodes >= 1.0:  # every graph has a node
            raise ConfigError(f"avg_nodes must be at least 1, got {self.avg_nodes}")
        rng = np.random.default_rng([cfg.seed, 0])

        self.gnn_layers = []
        for i in range(cfg.layers):
            dim_in = self.feature_dim if i == 0 else cfg.hidden
            if cfg.backbone == "gcn":
                self.gnn_layers.append(GcnLayerParams.init(dim_in, cfg.hidden, rng))
            else:
                self.gnn_layers.append(MlpParams.init(dim_in, cfg.hidden, cfg.hidden, rng))

        self.atom_layers: list[NeuralAtomLayerParams] = []
        self.vn_layers: list[MlpParams] = []
        if cfg.augment == "neural-atoms":
            self.k_counts = compute_k_schedule(cfg.k_strategy, cfg.proportion,
                                               self.avg_nodes, cfg.layers)
            for k in self.k_counts:
                self.atom_layers.append(
                    NeuralAtomLayerParams.init(k, cfg.hidden, cfg.heads, rng))
        elif cfg.augment == "virtual-node":
            for _ in range(cfg.layers):
                self.vn_layers.append(MlpParams.init(cfg.hidden, cfg.hidden, cfg.hidden, rng))

        if cfg.task == "pair-contact":
            self.head = vars(MlpParams.init(2 * cfg.hidden, cfg.hidden, 1, rng))
        else:
            self.head = {
                "weight": parameter(rng, (cfg.hidden, self.out_dim), cfg.hidden ** -0.5),
                "bias": Tensor(np.zeros(self.out_dim), requires_grad=True),
            }
        self.flat = pack(self.tensors())

    def parameters(self) -> list[tuple[str, Tensor]]:
        """Every leaf named by its field path, layer kind by layer kind, then the head."""
        groups = ((self.cfg.backbone, self.gnn_layers), ("atoms", self.atom_layers),
                  ("vnode", self.vn_layers))
        named = [leaf for role, layers in groups for i, params in enumerate(layers)
                 for leaf in named_leaves(f"layer{i}.{role}", params)]
        return named + [(f"head.{attr}", self.head[attr]) for attr in sorted(self.head)]

    def tensors(self) -> list[Tensor]:
        return [t for _, t in self.parameters()]

    def _message_pass(self, h: Tensor, batch: GraphBatch, layer_index: int) -> Tensor:
        params = self.gnn_layers[layer_index]
        if self.cfg.backbone == "gcn":
            return gcn_forward(h, batch, params)
        return gin_forward(h, batch, params)

    def forward(self, batch: GraphBatch, collect_traces: bool = False) -> ModelOutput:
        if batch.graphs[0].feature_dim != self.feature_dim:
            raise ConfigError(
                f"model expects {self.feature_dim} node features, "
                f"dataset has {batch.graphs[0].feature_dim}")
        h = Tensor(batch.node_features)
        traces: list[NeuralAtomTrace] = [] if collect_traces else None
        vstates = None
        if self.cfg.augment == "virtual-node":
            vstates = Tensor(np.zeros((len(batch) * self.cfg.virtual_nodes, self.cfg.hidden)))

        for i in range(self.cfg.layers):
            h = self._message_pass(h, batch, i)
            if self.cfg.augment == "neural-atoms":
                h, trace = enhance_segments(h, batch.offsets, self.atom_layers[i])
                if collect_traces:
                    traces.append(trace)
            elif self.cfg.augment == "virtual-node":
                h, vstates = multi_virtual_node_layer(h, vstates, self.vn_layers[i],
                                                      batch.offsets)

        if self.cfg.task == "pair-contact":
            u_idx, v_idx, _ = batch.pair_indices()
            if u_idx.size == 0:
                raise ConfigError("pair-contact task needs graphs with pair labels")
            feats = gather_rows(h, np.stack([u_idx, v_idx], axis=1))
            scores = mlp(feats, MlpParams(**self.head))
            return ModelOutput(node_states=h, pair_scores=scores, traces=traces)

        pooled = segment_mean(h, batch.offsets, Tensor(np.zeros((len(batch), h.shape[1]))))
        logits = affine(pooled, self.head["weight"], self.head["bias"])
        return ModelOutput(node_states=h, graph_outputs=logits, traces=traces)
