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

from dataclasses import dataclass, field, fields

import numpy as np

from .autodiff import Tensor, affine, concat_cols, gather_rows, parameter, segment_mean
from .gnn import GcnLayerParams, GinLayerParams, gcn_forward, gin_forward
from .graphs import GraphBatch
from .neural_atom import NeuralAtomLayerParams, NeuralAtomTrace, enhance_segments
from .schedules import STRATEGIES, compute_k_schedule
from .virtual_node import VirtualNodeParams, multi_virtual_node_layer

BACKBONES = ("gcn", "gin")
AUGMENTS = ("none", "neural-atoms", "virtual-node")
TASKS = ("graph-classification", "graph-regression", "pair-contact")


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
        if self.backbone not in BACKBONES:
            raise ConfigError(f"backbone must be one of {BACKBONES}, got {self.backbone!r}")
        if self.augment not in AUGMENTS:
            raise ConfigError(f"augment must be one of {AUGMENTS}, got {self.augment!r}")
        if self.task not in TASKS:
            raise ConfigError(f"task must be one of {TASKS}, got {self.task!r}")
        if self.k_strategy not in STRATEGIES:
            raise ConfigError(
                f"k_strategy must be one of {STRATEGIES}, got {self.k_strategy!r}")
        # bool is a subclass of int, so True would pass as 1
        for name in ("layers", "hidden", "heads", "virtual_nodes", "epochs", "batch"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ConfigError(f"{name} must be a positive integer, got {value!r}")
        if isinstance(self.seed, bool) or not (isinstance(self.seed, int) and self.seed >= 0):
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed!r}")
        for name in ("lr", "proportion"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)) \
                    or not np.isfinite(value):
                raise ConfigError(f"{name} must be a finite number, got {value!r}")
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


@dataclass
class ModelOutput:
    """Everything one forward pass produces."""

    node_states: Tensor
    graph_outputs: Tensor | None = None
    pair_scores: Tensor | None = None
    traces: list[list[NeuralAtomTrace]] | None = field(default=None)


class GraphPropertyModel:
    """Config-driven stack of layers plus a task head.

    Parameter construction order is fixed, so two models built from the
    same config and seed hold byte-identical arrays.
    """

    def __init__(self, cfg: TrainConfig, feature_dim: int, out_dim: int,
                 avg_nodes: float):
        if feature_dim < 1 or out_dim < 1:
            raise ConfigError("feature_dim and out_dim must be positive")
        self.cfg = cfg
        self.feature_dim = feature_dim
        self.out_dim = out_dim
        self.avg_nodes = float(avg_nodes)
        rng = np.random.default_rng([cfg.seed, 0])

        self.gnn_layers = []
        for i in range(cfg.layers):
            dim_in = feature_dim if i == 0 else cfg.hidden
            if cfg.backbone == "gcn":
                self.gnn_layers.append(GcnLayerParams.init(dim_in, cfg.hidden, rng))
            else:
                self.gnn_layers.append(
                    GinLayerParams.init(dim_in, cfg.hidden, cfg.hidden, rng))

        self.atom_layers: list[NeuralAtomLayerParams] = []
        self.vn_layers: list[VirtualNodeParams] = []
        if cfg.augment == "neural-atoms":
            schedule = compute_k_schedule(cfg.k_strategy, cfg.proportion,
                                          self.avg_nodes, cfg.layers)
            self.k_counts = list(schedule.counts)
            for k in self.k_counts:
                self.atom_layers.append(
                    NeuralAtomLayerParams.init(k, cfg.hidden, cfg.heads, rng))
        elif cfg.augment == "virtual-node":
            for _ in range(cfg.layers):
                self.vn_layers.append(VirtualNodeParams.init(rng, cfg.hidden))

        if cfg.task == "pair-contact":
            self.head = {
                "w1": parameter(rng, (2 * cfg.hidden, cfg.hidden),
                                (2 * cfg.hidden) ** -0.5),
                "b1": Tensor(np.zeros(cfg.hidden), requires_grad=True),
                "w2": parameter(rng, (cfg.hidden, 1), cfg.hidden ** -0.5),
                "b2": Tensor(np.zeros(1), requires_grad=True),
            }
        else:
            self.head = {
                "weight": parameter(rng, (cfg.hidden, out_dim), cfg.hidden ** -0.5),
                "bias": Tensor(np.zeros(out_dim), requires_grad=True),
            }

    def parameters(self) -> list[tuple[str, Tensor]]:
        named: list[tuple[str, Tensor]] = []
        gnn_names = (("weight",) if self.cfg.backbone == "gcn"
                     else ("w1", "b1", "w2", "b2"))
        for i, layer in enumerate(self.gnn_layers):
            for attr in gnn_names:
                named.append((f"layer{i}.{self.cfg.backbone}.{attr}", getattr(layer, attr)))
        for i, atoms in enumerate(self.atom_layers):
            named.append((f"layer{i}.atoms.queries", atoms.queries))
            for role, att in (("project", atoms.project_attention),
                              ("exchange", atoms.exchange_attention)):
                for m in range(att.heads):
                    named.append((f"layer{i}.atoms.{role}.head{m}.wq", att.query_weights[m]))
                    named.append((f"layer{i}.atoms.{role}.head{m}.wk", att.key_weights[m]))
                    named.append((f"layer{i}.atoms.{role}.head{m}.wv", att.value_weights[m]))
                named.append((f"layer{i}.atoms.{role}.wo", att.output_weight))
            for role, norm in (("project_norm", atoms.project_norm),
                               ("exchange_norm", atoms.exchange_norm)):
                named.append((f"layer{i}.atoms.{role}.gain", norm.gain))
                named.append((f"layer{i}.atoms.{role}.bias", norm.bias))
        for i, vn in enumerate(self.vn_layers):
            for attr in ("w1", "b1", "w2", "b2"):
                named.append((f"layer{i}.vnode.{attr}", getattr(vn, attr)))
        for attr in sorted(self.head):
            named.append((f"head.{attr}", self.head[attr]))
        return named

    def tensors(self) -> list[Tensor]:
        return [t for _, t in self.parameters()]

    def _message_pass(self, h: Tensor, merged, layer_index: int) -> Tensor:
        params = self.gnn_layers[layer_index]
        if self.cfg.backbone == "gcn":
            return gcn_forward(h, merged, params)
        return gin_forward(h, merged, params)

    def forward(self, batch: GraphBatch, collect_traces: bool = False) -> ModelOutput:
        if batch.graphs[0].feature_dim != self.feature_dim:
            raise ConfigError(
                f"model expects {self.feature_dim} node features, "
                f"dataset has {batch.graphs[0].feature_dim}")
        merged = batch.merged_graph()
        h = Tensor(merged.node_features)
        traces: list[list[NeuralAtomTrace]] = [] if collect_traces else None
        vstates = None
        if self.cfg.augment == "virtual-node":
            vstates = Tensor(np.zeros((len(batch) * self.cfg.virtual_nodes, self.cfg.hidden)))

        for i in range(self.cfg.layers):
            h = self._message_pass(h, merged, i)
            if self.cfg.augment == "neural-atoms":
                h, layer_traces = enhance_segments(h, batch.offsets, self.atom_layers[i],
                                                   want_trace=collect_traces)
                if collect_traces:
                    traces.append(layer_traces)
            elif self.cfg.augment == "virtual-node":
                h, vstates = multi_virtual_node_layer(h, vstates, self.vn_layers[i],
                                                      batch.offsets)

        if self.cfg.task == "pair-contact":
            u_idx, v_idx, _ = batch.pair_indices()
            if u_idx.size == 0:
                raise ConfigError("pair-contact task needs graphs with pair labels")
            feats = concat_cols([gather_rows(h, u_idx), gather_rows(h, v_idx)])
            hidden = affine(feats, self.head["w1"], self.head["b1"], relu=True)
            scores = affine(hidden, self.head["w2"], self.head["b2"])
            return ModelOutput(node_states=h, pair_scores=scores, traces=traces)

        pooled = segment_mean(h, batch.offsets)
        logits = affine(pooled, self.head["weight"], self.head["bias"])
        return ModelOutput(node_states=h, graph_outputs=logits, traces=traces)
