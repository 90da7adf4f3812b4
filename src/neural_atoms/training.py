"""Training loop, evaluation metrics, and checkpoint persistence.

Everything here is deterministic given (config, dataset, seed): graph order
is shuffled by a generator derived from the seed, parameters update in a
fixed order, and metric values are written through ``repr`` so two runs
produce byte-identical files.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from .autodiff import Tensor, backward, bce_with_logits, mse_loss, no_grad, softmax_cross_entropy
from .files import replacing
from .graphs import DatasetError, GraphBatch, MolecularGraph, batch_graphs, load_dataset
from .model import ConfigError, GraphPropertyModel, ModelOutput, TrainConfig

METRICS_HEADER = ["epoch", "split", "metric", "value"]


class TrainingError(RuntimeError):
    """The optimization itself went wrong (for example a non-finite loss)."""


class Adam:
    """Standard Adam with bias correction; state follows parameter order."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params: list[Tensor], lr: float):
        self.params = params
        self.lr = lr
        self.step_count = 0
        self.first_moment = [np.zeros(p.shape) for p in params]
        self.second_moment = [np.zeros(p.shape) for p in params]

    def step(self) -> None:
        self.step_count += 1
        correction1 = 1.0 - self.BETA1 ** self.step_count
        correction2 = 1.0 - self.BETA2 ** self.step_count
        for p, m, v in zip(self.params, self.first_moment, self.second_moment):
            if p.grad is None:
                raise TrainingError("parameter has no gradient; run backward first")
            m *= self.BETA1
            m += (1.0 - self.BETA1) * p.grad
            v *= self.BETA2
            v += (1.0 - self.BETA2) * p.grad * p.grad
            update = (m / correction1) / (np.sqrt(v / correction2) + self.EPS)
            p.data -= self.lr * update


def dataset_dimensions(graphs: list[MolecularGraph], task: str
                       ) -> tuple[int, int, float]:
    """(feature_dim, output_dim, average node count) for a dataset and task."""
    if not graphs:
        raise DatasetError("empty dataset")
    feature_dim = graphs[0].feature_dim
    avg_nodes = float(np.mean([g.num_nodes for g in graphs]))
    if task == "pair-contact":
        if any(g.pair_labels is None for g in graphs):
            raise DatasetError("pair-contact task needs pair labels on every graph")
        return feature_dim, 1, avg_nodes
    if any(g.graph_label is None for g in graphs):
        raise DatasetError(f"{task} needs a graph label on every graph")
    labels = [g.graph_label for g in graphs]
    if task == "graph-classification":
        if not all(isinstance(lab, int) for lab in labels):
            raise DatasetError("classification labels must be integers")
        if min(labels) < 0:
            raise DatasetError("classification labels must be non-negative")
        return feature_dim, max(labels) + 1, avg_nodes
    if any(isinstance(lab, int) for lab in labels):
        raise DatasetError("regression labels must be float vectors")
    widths = {lab.shape[0] for lab in labels}
    if len(widths) != 1:
        raise DatasetError(f"regression labels must share one width, saw {sorted(widths)}")
    return feature_dim, labels[0].shape[0], avg_nodes


def _batch_loss(model: GraphPropertyModel, batch: GraphBatch
                ) -> tuple[Tensor, dict, ModelOutput]:
    """Loss tensor, count-style statistics, and the forward output."""
    graphs = batch.graphs
    output = model.forward(batch)
    task = model.cfg.task
    if task == "graph-classification":
        labels = np.array([g.graph_label for g in graphs])
        loss = softmax_cross_entropy(output.graph_outputs, labels)
        correct = int((output.graph_outputs.data.argmax(axis=1) == labels).sum())
        return loss, {"count": len(graphs), "correct": correct}, output
    if task == "graph-regression":
        targets = np.stack([g.graph_label for g in graphs])
        loss = mse_loss(output.graph_outputs, targets)
        abs_err = float(np.abs(output.graph_outputs.data - targets).sum())
        return loss, {"count": targets.size, "abs_err": abs_err}, output
    _, _, flags = batch.pair_indices()
    loss = bce_with_logits(output.pair_scores, flags[:, None])
    return loss, {"count": flags.size}, output


def _epoch_metrics(task: str, totals: dict) -> list[tuple[str, float]]:
    out = [("loss", totals["loss"] / totals["count"])]
    if task == "graph-classification":
        out.append(("accuracy", totals["correct"] / totals["count"]))
    elif task == "graph-regression":
        out.append(("mae", totals["abs_err"] / totals["count"]))
    return out


def train(cfg: TrainConfig) -> tuple[GraphPropertyModel, Path]:
    """Optimize a model on the configured dataset.

    Writes ``metrics.csv`` and ``checkpoint.json`` under ``cfg.out`` and
    returns the trained model together with the checkpoint path.
    """
    graphs = load_dataset(cfg.dataset)
    feature_dim, out_dim, avg_nodes = dataset_dimensions(graphs, cfg.task)
    model = GraphPropertyModel(cfg, feature_dim, out_dim, avg_nodes)
    params = model.tensors()
    optimizer = Adam(params, cfg.lr)
    shuffle_rng = np.random.default_rng([cfg.seed, 1])

    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    history: list[list] = []

    for epoch in range(cfg.epochs):
        order = shuffle_rng.permutation(len(graphs))
        totals = {"loss": 0.0, "count": 0, "correct": 0, "abs_err": 0.0}
        for start in range(0, len(order), cfg.batch):
            chunk = [graphs[i] for i in order[start:start + cfg.batch]]
            loss, stats, _ = _batch_loss(model, batch_graphs(chunk))
            value = loss.item()
            if not math.isfinite(value):
                raise TrainingError(
                    f"non-finite loss {value} at epoch {epoch}, "
                    f"batch starting at {start}")
            backward(loss, params)
            grad_norm = math.sqrt(sum(float(np.vdot(p.grad, p.grad)) for p in params))
            if not math.isfinite(grad_norm):
                raise TrainingError(
                    f"non-finite gradient norm {grad_norm} at epoch {epoch}, "
                    f"batch starting at {start}")
            optimizer.step()
            totals["loss"] += value * stats["count"]
            for key in stats:
                totals[key] += stats[key]
        for metric, value in _epoch_metrics(cfg.task, totals):
            history.append([epoch, "train", metric, value])

    metrics_path = out_dir / "metrics.csv"
    _write_metrics(history, metrics_path)
    checkpoint_path = out_dir / "checkpoint.json"
    save_checkpoint(model, cfg.epochs, history, checkpoint_path)
    return model, checkpoint_path


def _write_metrics(rows: list[list], path: Path) -> None:
    with replacing(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRICS_HEADER)
        for epoch, split, metric, value in rows:
            writer.writerow([epoch, split, metric, repr(float(value))])


def evaluate(model: GraphPropertyModel, graphs: list[MolecularGraph],
             batch_size: int = 64) -> dict[str, float]:
    """Task metric(s) of a model on a dataset, without touching parameters.

    Runs under ``no_grad``: no tape is recorded, as nothing is backpropagated.
    """
    feature_dim, out_dim, _ = dataset_dimensions(graphs, model.cfg.task)
    if feature_dim != model.feature_dim:
        raise ConfigError(
            f"model expects {model.feature_dim} features, dataset has {feature_dim}")
    if model.cfg.task != "pair-contact" and out_dim > model.out_dim:
        raise ConfigError(
            f"dataset needs {out_dim} outputs, model produces {model.out_dim}")
    task = model.cfg.task
    totals = {"loss": 0.0, "count": 0, "correct": 0, "abs_err": 0.0}
    reciprocal_ranks: list[float] = []
    for start in range(0, len(graphs), batch_size):
        batch = batch_graphs(graphs[start:start + batch_size])
        with no_grad():
            loss, stats, output = _batch_loss(model, batch)
        totals["loss"] += loss.item() * stats["count"]
        for key in stats:
            totals[key] += stats[key]
        if task == "pair-contact":
            scores = output.pair_scores.data[:, 0]
            reciprocal_ranks.extend(_contact_reciprocal_ranks(batch, scores))
    metrics = dict(_epoch_metrics(task, totals))
    if task == "pair-contact":
        if not reciprocal_ranks:
            raise DatasetError("no positive pairs to rank")
        metrics["mrr"] = float(np.mean(reciprocal_ranks))
    return metrics


def _contact_reciprocal_ranks(batch: GraphBatch, scores: np.ndarray) -> list[float]:
    """1/rank of each positive pair against its own graph's negatives, in pair order.

    A positive's rank is 1 plus the number of negatives scoring strictly
    higher, so ties resolve in the positive's favour.  Graph b's negative
    scores fill row b of a (B, most negatives) array padded with -inf, and
    every positive of the batch is compared with its graph's row at once.
    """
    _, _, flags = batch.pair_indices()
    graph_of = np.repeat(np.arange(len(batch)), [len(g.pair_labels or ()) for g in batch.graphs])
    pos, neg = flags == 1.0, flags == 0.0
    neg_counts = np.bincount(graph_of[neg], minlength=len(batch))
    column = np.arange(neg_counts.sum()) - np.repeat(np.cumsum(neg_counts) - neg_counts, neg_counts)
    negatives = np.full((len(batch), neg_counts.max()), -np.inf)
    negatives[graph_of[neg], column] = scores[neg]
    beaten = (negatives[graph_of[pos]] > scores[pos, None]).sum(axis=1)
    return (1.0 / (1.0 + beaten)).tolist()


def mean_reciprocal_rank(ranks: list[int]) -> float:
    """Average of 1/rank; ranks count from 1."""
    if not ranks:
        raise ValueError("need at least one rank")
    if any(r < 1 for r in ranks):
        raise ValueError("ranks count from 1")
    return float(np.mean([1.0 / r for r in ranks]))


def save_checkpoint(model: GraphPropertyModel, epoch: int, history: list[list],
                    path) -> None:
    """JSON snapshot: config, dimensions, named parameter arrays, history.

    Arrays are stored as plain float lists; python's ``repr`` round-trips
    every finite f64 exactly, so load followed by save is lossless.
    """
    named = model.parameters()
    names = [name for name, _ in named]
    if len(set(names)) != len(names):
        raise TrainingError("parameter names collide; checkpoint would be ambiguous")
    for name, t in named:
        if not np.isfinite(t.data).all():
            raise TrainingError(f"parameter {name!r} holds non-finite values")
    record = {
        "config": model.cfg.to_dict(),
        "feature_dim": model.feature_dim,
        "out_dim": model.out_dim,
        "avg_nodes": model.avg_nodes,
        "epoch": epoch,
        "history": history,
        "params": {name: {"shape": list(t.shape), "data": t.data.ravel().tolist()}
                   for name, t in named},
    }
    # json.dumps runs the C encoder; json.dump to a file streams through
    # the pure-Python one
    with replacing(path) as fh:
        fh.write(json.dumps(record))


def _stored_array(name: str, entry) -> np.ndarray:
    """One parameter entry of a checkpoint as an f64 array of its stored shape."""
    if not isinstance(entry, dict):
        raise TrainingError(f"parameter {name!r} must be an object with 'data' and 'shape'")
    for key in ("data", "shape"):
        if key not in entry:
            raise TrainingError(f"parameter {name!r} is missing {key!r}")
    try:
        data = np.array(entry["data"])
        if data.dtype.kind not in "iuf":
            raise TypeError("data is not numeric")
        if not isinstance(entry["shape"], list):
            raise TypeError("shape is not a list")
        return data.astype(np.float64).reshape(entry["shape"])
    except (TypeError, ValueError) as exc:
        raise TrainingError(f"parameter {name!r} does not hold numbers that fill "
                            f"shape {entry['shape']!r}: {exc}") from None


def load_checkpoint(path) -> tuple[GraphPropertyModel, dict]:
    """Rebuild a model from a checkpoint; returns it with the raw record."""
    with open(path, encoding="utf-8") as fh:
        record = json.load(fh)
    if not isinstance(record, dict):
        raise TrainingError(f"checkpoint {path} must hold a JSON object, got {record!r:.40}")
    for key in ("config", "feature_dim", "out_dim", "avg_nodes", "params"):
        if key not in record:
            raise TrainingError(f"checkpoint is missing {key!r}")
    if not isinstance(record["config"], dict):
        raise TrainingError(f"checkpoint 'config' must be an object, got {record['config']!r:.40}")
    for key in ("feature_dim", "out_dim"):
        value = record[key]
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise TrainingError(f"checkpoint {key!r} must be a positive integer, got {value!r}")
    avg_nodes = record["avg_nodes"]
    if not isinstance(avg_nodes, (int, float)) or isinstance(avg_nodes, bool) \
            or not math.isfinite(avg_nodes) or avg_nodes <= 0:
        raise TrainingError(f"checkpoint 'avg_nodes' must be a finite positive number, "
                            f"got {avg_nodes!r}")
    if not isinstance(record["params"], dict):
        raise TrainingError("checkpoint 'params' must be an object")
    cfg = TrainConfig.from_dict(record["config"])
    model = GraphPropertyModel(cfg, record["feature_dim"], record["out_dim"], avg_nodes)
    stored = record["params"]
    for name, tensor in model.parameters():
        if name not in stored:
            raise TrainingError(f"checkpoint is missing parameter {name!r}")
        arr = _stored_array(name, stored[name])
        if arr.shape != tensor.shape:
            raise TrainingError(
                f"parameter {name!r} has shape {arr.shape}, expected {tensor.shape}")
        if not np.isfinite(arr).all():
            raise TrainingError(f"parameter {name!r} holds non-finite values")
        tensor.data[...] = arr
    extra = set(stored) - {name for name, _ in model.parameters()}
    if extra:
        raise TrainingError(f"checkpoint has unknown parameters {sorted(extra)}")
    return model, record
