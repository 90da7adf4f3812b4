"""Training loop, evaluation metrics, and checkpoint persistence.

Everything here is deterministic given (config, dataset, seed): graph order
is shuffled by a generator derived from the seed, parameters update in a
fixed order, and metric values are written through ``repr`` so two runs
produce byte-identical files.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from .autodiff import Tensor, backward, bce_with_logits, mse_loss, no_grad, softmax_cross_entropy
from .files import read_object, replacing, write_table
from .graphs import DatasetError, GraphBatch, MolecularGraph, batch_graphs, load_dataset
from .model import ConfigError, GraphPropertyModel, ModelOutput, TrainConfig
from .validate import integer

METRICS_HEADER = ["epoch", "split", "metric", "value"]


class TrainingError(RuntimeError):
    """The optimization itself went wrong (for example a non-finite loss)."""


class Adam:
    """Standard Adam with bias correction over one tensor, such as a model's ``flat`` leaf.

    Every element takes the operations of a tensor-by-tensor update in the
    same order, with the temporaries written into two arrays made once."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, param: Tensor, lr: float):
        self.param, self.lr, self.step_count = param, lr, 0
        self.first_moment, self.second_moment, self._a, self._b = (
            np.zeros(param.shape) for _ in range(4))

    def step(self) -> None:
        g, m, v, a, b = self.param.grad, self.first_moment, self.second_moment, self._a, self._b
        if g is None:
            raise TrainingError("parameter has no gradient; run backward first")
        self.step_count += 1
        m *= self.BETA1
        m += np.multiply(1.0 - self.BETA1, g, out=a)
        v *= self.BETA2
        v += np.multiply(np.multiply(1.0 - self.BETA2, g, out=a), g, out=a)
        # p -= lr * (m / c1) / (sqrt(v / c2) + eps)
        np.sqrt(np.divide(v, 1.0 - self.BETA2 ** self.step_count, out=a), out=a)
        a += self.EPS
        np.divide(np.divide(m, 1.0 - self.BETA1 ** self.step_count, out=b), a, out=b)
        self.param.data -= np.multiply(self.lr, b, out=b)


def dataset_dimensions(graphs: list[MolecularGraph], task: str
                       ) -> tuple[int, int, float]:
    """(feature_dim, output_dim, average node count) for a dataset and task."""
    if not graphs:
        raise DatasetError("empty dataset")
    feature_dim = graphs[0].feature_dim
    # checked over the whole dataset, so every batching refuses the same graph
    odd = [i for i, g in enumerate(graphs) if g.feature_dim != feature_dim]
    if odd:
        raise DatasetError(f"graph {odd[0]} has {graphs[odd[0]].feature_dim} node features, "
                           f"graph 0 has {feature_dim}")
    avg_nodes = float(np.mean([g.num_nodes for g in graphs]))
    if task == "pair-contact":
        empty = [i for i, g in enumerate(graphs) if not g.pair_labels]  # nothing to score
        if empty:
            raise DatasetError(f"pair-contact task needs pair labels on every graph; "
                               f"graph {empty[0]} has none")
        return feature_dim, 1, avg_nodes
    unlabelled = [i for i, g in enumerate(graphs) if g.graph_label is None]
    if unlabelled:
        raise DatasetError(f"{task} needs a graph label on every graph; "
                           f"graph {unlabelled[0]} has none")
    labels = [g.graph_label for g in graphs]
    if task == "graph-classification":
        odd = [i for i, lab in enumerate(labels) if not (isinstance(lab, int) and lab >= 0)]
        if odd:
            raise DatasetError(f"classification labels must be non-negative integers; "
                               f"graph {odd[0]} has {np.asarray(labels[odd[0]]).tolist()}")
        return feature_dim, max(labels) + 1, avg_nodes
    if any(isinstance(lab, int) for lab in labels):
        raise DatasetError("regression labels must be float vectors")
    widths = {lab.shape[0] for lab in labels}
    if len(widths) != 1:
        raise DatasetError(f"regression labels must share one width, saw {sorted(widths)}")
    return feature_dim, labels[0].shape[0], avg_nodes


def _batch_loss(model: GraphPropertyModel, batch: GraphBatch
                ) -> tuple[Tensor, dict, ModelOutput]:
    """Loss tensor, forward output, and the statistics an epoch sums: the ``count``
    that the loss averages over and, by metric name, each metric times it."""
    graphs = batch.graphs
    output = model.forward(batch)
    task = model.cfg.task
    if task == "graph-classification":
        labels = np.array([g.graph_label for g in graphs])
        loss = softmax_cross_entropy(output.graph_outputs, labels)
        correct = int((output.graph_outputs.data.argmax(axis=1) == labels).sum())
        return loss, {"count": len(graphs), "accuracy": correct}, output
    if task == "graph-regression":
        targets = np.stack([g.graph_label for g in graphs])
        loss = mse_loss(output.graph_outputs, targets)
        abs_err = float(np.abs(output.graph_outputs.data - targets).sum())
        return loss, {"count": targets.size, "mae": abs_err}, output
    _, _, flags = batch.pair_indices()
    loss = bce_with_logits(output.pair_scores, flags[:, None])
    return loss, {"count": flags.size}, output


def run_epoch(model: GraphPropertyModel, graphs: list[MolecularGraph], order, batch_size: int,
              optimizer: Adam | None = None, epoch: int = 0) -> dict[str, float]:
    """Metrics of one pass over ``graphs`` in ``order``, ``batch_size`` graphs a batch.

    With an optimizer each batch takes a step, and a non-finite loss or gradient
    norm stops the pass before it, naming ``epoch`` and the batch.  Without one,
    a pair-contact pass also ranks the positive pairs (``mrr``)."""
    totals = {"loss": 0.0, "count": 0}
    reciprocal_ranks: list[float] = []
    for start in range(0, len(order), batch_size):
        batch = batch_graphs([graphs[i] for i in order[start:start + batch_size]])
        loss, stats, output = _batch_loss(model, batch)
        value = loss.item()
        if optimizer is not None:
            if not math.isfinite(value):
                raise TrainingError(
                    f"non-finite loss {value} at epoch {epoch}, batch starting at {start}")
            backward(loss, [model.flat])    # zero-fills every gradient with one call
            grad_norm = math.sqrt(float(np.vdot(model.flat.grad, model.flat.grad)))
            if not math.isfinite(grad_norm):
                raise TrainingError(
                    f"non-finite gradient norm {grad_norm} at epoch {epoch}, "
                    f"batch starting at {start}")
            optimizer.step()
        elif model.cfg.task == "pair-contact":
            reciprocal_ranks += _contact_reciprocal_ranks(batch, output.pair_scores.data[:, 0])
        totals["loss"] += value * stats["count"]
        for key in stats:
            totals[key] = totals.get(key, 0) + stats[key]
    count = totals.pop("count")
    metrics = {name: total / count for name, total in totals.items()}
    if reciprocal_ranks:
        metrics["mrr"] = float(np.mean(reciprocal_ranks))
    return metrics


def fit(model: GraphPropertyModel, graphs: list[MolecularGraph], cfg: TrainConfig
        ) -> Iterator[tuple[int, dict[str, float]]]:
    """Optimize ``model`` on ``graphs`` with Adam, yielding ``(epoch, metrics)`` after each
    epoch's last step; between yields, ``evaluate`` and the like leave training as it is."""
    optimizer = Adam(model.flat, cfg.lr)
    shuffle_rng = np.random.default_rng([cfg.seed, 1])
    for epoch in range(cfg.epochs):
        order = shuffle_rng.permutation(len(graphs))
        yield epoch, run_epoch(model, graphs, order, cfg.batch, optimizer, epoch)


def train(cfg: TrainConfig) -> tuple[GraphPropertyModel, Path]:
    """Optimize a model on the configured dataset.

    Writes ``metrics.csv`` and ``checkpoint.json`` under ``cfg.out`` once the
    last epoch is done and returns the trained model with the checkpoint path.
    """
    graphs = load_dataset(cfg.dataset)
    feature_dim, out_dim, avg_nodes = dataset_dimensions(graphs, cfg.task)
    if cfg.task == "graph-classification" and out_dim > len(graphs):  # a head column per class
        index = next(i for i, g in enumerate(graphs) if g.graph_label >= len(graphs))
        raise DatasetError(f"graph {index} has class label {graphs[index].graph_label}, "
                           f"not below the dataset's {len(graphs)} graphs")
    model = GraphPropertyModel(cfg, feature_dim, out_dim, avg_nodes)
    history = [[epoch, "train", metric, value]
               for epoch, metrics in fit(model, graphs, cfg) for metric, value in metrics.items()]
    write_table(Path(cfg.out) / "metrics.csv", METRICS_HEADER, history)
    checkpoint_path = Path(cfg.out) / "checkpoint.json"
    save_checkpoint(model, cfg.epochs, history, checkpoint_path)
    return model, checkpoint_path


def evaluate(model: GraphPropertyModel, graphs: list[MolecularGraph],
             batch_size: int = 64) -> dict[str, float]:
    """Task metric(s) of a model on a dataset, without touching parameters.

    One ``run_epoch`` in file order with no optimizer, under ``no_grad``: no
    tape is recorded, as nothing is backpropagated.
    """
    batch_size = integer(batch_size, "batch_size", ConfigError, minimum=1)
    task = model.cfg.task
    _, out_dim, _ = dataset_dimensions(graphs, task)
    # a classifier may meet fewer classes than it scores; a regressor fits each target
    if out_dim != model.out_dim if task == "graph-regression" else out_dim > model.out_dim:
        raise ConfigError(f"dataset needs {out_dim} outputs, model produces {model.out_dim}")
    if task == "pair-contact" and not any(hit for g in graphs for _, _, hit in g.pair_labels):
        raise DatasetError("no positive pairs to rank")
    with no_grad():
        return run_epoch(model, graphs, range(len(graphs)), batch_size)


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


def checkpoint_arrays(model: GraphPropertyModel) -> list[tuple[str, np.ndarray]]:
    """(checkpoint name, view of the model's array) for every stored parameter.

    A name is the parameter's own, except that a checkpoint stores each
    attention's ``qkv`` head by head: head m's (d, d) W_q, W_k and W_v
    columns as ``head{m}.wq``, ``.wk`` and ``.wv``, head 0 first.
    """
    arrays = []
    for name, t in model.parameters():
        if name.endswith(".qkv"):
            heads = t.shape[1] // (3 * t.shape[0])
            blocks = np.split(t.data, 3 * heads, axis=1)    # W_q of every head, then W_k, W_v
            arrays += [(f"{name[:-3]}head{m}.{attr}", blocks[role * heads + m])
                       for m in range(heads) for role, attr in enumerate(("wq", "wk", "wv"))]
        else:
            arrays.append((name, t.data))
    return arrays


def save_checkpoint(model: GraphPropertyModel, epoch: int, history: list[list],
                    path) -> None:
    """JSON snapshot: config, dimensions, named parameter arrays, history.

    Arrays are stored as plain float lists; python's ``repr`` round-trips
    every finite f64 exactly, so load followed by save is lossless.
    """
    named = checkpoint_arrays(model)
    for name, arr in named:
        if not np.isfinite(arr).all():
            raise TrainingError(f"parameter {name!r} holds non-finite values")
    record = {
        "config": model.cfg.to_dict(),
        "feature_dim": model.feature_dim,
        "out_dim": model.out_dim,
        "avg_nodes": model.avg_nodes,
        "epoch": epoch,
        "history": history,
        "params": {name: {"shape": list(arr.shape), "data": arr.ravel().tolist()}
                   for name, arr in named},
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
        # numpy reads a bool among numbers as 0 or 1 without a word
        if bool in {*map(type, np.array(entry["data"], dtype=object).ravel()),
                    *map(type, entry["shape"])}:
            raise TypeError("a bool is not a number")
        return data.astype(np.float64).reshape(entry["shape"])
    except (TypeError, ValueError) as exc:
        raise TrainingError(f"parameter {name!r} does not hold numbers that fill "
                            f"shape {entry['shape']!r}: {exc}") from None


def load_checkpoint(path) -> tuple[GraphPropertyModel, dict]:
    """Rebuild a model from a checkpoint; returns it with the raw record."""
    record = read_object(path, "checkpoint", TrainingError)
    for key in ("config", "feature_dim", "out_dim", "avg_nodes", "params"):
        if key not in record:
            raise TrainingError(f"checkpoint is missing {key!r}")
    if not isinstance(record["config"], dict):
        raise TrainingError(f"checkpoint 'config' must be an object, got {record['config']!r:.40}")
    if not isinstance(record["params"], dict):
        raise TrainingError("checkpoint 'params' must be an object")
    try:
        model = GraphPropertyModel(TrainConfig.from_dict(record["config"]), record["feature_dim"],
                                   record["out_dim"], record["avg_nodes"])
    except ConfigError as exc:
        raise TrainingError(f"checkpoint 'config' and dimensions build no model: {exc}") from None
    stored = record["params"]
    arrays = checkpoint_arrays(model)
    for name, target in arrays:
        if name not in stored:
            raise TrainingError(f"checkpoint is missing parameter {name!r}")
        arr = _stored_array(name, stored[name])
        if arr.shape != target.shape:
            raise TrainingError(
                f"parameter {name!r} has shape {arr.shape}, expected {target.shape}")
        if not np.isfinite(arr).all():
            raise TrainingError(f"parameter {name!r} holds non-finite values")
        target[...] = arr
    extra = set(stored) - {name for name, _ in arrays}
    if extra:
        raise TrainingError(f"checkpoint has unknown parameters {sorted(extra)}")
    return model, record
