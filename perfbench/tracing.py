"""Spans around the calls into each module of the program, recorded from outside.

:meth:`Tracer.install` rebinds the public functions of freshly imported
``neural_atoms`` modules to timing wrappers, wherever a module holds them
(``from .graphs import load_dataset`` gives ``training`` its own binding).
Each wrapped call records a span: name, phase, start, end and the index of
the enclosing span.  Spans stay in memory and are written out once, at the
end.  Backward closures are timed per tape-entry name into counters rather
than spans, because there are hundreds of them per batch.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# Tape-entry names that get per-op metrics: every op whose backward runs on at
# least one workload.  autodiff.backward_s covers any other op as well.
BACKWARD_OPS = (
    "add", "add_row", "bce_with_logits", "block_attention", "concat_cols", "concat_rows",
    "gather_rows", "indexed_weighted_sum", "layer_norm", "matmul", "mean_rows", "relu",
    "rows", "scale", "segment_attention", "segment_broadcast", "segment_pool",
    "softmax_cross_entropy", "transpose",
)


class Tracer:
    """In-memory span recorder plus per-op backward counters."""

    def __init__(self):
        self.spans: list[list] = []          # [name, phase, start, end, parent]
        self._stack: list[int] = []
        self.phase = "setup"
        self.origin = perf_counter()
        self.tape_entries: Counter = Counter()   # phase -> tape entries at the loss
        self.losses: Counter = Counter()         # phase -> batches that built a loss
        self.backward_ops: dict[str, list] = defaultdict(lambda: [0, 0.0])

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.phase, perf_counter(), None, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][3] = perf_counter()

    @contextmanager
    def in_phase(self, phase: str):
        """Attribute everything inside to ``phase``, under a top-level span."""
        previous, self.phase = self.phase, phase
        try:
            with self.span(f"phase.{phase}"):
                yield
        finally:
            self.phase = previous

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def _count_loss(self, fn):
        """Count the tape behind each loss and time the backward closures of training."""
        grad_tape = sys.modules["neural_atoms.autodiff"].GradTape

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            loss = fn(*args, **kwargs)
            entries = grad_tape.trace(loss).entries
            self.tape_entries[self.phase] += len(entries)
            self.losses[self.phase] += 1
            if self.phase == "train":
                for entry in entries:
                    entry.backward = self._timed_op(entry.name, entry.backward)
            return loss
        return counted

    def _timed_op(self, name: str, fn):
        stats = self.backward_ops[name]

        def timed(grad):
            start = perf_counter()
            try:
                return fn(grad)
            finally:
                stats[0] += 1
                stats[1] += perf_counter() - start
        return timed

    def install(self) -> None:
        """Wrap the public functions of every loaded ``neural_atoms`` module."""
        mods = {name.rsplit(".", 1)[-1]: module for name, module in sys.modules.items()
                if name.startswith("neural_atoms.")}
        modules = list(mods.values())

        def rebind(owner, attr: str, replacement) -> None:
            original = getattr(owner, attr)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, replacement)

        for owner, attr, name in (
                (mods["graphs"], "load_dataset", "graphs.load_dataset"),
                (mods["graphs"], "batch_graphs", "graphs.batch_graphs"),
                (mods["gnn"], "gcn_forward", "gnn.forward"),
                (mods["gnn"], "gin_forward", "gnn.forward"),
                (mods["neural_atom"], "enhance_segments", "neural_atom.enhance"),
                (mods["neural_atom"], "project_to_neural_atoms", "neural_atom.project"),
                (mods["neural_atom"], "exchange_neural_atoms", "neural_atom.exchange"),
                (mods["neural_atom"], "backproject_and_enhance", "neural_atom.backproject"),
                (mods["attention"], "multi_head_attention", "attention.forward"),
                (mods["virtual_node"], "multi_virtual_node_layer", "virtual_node.forward"),
                (mods["autodiff"], "backward", "autodiff.backward"),
                (mods["training"], "train", "training.train"),
                (mods["training"], "evaluate", "training.evaluate"),
                (mods["training"], "save_checkpoint", "training.save_checkpoint"),
                (mods["training"], "load_checkpoint", "training.load_checkpoint")):
            rebind(owner, attr, self.wrap(getattr(owner, attr), name))
        for attr in ("softmax_cross_entropy", "bce_with_logits"):
            rebind(mods["autodiff"], attr, self._count_loss(getattr(mods["autodiff"], attr)))
        for cls, attr, name in ((mods["graphs"].GraphBatch, "merged_graph", "graphs.merged_graph"),
                                (mods["model"].GraphPropertyModel, "forward", "model.forward"),
                                (mods["training"].Adam, "step", "training.adam_step")):
            setattr(cls, attr, self.wrap(getattr(cls, attr), name))

    def totals(self) -> tuple[dict, dict, Counter]:
        """Total and self seconds and call counts, keyed by (phase, name)."""
        total: dict = defaultdict(float)
        own: dict = defaultdict(float)
        calls: Counter = Counter()
        children: dict = defaultdict(float)
        for name, phase, start, end, parent in self.spans:
            if parent >= 0:
                children[parent] += end - start
        for index, (name, phase, start, end, _) in enumerate(self.spans):
            total[phase, name] += end - start
            own[phase, name] += end - start - children[index]
            calls[phase, name] += 1
        return total, own, calls

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, phase, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "phase": phase,
                                     "start": start - self.origin, "end": end - self.origin,
                                     "parent": parent}) + "\n")


def per_layer_metrics(tracer: Tracer, epochs: int, setups: int, eval_passes: int
                      ) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, as (value, unit), from one traced run.

    Times and calls are per training epoch unless the unit says otherwise;
    counts per batch divide by the batches that built a loss in that phase.
    """
    total, own, calls = tracer.totals()
    batches = max(tracer.losses["train"], 1)

    def per_epoch(name: str) -> tuple[float, str]:
        return total["train", name] / epochs, "s/epoch"

    def per_call(name: str) -> tuple[float, str]:
        seconds = sum(v for (_, n), v in total.items() if n == name)
        count = sum(v for (_, n), v in calls.items() if n == name)
        return seconds / max(count, 1), "s/call"

    out = {
        "graphs.load_dataset_s": (total["setup", "graphs.load_dataset"] / setups, "s/setup"),
        "graphs.batch_graphs_s": per_epoch("graphs.batch_graphs"),
        "graphs.merged_graph_s": per_epoch("graphs.merged_graph"),
        "gnn.forward_s": per_epoch("gnn.forward"),
        "gnn.forward_calls": (calls["train", "gnn.forward"] / epochs, "calls/epoch"),
        "neural_atom.project_s": per_epoch("neural_atom.project"),
        "neural_atom.exchange_s": per_epoch("neural_atom.exchange"),
        "neural_atom.backproject_s": per_epoch("neural_atom.backproject"),
        "neural_atom.calls": (calls["train", "neural_atom.enhance"] / epochs, "calls/epoch"),
        "attention.forward_s": per_epoch("attention.forward"),
        "attention.calls": (calls["train", "attention.forward"] / epochs, "calls/epoch"),
        "virtual_node.forward_s": per_epoch("virtual_node.forward"),
        "virtual_node.calls_per_batch": (calls["train", "virtual_node.forward"] / batches,
                                         "count/batch"),
        "model.forward_s": per_epoch("model.forward"),
        "model.forward_self_s": (own["train", "model.forward"] / epochs, "s/epoch"),
        "autodiff.tape_entries_per_batch": (tracer.tape_entries["train"] / batches,
                                            "count/batch"),
        "autodiff.eval_tape_entries_per_batch": (
            tracer.tape_entries["eval"] / max(tracer.losses["eval"], 1), "count/batch"),
        "autodiff.backward_s": per_epoch("autodiff.backward"),
        "training.adam_step_s": per_epoch("training.adam_step"),
        "training.evaluate_s": (total["eval", "training.evaluate"] / eval_passes, "s/pass"),
        "training.save_checkpoint_s": per_call("training.save_checkpoint"),
        "training.load_checkpoint_s": per_call("training.load_checkpoint"),
    }
    for name in BACKWARD_OPS:
        count, seconds = tracer.backward_ops.get(name, (0, 0.0))
        out[f"autodiff.backward.{name}_s"] = (seconds / epochs, "s/epoch")
        out[f"autodiff.backward.{name}_calls"] = (count / batches, "count/batch")
    return out
