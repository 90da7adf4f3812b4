"""Training and evaluation benchmark of the neural_atoms package.

Runs one workload in this process and prints its result as the last line:

    python3 perfbench/run.py --workload lri-atoms --seed 0 --seconds 40 --trace 0

The program is imported from ``src/`` of the checkout this file sits in.
A run writes its seeded inputs as JSON Lines, then repeats whole rounds
for ``--seconds``: a set-up (import the package afresh, load both
datasets, build the model), one ``train`` and a few ``evaluate`` passes.
Each timed call is rescaled to a nominal machine speed (see ``Clock``),
and each metric is the median of its samples.  Finally it checks the last
round's outputs.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` times the calls into each module and reports the per-layer
metrics instead.  Each run's record (machine facts, samples, wall times,
calibrations, metrics) goes to ``perfbench/out/runs/``, a traced run's
spans to ``perfbench/out/spans/``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import importlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from checks import (CheckFailed, check_allocations, check_batched_matches_alone, check_gradient,
                    check_identical, check_metrics_match, check_parameters_moved,
                    classification_metrics, contact_metrics)
from tracing import Tracer, per_layer_metrics
from workloads import WORKLOADS, Workload, write_inputs

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
EVAL_BATCH = 64      # evaluate()'s default batch size
EPOCHS = 2           # epochs of the train() call of each round
EVAL_PASSES = 3      # evaluate() passes over the held-out set in each round
GRADIENT_GRAPHS = 8  # held-out graphs in the batch of the gradient check
NOMINAL_CALIBRATION_MS = 0.8   # calibration_ms() at the speed the times are rescaled to
CALIBRATION_ARRAY = np.random.default_rng(0).random((64, 32))


def set_up(workload: Workload, seed: int, train_path: Path, heldout_path: Path, work: Path,
           tracer: Tracer | None):
    """Import the package afresh, load both datasets and build the model.

    Returns the imported modules, the config, the held-out graphs and the
    freshly built model.
    """
    for name in [n for n in sys.modules if n == "neural_atoms" or n.startswith("neural_atoms.")]:
        del sys.modules[name]
    mods = {name: importlib.import_module(f"neural_atoms.{name}")
            for name in ("training", "model", "graphs", "autodiff")}
    if tracer is not None:
        tracer.install()
    training, model_mod = mods["training"], mods["model"]
    train_graphs = training.load_dataset(train_path)
    heldout = training.load_dataset(heldout_path)
    cfg = model_mod.TrainConfig(dataset=str(train_path), out=str(work / "train"),
                                backbone=workload.backbone, augment=workload.augment,
                                task=workload.task, epochs=EPOCHS, seed=seed)
    initial = model_mod.GraphPropertyModel(cfg, *training.dataset_dimensions(train_graphs,
                                                                             cfg.task))
    if not Path(training.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"neural_atoms was imported from {training.__file__}, not from {SRC}")
    return mods, cfg, heldout, initial


def calibration_ms() -> float:
    """Milliseconds of a fixed mix of Python and elementwise numpy work.

    The median of five timings.  It uses no BLAS and allocates nothing
    the garbage collector tracks, and the collector is off while it runs,
    so what the program leaves behind does not change it.
    """
    times = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(5):
            begin = time.perf_counter()
            acc = 0.0
            for i in range(200):
                y = CALIBRATION_ARRAY * 1.0001 + 0.5
                acc += float(y[i % 64, i % 32]) * 0.5 + i
            times.append(time.perf_counter() - begin)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times) * 1e3


class Clock:
    """Times calls and rescales each time to the nominal machine speed.

    A calibration is taken before the first call and after each call.  A
    call's wall time is multiplied by ``NOMINAL_CALIBRATION_MS`` over the
    mean of the calibrations on either side of it.
    """

    def __init__(self):
        calibration_ms()    # warm-up
        self.calibrations = [calibration_ms()]
        self.wall: list[float] = []

    def time(self, fn, *args):
        """``fn(*args)`` and its rescaled seconds."""
        begin = time.perf_counter()
        result = fn(*args)
        self.wall.append(time.perf_counter() - begin)
        self.calibrations.append(calibration_ms())
        speed = NOMINAL_CALIBRATION_MS / ((self.calibrations[-2] + self.calibrations[-1]) / 2)
        return result, self.wall[-1] * speed


def measure(workload: Workload, seed: int, train_path: Path, heldout_path: Path, work: Path,
            seconds: float, tracer: Tracer | None):
    """Whole rounds for ``seconds``.

    A round is one set-up, one ``train`` and ``EVAL_PASSES`` ``evaluate``
    passes, so every sample is spread over the whole run.  No round starts
    that the last one's length says would end after ``seconds``.
    """
    phase = tracer.in_phase if tracer is not None else lambda _: contextlib.nullcontext()
    samples: dict[str, list[float]] = {"setup_s": [], "train_epoch_s": [], "eval_graphs_per_s": []}
    clock = Clock()
    start = round_start = time.perf_counter()
    while True:
        with phase("setup"):
            (mods, cfg, heldout, initial), setup_s = clock.time(
                set_up, workload, seed, train_path, heldout_path, work, tracer)
        samples["setup_s"].append(setup_s)
        with phase("train"):
            (model, checkpoint), train_s = clock.time(mods["training"].train, cfg)
        samples["train_epoch_s"].append(train_s / cfg.epochs)
        with phase("eval"):
            for _ in range(EVAL_PASSES):
                reported, eval_s = clock.time(mods["training"].evaluate, model, heldout)
                samples["eval_graphs_per_s"].append(len(heldout) / eval_s)
        now = time.perf_counter()
        if now + (now - round_start) > start + seconds:
            return mods, heldout, initial, model, checkpoint, reported, samples, clock
        round_start = now


def graph_outputs(model, graphs_mod, graphs: list, batch_size: int) -> list[np.ndarray]:
    """Each graph's raw outputs (logit row or pair scores), scored in batches."""
    out = []
    for start in range(0, len(graphs), batch_size):
        chunk = graphs[start:start + batch_size]
        result = model.forward(graphs_mod.batch_graphs(chunk))
        if result.pair_scores is None:
            out.extend(result.graph_outputs.data)
        else:
            ends = np.cumsum([len(g.pair_labels) for g in chunk])[:-1]
            out.extend(part[:, 0] for part in np.split(result.pair_scores.data, ends))
    return out


def recompute(task: str, outputs: list[np.ndarray], labels: list) -> dict[str, float]:
    """The metrics ``evaluate`` should report, from raw outputs and generated labels."""
    if task == "pair-contact":
        return contact_metrics(outputs, labels)
    return classification_metrics(np.stack(outputs), labels)


def program_gradient(mods, model, graphs: list, labels: list) -> list[np.ndarray]:
    """The gradient of the training loss on ``graphs``, from the program's backward."""
    autodiff = mods["autodiff"]
    output = model.forward(mods["graphs"].batch_graphs(graphs))
    if output.pair_scores is None:
        loss = autodiff.softmax_cross_entropy(output.graph_outputs, np.array(labels))
    else:
        loss = autodiff.bce_with_logits(output.pair_scores, np.concatenate(labels)[:, None])
    params = model.tensors()
    autodiff.backward(loss, params)
    return [p.grad.copy() for p in params]


def check_outputs(mods, initial, model, checkpoint, reported, heldout, labels,
                  workload: Workload):
    """Raise CheckFailed unless the last round's outputs are right."""
    training, graphs_mod = mods["training"], mods["graphs"]
    batched = graph_outputs(model, graphs_mod, heldout, EVAL_BATCH)
    alone = [graph_outputs(model, graphs_mod, [g], 1)[0] for g in heldout]
    check_batched_matches_alone(batched, alone)
    check_metrics_match(reported, recompute(workload.task, batched, labels))
    reloaded, _ = training.load_checkpoint(checkpoint)
    check_identical(reported, training.evaluate(reloaded, heldout),
                    "evaluate after a checkpoint round trip")
    if workload.augment == "neural-atoms":
        for start in range(0, len(heldout), EVAL_BATCH):
            batch = graphs_mod.batch_graphs(heldout[start:start + EVAL_BATCH])
            check_allocations(model.forward(batch, collect_traces=True).traces)

    graphs, graph_labels = heldout[:GRADIENT_GRAPHS], labels[:GRADIENT_GRAPHS]
    grads = program_gradient(mods, model, graphs, graph_labels)
    params = [p.data for p in model.tensors()]
    rng = np.random.default_rng(0)
    direction = [rng.standard_normal(p.shape) for p in params]

    def loss_at() -> float:
        outputs = graph_outputs(model, graphs_mod, graphs, len(graphs))
        return recompute(workload.task, outputs, graph_labels)["loss"]

    check_gradient(loss_at, params, grads, direction)
    check_parameters_moved([p.data for p in initial.tensors()], params, grads)


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS uses, asked from the library itself."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    for lib in sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line}):
        handle = ctypes.CDLL(lib)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def machine_facts() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas_name = None
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "blas_thread_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in sorted(SRC.rglob("*.py"))),
    }


def run(workload: Workload, seed: int, seconds: int, trace: bool, work: Path) -> dict:
    tracer = Tracer() if trace else None
    train_path, heldout_path, labels = write_inputs(workload, seed, work)
    mods, heldout, initial, model, checkpoint, reported, samples, clock = measure(
        workload, seed, train_path, heldout_path, work, seconds, tracer)

    correct, problem = True, None
    phase = tracer.in_phase("check") if tracer is not None else contextlib.nullcontext()
    with phase:
        try:
            check_outputs(mods, initial, model, checkpoint, reported, heldout, labels,
                          workload)
        except CheckFailed as err:
            correct, problem = False, str(err)

    rounds = len(samples["setup_s"])
    medians = {name: statistics.median(values) for name, values in samples.items()}
    if trace:
        metrics = per_layer_metrics(tracer, rounds * EPOCHS, rounds, rounds * EVAL_PASSES)
        metrics["traced.train_epoch_s"] = (medians["train_epoch_s"], "s")
        metrics["traced.eval_graphs_per_s"] = (medians["eval_graphs_per_s"], "graphs/s")
        spans_dir = OUT / "spans"
        spans_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(spans_dir / f"{workload.name}-seed{seed}.jsonl")
    else:
        metrics = {
            "setup_s": (medians["setup_s"], "s"),
            "train_epoch_s": (medians["train_epoch_s"], "s"),
            "eval_graphs_per_s": (medians["eval_graphs_per_s"], "graphs/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    return {
        "correct": correct,
        "problem": problem,
        "attempted": rounds * (2 + EVAL_PASSES),
        "failed": 0,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        "samples": samples,
        "wall_s": clock.wall,
        "calibration_ms": clock.calibrations,
        "reported": reported,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "neural_atoms" / "__init__.py").is_file():
        print(f"error: the program's sources are not at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        record = run(workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    facts = machine_facts()
    record.update(workload=workload.name, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, machine=facts)
    runs_dir = OUT / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    (runs_dir / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if record["problem"]:
        print(f"check failed: {record['problem']}", file=sys.stderr)
    print(json.dumps({"machine": facts}))
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
