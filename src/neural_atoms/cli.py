"""Command line entry point: train, evaluate, generate, ewald, export-alloc."""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from .autodiff import no_grad
from .ewald import ewald_sum_matrix, load_system, write_interaction_heatmap
from .files import read_object, write_table
from .graphs import batch_graphs, generate_lri_task, load_dataset, save_dataset
from .model import CHOICES, ConfigError, TrainConfig
from .training import TrainingError, evaluate, load_checkpoint, train

# every error the package raises on bad input is a ValueError, except TrainingError
_HANDLED_ERRORS = (TrainingError, OSError, ValueError)


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    """One flag per TrainConfig field; None means "not given on the line"."""
    parser.add_argument("--config", help="JSON file with TrainConfig fields")
    for f in fields(TrainConfig):
        # f.type is the annotation's text, since model.py postpones annotations
        parser.add_argument("--" + f.name.replace("_", "-"), dest=f.name,
                            type={"int": int, "float": float}.get(f.type),
                            choices=CHOICES.get(f.name))


def _merge_config(args: argparse.Namespace) -> TrainConfig:
    record: dict = {}
    if args.config:
        record.update(read_object(args.config, "config file", ConfigError))
    for f in fields(TrainConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            record[f.name] = value
    return TrainConfig.from_dict(record)


def _cmd_train(args) -> int:
    cfg = _merge_config(args)
    _, checkpoint_path = train(cfg)
    print(f"trained {cfg.epochs} epochs; wrote {checkpoint_path}")
    return 0


def _cmd_evaluate(args) -> int:
    model, _ = load_checkpoint(args.checkpoint)
    graphs = load_dataset(args.dataset)
    metrics = evaluate(model, graphs)
    for name in sorted(metrics):
        print(f"{name} {metrics[name]!r}")
    return 0


def _cmd_generate(args) -> int:
    graphs = generate_lri_task(args.graphs, args.path_len, args.colors, args.seed)
    save_dataset(graphs, args.out)
    print(f"wrote {len(graphs)} graphs to {args.out}")
    return 0


def _cmd_ewald(args) -> int:
    system = load_system(args.system)
    matrix = ewald_sum_matrix(system)
    write_interaction_heatmap(matrix, args.threshold, args.out)
    print(f"wrote {system.num_atoms}x{system.num_atoms} heatmap to {args.out}")
    return 0


def _cmd_export_alloc(args) -> int:
    model, _ = load_checkpoint(args.checkpoint)
    if model.cfg.augment != "neural-atoms":
        raise ConfigError("checkpoint was not trained with neural atoms; "
                          "there are no allocations to export")
    graphs = load_dataset(args.dataset)
    if not 0 <= args.graph < len(graphs):
        raise ConfigError(f"graph index {args.graph} outside 0..{len(graphs) - 1}")
    batch = batch_graphs([graphs[args.graph]])
    with no_grad():
        output = model.forward(batch, collect_traces=True)
    out_dir = Path(args.out)
    for i, trace in enumerate(output.traces):     # a batch of one graph
        allocation = trace.node_allocation
        write_table(out_dir / f"alloc_layer{i}.csv",
                    ["node"] + [f"atom_{j}" for j in range(allocation.shape[1])],
                    ([node] + row for node, row in enumerate(allocation.tolist())))
    print(f"wrote {len(output.traces)} allocation files to {out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="neural-atoms",
        description="Train and inspect graph models with neural-atom augmentation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="optimize a model on a dataset")
    _add_config_flags(p_train)
    p_train.set_defaults(handler=_cmd_train)

    p_eval = sub.add_parser("evaluate", help="score a checkpoint on a dataset")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--dataset", required=True)
    p_eval.set_defaults(handler=_cmd_evaluate)

    p_gen = sub.add_parser("generate",
                           help="write a synthetic endpoint-matching dataset")
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--graphs", type=int, default=1000)
    p_gen.add_argument("--path-len", dest="path_len", type=int, default=20)
    p_gen.add_argument("--colors", type=int, default=4)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.set_defaults(handler=_cmd_generate)

    p_ewald = sub.add_parser("ewald", help="write an interaction heatmap CSV")
    p_ewald.add_argument("--system", required=True)
    p_ewald.add_argument("--out", required=True)
    p_ewald.add_argument("--threshold", type=float, default=0.0)
    p_ewald.set_defaults(handler=_cmd_ewald)

    p_alloc = sub.add_parser("export-alloc",
                             help="write per-layer allocation matrices for one graph")
    p_alloc.add_argument("--checkpoint", required=True)
    p_alloc.add_argument("--dataset", required=True)
    p_alloc.add_argument("--graph", type=int, default=0)
    p_alloc.add_argument("--out", required=True)
    p_alloc.set_defaults(handler=_cmd_export_alloc)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except _HANDLED_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
