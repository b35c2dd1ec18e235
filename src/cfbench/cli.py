"""Command-line interface.

Subcommands: ``ingest`` (raw logs -> frame CSV), ``train`` (one block's model
and test metrics), ``explain`` (one instance, one method, printed diff),
``run`` (the full benchmark grid), ``report`` (rebuild the four aggregate CSVs
of an output directory).

``train`` and ``explain`` go through the block step of `bench.Pipeline`, as
``run`` does: they reuse a forest in the output directory when its manifest
marks the block done under the block's reuse key, and otherwise fit it, write
the same ``models/`` files that ``run`` writes and record the block in the
manifest. ``run --cell`` shards into one output directory share its manifest
the same way. ``report`` runs `bench.report`, the step ``run`` ends with, over
every cell of the directory's manifest in grid order.
"""

from __future__ import annotations

import argparse
import configparser
import logging
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

from . import bench, cfgen
from .cfeval import Cell
from .dataset import imbalance_ratio, ingest_oulad


def _select(config: bench.ExperimentConfig, text: str, want_method: bool) -> bench.ExperimentConfig:
    """``config`` restricted to the ``--cell`` of a command, whose names the
    config checks; without ``want_method`` it keeps its methods."""
    parts = text.split(":")
    if want_method and len(parts) != 3:
        raise SystemExit(f"--cell must look like balancing:tuning:method, got {text!r}")
    if not want_method and len(parts) not in (2, 3):
        raise SystemExit(f"--cell must look like balancing:tuning, got {text!r}")
    try:
        return replace(config, balancing=(parts[0],), tuning=(parts[1],),
                       methods=(parts[2],) if want_method else config.methods)
    except ValueError as exc:
        raise SystemExit(f"--cell {text}: {exc}") from exc


def _load_config(args) -> bench.ExperimentConfig:
    """The ``--config`` file with the command's overrides; an unreadable file or
    an invalid setting ends the command with a message."""
    try:
        config = bench.parse_config(args.config)
        if getattr(args, "full", False):
            config = config.full_scale()
        if getattr(args, "seed", None) is not None:
            config = replace(config, master_seed=args.seed)
        if getattr(args, "max_instances", None) is not None:
            config = replace(config, max_explained_instances=args.max_instances)
        if getattr(args, "out", None) is not None:
            config = replace(config, output_dir=Path(args.out))
    except (FileNotFoundError, ValueError, configparser.Error) as exc:
        raise SystemExit(f"{args.command}: {exc}") from exc
    return config


@contextmanager
def _data_errors(command: str):
    """A context in which a missing or malformed input file ends ``command``
    with a message instead of a traceback."""
    try:
        yield
    except (FileNotFoundError, ValueError) as exc:
        raise SystemExit(f"{command}: {exc}") from exc


def cmd_ingest(args) -> int:
    presentations = [p.strip() for p in args.presentations.split(",") if p.strip()]
    with _data_errors("ingest"):
        data = ingest_oulad(args.raw_dir, args.course, presentations)
        data.save_csv(args.out)
    counts = data.class_counts()
    print(f"wrote {args.out}: {data.n} students, {data.p} weekly features")
    print(f"labels: {counts}; imbalance ratio {imbalance_ratio(data):.4f}")
    return 0


def cmd_train(args) -> int:
    config = _select(_load_config(args), args.cell, want_method=False)
    balancing, tuning = config.balancing[0], config.tuning[0]
    with _data_errors("train"):
        pipe = bench.Pipeline.open(config)
    _, _, entry = pipe.block(balancing, tuning)
    model_path, _ = bench.block_files(config.output_dir, balancing, tuning)
    hp, metrics = entry["hyperparams"], entry["metrics"]
    print(f"cell {balancing}:{tuning}")
    print(f"hyperparams: mtry={hp['mtry']} splitrule={hp['splitrule']} "
          f"min_node_size={hp['min_node_size']} n_trees={hp['n_trees']}")
    print(f"accuracy {metrics['accuracy']:.4f}  auc {metrics['auc']:.4f}  f1 {metrics['f1']:.4f}")
    print(f"model {'loaded from' if entry.get('resumed') else 'saved to'} {model_path}")
    return 0


def cmd_explain(args) -> int:
    config = _load_config(args)
    cell = _select(config, args.cell, want_method=True).cells()[0]
    with _data_errors("explain"):
        pipe = bench.Pipeline.open(config)
    method_train, model, _ = pipe.block(cell.balancing, cell.tuning)
    split = pipe.split
    fail_rows = bench.fail_predicted_rows(model, split.test, config.max_explained_instances)
    if not fail_rows:
        print("no test instance is predicted as failing in this cell")
        return 1
    row = args.index if args.index is not None else fail_rows[0]
    if row not in fail_rows:
        raise SystemExit(f"test row {row} is not among the fail-predicted rows {fail_rows[:10]}...")
    records, items = bench.generate_for_cell(config, cell, model, method_train,
                                             split.test, split.train.bounds, [row])
    if not items:
        print(f"request {row}: no valid counterfactual found")
        return 1
    x = split.test.features[row]
    cf = items[0][0]  # most proximal counterfactual first
    names = split.test.feature_names
    print(f"cell {cell.key()}  test row {row}")
    print(f"p(fail): {model.predict_proba(x):.4f} -> {model.predict_proba(cf.values):.4f}")
    changed = [j for j in range(x.size) if cf.values[j] != x[j]]
    print(f"changed {len(changed)} of {x.size} features:")
    for j in changed:
        print(f"  {names[j]}: {x[j]:g} -> {cf.values[j]:g}")
    rec = records[0]
    print(f"metrics: proximity {rec.proximity:.4f}  sparsity {rec.sparsity}  "
          f"minimality {rec.minimality}  plausibility {rec.plausibility:.4f}")
    return 0


def cmd_run(args) -> int:
    config = _load_config(args)
    if args.cell is not None:
        config = _select(config, args.cell, want_method=True)
    # the grid records its own block and cell failures, so what reaches here
    # is the data that cannot be loaded or split, or a report input gone missing
    with _data_errors("run"):
        manifest = bench.run(config)
    # the manifest also holds the cells of earlier shards; report this invocation's
    own = [cell.key() for cell in config.cells()]
    failed = [k for k in own if manifest.cells[k].get("status") != "done"]
    print(f"run complete: {len(own) - len(failed)}/{len(own)} cells done; "
          f"outputs in {config.output_dir}")
    for key in failed:
        print(f"  FAILED {key}: {manifest.cells[key].get('error', 'unknown error')}")
    return 0 if not failed else 1


def cmd_report(args) -> int:
    with _data_errors("report"):
        manifest = bench.RunManifest.load(Path(args.out) / bench.MANIFEST)
        cells = [Cell(b, t, m) for b in bench.BALANCING_ALL for t in bench.TUNING_ALL
                 for m in cfgen.METHODS if Cell(b, t, m).key() in manifest.cells]
        bench.report(args.out, manifest, cells)
    print(f"aggregated {len(cells)} cells in {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfbench",
        description="Benchmark counterfactual explanation methods over balancing strategies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="aggregate raw course logs into the weekly frame CSV")
    p.add_argument("--raw-dir", required=True, help="directory with the raw course CSV files")
    p.add_argument("--course", default="DDD")
    p.add_argument("--presentations", default="2013J,2014J", help="comma-separated list")
    p.add_argument("--out", required=True, help="output frame CSV path")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("train", help="train and evaluate one (balancing, tuning) cell")
    p.add_argument("--config", required=True)
    p.add_argument("--cell", required=True, help="balancing:tuning")
    p.add_argument("--seed", type=int)
    p.add_argument("--out")
    p.add_argument("--full", action="store_true", help="paper-scale forest and tuning")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("explain", help="explain one fail-predicted test instance")
    p.add_argument("--config", required=True)
    p.add_argument("--cell", required=True, help="balancing:tuning:method")
    p.add_argument("--index", type=int, help="test row to explain (default: first fail-predicted)")
    p.add_argument("--seed", type=int)
    p.add_argument("--max-instances", type=int)
    p.add_argument("--full", action="store_true")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("run", help="run the configured benchmark grid")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, help="override the master seed")
    p.add_argument("--max-instances", type=int, help="override the per-cell instance cap")
    p.add_argument("--out", help="override the output directory")
    p.add_argument("--cell", help="restrict the grid to one balancing:tuning:method cell")
    p.add_argument("--full", action="store_true", help="paper-scale forest, tuning, and caps")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("report", help="rebuild the aggregate CSVs of an output directory")
    p.add_argument("--out", required=True, help="output directory of a previous run")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(message)s", stream=sys.stderr)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
