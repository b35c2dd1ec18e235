"""Benchmark orchestration: run the (balancing x tuning x method) grid
end-to-end with deterministic seeding and resumable, atomically written
artifacts.

One run performs a single stratified split; the test side is shared untouched
by every cell. Per balancing strategy the training side is resampled (or kept
original with cost-sensitive class weights -- the five strategies are never
composed), a forest is fit per tuning mode (vanilla defaults or CV-tuned,
re-tuned per strategy), and each generation method explains the test rows the
model predicts as failing, in row order, capped at the configured instance
budget. All randomness derives from the master seed through `seed_for`, so any
cell is independently reproducible and two identical runs emit byte-identical
CSV outputs.

`Pipeline` holds the two steps of the grid and the output directory's one
`RunManifest`, into which each step records and saves its entry. Its block
step loads or fits one (balancing, tuning) forest and writes ``models/``; its
cell step resumes or generates one cell and writes ``cells/``. `run`, its
``--cell`` shards and the CLI's ``train`` and ``explain`` all go through these
steps, so each resumes what an earlier one left in the same output directory.
A done entry stores its reuse key, `ExperimentConfig.key`, a hash of only the
settings its files depend on; a failed entry's files are deleted. `report`
builds the four aggregate CSVs from the done entries' files alone; `run` ends
with it, and so do shards followed by the CLI's ``report``. This module owns
every output path, and every artifact reaches disk through `_atomic_write`.
"""

from __future__ import annotations

import configparser
import csv
import hashlib
import json
import logging
import os
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import balance, cfgen, cfeval, forest
from .cfeval import Cell
from .dataset import (FAIL_CUT, FRAME_COLUMNS, LabeledDataset, SplitResult, ingest_oulad,
                      load_csv, stratified_split)
from .distance import GowerColumns
from .rng import seed_for

logger = logging.getLogger(__name__)

ORIGINAL = "original"
UNDERSAMPLING = "undersampling"
OVERSAMPLING = "oversampling"
SMOTE = "smote"
COST_SENSITIVE = "cost_sensitive"
BALANCING_ALL = (ORIGINAL, UNDERSAMPLING, OVERSAMPLING, SMOTE, COST_SENSITIVE)

VANILLA = "vanilla"
TUNED = "tuned"
TUNING_ALL = (VANILLA, TUNED)

GLOBAL_CELL = Cell("-", "-", "-")
MANIFEST = "manifest.json"

# A setting's reuse-key scope: the manifest entries whose keys hash it. No
# output file depends on where it is written or on which cells an invocation
# selects, so those settings are in no key; only generation reads the
# cell-scoped ones, so they stay out of a block's key.
NO_KEY, CELL_KEY, BLOCK_KEY = "none", "cell", "block"


def _strs(raw: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in raw.split(",") if part.strip())


def _ints(raw: str) -> tuple[int, ...]:
    return tuple(int(part) for part in _strs(raw))


def _cap(raw: str) -> int | None:
    return None if raw.lower() in ("unlimited", "none") else int(raw)


def _setting(section: str, default, parse=None, scope: str = BLOCK_KEY):
    """An `ExperimentConfig` field, read from INI ``[section]`` under its name
    without the ``<section>_`` prefix. ``parse`` turns the text into the value
    (by default the default's type); ``scope`` is its reuse-key scope."""
    return field(default=default, metadata={"section": section, "scope": scope,
                                            "parse": parse or type(default)})


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one benchmark run.

    Defaults are desk scale: a 50-tree forest, a reduced 5-fold single-repeat
    tuning pass, and at most 50 explained instances per cell. `full_scale()`
    switches to the paper-faithful 500-tree / 10-fold x 3-repeat setup with no
    instance cap. Each field declares its INI section, text parser and
    reuse-key scope (`_setting`).
    """

    oulad_dir: Path | None = _setting("data", None, Path)
    frame_csv: Path | None = _setting("data", None, Path)
    course: str = _setting("data", "DDD")
    presentations: tuple[str, ...] = _setting("data", ("2013J", "2014J"), _strs)
    test_fraction: float = _setting("split", 0.3)
    master_seed: int = _setting("run", 0)
    output_dir: Path = _setting("run", Path("out"), Path, NO_KEY)
    balancing: tuple[str, ...] = _setting("run", BALANCING_ALL, _strs, NO_KEY)
    tuning: tuple[str, ...] = _setting("run", TUNING_ALL, _strs, NO_KEY)
    methods: tuple[str, ...] = _setting("run", cfgen.METHODS, _strs, NO_KEY)
    max_explained_instances: int | None = _setting("run", 50, _cap, CELL_KEY)
    n_trees: int = _setting("forest", 50)
    tune_folds: int = _setting("tune", 5)
    tune_repeats: int = _setting("tune", 1)
    tune_objective: str = _setting("tune", "auc")
    tune_mtry: tuple[int, ...] = _setting("tune", (2, 6, 21, 41), _ints)
    tune_splitrule: tuple[str, ...] = _setting("tune", forest.SPLITRULES, _strs)
    tune_min_node_size: tuple[int, ...] = _setting("tune", (1, 5, 10), _ints)
    whatif_k: int = _setting("whatif", cfgen.DEFAULT_WHATIF_K, scope=CELL_KEY)
    smote_k: int = _setting("smote", balance.DEFAULT_SMOTE_K)
    moc_population: int = _setting("moc", 100, scope=CELL_KEY)
    moc_generations: int = _setting("moc", 50, scope=CELL_KEY)
    moc_crossover_rate: float = _setting("moc", 0.7, scope=CELL_KEY)
    moc_mutation_rate: float = _setting("moc", 0.3, scope=CELL_KEY)

    def __post_init__(self):
        if (self.oulad_dir is None) == (self.frame_csv is None):
            raise ValueError("exactly one of oulad_dir / frame_csv must be set")
        for name, allowed in (("balancing", BALANCING_ALL), ("tuning", TUNING_ALL),
                              ("methods", cfgen.METHODS)):
            got = getattr(self, name)
            if not got:
                raise ValueError(f"{name} must be non-empty")
            unknown = [v for v in got if v not in allowed]
            if unknown:
                raise ValueError(f"unknown {name} value(s): {', '.join(unknown)}; "
                                 f"choose from {', '.join(allowed)}")
            if len(set(got)) != len(got):
                raise ValueError(f"duplicate {name} values")
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError("test_fraction must be in (0, 1)")
        if self.max_explained_instances is not None and self.max_explained_instances < 1:
            raise ValueError("max_explained_instances must be positive or unlimited")
        for name in ("whatif_k", "smote_k"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        # the MOC, cross-validation and forest settings are checked by their owners
        self.moc_config(0)
        forest.CvSpec(self.tune_folds, self.tune_repeats, self.tune_objective)
        if not self.grid(max(self.tune_mtry, default=1)):
            raise ValueError("tune_mtry, tune_splitrule and tune_min_node_size must be non-empty")

    def full_scale(self) -> "ExperimentConfig":
        """Paper-faithful scale: 500 trees, 10-fold x 3-repeat tuning, no instance cap."""
        return replace(self, n_trees=forest.DEFAULT_N_TREES, tune_folds=10, tune_repeats=3,
                       max_explained_instances=None)

    def grid(self, p: int) -> list[forest.Hyperparams]:
        mtries = sorted({min(v, p) for v in self.tune_mtry})
        return [
            forest.Hyperparams(mtry=m, splitrule=rule, min_node_size=s, n_trees=self.n_trees)
            for m in mtries
            for rule in self.tune_splitrule
            for s in self.tune_min_node_size
        ]

    def moc_config(self, seed: int) -> cfgen.MocConfig:
        return cfgen.MocConfig(
            population=self.moc_population,
            generations=self.moc_generations,
            mutation_rate=self.moc_mutation_rate,
            crossover_rate=self.moc_crossover_rate,
            seed=seed,
        )

    def cells(self) -> list[Cell]:
        """The configured cells, in config order."""
        return [Cell(b, t, m) for b in self.balancing for t in self.tuning for m in self.methods]

    def key(self, cell: Cell) -> str:
        """The reuse key of ``cell``'s manifest entry: a hash of the cell and of
        the settings its files depend on, and of the forest grower's version.
        A block is ``Cell(b, t, "-")``, and its key leaves out the
        cell-scoped settings."""
        scopes = (BLOCK_KEY,) if cell.method == "-" else (BLOCK_KEY, CELL_KEY)
        lines = [f"cell={cell.key()}", f"grower={forest.GROWER_VERSION}"]
        for f in sorted(fields(self), key=lambda f: f.name):
            if f.metadata["scope"] not in scopes:
                continue
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = ",".join(str(v) for v in value)
            lines.append(f"{f.name}={value}")
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def parse_config(path) -> ExperimentConfig:
    """Parse the INI-style run description; unknown sections or keys and
    invalid settings are errors that name the file."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such config file: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    with path.open() as fh:
        parser.read_file(fh, source=str(path))
    settings = {(f.metadata["section"], f.name.removeprefix(f.metadata["section"] + "_")): f
                for f in fields(ExperimentConfig)}
    sections = {section for section, _ in settings}
    kwargs = {}
    for section in parser.sections():
        if section not in sections:
            raise ValueError(f"{path}: unknown section [{section}]")
        for key, raw in parser.items(section):
            if (section, key) not in settings:
                raise ValueError(f"{path}: unknown key {key!r} in section [{section}]")
            f, raw = settings[(section, key)], raw.strip()
            try:
                kwargs[f.name] = f.metadata["parse"](raw)
            except ValueError as exc:
                raise ValueError(f"{path}: [{section}] {key}: cannot parse {raw!r}") from exc
    try:
        return ExperimentConfig(**kwargs)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


@dataclass
class RunManifest:
    """Run record: per-block and per-cell status, reuse key, counts and
    timings, for resume and audit. It names no location, so it stays valid
    wherever the output directory is reached from."""

    blocks: dict = field(default_factory=dict)
    cells: dict = field(default_factory=dict)

    @classmethod
    def load(cls, path) -> "RunManifest":
        """Read ``path``; `ValueError`, naming the file, when it is not a JSON
        object or its ``blocks`` and ``cells`` do not map names to objects."""
        try:
            raw = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not a JSON object: {exc}") from exc
        if not isinstance(raw, dict):
            raise ValueError(f"{path}: not a JSON object")
        entries = {kind: raw.get(kind, {}) for kind in ("blocks", "cells")}
        for kind, named in entries.items():
            if not (isinstance(named, dict) and all(isinstance(e, dict) for e in named.values())):
                raise ValueError(f"{path}: {kind} must map names to JSON objects")
        return cls(**entries)

    def completed_cells(self) -> int:
        return sum(1 for c in self.cells.values() if c.get("status") == "done")


def load_data(config: ExperimentConfig) -> LabeledDataset:
    if config.frame_csv is not None:
        return load_csv(config.frame_csv, FRAME_COLUMNS)
    return ingest_oulad(config.oulad_dir, config.course, config.presentations)


def prepare_training(config: ExperimentConfig, train: LabeledDataset, balancing: str):
    """The (training set, class weights) pair for one balancing strategy.

    Resampling strategies train with unit weights; the cost-sensitive strategy
    keeps the original training set and weights errors by the imbalance ratio.
    """
    seed = seed_for(config.master_seed, Cell(balancing, "-", "-"), "balance")
    if balancing == ORIGINAL:
        return train, balance.ClassWeights.unit()
    if balancing == UNDERSAMPLING:
        return balance.random_undersample(train, seed), balance.ClassWeights.unit()
    if balancing == OVERSAMPLING:
        return balance.random_oversample(train, seed), balance.ClassWeights.unit()
    if balancing == SMOTE:
        return balance.smote(train, k=config.smote_k, seed=seed), balance.ClassWeights.unit()
    if balancing == COST_SENSITIVE:
        return train, balance.cost_weights(train)
    raise ValueError(f"unknown balancing strategy {balancing!r}")


def fit_block(config: ExperimentConfig, method_train: LabeledDataset,
              weights: balance.ClassWeights, balancing: str, tuning: str):
    """Fit (and optionally tune) the forest for one (balancing, tuning) block.
    Returns the forest, its hyperparameters and the seconds spent tuning."""
    tune_seconds = 0.0
    if tuning == VANILLA:
        hp = forest.vanilla_hyperparams(method_train.p, n_trees=config.n_trees)
    else:
        cv = forest.CvSpec(folds=config.tune_folds, repeats=config.tune_repeats,
                           objective=config.tune_objective,
                           seed=seed_for(config.master_seed, Cell(balancing, tuning, "-"), "tune"))
        t0 = time.perf_counter()
        hp = forest.tune(method_train, config.grid(method_train.p), cv, weights)
        tune_seconds = time.perf_counter() - t0
    fit_seed = seed_for(config.master_seed, Cell(balancing, tuning, "-"), "fit")
    model = forest.fit_forest(method_train, hp, weights, fit_seed)
    return model, hp, tune_seconds


def generate_for_cell(config: ExperimentConfig, cell: Cell, model, method_train: LabeledDataset,
                      split: SplitResult, fail_rows):
    """Generate and score counterfactuals for the ``fail_rows`` of ``split.test``.

    Requests take their bounds from ``split.train``, the original training
    split, so that distances stay comparable across balancing strategies.
    What does not change from request to request is prepared once here: the
    pool predictions that whatif and nice filter by, and the coded training
    features (`GowerColumns`) that MOC and plausibility measure against. Each
    request's counterfactuals are scored in one batch.
    Returns (quality records, (counterfactual, valid) pairs).
    """
    test, bounds = split.test, split.train.bounds
    mask = np.ones(test.p, dtype=bool)
    pool_scores = None
    if cell.method in (cfgen.WHATIF, cfgen.NICE_SP, cfgen.NICE_PR):
        pool_scores = model.predict_proba_batch(method_train.features)
    columns = GowerColumns.of(method_train.features)
    records = []
    items = []
    for row in fail_rows:
        req = cfgen.CfRequest(x=test.features[row], mutable_mask=mask, bounds=bounds,
                              request_id=int(row))
        if cell.method == cfgen.WHATIF:
            cfs = cfgen.whatif(req, model, method_train, k=config.whatif_k, scores=pool_scores)
        elif cell.method == cfgen.NICE_SP:
            cfs = [cfgen.nice(req, model, method_train, cfgen.SPARSITY, scores=pool_scores)]
        elif cell.method == cfgen.NICE_PR:
            cfs = [cfgen.nice(req, model, method_train, cfgen.PROXIMITY, scores=pool_scores)]
        elif cell.method == cfgen.MOC:
            moc_seed = seed_for(config.master_seed, cell, f"moc:{row}")
            cfs = cfgen.moc(req, model, method_train, config.moc_config(moc_seed), columns)
        else:
            raise ValueError(f"unknown method {cell.method!r}")
        scored = cfeval.score_request(cfs, model, columns, cell)
        records.extend(scored)
        items.extend((cf, record.validity == 1) for cf, record in zip(cfs, scored))
    return records, items


def fail_predicted_rows(model, test: LabeledDataset, cap: int | None) -> list[int]:
    """Test rows the model predicts as failing, in row order, capped for desk scale."""
    scores = model.predict_proba_batch(test.features)
    rows = np.flatnonzero(scores >= FAIL_CUT).tolist()
    return rows if cap is None else rows[:cap]


def block_files(out: Path, balancing: str, tuning: str) -> tuple[Path, Path]:
    """A block's forest dump and its meta: hyperparameters and test metrics."""
    model = out / "models" / f"{balancing}_{tuning}.forest"
    return model, model.with_suffix(".json")


def cell_files(out: Path, cell: Cell) -> tuple[Path, Path, Path]:
    """A cell's quality records, counterfactual values and generation metadata."""
    cells, stem = out / "cells", "_".join(cell)
    return cells / f"{stem}.csv", cells / f"{stem}.cfs.csv", cells / f"{stem}.meta.jsonl"


def _reusable(entry: dict, key: str, files) -> bool:
    """An entry is reused when it is done under ``key`` and its files exist."""
    return entry.get("status") == "done" and entry.get("key") == key \
        and all(p.exists() for p in files)


@dataclass(frozen=True)
class Pipeline:
    """The block and cell steps of one run over one output directory.

    ``manifest`` is the directory's one manifest: the one an earlier
    invocation left in ``out``, else a new one. Each step records and saves
    its own entry, done or failed, and resumes a block or cell from its files
    when its entry is done under the step's reuse key.
    """

    config: ExperimentConfig
    out: Path
    manifest: RunManifest
    split: SplitResult

    @classmethod
    def open(cls, config: ExperimentConfig) -> "Pipeline":
        """Read the manifest of ``config.output_dir`` and make the run's one split."""
        out = Path(config.output_dir)
        manifest_path = out / MANIFEST
        manifest = RunManifest()
        if manifest_path.exists():
            try:
                manifest = RunManifest.load(manifest_path)
            except ValueError:
                logger.warning("ignoring unreadable manifest at %s", manifest_path)
        data = load_data(config)
        split = stratified_split(data, config.test_fraction,
                                 seed_for(config.master_seed, GLOBAL_CELL, "split"))
        return cls(config, out, manifest, split)

    def save_manifest(self) -> None:
        _atomic_write(self.out / MANIFEST, lambda p: _write_json(p, vars(self.manifest)))

    def _record(self, entries: dict, name: str, entry: dict, files) -> dict:
        """Record ``entry`` under ``name`` and save the manifest. A failed
        entry's files are deleted first, so none outlives its done entry."""
        if entry["status"] == "failed":
            for path in files:
                path.unlink(missing_ok=True)
        entries[name] = entry
        self.save_manifest()
        return entry

    def block(self, balancing: str, tuning: str):
        """The block's training set, forest and manifest entry, which holds
        the forest's hyperparameters and test metrics, its ``trees`` and
        ``nodes``, ``tune_fits``, the forests fit while tuning it
        (distinct (mtry, splitrule, n_trees) x folds x repeats, 0 for vanilla),
        and ``tune_seconds``, the seconds inside `forest.tune` (0 for vanilla).

        The forest is loaded when its entry is reusable. Otherwise it is fit
        (and tuned), evaluated and saved with its meta; ``seconds`` cover the
        fit through the meta write. A failure is recorded, also as the failure
        of each configured cell of the block, and re-raised.
        """
        name = f"{balancing}:{tuning}"
        key = self.config.key(Cell(balancing, tuning, "-"))
        files = model_path, meta_path = block_files(self.out, balancing, tuning)
        prev = self.manifest.blocks.get(name, {})
        try:
            method_train, weights = prepare_training(self.config, self.split.train, balancing)
            if _reusable(prev, key, files):
                model = forest.load_model(model_path)
                entry = self._record(self.manifest.blocks, name, {**prev, "resumed": True}, files)
                return method_train, model, entry
            t0 = time.perf_counter()
            model, hp, tune_seconds = fit_block(self.config, method_train, weights,
                                                balancing, tuning)
            metrics = forest.evaluate(model, self.split.test)
            tune_fits = 0 if tuning == VANILLA else \
                len(forest.shared_forests(self.config.grid(method_train.p))) \
                * self.config.tune_folds * self.config.tune_repeats
            meta = {
                "hyperparams": {"mtry": hp.mtry, "splitrule": hp.splitrule,
                                "min_node_size": hp.min_node_size, "n_trees": hp.n_trees},
                "metrics": {"accuracy": metrics.accuracy, "auc": metrics.auc, "f1": metrics.f1},
            }
            _atomic_write(model_path, lambda p: forest.save_model(model, p))
            _atomic_write(meta_path, lambda p: _write_json(p, meta))
        except Exception as exc:
            for method in self.config.methods:
                cell = Cell(balancing, tuning, method)
                self._record(self.manifest.cells, cell.key(),
                             {"status": "failed", "error": f"block failed: {exc}"},
                             cell_files(self.out, cell))
            self._record(self.manifest.blocks, name, {"status": "failed", "error": str(exc)}, files)
            raise
        entry = self._record(self.manifest.blocks, name, {
            "status": "done", "key": key, "seconds": round(time.perf_counter() - t0, 3),
            "trees": model.n_trees, "nodes": int(model.table.feature.size), "tune_fits": tune_fits,
            "tune_seconds": round(tune_seconds, 3), **meta}, files)
        return method_train, model, entry

    def cell(self, cell: Cell, model, method_train: LabeledDataset, fail_rows) -> None:
        """Resume the cell when its entry is reusable. Otherwise generate it
        and write its three ``cells/`` files; ``seconds`` cover exactly that.
        A failure is recorded, not raised."""
        name, key = cell.key(), self.config.key(cell)
        files = cell_file, cfs_file, meta_file = cell_files(self.out, cell)
        prev = self.manifest.cells.get(name, {})
        if _reusable(prev, key, files):
            self._record(self.manifest.cells, name, {**prev, "resumed": True}, files)
            return
        t0 = time.perf_counter()
        try:
            records, items = generate_for_cell(self.config, cell, model, method_train,
                                               self.split, fail_rows)
        except Exception as exc:  # noqa: BLE001 - a failing cell must not kill the run
            logger.exception("cell %s failed", name)
            self._record(self.manifest.cells, name, {"status": "failed", "error": str(exc)},
                         files)
            return
        _atomic_write(cell_file, lambda p: cfeval.write_quality_records(p, records))
        names = self.split.test.feature_names
        # the counterfactual CSV is renamed into place before its metadata stream
        _atomic_write(meta_file, lambda meta_tmp: _atomic_write(
            cfs_file, lambda cfs_tmp: cfgen.write_counterfactuals(cfs_tmp, meta_tmp, names, items)))
        self._record(self.manifest.cells, name, {
            "status": "done", "key": key, "requests": len(fail_rows), "count": len(records),
            "seconds": round(time.perf_counter() - t0, 3)}, files)


def run(config: ExperimentConfig) -> RunManifest:
    """Execute the configured grid; see the module docstring for the contract.

    One failing cell is recorded in the manifest and does not abort the rest;
    a failing block fails each of its cells. Completed blocks and cells
    (manifest entry plus artifact files) are resumed on rerun, also when an
    earlier invocation ran them as ``run --cell`` shards. The run ends with
    `report` over the configured cells; the returned manifest holds every
    entry of the output directory.
    """
    pipe = Pipeline.open(config)
    for balancing in config.balancing:
        for tuning in config.tuning:
            try:
                method_train, model, _ = pipe.block(balancing, tuning)
            except Exception:  # noqa: BLE001 - recorded by the block step; the run goes on
                logger.exception("block %s:%s failed", balancing, tuning)
                continue
            fail_rows = fail_predicted_rows(model, pipe.split.test, config.max_explained_instances)
            for method in config.methods:
                pipe.cell(Cell(balancing, tuning, method), model, method_train, fail_rows)
    report(pipe.out, pipe.manifest, config.cells())
    return pipe.manifest


def report(out, manifest: RunManifest, cells) -> None:
    """Write the four aggregate CSVs of ``cells``, in their order, from the
    files of their done block and cell entries in ``out``. A done entry whose
    file is missing raises `FileNotFoundError`, which names the file."""
    out = Path(out)
    performance = [["balancing", "tuning", "accuracy", "auc", "f1"]]
    for balancing, tuning in dict.fromkeys((c.balancing, c.tuning) for c in cells):
        if manifest.blocks.get(f"{balancing}:{tuning}", {}).get("status") == "done":
            metrics = json.loads(block_files(out, balancing, tuning)[1].read_text())["metrics"]
            performance.append([balancing, tuning,
                                *(repr(metrics[m]) for m in ("accuracy", "auc", "f1"))])
    records = {cell: cfeval.read_quality_records(cell_files(out, cell)[0])
               for cell in cells if manifest.cells.get(cell.key(), {}).get("status") == "done"}
    # methods x tuning rows and balancing columns, each in the order of cells
    balancings, tunings, methods = (list(dict.fromkeys(c[i] for c in cells)) for i in range(3))
    sizes = {cell: len(cell_records) for cell, cell_records in records.items()}
    counts = [["method", "tuning", *balancings]] + [
        [m, t, *(sizes.get(Cell(b, t, m), "") for b in balancings)]
        for m in methods for t in tunings]
    all_records = [r for cell_records in records.values() for r in cell_records]
    summaries = cfeval.aggregate(all_records) if all_records else []
    _atomic_write(out / "performance.csv", lambda p: _write_csv(p, performance))
    _atomic_write(out / "counts.csv", lambda p: _write_csv(p, counts))
    _atomic_write(out / "quality_records.csv",
                  lambda p: cfeval.write_quality_records(p, all_records))
    _atomic_write(out / "cell_summaries.csv",
                  lambda p: cfeval.write_cell_summaries(p, summaries))


def _atomic_write(path: Path, writer) -> None:
    """Write ``path`` through ``writer(tmp)`` on a sibling ``.<pid>.tmp`` file,
    then rename it into place, so that no reader ever sees a partial artifact.
    The name is unique per process; a writer that raises leaves the old file
    and no temporary file behind."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        writer(tmp)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_json(path, payload) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True))


def _write_csv(path, rows) -> None:
    with Path(path).open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)
