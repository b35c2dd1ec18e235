import csv
import json
import logging
import os
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cfbench import cfgen
from cfbench.bench import (
    _atomic_write,
    BALANCING_ALL,
    TUNING_ALL,
    ExperimentConfig,
    Pipeline,
    RunManifest,
    fail_predicted_rows,
    fit_block,
    generate_for_cell,
    parse_config,
    prepare_training,
    run,
    seed_for,
)
from cfbench.cfeval import Cell, QualityRecord
from cfbench.cfgen import METHODS
from cfbench.cli import main
from cfbench.distance import RangeTable, gower, gower_many
from cfbench.forest import RandomForestModel, load_model

from synth import make_week_frame


@pytest.fixture(scope="module")
def frame_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("frames") / "frame.csv"
    make_week_frame(n=70, seed=5).save_csv(path)
    return path


def tiny_config(frame_csv, out, **overrides):
    base = dict(
        frame_csv=frame_csv,
        output_dir=out,
        balancing=("original",),
        tuning=("vanilla",),
        methods=("whatif",),
        max_explained_instances=3,
        n_trees=5,
        tune_folds=2,
        tune_repeats=1,
        tune_mtry=(2,),
        tune_splitrule=("gini",),
        tune_min_node_size=(1,),
        whatif_k=3,
        moc_population=10,
        moc_generations=5,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestSeedFor:
    def test_repeatable(self):
        cell = Cell("original", "vanilla", "moc")
        assert seed_for(7, cell, "fit") == seed_for(7, cell, "fit")

    def test_distinct_across_full_grid(self):
        seeds = set()
        for b in BALANCING_ALL:
            for t in TUNING_ALL:
                for m in METHODS:
                    for stage in ("fit", "balance", "generate"):
                        seeds.add(seed_for(1, Cell(b, t, m), stage))
        assert len(seeds) == len(BALANCING_ALL) * len(TUNING_ALL) * len(METHODS) * 3

    def test_stage_changes_seed(self):
        cell = Cell("smote", "tuned", "nice_sp")
        assert seed_for(1, cell, "fit") != seed_for(1, cell, "tune")

    def test_master_seed_changes_seed(self):
        cell = Cell("smote", "tuned", "nice_sp")
        assert seed_for(1, cell, "fit") != seed_for(2, cell, "fit")


class TestConfig:
    def test_requires_exactly_one_source(self, frame_csv):
        with pytest.raises(ValueError, match="exactly one"):
            ExperimentConfig()
        with pytest.raises(ValueError, match="exactly one"):
            ExperimentConfig(oulad_dir=Path("x"), frame_csv=frame_csv)

    def test_rejects_unknown_values(self, frame_csv):
        with pytest.raises(ValueError, match="balancing"):
            ExperimentConfig(frame_csv=frame_csv, balancing=("bootstrap",))
        with pytest.raises(ValueError, match="methods"):
            ExperimentConfig(frame_csv=frame_csv, methods=("dice",))

    def test_full_scale_upgrades(self, frame_csv):
        full = tiny_config(frame_csv, Path("out")).full_scale()
        assert full.n_trees == 500
        assert full.tune_folds == 10 and full.tune_repeats == 3
        assert full.max_explained_instances is None

    def test_hash_stable_and_sensitive(self, frame_csv):
        """A block's key covers only the settings its forest depends on; a
        cell's key also covers the generation settings."""
        a = tiny_config(frame_csv, Path("out"))
        block, cell = Cell("original", "tuned", "-"), Cell("original", "tuned", "moc")
        assert a.key(block) == tiny_config(frame_csv, Path("out")).key(block)
        assert len({a.key(block), a.key(cell), a.key(Cell("smote", "tuned", "-"))}) == 3
        # where outputs go, which cells one invocation runs and how a cell
        # generates change no forest
        for change in (dict(output_dir=Path("out").absolute()),
                       dict(balancing=("smote", "original")), dict(tuning=("tuned",)),
                       dict(methods=("moc", "nice_pr")), dict(max_explained_instances=4),
                       dict(whatif_k=4), dict(moc_population=12), dict(moc_generations=6),
                       dict(moc_crossover_rate=0.5), dict(moc_mutation_rate=0.5)):
            assert replace(a, **change).key(block) == a.key(block), change
        for change in (dict(master_seed=99), dict(n_trees=6), dict(smote_k=4),
                       dict(tune_folds=3), dict(frame_csv=Path("other.csv"))):
            assert replace(a, **change).key(block) != a.key(block), change
            assert replace(a, **change).key(cell) != a.key(cell), change
        for change in (dict(max_explained_instances=4), dict(moc_generations=6)):
            assert replace(a, **change).key(cell) != a.key(cell), change
        assert replace(a, output_dir=Path("out").absolute()).key(cell) == a.key(cell)

    def test_reuse_keys_are_pinned(self):
        """The hashed text of every setting and the grower version are fixed,
        so output directories of the same grower resume without refitting."""
        config = ExperimentConfig(frame_csv=Path("frame.csv"))
        assert config.key(Cell("original", "vanilla", "-")) == "685b67a4e8986cfe"
        assert config.key(Cell("original", "vanilla", "moc")) == "4031bb32540a4608"
        assert config.full_scale().key(Cell("smote", "tuned", "-")) == "ca4ec3eef8c70411"


class TestParseConfig:
    def write(self, tmp_path, text):
        path = tmp_path / "run.cfg"
        path.write_text(text)
        return path

    def test_round_trip(self, tmp_path):
        path = self.write(tmp_path, """
[data]
frame_csv = frame.csv

[run]
master_seed = 11
output_dir = results
balancing = original,smote
tuning = vanilla
methods = whatif,moc
max_explained_instances = unlimited

[moc]
population = 20
generations = 10
""")
        cfg = parse_config(path)
        assert cfg.frame_csv == Path("frame.csv")
        assert cfg.master_seed == 11
        assert cfg.balancing == ("original", "smote")
        assert cfg.max_explained_instances is None
        assert cfg.moc_population == 20

    def test_unknown_key_fails_fast(self, tmp_path):
        path = self.write(tmp_path, "[data]\nframe_csv = f.csv\n\n[run]\nmaster_sed = 1\n")
        with pytest.raises(ValueError, match="unknown key 'master_sed'"):
            parse_config(path)

    def test_unknown_section_fails_fast(self, tmp_path):
        path = self.write(tmp_path, "[data]\nframe_csv = f.csv\n\n[extras]\nx = 1\n")
        with pytest.raises(ValueError, match=r"unknown section \[extras\]"):
            parse_config(path)

    def test_bad_value_reports_location(self, tmp_path):
        path = self.write(tmp_path, "[data]\nframe_csv = f.csv\n\n[forest]\nn_trees = many\n")
        with pytest.raises(ValueError, match=r"\[forest\] n_trees"):
            parse_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            parse_config(tmp_path / "none.cfg")

    @pytest.mark.parametrize("section, setting", [
        ("moc", "population = 3"), ("moc", "mutation_rate = 1.5"), ("moc", "crossover_rate = 0"),
        ("tune", "folds = 1"), ("tune", "splitrule = foo"), ("tune", "mtry = 0"),
        ("tune", "mtry ="), ("tune", "min_node_size = 0")])
    def test_invalid_setting_fails_at_parse_time(self, tmp_path, section, setting):
        """Each MOC, cross-validation and forest rule is checked when the file
        is read, before any forest is fit, and the error names the file."""
        path = self.write(tmp_path, f"[data]\nframe_csv = f.csv\n\n[{section}]\n{setting}\n")
        with pytest.raises(ValueError) as exc:
            parse_config(path)
        assert str(exc.value).startswith(f"{path}: ")


class TestRun:
    def test_minimal_grid(self, frame_csv, tmp_path):
        out = tmp_path / "out"
        manifest = run(tiny_config(frame_csv, out))
        assert manifest.completed_cells() == 1
        assert (out / "performance.csv").exists()
        assert (out / "counts.csv").exists()
        assert (out / "quality_records.csv").exists()
        assert (out / "cell_summaries.csv").exists()
        assert (out / "manifest.json").exists()
        perf = (out / "performance.csv").read_text().splitlines()
        assert perf[0] == "balancing,tuning,accuracy,auc,f1"
        assert perf[1].startswith("original,vanilla,")

    def test_full_grid_shape(self, frame_csv, tmp_path):
        out = tmp_path / "out"
        config = tiny_config(
            frame_csv, out,
            balancing=("original", "undersampling", "cost_sensitive"),
            tuning=("vanilla", "tuned"),
            methods=("whatif", "nice_sp"),
            max_explained_instances=2,
        )
        manifest = run(config)
        assert len(manifest.cells) == 3 * 2 * 2
        assert manifest.completed_cells() == 12
        counts = (out / "counts.csv").read_text().splitlines()
        assert counts[0] == "method,tuning,original,undersampling,cost_sensitive"
        assert len(counts) == 1 + 2 * 2
        perf = (out / "performance.csv").read_text().splitlines()
        assert len(perf) == 1 + 3 * 2

    def test_deterministic_outputs(self, frame_csv, tmp_path):
        files = ["performance.csv", "counts.csv", "quality_records.csv", "cell_summaries.csv"]
        config_a = tiny_config(frame_csv, tmp_path / "a", methods=("whatif", "moc", "nice_pr"))
        config_b = replace(config_a, output_dir=tmp_path / "b")
        run(config_a)
        run(config_b)
        for name in files:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name

    def test_resume_skips_completed_cells(self, frame_csv, tmp_path):
        out = tmp_path / "out"
        config = tiny_config(frame_csv, out, methods=("whatif", "nice_sp"))
        run(config)
        cell_file = out / "cells" / "original_vanilla_whatif.csv"
        original_bytes = cell_file.read_bytes()
        cell_file.unlink()
        manifest = run(config)
        # the deleted cell was recomputed, the untouched one was resumed
        assert cell_file.read_bytes() == original_bytes
        assert manifest.cells["original:vanilla:whatif"].get("resumed") is None
        assert manifest.cells["original:vanilla:nice_sp"].get("resumed") is True
        assert manifest.blocks["original:vanilla"].get("resumed") is True

    def test_failing_cell_does_not_abort_others(self, tmp_path):
        # minority too small for smote's k: that block fails, original completes
        path = tmp_path / "small.csv"
        make_week_frame(n=40, seed=9, fail_frac=0.12).save_csv(path)
        out = tmp_path / "out"
        config = tiny_config(path, out, balancing=("smote", "original"), smote_k=5)
        manifest = run(config)
        assert manifest.blocks["smote:vanilla"]["status"] == "failed"
        assert manifest.cells["smote:vanilla:whatif"]["status"] == "failed"
        assert "SMOTE" in manifest.cells["smote:vanilla:whatif"]["error"]
        assert manifest.cells["original:vanilla:whatif"]["status"] == "done"
        # counts.csv leaves the failed cell blank
        count = manifest.cells["original:vanilla:whatif"]["count"]
        assert (out / "counts.csv").read_text().splitlines()[1] == f"whatif,vanilla,,{count}"

    def test_counts_csv_matches_records(self, frame_csv, tmp_path):
        out = tmp_path / "out"
        run(tiny_config(frame_csv, out, balancing=("original", "undersampling"),
                        methods=("moc", "nice_sp")))
        records = (out / "quality_records.csv").read_text().splitlines()[1:]
        per_cell = Counter(tuple(line.split(",")[:3]) for line in records)
        header, *rows = [line.split(",") for line in (out / "counts.csv").read_text().splitlines()]
        counts = {(b, tuning, method): int(v)
                  for method, tuning, *values in rows for b, v in zip(header[2:], values)}
        assert len(counts) == 4 and sum(counts.values()) == len(records) > 0
        assert counts == {cell: per_cell.get(cell, 0) for cell in counts}

    def test_moc_and_validity_on_small_grid(self, frame_csv, tmp_path):
        out = tmp_path / "out"
        config = tiny_config(frame_csv, out, methods=("moc", "nice_sp"),
                             moc_population=20, moc_generations=10)
        run(config)
        records = (out / "quality_records.csv").read_text().splitlines()[1:]
        assert records
        for line in records:
            parts = line.split(",")
            assert parts[4] == "1"  # validity column

    def test_manifest_round_trip(self, frame_csv, tmp_path):
        out = tmp_path / "out"
        config = tiny_config(frame_csv, out)
        returned = run(config)
        manifest = RunManifest.load(out / "manifest.json")
        assert manifest == returned
        assert manifest.blocks["original:vanilla"]["key"] == config.key(
            Cell("original", "vanilla", "-"))
        assert manifest.cells["original:vanilla:whatif"]["key"] == config.key(
            Cell("original", "vanilla", "whatif"))
        # the manifest names no location, so it holds for any spelling of out
        assert str(tmp_path) not in (out / "manifest.json").read_text()

    @pytest.mark.parametrize("text", ["{not json", "[]", '{"blocks": []}',
                                      '{"cells": {"original:vanilla:whatif": "done"}}'])
    def test_unreadable_manifest_is_replaced(self, frame_csv, tmp_path, caplog, text):
        out = tmp_path / "out"
        out.mkdir()
        (out / "manifest.json").write_text(text)
        with caplog.at_level(logging.WARNING, logger="cfbench.bench"):
            manifest = run(tiny_config(frame_csv, out))
        assert "ignoring unreadable manifest" in caplog.text
        assert manifest.completed_cells() == 1
        assert RunManifest.load(out / "manifest.json") == manifest

    def test_block_entries_count_trees_nodes_and_tune_fits(self, frame_csv, tmp_path):
        out = tmp_path / "out"
        config = tiny_config(frame_csv, out, tuning=("vanilla", "tuned"), tune_folds=3,
                             tune_mtry=(2, 6), tune_min_node_size=(1, 5))
        blocks = run(config).blocks
        # the two min_node_sizes of an (mtry, splitrule) share one forest per fold
        for tuning, fits in (("vanilla", 0), ("tuned", 2 * len(config.tune_splitrule) * 3)):
            entry = blocks[f"original:{tuning}"]
            model = load_model(out / "models" / f"original_{tuning}.forest")
            assert entry["trees"] == model.n_trees == 5
            assert entry["nodes"] == model.table.feature.size
            assert entry["tune_fits"] == fits
            # tuning is part of the block's seconds
            assert (entry["tune_seconds"] == 0.0) == (tuning == "vanilla")
            assert 0.0 <= entry["tune_seconds"] <= entry["seconds"]
        resumed = run(config).blocks
        for name, entry in blocks.items():
            assert resumed[name] == {**entry, "resumed": True}

    def test_failed_rerun_leaves_no_stale_summaries(self, tmp_path):
        """A rerun whose every cell fails rewrites the summaries header-only,
        matching its empty records; report then summarizes every done cell of
        the directory, here the first run's."""
        path = tmp_path / "small.csv"
        make_week_frame(n=40, seed=9, fail_frac=0.12).save_csv(path)
        out = tmp_path / "out"
        run(tiny_config(path, out, balancing=("original",), smote_k=5))
        summaries = out / "cell_summaries.csv"
        assert len(summaries.read_text().splitlines()) > 1
        manifest = run(tiny_config(path, out, balancing=("smote",), smote_k=5))
        assert manifest.cells["smote:vanilla:whatif"]["status"] == "failed"
        assert len((out / "quality_records.csv").read_text().splitlines()) == 1
        assert summaries.read_text().splitlines() == [
            "balancing,tuning,method,metric,median,q1,q3,count"]
        assert main(["report", "--out", str(out)]) == 0
        assert len(summaries.read_text().splitlines()) == 1 + 5  # original:vanilla:whatif

    def test_failed_rerun_deletes_the_failed_entries_files(self, tmp_path):
        """A block that fails on a rerun takes its model and cell files with
        it, so no file on disk outlives its done entry."""
        path = tmp_path / "small.csv"
        make_week_frame(n=40, seed=9, fail_frac=0.12).save_csv(path)
        out = tmp_path / "out"
        config = tiny_config(path, out, balancing=("smote",), smote_k=2)
        assert run(config).completed_cells() == 1
        assert len(list(out.rglob("smote_*"))) == 2 + 3
        manifest = run(replace(config, smote_k=5))
        assert manifest.blocks["smote:vanilla"]["status"] == "failed"
        assert manifest.cells["smote:vanilla:whatif"]["status"] == "failed"
        assert list(out.rglob("smote_*")) == []

    def test_corrupt_forest_of_a_done_block_is_refit(self, frame_csv, tmp_path):
        """A done block whose forest file no longer loads fails with the
        loader's message, which names the file, and loses its files; the
        next run refits it."""
        out = tmp_path / "out"
        config = tiny_config(frame_csv, out)
        run(config)
        model_file = out / "models" / "original_vanilla.forest"
        saved = model_file.read_bytes()
        model_file.write_bytes(saved[:len(saved) // 2])
        manifest = run(config)
        assert manifest.blocks["original:vanilla"]["status"] == "failed"
        assert manifest.blocks["original:vanilla"]["error"].startswith(f"{model_file}: ")
        assert manifest.cells["original:vanilla:whatif"]["status"] == "failed"
        assert list(out.rglob("original_vanilla*")) == []
        manifest = run(config)
        assert manifest.blocks["original:vanilla"]["status"] == "done"
        assert model_file.read_bytes() == saved

    def test_cell_files_keep_each_methods_promises(self, frame_csv, tmp_path):
        """Read back from ``cells/``: whatif returns its pool rows, NICE changes
        only the features it copied, every counterfactual lies inside the
        training bounds widened to x, and each MOC front is non-dominated."""
        balancings = ("original", "undersampling", "smote", "cost_sensitive")
        config = tiny_config(frame_csv, tmp_path / "out", balancing=balancings,
                             methods=METHODS, max_explained_instances=4)
        manifest = run(config)
        assert manifest.completed_cells() == len(balancings) * len(METHODS)
        split = Pipeline.open(config).split
        lo, hi = split.train.bounds.T
        for balancing in balancings:
            method_train, _ = prepare_training(config, split.train, balancing)
            for method in METHODS:
                stem = tmp_path / "out" / "cells" / f"{balancing}_vanilla_{method}"
                with open(f"{stem}.cfs.csv", newline="") as fh:
                    rows = list(csv.reader(fh))[1:]
                metas = [json.loads(line)
                         for line in Path(f"{stem}.meta.jsonl").read_text().splitlines()]
                assert len(rows) == len(metas) > 0
                fronts = {}
                for row, meta in zip(rows, metas):
                    assert int(row[0]) == meta["request_id"] and row[1] == meta["method"]
                    x = split.test.features[meta["request_id"]]
                    values = np.array(row[2:-1], dtype=float)
                    info = meta["meta"]
                    assert (np.minimum(lo, x) <= values).all()
                    assert (values <= np.maximum(hi, x)).all()
                    if method == "whatif":
                        assert np.array_equal(values, method_train.features[info["pool_index"]])
                    elif method in ("nice_sp", "nice_pr"):
                        assert set(np.flatnonzero(values != x)) <= set(info["copied_features"])
                    else:
                        fronts.setdefault(meta["request_id"], []).append(info["objectives"])
                for objs in fronts.values():
                    objs = np.array(objs)
                    dominated = [(objs <= o).all(axis=1) & (objs < o).any(axis=1) for o in objs]
                    assert not np.any(dominated)

    def test_master_seed_changes_results(self, frame_csv, tmp_path):
        config_a = tiny_config(frame_csv, tmp_path / "a", methods=("moc",))
        config_b = replace(config_a, output_dir=tmp_path / "b", master_seed=123)
        run(config_a)
        run(config_b)
        a = (tmp_path / "a" / "quality_records.csv").read_bytes()
        b = (tmp_path / "b" / "quality_records.csv").read_bytes()
        assert a != b


def test_atomic_write_failure_keeps_old_file(tmp_path):
    """A writer that raises leaves the old bytes and no temporary file; the
    temporary name carries the process id, so two processes never share it."""
    path = tmp_path / "x.csv"
    path.write_text("old")
    names = []

    def broken(tmp):
        names.append(tmp.name)
        tmp.write_text("partial")
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        _atomic_write(path, broken)
    assert names == [f"x.csv.{os.getpid()}.tmp"]
    assert path.read_text() == "old"
    assert list(tmp_path.iterdir()) == [path]


def count_predict_calls(monkeypatch) -> list[int]:
    """Patch the forest's batch predict to record the row count of each call."""
    rows = []
    original = RandomForestModel.predict_proba_batch

    def counting(model, X):
        rows.append(np.atleast_2d(X).shape[0])
        return original(model, X)

    monkeypatch.setattr(RandomForestModel, "predict_proba_batch", counting)
    return rows


def one_at_a_time(config, cell, model, train, test, bounds, fail_rows):
    """Reference cell: every request predicts the pool itself, and scoring
    predicts the counterfactual and each reverted change by a single-row call."""
    ranges = RangeTable.from_bounds(bounds)
    records, values = [], []
    for row in fail_rows:
        x = test.features[row]
        req = cfgen.CfRequest(x=x, mutable_mask=np.ones(test.p, dtype=bool), bounds=bounds)
        if cell.method == cfgen.WHATIF:
            cfs = cfgen.whatif(req, model, train, k=config.whatif_k)
        else:
            reward = cfgen.SPARSITY if cell.method == cfgen.NICE_SP else cfgen.PROXIMITY
            cfs = [cfgen.nice(req, model, train, reward)]
        for cf in cfs:
            values.append(cf.values.tolist())
            changed = np.flatnonzero(cf.values != x)
            minimality = 0
            for j in changed:
                probe = cf.values.copy()
                probe[j] = x[j]
                minimality += int(model.predict_proba(probe) < 0.5)
            records.append(QualityRecord(
                request_id=int(row), cell=cell,
                validity=int(model.predict_proba(cf.values) < 0.5),
                proximity=gower(x, cf.values, ranges), sparsity=int(changed.size),
                minimality=minimality,
                plausibility=float(gower_many(train.features, cf.values, ranges).min()),
            ))
    return records, values


class TestHoisting:
    """A whatif or nice cell predicts its pool once, scoring makes one model
    call per request, and the records equal the one-at-a-time reference."""

    @pytest.mark.parametrize("method", ["whatif", "nice_sp", "nice_pr"])
    def test_one_pool_call_per_cell(self, frame_csv, tmp_path, monkeypatch, method):
        config = tiny_config(frame_csv, tmp_path / "out", n_trees=8, max_explained_instances=4)
        pipe = Pipeline.open(config)
        cell = Cell("oversampling", "vanilla", method)
        train, weights = prepare_training(config, pipe.split.train, cell.balancing)
        model, _, _ = fit_block(config, train, weights, cell.balancing, cell.tuning)
        fail_rows = fail_predicted_rows(model, pipe.split.test, 4)
        assert len(fail_rows) > 1 and train.n > 1 + train.p  # a nice call is never pool-sized
        expected, values = one_at_a_time(config, cell, model, train, pipe.split.test,
                                         pipe.split.train.bounds, fail_rows)

        calls = count_predict_calls(monkeypatch)
        records, items = generate_for_cell(config, cell, model, train, pipe.split, fail_rows)
        assert records == expected
        assert [cf.values.tolist() for cf, _ in items] == values
        if method == "whatif":  # the pool call, then one call per request
            per_request = {row: 0 for row in fail_rows}
            for r in records:
                per_request[r.request_id] += 1 + r.sparsity
            assert calls == [train.n] + list(per_request.values())
        else:  # a request's greedy steps and its scoring batch are all smaller
            assert calls[0] == train.n and train.n not in calls[1:]
