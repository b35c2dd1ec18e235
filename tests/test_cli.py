import json

import pytest

from cfbench import bench, cfeval, forest
from cfbench.cli import main
from cfbench.dataset import FRAME_COLUMNS, load_csv

from synth import make_week_frame, write_oulad_raw


@pytest.fixture(scope="module")
def frame_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli_frames") / "frame.csv"
    make_week_frame(n=70, seed=5).save_csv(path)
    return path


@pytest.fixture()
def config_file(tmp_path, frame_csv):
    path = tmp_path / "run.cfg"
    path.write_text(f"""
[data]
frame_csv = {frame_csv}

[run]
master_seed = 5
output_dir = {tmp_path / "out"}
balancing = original,undersampling
tuning = vanilla
methods = whatif,nice_sp
max_explained_instances = 3

[forest]
n_trees = 5

[whatif]
k = 3

[moc]
population = 10
generations = 5
""")
    return path


def test_ingest(tmp_path, capsys):
    raw = write_oulad_raw(tmp_path / "raw", n_students=30, seed=2)
    out = tmp_path / "frame.csv"
    assert main(["ingest", "--raw-dir", str(raw), "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert "students" in captured.out
    assert "imbalance ratio" in captured.out
    ds = load_csv(out, FRAME_COLUMNS)
    assert ds.p == 42
    assert ds.ids is not None


def test_ingest_data_errors_exit_with_a_message(tmp_path):
    """A missing raw directory and a malformed log row end ``ingest`` with a
    message, not a traceback."""
    out = tmp_path / "frame.csv"
    with pytest.raises(SystemExit) as exc:
        main(["ingest", "--raw-dir", str(tmp_path / "nope"), "--out", str(out)])
    assert str(exc.value.code).startswith("ingest: ")
    assert "missing raw file(s): studentInfo.csv" in str(exc.value.code)

    raw = write_oulad_raw(tmp_path / "raw", n_students=30, seed=2)
    log = raw / "studentVle.csv"
    log.write_text(log.read_text() + "AAA,2013B,1\n")
    n_lines = len(log.read_text().splitlines())
    with pytest.raises(SystemExit) as exc:
        main(["ingest", "--raw-dir", str(raw), "--out", str(out)])
    assert str(exc.value.code) == f"ingest: {log}: line {n_lines}: expected 6 cells, got 3"
    assert not out.exists()


@pytest.mark.parametrize("argv", [["run"], ["train", "--cell", "original:vanilla"],
                                  ["explain", "--cell", "original:vanilla:whatif"]],
                         ids=["run", "train", "explain"])
@pytest.mark.parametrize("frame, message", [
    (None, "no such file: "),
    ("student_id,week_minus4\ns1,3\n", "missing column(s): week_minus3"),
], ids=["missing-frame", "malformed-frame"])
def test_data_errors_exit_with_a_message(tmp_path, config_file, argv, frame, message):
    """A frame that cannot be loaded ends each grid command with a message."""
    path = tmp_path / "bad_frame.csv"
    if frame is not None:
        path.write_text(frame)
    text = config_file.read_text()
    config_file.write_text(text.replace(text.split("frame_csv = ")[1].split("\n")[0], str(path)))
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--config", str(config_file), *argv[1:]])
    assert str(exc.value.code).startswith(f"{argv[0]}: ")
    assert message in str(exc.value.code) and str(path) in str(exc.value.code)


@pytest.mark.parametrize("argv", [["train", "--cell", "original:tuned"],
                                  ["explain", "--cell", "original:tuned:whatif"]],
                         ids=["train", "explain"])
def test_block_failure_exits_with_a_message(tmp_path, config_file, argv):
    """A block that fails on its data (6 fail rows cannot fill 5 tuning folds
    of the training split) ends ``train`` and ``explain`` with its error as the
    message, and the manifest records the block as failed."""
    path = tmp_path / "few_fails.csv"
    make_week_frame(n=40, seed=5, fail_frac=0.15).save_csv(path)
    text = config_file.read_text()
    config_file.write_text(text.replace(text.split("frame_csv = ")[1].split("\n")[0], str(path)))
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--config", str(config_file), *argv[1:]])
    assert str(exc.value.code).startswith(f"{argv[0]}: fold infeasibility: ")
    manifest = bench.RunManifest.load(tmp_path / "out" / bench.MANIFEST)
    assert manifest.blocks["original:tuned"]["status"] == "failed"
    assert "fold infeasibility" in manifest.blocks["original:tuned"]["error"]


def test_run_and_report(tmp_path, config_file, capsys):
    assert main(["run", "--config", str(config_file)]) == 0
    captured = capsys.readouterr()
    assert "4/4 cells done" in captured.out
    out_dir = tmp_path / "out"
    summaries_before = (out_dir / "cell_summaries.csv").read_bytes()
    assert main(["report", "--out", str(out_dir)]) == 0
    assert (out_dir / "cell_summaries.csv").read_bytes() == summaries_before


def test_run_keeps_config_order_and_report_writes_grid_order(tmp_path, config_file):
    config = tmp_path / "reversed.cfg"
    config.write_text(config_file.read_text().replace("balancing = original,undersampling",
                                                      "balancing = undersampling,original"))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config)]) == 0
    counts = (out / "counts.csv").read_text().splitlines()
    assert counts[0] == "method,tuning,undersampling,original"
    records = (out / "quality_records.csv").read_text().splitlines()
    assert records[1].startswith("undersampling,")
    assert main(["report", "--out", str(out)]) == 0
    reported = (out / "counts.csv").read_text().splitlines()
    assert reported[0] == "method,tuning,original,undersampling"
    assert [row.split(",")[2:] for row in reported[1:]] == [
        row.split(",")[:1:-1] for row in counts[1:]]
    assert (out / "quality_records.csv").read_text().splitlines()[1].startswith("original,")


def test_report_needs_a_manifest(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(SystemExit) as exc:
        main(["report", "--out", str(empty)])
    assert str(empty / "manifest.json") in str(exc.value.code)


@pytest.mark.parametrize("text", ["{not json", "[]", '{"blocks": []}',
                                  '{"cells": {"original:vanilla:whatif": "done"}}'])
def test_report_names_a_corrupt_manifest(tmp_path, text):
    out = tmp_path / "out"
    out.mkdir()
    (out / "manifest.json").write_text(text)
    with pytest.raises(SystemExit) as exc:
        main(["report", "--out", str(out)])
    assert str(out / "manifest.json") in str(exc.value.code)


@pytest.mark.parametrize("edit, extra, message", [
    (("population = 10", "population = 3x"), [], "[moc] population: cannot parse '3x'"),
    (("population = 10", "population = 3"), [], "population must be an even integer"),
    (("population = 10", "population = 10\npopulation = 12"), [], "already exists"),
    (None, ["--max-instances", "0"], "max_explained_instances must be positive"),
], ids=["parse-error", "invalid-value", "ini-syntax-error", "bad-override"])
def test_config_errors_exit_with_a_message(config_file, edit, extra, message):
    """A parse error, an invalid value, an INI syntax error and a bad override
    each end the command with a message, not a traceback."""
    if edit is not None:
        config_file.write_text(config_file.read_text().replace(*edit))
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", str(config_file), *extra])
    assert str(exc.value.code).startswith("run: ")
    assert message in str(exc.value.code)
    if edit is not None:
        assert str(config_file) in str(exc.value.code)


def test_report_names_a_missing_cell_file(tmp_path, config_file):
    """A cell the manifest marks done must have its records; a missing file
    is an error, never a blank count."""
    assert main(["run", "--config", str(config_file)]) == 0
    missing = tmp_path / "out" / "cells" / "undersampling_vanilla_nice_sp.csv"
    missing.unlink()
    with pytest.raises(SystemExit) as exc:
        main(["report", "--out", str(tmp_path / "out")])
    assert str(missing) in str(exc.value.code)


def test_report_replaces_cell_summaries_atomically(tmp_path, config_file, monkeypatch):
    assert main(["run", "--config", str(config_file)]) == 0
    path = tmp_path / "out" / "cell_summaries.csv"
    before = path.read_bytes()

    def broken(target, summaries):
        target.write_text("balancing,tun")
        raise OSError("disk full")

    monkeypatch.setattr(cfeval, "write_cell_summaries", broken)
    with pytest.raises(OSError, match="disk full"):
        main(["report", "--out", str(tmp_path / "out")])
    assert path.read_bytes() == before


def test_run_restricted_to_one_cell(tmp_path, config_file, capsys):
    assert main(["run", "--config", str(config_file), "--cell",
                 "original:vanilla:whatif", "--out", str(tmp_path / "cell_out")]) == 0
    captured = capsys.readouterr()
    assert "1/1 cells done" in captured.out


def test_train(config_file, capsys):
    assert main(["train", "--config", str(config_file), "--cell", "original:vanilla"]) == 0
    captured = capsys.readouterr()
    assert "accuracy" in captured.out
    assert "model saved" in captured.out


def test_explain(config_file, capsys):
    assert main(["explain", "--config", str(config_file), "--cell",
                 "original:vanilla:nice_sp"]) == 0
    captured = capsys.readouterr()
    assert "p(fail):" in captured.out
    assert "->" in captured.out


def test_explain_any_fail_predicted_row_past_the_instance_cap(tmp_path, config_file, capsys):
    """The instance cap bounds a grid's cells, not the rows ``explain`` takes."""
    config_file.write_text(config_file.read_text().replace("max_explained_instances = 3",
                                                           "max_explained_instances = 1"))
    pipe = bench.Pipeline.open(bench.parse_config(config_file))
    _, model, _ = pipe.block("original", "vanilla")
    second = bench.fail_predicted_rows(model, pipe.split.test, None)[1]
    capsys.readouterr()
    assert main(["explain", "--config", str(config_file), "--cell", "original:vanilla:whatif",
                 "--index", str(second)]) == 0
    assert f"test row {second}" in capsys.readouterr().out


TUNE = """
[tune]
folds = 2
mtry = 2,6
splitrule = gini
min_node_size = 1
"""


def count_calls(monkeypatch, module, name) -> list[int]:
    """Patch ``module.name`` to record one entry per call."""
    calls = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


AGGREGATES = ("performance.csv", "counts.csv", "quality_records.csv", "cell_summaries.csv")


def output_files(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file() and p.name != "manifest.json"}


def test_shards_into_one_directory_fit_each_block_once(tmp_path, config_file, capsys,
                                                        monkeypatch):
    """Sequential run --cell shards share the output directory's manifest: they
    fit each block once, report then writes the aggregates of one run, and a
    final run resumes every block and cell and writes the same files as one
    run into a fresh directory."""
    config = tmp_path / "grid.cfg"
    config.write_text(config_file.read_text().replace("tuning = vanilla",
                                                      "tuning = vanilla,tuned") + TUNE)
    fits = count_calls(monkeypatch, forest, "fit_forest")
    generated = count_calls(monkeypatch, bench, "generate_for_cell")
    single, shards = tmp_path / "single", tmp_path / "shards"
    assert main(["run", "--config", str(config), "--out", str(single)]) == 0
    single_fits = len(fits)
    assert single_fits == 2 + 2 * (2 * 2 + 1)  # vanilla: 1 fit; tuned: 2 folds x 2 points + 1
    fits.clear()
    for cell in [f"{b}:{t}:{m}" for b in ("original", "undersampling")
                 for t in ("vanilla", "tuned") for m in ("whatif", "nice_sp")]:
        assert main(["run", "--config", str(config), "--out", str(shards), "--cell", cell]) == 0
        assert "1/1 cells done" in capsys.readouterr().out
    assert len(fits) == single_fits
    assert main(["report", "--out", str(shards)]) == 0
    assert {name: (shards / name).read_bytes() for name in AGGREGATES} == {
        name: (single / name).read_bytes() for name in AGGREGATES}
    fits.clear()
    generated.clear()
    assert main(["run", "--config", str(config), "--out", str(shards)]) == 0
    assert "8/8 cells done" in capsys.readouterr().out
    assert fits == [] and generated == []
    assert len(output_files(single)) == 4 + 4 * 2 + 8 * 3
    assert output_files(shards) == output_files(single)


def test_explain_reuses_a_run_under_another_spelling_of_out(tmp_path, config_file,
                                                            monkeypatch):
    """Reuse keys ignore the output path, so a relative and an absolute
    spelling of one directory resume the same blocks."""
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--config", str(config_file), "--out", "out"]) == 0
    fits = count_calls(monkeypatch, forest, "fit_forest")
    # the config file names the output directory by its absolute path
    assert main(["explain", "--config", str(config_file), "--cell",
                 "undersampling:vanilla:nice_sp"]) == 0
    assert main(["train", "--config", str(config_file), "--cell", "original:vanilla",
                 "--out", "out"]) == 0
    assert fits == []


def test_train_and_explain_reuse_a_finished_run(tmp_path, config_file, capsys, monkeypatch):
    """On a finished run's output directory and config, no forest is fit or tuned again."""
    text = config_file.read_text().replace("tuning = vanilla", "tuning = tuned") + TUNE
    config = tmp_path / "tuned.cfg"
    config.write_text(text)
    fresh = tmp_path / "fresh.cfg"
    fresh.write_text(text.replace(str(tmp_path / "out"), str(tmp_path / "fresh")))
    explain = ["explain", "--cell", "undersampling:tuned:nice_sp"]
    assert main([*explain, "--config", str(fresh)]) == 0
    fresh_lines = capsys.readouterr().out
    assert main(["run", "--config", str(config)]) == 0
    models = {p.name: p.read_bytes() for p in (tmp_path / "out" / "models").iterdir()}
    # a fresh explain writes the same model files as run
    fresh_models = sorted((tmp_path / "fresh" / "models").iterdir())
    assert [p.name for p in fresh_models] == ["undersampling_tuned.forest",
                                              "undersampling_tuned.json"]
    assert all(p.read_bytes() == models[p.name] for p in fresh_models)

    def refit(*args, **kwargs):
        raise AssertionError("a finished run's forest was fit again")

    monkeypatch.setattr(forest, "fit_forest", refit)
    monkeypatch.setattr(forest, "tune", refit)
    capsys.readouterr()
    assert main(["train", "--config", str(config), "--cell", "original:tuned"]) == 0
    assert "model loaded from" in capsys.readouterr().out
    assert main([*explain, "--config", str(config)]) == 0
    assert capsys.readouterr().out == fresh_lines
    assert {p.name: p.read_bytes() for p in (tmp_path / "out" / "models").iterdir()} == models
    assert not list(tmp_path.rglob("*.tmp"))


def test_explain_twice_fits_once(tmp_path, config_file, capsys, monkeypatch):
    """A fresh explain records its block in the manifest; the next one loads it."""
    fits = count_calls(monkeypatch, forest, "fit_forest")
    explain = ["explain", "--config", str(config_file), "--cell", "undersampling:vanilla:whatif"]
    assert main(explain) == 0
    first = capsys.readouterr().out
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["blocks"]["undersampling:vanilla"]["status"] == "done"
    assert len(fits) == 1
    assert main(explain) == 0
    assert capsys.readouterr().out == first
    assert len(fits) == 1
    assert main(["train", "--config", str(config_file), "--cell", "undersampling:vanilla"]) == 0
    assert "model loaded from" in capsys.readouterr().out
    assert main(["train", "--config", str(config_file), "--cell", "original:vanilla"]) == 0
    assert len(fits) == 2
    blocks = json.loads((tmp_path / "out" / "manifest.json").read_text())["blocks"]
    assert sorted(blocks) == ["original:vanilla", "undersampling:vanilla"]


def test_bad_cell_rejected(config_file):
    with pytest.raises(SystemExit):
        main(["run", "--config", str(config_file), "--cell", "bogus:vanilla:whatif"])


def test_seed_override_changes_hash(tmp_path, config_file):
    """Every done entry carries its reuse key, and ``--seed`` changes each one."""
    keys = {}
    for name, extra in (("plain", []), ("seeded", ["--seed", "77"])):
        assert main(["run", "--config", str(config_file), *extra,
                     "--out", str(tmp_path / name)]) == 0
        manifest = json.loads((tmp_path / name / "manifest.json").read_text())
        keys[name] = {entry: manifest[kind][entry]["key"]
                      for kind in ("blocks", "cells") for entry in manifest[kind]}
    assert len(keys["plain"]) == 2 + 4
    assert keys["plain"].keys() == keys["seeded"].keys()
    assert all(keys["plain"][k] != keys["seeded"][k] for k in keys["plain"])


def test_cell_only_settings_refit_no_block(tmp_path, config_file, capsys, monkeypatch):
    """After a run, another instance cap regenerates the cells but fits no
    forest; another forest setting refits every block."""
    grid = (config_file.read_text().replace("tuning = vanilla", "tuning = vanilla,tuned")
            .replace("methods = whatif,nice_sp", "methods = whatif") + TUNE)
    config = tmp_path / "grid.cfg"
    config.write_text(grid)
    assert main(["run", "--config", str(config)]) == 0
    fits = count_calls(monkeypatch, forest, "fit_forest")
    generated = count_calls(monkeypatch, bench, "generate_for_cell")
    assert main(["explain", "--config", str(config), "--cell", "original:tuned:whatif"]) == 0
    assert fits == []
    generated.clear()
    capsys.readouterr()
    assert main(["run", "--config", str(config), "--max-instances", "2"]) == 0
    assert "4/4 cells done" in capsys.readouterr().out
    assert fits == [] and len(generated) == 4
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert all(entry["resumed"] for entry in manifest["blocks"].values())
    config.write_text(grid.replace("n_trees = 5", "n_trees = 6"))
    assert main(["run", "--config", str(config), "--max-instances", "2"]) == 0
    assert len(fits) == 2 + 2 * (2 * 2 + 1)  # vanilla: 1 fit; tuned: 2 folds x 2 points + 1
