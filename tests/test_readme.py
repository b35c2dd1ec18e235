"""The README's library tour runs as written, on an ingested synthetic frame."""

import re
from pathlib import Path

from cfbench.bench import ExperimentConfig, parse_config
from cfbench.dataset import ingest_oulad

from synth import write_oulad_raw

README = Path(__file__).resolve().parents[1] / "README.md"


def tour_code() -> str:
    section = README.read_text().split("## Library tour", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_tour_runs(tmp_path, monkeypatch):
    raw = write_oulad_raw(tmp_path / "raw", n_students=160, seed=4)
    ingest_oulad(raw, "DDD", ["2013J", "2014J"]).save_csv(tmp_path / "frame.csv")
    monkeypatch.chdir(tmp_path)
    scope = {}
    exec(compile(tour_code(), str(README), "exec"), scope)
    assert scope["frame"].ids is not None
    assert len(scope["nearest"]) == 10
    assert scope["model"].predict_proba(scope["greedy"].values) < 0.5


def test_config_example_parses(tmp_path):
    """The README's config example is the default configuration, spelled out."""
    section = README.read_text().split("### Config file", 1)[1]
    path = tmp_path / "run.cfg"
    path.write_text(re.search(r"```ini\n(.*?)```", section, re.DOTALL).group(1))
    assert parse_config(path) == ExperimentConfig(frame_csv=Path("frame.csv"))
