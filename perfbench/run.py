"""cfbench benchmark: time slices of the balancing x tuning x method grid.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload explain-greedy --seed 29 --seconds 34 --trace 0

A run generates the workload's raw corpus from ``--seed`` with
``tests/synth.write_oulad_raw``, then starts fresh child processes
(``child.py``) one after another, a closed loop with one client, until
``--seconds`` have passed and at least ``MIN_CHILDREN`` have run. Each child
imports ``cfbench``, ingests the corpus, saves the frame and runs
``cfbench run`` into a fresh output directory. The parent checks every
child's outputs and prints the end-to-end metrics (medians over the
children) by name with units, then, as the last line, one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. ``attempted`` and
``failed`` count grid cells over all children.

With ``--trace 1`` the first child runs with the per-layer wrappers of
``tracer.py``, the others without, and the metrics are the per-layer ones,
with ``trace.overhead_s`` the traced minus the median untraced ``grid_s``.

``--workload all`` runs the three workloads one after another, each with its
own metrics and result line. ``--workload desk`` is the one-off check of the
full desk grid (all defaults) against the four ROADMAP digests; it is not a
benchmark workload. ``--record-golden`` rewrites the workload's digests in
``golden.json``; run it only in a change that is meant to alter the outputs.

BLAS threads are pinned to 1. Everything is written under ``.bench_work/``
in the checkout and removed at the end, except the last trace of each
workload and seed.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
DEFAULT_SEED = 29
MIN_CHILDREN = 3
CHILD_TIMEOUT_S = 170.0  # the whole run must end within 180 s
DESK_TIMEOUT_S = 3600.0
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

ALL_BALANCING = "original,undersampling,oversampling,smote,cost_sensitive"

# name -> (students in the raw corpus, run-config sections); master seed 0
WORKLOADS = {
    "explain-greedy": (420, {
        "run": {"balancing": ALL_BALANCING, "tuning": "vanilla",
                "methods": "whatif,nice_sp,nice_pr", "max_explained_instances": 6},
    }),
    "explain-moc": (3741, {
        "run": {"balancing": "undersampling,original,oversampling", "tuning": "vanilla",
                "methods": "moc", "max_explained_instances": 2},
        "forest": {"n_trees": 10},
        "moc": {"population": 100, "generations": 20},
    }),
    "tune-paper": (3741, {
        "run": {"balancing": "original,cost_sensitive", "tuning": "tuned",
                "methods": "whatif", "max_explained_instances": 10},
        "forest": {"n_trees": 6},
        "tune": {"folds": 2, "repeats": 1, "mtry": "6,21", "splitrule": "gini,extratrees",
                 "min_node_size": "1,10"},
    }),
}
ALL = "all"
DESK_CHECK = "desk"
DESK = (420, {"run": {}})
DESK_DIGESTS = {
    "quality_records.csv": "0cccff0a319d282b",
    "cell_summaries.csv": "40e9869861b750e6",
    "performance.csv": "8208b9e1b9b2ed56",
    "counts.csv": "2f12d9f2fdd17f2c",
}
WHATIF_K = 10  # the config default, which no workload overrides

END_TO_END = (("setup_s", "s"), ("grid_s", "s"), ("fit_s", "s"),
              ("requests_per_s", "1/s"), ("peak_rss_mb", "MB"))


def write_config(path: Path, frame: Path, sections: dict) -> None:
    lines = ["[data]", f"frame_csv = {frame}"]
    sections = {**sections, "run": {"master_seed": 0, **sections.get("run", {})}}
    for name, values in sections.items():
        lines.append(f"[{name}]")
        lines.extend(f"{key} = {value}" for key, value in values.items())
    path.write_text("\n".join(lines) + "\n")


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in BLAS_VARS})
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(work: Path, raw: Path, config: Path, index: int, trace: Path | None,
              timeout: float) -> dict:
    out = work / f"out{index}"
    result = work / f"result{index}.json"
    cmd = [sys.executable, str(HERE / "child.py"), "--raw", str(raw),
           "--frame", str(work / "frame.csv"), "--config", str(config),
           "--out", str(out), "--result", str(result)]
    if trace is not None:
        cmd += ["--trace", str(trace)]
    proc = subprocess.run(cmd, env=child_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=timeout)
    if proc.returncode != 0 or not result.exists():
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"child {index} exited with code {proc.returncode}")
    return {**json.loads(result.read_text()), "out": out}


def digests(out: Path) -> dict:
    """sha256 of every output file except the manifest, which holds timings."""
    return {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file() and path.name != "manifest.json"
    }


def check_outputs(out: Path, sections: dict) -> tuple[int, dict]:
    """Check one grid's outputs: (cells attempted, failed cell key -> reason).

    A cell fails if its manifest status is not ``done`` (or it was resumed),
    if any of its records is invalid, if whatif/nice return other than
    ``WHATIF_K``/1 counterfactuals per request, or if ``counts.csv`` or the
    record files disagree with the manifest's count.
    """
    run = sections.get("run", {})
    balancing = run.get("balancing", ALL_BALANCING).split(",")
    tuning = run.get("tuning", "vanilla,tuned").split(",")
    methods = run.get("methods", "whatif,moc,nice_sp,nice_pr").split(",")
    cells = [(b, t, m) for b in balancing for t in tuning for m in methods]
    manifest = json.loads((out / "manifest.json").read_text())["cells"]

    per_cell: dict[tuple, list[dict]] = {}
    with (out / "quality_records.csv").open(newline="") as fh:
        for row in csv.DictReader(fh):
            per_cell.setdefault((row["balancing"], row["tuning"], row["method"]), []).append(row)
    counts = {}
    with (out / "counts.csv").open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        for row in reader:
            for b, value in zip(header[2:], row[2:]):
                counts[(b, row[1], row[0])] = value

    failed = {}
    for cell in cells:
        key = ":".join(cell)
        entry = manifest.get(key, {})
        records = per_cell.get(cell, [])
        per_request = Counter(r["request_id"] for r in records)
        expect = {"whatif": WHATIF_K, "nice_sp": 1, "nice_pr": 1}.get(cell[2])
        if entry.get("status") != "done" or entry.get("resumed"):
            failed[key] = f"status {entry.get('status')!r}, resumed {entry.get('resumed', False)}"
        elif any(r["validity"] != "1" for r in records):
            failed[key] = "a record has validity != 1"
        elif expect is not None and (len(per_request) != entry["requests"]
                                     or set(per_request.values()) - {expect}):
            failed[key] = f"expected {expect} counterfactual(s) for each of {entry['requests']} requests"
        elif len(records) != entry["count"] or counts.get(cell) != str(entry["count"]):
            failed[key] = (f"manifest count {entry['count']}, records {len(records)}, "
                           f"counts.csv {counts.get(cell)!r}")
    return len(cells), failed


def grid_metrics(out: Path) -> dict:
    manifest = json.loads((out / "manifest.json").read_text())
    cells = manifest["cells"].values()
    cell_s = sum(c.get("seconds", 0.0) for c in cells)
    requests = sum(c.get("requests", 0) for c in cells)
    return {"fit_s": sum(b.get("seconds", 0.0) for b in manifest["blocks"].values()),
            "requests_per_s": requests / cell_s if cell_s else 0.0}


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref_path = ROOT / ".git" / ref[5:]
        if ref_path.exists():
            return ref_path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_metadata(workload: str, seed: int, students: int) -> dict:
    import numpy

    return {"workload": workload, "corpus_seed": seed, "corpus_students": students,
            "master_seed": 0, "git_sha": git_sha(), "source_sha256": source_digest(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "cpu_count": os.cpu_count(), "blas_threads": {v: "1" for v in BLAS_VARS}}


def report_drift(workload: str, seed: int, got: dict) -> None:
    golden = json.loads((HERE / "golden.json").read_text())["workloads"].get(workload, {})
    if golden.get("corpus_seed") != seed:
        print(f"digests: no golden set for seed {seed}")
        return
    want = golden["files"]
    drifted = sorted(name for name in set(want) | set(got) if want.get(name) != got.get(name))
    print(f"digests: {len(got) - len(drifted)} match golden, {len(drifted)} drifted")
    for name in drifted:
        print(f"  drifted: {name}")


def record_golden(workload: str, students: int, sections: dict, work: Path) -> int:
    """Write the workload's digests at ``DEFAULT_SEED`` to golden.json.

    Two children must agree, and pass the output checks, before they are kept.
    """
    from tests.synth import write_oulad_raw

    raw = write_oulad_raw(work / "raw", n_students=students, seed=DEFAULT_SEED)
    config = work / "run.cfg"
    write_config(config, work / "frame.csv", sections)
    sets = []
    for index in range(2):
        child = run_child(work, raw, config, index, None, CHILD_TIMEOUT_S)
        _, bad = check_outputs(child["out"], sections)
        if bad:
            print(f"error: child {index} failed the output checks: {bad}", file=sys.stderr)
            return 1
        sets.append(digests(child["out"]))
    if sets[0] != sets[1]:
        print("error: two runs of the same code gave different outputs", file=sys.stderr)
        return 1
    path = HERE / "golden.json"
    golden = json.loads(path.read_text())
    golden["workloads"][workload] = {**golden["workloads"].get(workload, {}),
                                     "corpus_seed": DEFAULT_SEED, "files": sets[0]}
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(sets[0])} digests for {workload}")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, ALL, DESK_CHECK],
                    help=f"{ALL!r} runs the three workloads one after another")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED, help="corpus seed")
    ap.add_argument("--seconds", type=float, default=34.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-golden", action="store_true",
                    help=f"rewrite the workload's golden digests (seed {DEFAULT_SEED}) and exit")
    args = ap.parse_args()
    # on SIGTERM unwind normally, so subprocess.run kills and reaps the child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    missing = [p for p in ("src/cfbench/__init__.py", "tests/synth.py") if not (ROOT / p).exists()]
    if missing:
        print(f"error: not a cfbench source checkout (missing {', '.join(missing)})",
              file=sys.stderr)
        return 2

    if args.record_golden and args.workload == DESK_CHECK:
        print("error: the desk check has no golden set of its own", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]  # cfbench and tests.synth, read-only
    names = list(WORKLOADS) if args.workload == ALL else [args.workload]
    return max(run_workload(args, name) for name in names)


def run_workload(args, workload: str) -> int:
    students, sections = DESK if workload == DESK_CHECK else WORKLOADS[workload]
    work = WORK / f"{workload}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.record_golden:
            return record_golden(workload, students, sections, work)
        return measure(args, workload, students, sections, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, workload: str, students: int, sections: dict, work: Path) -> int:
    started = time.perf_counter()
    from tests.synth import write_oulad_raw

    raw = write_oulad_raw(work / "raw", n_students=students, seed=args.seed)
    config = work / "run.cfg"
    write_config(config, work / "frame.csv", sections)
    meta = run_metadata(workload, args.seed, students)
    print("meta " + json.dumps(meta, sort_keys=True))

    trace_file = WORK / "traces" / f"{workload}-seed{args.seed}.json"
    children, problems = [], []
    attempted = failed = 0
    first_digests = None
    last_child_s = 0.0  # a child is started only if one like the last still ends in time
    t0 = time.perf_counter()
    while len(children) < MIN_CHILDREN + args.trace or (
            time.perf_counter() - t0 + last_child_s < args.seconds):
        index = len(children)
        traced = args.trace == 1 and index == 0
        if traced:
            trace_file.parent.mkdir(parents=True, exist_ok=True)
        limit = DESK_TIMEOUT_S if workload == DESK_CHECK else CHILD_TIMEOUT_S
        timeout = limit - (time.perf_counter() - started)
        child_t0 = time.perf_counter()
        child = run_child(work, raw, config, index, trace_file if traced else None, timeout)
        last_child_s = time.perf_counter() - child_t0
        n_cells, bad = check_outputs(child["out"], sections)
        attempted += n_cells
        failed += len(bad)
        problems += [f"child {index}: cell {key}: {why}" for key, why in sorted(bad.items())]
        if child["exit_code"] != 0 and not bad:
            problems.append(f"child {index}: cfbench run exited with {child['exit_code']}")
        got = digests(child["out"])
        if first_digests is None:
            first_digests = got
        elif got != first_digests:
            changed = sorted(k for k in set(got) | set(first_digests)
                             if got.get(k) != first_digests.get(k))
            problems.append(f"child {index}: outputs differ from child 0: {', '.join(changed)}")
        child.update(grid_metrics(child["out"]), traced=traced)
        shutil.rmtree(child.pop("out"))
        children.append(child)
        if workload == DESK_CHECK:
            break

    if workload == DESK_CHECK:
        short = {name: first_digests.get(name, "")[:16] for name in DESK_DIGESTS}
        for name, want in DESK_DIGESTS.items():
            print(f"desk digest {name}: {short[name]} "
                  f"({'matches' if short[name] == want else 'DIFFERS from'} {want})")
        if short != DESK_DIGESTS:
            problems.append("desk digests differ from ROADMAP")
    else:
        report_drift(workload, args.seed, first_digests)

    timed = [c for c in children if not c["traced"]]
    if args.trace:
        import tracer

        trace = json.loads(trace_file.read_text())
        untraced_grid = statistics.median(c["grid_s"] for c in timed)
        metrics = tracer.summarize(trace, untraced_grid)
        spans = trace["spans"]
        print(f"traced grid_s {trace['grid_s']:.3f} s, {len(spans)} spans; self time by layer:")
        for layer, own in tracer.layer_self_seconds(trace).items():
            print(f"  {layer} {own:.3f} s ({100 * own / trace['grid_s']:.1f}% of traced grid_s)")
    else:
        metrics = {name: {"value": statistics.median(c[name] for c in timed), "unit": unit}
                   for name, unit in END_TO_END}
    print(f"children {len(children)} ({len(timed)} timed), cells attempted {attempted}, "
          f"failed {failed}")
    for name in ("setup_s", "grid_s", "peak_rss_mb"):
        print(f"per child {name}: " + " ".join(f"{c[name]:.3f}" for c in children))
    print(f"failed_share {failed / attempted} ratio")
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}" + (f" (absent: {m['absent']})" if "absent" in m else ""))
    for problem in problems:
        print("problem: " + problem)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
