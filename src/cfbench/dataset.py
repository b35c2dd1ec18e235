"""Tabular datasets for the benchmark: generic CSV loading, raw course-log
ingestion into weekly click counts, stratified splitting, and class-balance
inspection.

A dataset holds only what its rows say: features, labels, feature names and
optional row ids. Its `bounds`, the per-column [min, max] that distances are
normalised by, are computed from the rows, so no stored range can disagree
with them. `save_csv` writes the ids as an ``ID_COLUMN`` first column, and
`load_csv` reads that column back whenever the header has it.

Datasets are immutable after construction and safe to share across threads;
splitting and ingestion are pure given their seeds and inputs.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .rng import spawn_rng

logger = logging.getLogger(__name__)

FAIL = "fail"
PASS = "pass"
LABELS = (FAIL, PASS)

# Weekly click columns: four weeks before the course start through week 37.
# Week k covers days [7k, 7k+6]; clicks outside [FIRST_DAY, LAST_DAY] are
# discarded during ingestion.
WEEK_NUMBERS = range(-4, 38)
WEEK_COLUMNS = tuple(f"week_minus{-w}" if w < 0 else f"week_{w}" for w in WEEK_NUMBERS)
LABEL_COLUMN = "final_result"
ID_COLUMN = "student_id"
FRAME_COLUMNS = (*WEEK_COLUMNS, LABEL_COLUMN)

FIRST_DAY = 7 * WEEK_NUMBERS.start
LAST_DAY = 7 * (WEEK_NUMBERS.stop - 1) + 6

OULAD_REQUIRED_FILES = ("studentInfo.csv", "studentVle.csv", "vle.csv")

_RESULT_TO_LABEL = {"Distinction": PASS, "Pass": PASS, "Fail": FAIL}
_WITHDRAWN = "Withdrawn"


@dataclass(frozen=True)
class LabeledDataset:
    """Immutable feature matrix with fail/pass labels and feature names.

    ``ids`` is optional row identification (e.g. student ids from ingestion);
    it is carried through splits but dropped by resampling.
    """

    features: np.ndarray
    labels: np.ndarray
    feature_names: tuple[str, ...]
    ids: tuple[str, ...] | None = None

    def __post_init__(self):
        feats = np.array(self.features, dtype=np.float64, order="C")  # own copy, read-only
        labs = np.array(self.labels)
        if feats.ndim != 2 or feats.shape[0] == 0 or feats.shape[1] == 0:
            raise ValueError("features must be a non-empty 2-D matrix")
        if labs.shape != (feats.shape[0],):
            raise ValueError("labels length must match the number of rows")
        if len(self.feature_names) != feats.shape[1]:
            raise ValueError("one feature name per feature column required")
        bad = set(labs.tolist()) - set(LABELS)
        if bad:
            raise ValueError(f"unknown labels: {sorted(bad)}")
        if not np.isfinite(feats).all():
            raise ValueError("features must be finite")
        if self.ids is not None and len(self.ids) != feats.shape[0]:
            raise ValueError("ids length must match the number of rows")
        feats.setflags(write=False)
        labs.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labs)
        object.__setattr__(self, "feature_names", tuple(str(n) for n in self.feature_names))
        if self.ids is not None:
            object.__setattr__(self, "ids", tuple(self.ids))

    @classmethod
    def from_arrays(cls, features, labels, names=None, ids=None) -> "LabeledDataset":
        """Build a dataset, naming the columns ``f1, f2, ...`` when ``names`` is None."""
        if names is None:
            shape = np.shape(features)
            names = [f"f{j + 1}" for j in range(shape[1] if len(shape) == 2 else 0)]
        return cls(features, labels, names, ids)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def p(self) -> int:
        return self.features.shape[1]

    @property
    def bounds(self) -> np.ndarray:
        """The (p, 2) array of each column's observed [min, max]."""
        return np.column_stack([self.features.min(axis=0), self.features.max(axis=0)])

    def class_counts(self) -> dict[str, int]:
        return {lab: int(np.sum(self.labels == lab)) for lab in LABELS}

    def indices_of(self, label: str) -> np.ndarray:
        return np.flatnonzero(self.labels == label)

    def subset(self, indices) -> "LabeledDataset":
        """Row subset in the given order; `bounds` follow the kept rows."""
        idx = np.asarray(indices, dtype=np.intp)
        ids = tuple(self.ids[i] for i in idx) if self.ids is not None else None
        return LabeledDataset.from_arrays(
            self.features[idx], self.labels[idx], self.feature_names, ids
        )

    def save_csv(self, path) -> None:
        """Write the dataset as CSV: optional id column, features, then the label."""
        path = Path(path)
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            header = list(self.feature_names) + [LABEL_COLUMN]
            if self.ids is not None:
                header = [ID_COLUMN] + header
            writer.writerow(header)
            for i in range(self.n):
                row = [_num(v) for v in self.features[i]] + [str(self.labels[i])]
                if self.ids is not None:
                    row = [self.ids[i]] + row
                writer.writerow(row)


def _num(v: float) -> str:
    # integral values print without a trailing .0 so ingested click counts stay readable
    f = float(v)
    return str(int(f)) if f.is_integer() and abs(f) < 2**53 else repr(f)


@dataclass(frozen=True)
class SplitResult:
    """Disjoint, stratified train/test split of one dataset."""

    train: LabeledDataset
    test: LabeledDataset
    train_indices: np.ndarray = field(repr=False, default=None)
    test_indices: np.ndarray = field(repr=False, default=None)


def load_csv(path, expected_columns) -> LabeledDataset:
    """Load a labeled dataset from CSV.

    ``expected_columns`` lists the feature columns in order, with the label
    column as the final entry. Columns present in the file but not listed are
    ignored, except ``ID_COLUMN``: when the header has it, as `save_csv`
    writes it, its cells are read back as row ids.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"no such file: {path}")
    expected = list(expected_columns)
    if len(expected) < 2:
        raise ValueError("expected_columns needs at least one feature and the label column")
    feature_cols, label_col = expected[:-1], expected[-1]

    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        pos = {name: i for i, name in enumerate(header)}
        missing = [c for c in expected if c not in pos]
        if missing:
            raise ValueError(f"{path}: missing column(s): {', '.join(missing)}")
        id_pos = pos.get(ID_COLUMN)

        rows, labels, ids = [], [], []
        for rownum, record in enumerate(reader, start=1):
            if not record:
                continue
            if len(record) < len(header):
                raise ValueError(f"{path}: row {rownum}: expected {len(header)} cells, got {len(record)}")
            values = np.empty(len(feature_cols))
            for j, col in enumerate(feature_cols):
                cell = record[pos[col]]
                try:
                    v = float(cell)
                except ValueError:
                    v = math.nan
                if not math.isfinite(v):
                    raise ValueError(
                        f"{path}: row {rownum}, column {col!r}: cannot parse {cell!r} as a number"
                    )
                values[j] = v
            lab = record[pos[label_col]]
            if lab not in LABELS:
                raise ValueError(
                    f"{path}: row {rownum}, column {label_col!r}: invalid label {lab!r}"
                )
            rows.append(values)
            labels.append(lab)
            if id_pos is not None:
                ids.append(record[id_pos])

    if not rows:
        raise ValueError(f"{path}: no data rows")
    return LabeledDataset(np.vstack(rows), labels, feature_cols,
                          ids if id_pos is not None else None)


def _read_oulad(path: Path, required: tuple[str, ...]):
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        got = reader.fieldnames or []
        missing = [c for c in required if c not in got]
        if missing:
            raise ValueError(f"{path}: missing column(s): {', '.join(missing)}")
        yield from reader


def ingest_oulad(raw_dir, course: str, presentations) -> LabeledDataset:
    """Aggregate raw course logs into one weekly click-count row per enrollment.

    Selects students of ``course`` in the given ``presentations``, maps the
    final result to fail/pass (distinctions count as pass), excludes withdrawn
    students, and sums clicks per week. Week k covers days [7k, 7k+6]; clicks
    outside weeks -4..37 are discarded. Students with no logged activity get
    all-zero rows. Rows are ordered by (presentation, student id).
    """
    raw_dir = Path(raw_dir)
    missing = [f for f in OULAD_REQUIRED_FILES if not (raw_dir / f).exists()]
    if missing:
        raise FileNotFoundError(f"{raw_dir}: missing raw file(s): {', '.join(missing)}")
    presentations = set(presentations)

    labels_by_key: dict[tuple[str, str], str] = {}
    known_keys: set[tuple[str, str]] = set()
    enrolled = 0
    withdrawn = 0
    for rec in _read_oulad(
        raw_dir / "studentInfo.csv",
        ("code_module", "code_presentation", "id_student", "final_result"),
    ):
        if rec["code_module"] != course or rec["code_presentation"] not in presentations:
            continue
        enrolled += 1
        key = (rec["code_presentation"], rec["id_student"])
        known_keys.add(key)
        result = rec["final_result"]
        if result == _WITHDRAWN:
            withdrawn += 1
            continue
        if result not in _RESULT_TO_LABEL:
            raise ValueError(f"studentInfo.csv: unknown final_result {result!r}")
        labels_by_key[key] = _RESULT_TO_LABEL[result]

    if enrolled == 0:
        raise ValueError(
            f"no students found for course {course!r}, presentations {sorted(presentations)}"
        )
    logger.info(
        "ingest: %d enrollments, %d withdrawn excluded, %d retained",
        enrolled, withdrawn, len(labels_by_key),
    )

    n_weeks = len(WEEK_NUMBERS)
    clicks: dict[tuple[str, str], np.ndarray] = {}
    unmatched: set[tuple[str, str]] = set()
    for rec in _read_oulad(
        raw_dir / "studentVle.csv",
        ("code_module", "code_presentation", "id_student", "date", "sum_click"),
    ):
        if rec["code_module"] != course or rec["code_presentation"] not in presentations:
            continue
        key = (rec["code_presentation"], rec["id_student"])
        if key not in labels_by_key:
            if key not in known_keys:
                unmatched.add(key)
            continue
        day = int(rec["date"])
        if day < FIRST_DAY or day > LAST_DAY:
            continue
        week_idx = day // 7 - WEEK_NUMBERS.start
        row = clicks.get(key)
        if row is None:
            row = clicks[key] = np.zeros(n_weeks)
        row[week_idx] += int(rec["sum_click"])

    # interaction rows of students who never received a final result are dropped
    if unmatched:
        logger.info(
            "ingest: dropped interactions of %d student(s) with no final result", len(unmatched)
        )

    keys = sorted(labels_by_key, key=lambda k: (k[0], _id_sort_key(k[1])))
    features = np.zeros((len(keys), n_weeks))
    labels = []
    ids = []
    for i, key in enumerate(keys):
        row = clicks.get(key)
        if row is not None:
            features[i] = row
        labels.append(labels_by_key[key])
        ids.append(f"{key[0]}_{key[1]}")
    return LabeledDataset.from_arrays(features, labels, WEEK_COLUMNS, ids)


def _id_sort_key(raw: str):
    return (0, int(raw)) if raw.lstrip("-").isdigit() else (1, raw)


def stratified_split(data: LabeledDataset, test_fraction: float, seed: int) -> SplitResult:
    """Split into disjoint train/test parts with per-class proportions preserved.

    Per class, round(test_fraction * class size) rows go to the test side
    (half rounds up), clamped so both sides keep at least one row per class.
    Deterministic given the seed; row order within each side follows the input.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    counts = data.class_counts()
    for lab, c in counts.items():
        if c < 2:
            raise ValueError(f"class {lab!r} has {c} member(s); need at least 2 to split")
    rng = spawn_rng(seed)
    test_idx = []
    for lab in LABELS:
        members = data.indices_of(lab)
        t = int(math.floor(test_fraction * len(members) + 0.5))
        t = min(max(t, 1), len(members) - 1)
        perm = rng.permutation(len(members))
        test_idx.extend(members[perm[:t]].tolist())
    test_mask = np.zeros(data.n, dtype=bool)
    test_mask[test_idx] = True
    test_indices = np.flatnonzero(test_mask)
    train_indices = np.flatnonzero(~test_mask)
    return SplitResult(
        train=data.subset(train_indices),
        test=data.subset(test_indices),
        train_indices=train_indices,
        test_indices=test_indices,
    )


def imbalance_ratio(data: LabeledDataset) -> float:
    """Majority-class count divided by minority-class count (>= 1)."""
    counts = data.class_counts()
    lo, hi = sorted(counts.values())
    if lo == 0:
        absent = [lab for lab, c in counts.items() if c == 0]
        raise ValueError(f"class {absent[0]!r} absent; imbalance ratio undefined")
    return hi / lo
