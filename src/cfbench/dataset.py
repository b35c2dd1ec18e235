"""Tabular datasets for the benchmark: generic CSV loading, raw course-log
ingestion into weekly click counts, stratified splitting, and class-balance
inspection.

A dataset holds only what its rows say: features, labels, feature names and
optional row ids. Its `bounds`, the per-column [min, max] that distances are
normalised by, are computed from the rows, so no stored range can disagree
with them. `save_csv` writes the ids as an ``ID_COLUMN`` first column, and
`load_csv` reads that column back whenever the header has it.

Both bulk paths work on blocks, not rows: `ingest_oulad` parses the click log
with one `np.loadtxt` call per block of whole lines and adds each block's
clicks with one `np.bincount`, so its memory is bounded by one block; it
checks every log row, whatever its course. `save_csv` converts and writes a
batch of rows at a time.

Datasets are immutable after construction and safe to share across threads;
splitting and ingestion are pure given their seeds and inputs.
"""

from __future__ import annotations

import csv
import io
import logging
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .rng import spawn_rng

logger = logging.getLogger(__name__)

FAIL = "fail"
PASS = "pass"
LABELS = (FAIL, PASS)
# The pass/fail cut: a fail probability at or above it predicts fail
FAIL_CUT = 0.5

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

# Characters of studentVle.csv parsed per np.loadtxt call (bytes, for the
# ASCII release). A block ends on a line boundary, so it may run past this by
# part of one line; memory is bounded by one block, not by the log.
_LOG_BLOCK = 1 << 16
_LOG_FORMAT = dict(delimiter=",", comments=None, quotechar='"', ndmin=1)
# Rows per csv writerows call of LabeledDataset.save_csv, and per block of
# load_csv: a batch's cells are all the Python floats a frame holds at once
_ROW_BATCH = 256

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
        """Write the dataset as CSV: optional id column, features, then the label.

        An integral value below 2**53 in magnitude is written without a
        trailing ``.0``, so ingested click counts stay readable; any other
        value is written as its float ``repr``."""
        path = Path(path)
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            header = list(self.feature_names) + [LABEL_COLUMN]
            if self.ids is not None:
                header = [ID_COLUMN] + header
            writer.writerow(header)
            for start in range(0, self.n, _ROW_BATCH):
                batch = self.features[start:start + _ROW_BATCH]
                cells = batch.astype(object)  # Python floats, which csv writes as repr
                integral = (batch == np.trunc(batch)) & (np.abs(batch) < 2**53)
                cells[integral] = batch[integral].astype(np.int64)
                rows = [row + [lab] for row, lab
                        in zip(cells.tolist(), self.labels[start:start + _ROW_BATCH].tolist())]
                if self.ids is not None:
                    rows = [[i] + row for i, row in zip(self.ids[start:start + _ROW_BATCH], rows)]
                writer.writerows(rows)


@dataclass(frozen=True)
class SplitResult:
    """Disjoint, stratified train/test split of one dataset."""

    train: LabeledDataset
    test: LabeledDataset


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
        feature_pos = [pos[c] for c in feature_cols]
        label_pos = pos[label_col]

        blocks, batch, labels, ids = [], [], [], []
        for rownum, record in enumerate(reader, start=1):
            if not record:
                continue
            if len(record) < len(header):
                raise ValueError(f"{path}: row {rownum}: expected {len(header)} cells, got {len(record)}")
            try:
                values = [float(record[i]) for i in feature_pos]
            except ValueError:
                values = None
            # finite cells have a finite sum unless it overflows, so only a
            # row that may hold a bad cell is checked cell by cell
            if values is None or not math.isfinite(sum(values)):
                for col, i in zip(feature_cols, feature_pos):
                    cell = record[i]
                    try:
                        v = float(cell)
                    except ValueError:
                        v = math.nan
                    if not math.isfinite(v):
                        raise ValueError(
                            f"{path}: row {rownum}, column {col!r}: cannot parse {cell!r} as a number"
                        )
            lab = record[label_pos]
            if lab not in LABELS:
                raise ValueError(
                    f"{path}: row {rownum}, column {label_col!r}: invalid label {lab!r}"
                )
            batch.append(values)
            if len(batch) == _ROW_BATCH:
                blocks.append(np.array(batch))
                batch = []
            labels.append(lab)
            if id_pos is not None:
                ids.append(record[id_pos])

    if not labels:
        raise ValueError(f"{path}: no data rows")
    blocks.append(np.array(batch).reshape(-1, len(feature_cols)))
    return LabeledDataset(np.concatenate(blocks), labels, feature_cols,
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

    Every row of ``studentVle.csv``, whatever its course, must reach the
    five columns read and hold integer ``date`` and ``sum_click`` cells; a
    row that does not raises `ValueError` naming the file and line.
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

    keys = sorted(labels_by_key, key=lambda k: (k[0], _id_sort_key(k[1])))
    row_of = {key: i for i, key in enumerate(keys)}
    clicks, orphans = _sum_log_clicks(raw_dir / "studentVle.csv", course, sorted(presentations),
                                      row_of, known_keys)
    # interaction rows of students who never received a final result are dropped
    if orphans:
        logger.info(
            "ingest: dropped interactions of %d student(s) with no final result", orphans
        )
    return LabeledDataset.from_arrays(
        clicks.reshape(len(keys), len(WEEK_NUMBERS)),
        [labels_by_key[key] for key in keys],
        WEEK_COLUMNS,
        [f"{p}_{i}" for p, i in keys],
    )


def _sum_log_clicks(path: Path, course: str, presentations: list[str], row_of: dict,
                    known: set) -> tuple[np.ndarray, int]:
    """The flat (frame rows x weeks) click sums of the ``row_of`` keys in the
    log at ``path``, and the number of (presentation, id) keys of ``course``
    and ``presentations`` that have log rows but are not ``known`` enrollments.

    The string columns are one character wider than the longest wanted value:
    `np.loadtxt` truncates longer cells, and the extra character keeps them
    from matching. Only an id that fills its column can be a truncated one;
    such ids are read again whole, so that they count as distinct keys.
    """
    n_weeks = len(WEEK_NUMBERS)
    sums = np.zeros(len(row_of) * n_weeks)
    unmatched: set[tuple[str, str]] = set()
    id_width = 1 + max(len(i) for _, i in known)
    dtype = [("code_module", f"U{len(course) + 1}"),
             ("code_presentation", f"U{1 + max(map(len, presentations))}"),
             ("id_student", f"U{id_width}"), ("date", np.int64), ("sum_click", np.int64)]
    for block, usecols, rows in _log_blocks(path, dtype):
        in_course = rows["code_module"] == course
        frame_row = np.full(len(rows), -1)
        long_ids = False
        for p in presentations:
            mine = in_course & (rows["code_presentation"] == p)
            if not mine.any():
                continue
            ids, inverse = np.unique(rows["id_student"][mine], return_inverse=True)
            lut = np.array([row_of.get((p, i), -1) for i in ids.tolist()])
            frame_row[mine] = lut[inverse]
            for i in ids[lut < 0].tolist():
                if len(i) == id_width:
                    long_ids = True
                elif (p, i) not in known:
                    unmatched.add((p, i))
        if long_ids:
            truncated = (in_course & np.isin(rows["code_presentation"], presentations)
                         & (np.char.str_len(rows["id_student"]) == id_width))
            whole = np.loadtxt(io.StringIO(block), dtype=object, usecols=usecols[2], **_LOG_FORMAT)
            unmatched.update(zip(rows["code_presentation"][truncated].tolist(),
                                 whole[truncated].tolist()))
        day = rows["date"]
        take = (frame_row >= 0) & (day >= FIRST_DAY) & (day <= LAST_DAY)
        flat = frame_row[take] * n_weeks + (day[take] // 7 - WEEK_NUMBERS.start)
        block_sums = np.bincount(flat, weights=rows["sum_click"][take])
        sums[:block_sums.size] += block_sums
    return sums, len(unmatched)


def _log_blocks(path: Path, dtype):
    """Yield ``(text, usecols, rows)`` for each block of whole lines of the CSV
    at ``path``: about `_LOG_BLOCK` characters of text, the header positions of
    the ``dtype`` fields, and the block's rows parsed as ``dtype`` by one
    `np.loadtxt` call. A row that does not parse raises `ValueError` naming
    its line; blocks of blank lines are skipped."""
    with path.open() as fh:
        header = next(csv.reader([fh.readline()]), [])
        pos = {name: i for i, name in enumerate(header)}
        missing = [name for name, _ in dtype if name not in pos]
        if missing:
            raise ValueError(f"{path}: missing column(s): {', '.join(missing)}")
        usecols = [pos[name] for name, _ in dtype]
        line = 2
        while block := fh.read(_LOG_BLOCK):
            if not block.endswith("\n"):
                block += fh.readline()
            if block.strip("\n"):
                try:
                    rows = np.loadtxt(io.StringIO(block), dtype=dtype, usecols=usecols,
                                      **_LOG_FORMAT)
                except ValueError:
                    raise _bad_log_line(path, block, line, header, dtype, usecols) from None
                yield block, usecols, rows
            line += block.count("\n")


def _bad_log_line(path, block, first_line, header, dtype, usecols) -> ValueError:
    """The error naming the first line of ``block`` that `np.loadtxt` rejects."""
    for n, text in enumerate(block.split("\n"), start=first_line):
        if not text:
            continue
        try:
            np.loadtxt(io.StringIO(text), dtype=dtype, usecols=usecols, **_LOG_FORMAT)
            continue
        except ValueError:
            pass
        cells = next(csv.reader([text]))
        if len(cells) < len(header):
            return ValueError(f"{path}: line {n}: expected {len(header)} cells, got {len(cells)}")
        numbers = " and ".join(f"{name} {cells[col]!r}" for (name, kind), col
                               in zip(dtype, usecols) if kind is np.int64)
        return ValueError(f"{path}: line {n}: {numbers} must be integers")
    return ValueError(f"{path}: lines {first_line}-{n}: cannot parse the log rows")


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
    return SplitResult(train=data.subset(np.flatnonzero(~test_mask)),
                       test=data.subset(np.flatnonzero(test_mask)))


def imbalance_ratio(data: LabeledDataset) -> float:
    """Majority-class count divided by minority-class count (>= 1)."""
    counts = data.class_counts()
    lo, hi = sorted(counts.values())
    if lo == 0:
        absent = [lab for lab, c in counts.items() if c == 0]
        raise ValueError(f"class {absent[0]!r} absent; imbalance ratio undefined")
    return hi / lo
