"""Quality scoring of counterfactuals and per-cell aggregation.

Five metrics per counterfactual:

* validity      -- 1 iff the model predicts pass for the counterfactual.
* proximity     -- Gower distance between the instance and the counterfactual.
* sparsity      -- number of changed features.
* minimality    -- number of redundant changes: changed features that can be
  reverted one at a time without losing the pass prediction (0 means every
  change was necessary). This one-at-a-time test approximates subset
  minimality, which would be exponential.
* plausibility  -- Gower distance to the nearest training instance (0 means
  the counterfactual is a real training row); lower is better.

`score_request` scores the counterfactuals of one request together: one model
call predicts every counterfactual and each of its one-feature reverts, and
one `gower_cross` against the prepared training features gives every
plausibility. `score` builds each record from its share of those results.

A cell is one (balancing, tuning, method) combination of the benchmark grid.
Aggregation reports median and quartiles per metric per cell, ready to plot
as error bars.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .cfgen import Counterfactual
from .dataset import FAIL_CUT
from .distance import GowerColumns, gower_cross, gower_many

METRIC_NAMES = ("validity", "proximity", "sparsity", "minimality", "plausibility")


class Cell(NamedTuple):
    balancing: str
    tuning: str
    method: str

    def key(self) -> str:
        return f"{self.balancing}:{self.tuning}:{self.method}"


@dataclass(frozen=True)
class QualityRecord:
    request_id: int | str
    cell: Cell
    validity: int
    proximity: float
    sparsity: int
    minimality: int
    plausibility: float

    def __post_init__(self):
        if self.minimality > self.sparsity:
            raise ValueError("minimality cannot exceed sparsity")
        for name in ("proximity", "plausibility"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


class MetricStats(NamedTuple):
    median: float
    q1: float
    q3: float
    count: int


@dataclass(frozen=True)
class CellSummary:
    cell: Cell
    stats: dict[str, MetricStats]


def score(cf: Counterfactual, passes: np.ndarray, plausibility: float, cell: Cell) -> QualityRecord:
    """The record of one counterfactual of ``cell``.

    ``passes`` are the model's pass predictions for the counterfactual and
    then for each of its changed features reverted to x, in feature order;
    ``plausibility`` is its Gower distance to the nearest training row.
    Proximity is normalised by the request's bounds, and the record takes
    the request's id.
    """
    req = cf.source_request
    return QualityRecord(
        request_id=req.request_id,
        cell=cell,
        validity=int(passes[0]),
        proximity=float(gower_many(req.x[None], cf.values, req.ranges())[0]),
        sparsity=int(np.count_nonzero(cf.values != req.x)),
        minimality=int(passes[1:].sum()),
        plausibility=plausibility,
    )


def score_request(cfs, model, columns: GowerColumns, cell: Cell) -> list[QualityRecord]:
    """Score the counterfactuals of one request, which share its instance,
    bounds and id, with one model call and one `gower_cross`.

    The model call holds each counterfactual followed by its one-feature
    reverts, so it predicts every row `score` needs. Plausibility is each
    counterfactual's distance to the nearest row of ``columns``, the prepared
    training features. Each record equals the one of scoring its
    counterfactual alone.
    """
    if not cfs:
        return []
    req = cfs[0].source_request
    if any(cf.source_request is not req for cf in cfs):
        raise ValueError("counterfactuals of one request expected")
    x = req.x
    values = np.array([cf.values for cf in cfs])
    owner, feature = np.nonzero(values != x)
    sizes = 1 + np.bincount(owner, minlength=len(cfs))
    rows = np.repeat(values, sizes, axis=0)
    # change k overall, of counterfactual i, is reverted k + i + 1 rows down
    rows[np.arange(owner.size) + owner + 1, feature] = x[feature]
    passes = np.split(model.predict_proba_batch(rows) < FAIL_CUT, np.cumsum(sizes)[:-1])
    plausibility = gower_cross(values, columns, req.ranges()).min(axis=1).tolist()
    return [score(cf, ok, pl, cell) for cf, ok, pl in zip(cfs, passes, plausibility)]


def aggregate(records) -> list[CellSummary]:
    """Group records by cell and summarize each metric with median and quartiles.

    Quartiles use linear interpolation between order statistics. Cells appear
    in first-occurrence order of the input.
    """
    records = list(records)
    if not records:
        raise ValueError("no records to aggregate")
    groups: dict[Cell, list[QualityRecord]] = {}
    for rec in records:
        groups.setdefault(rec.cell, []).append(rec)
    summaries = []
    for cell, recs in groups.items():
        stats = {}
        for name in METRIC_NAMES:
            vals = np.array([getattr(r, name) for r in recs], dtype=np.float64)
            q1, med, q3 = np.percentile(vals, [25.0, 50.0, 75.0])
            stats[name] = MetricStats(float(med), float(q1), float(q3), vals.size)
        summaries.append(CellSummary(cell=cell, stats=stats))
    return summaries


QUALITY_HEADER = ("balancing", "tuning", "method", "request_id", *METRIC_NAMES)


def write_quality_records(path, records) -> None:
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(QUALITY_HEADER)
        for r in records:
            writer.writerow([
                *r.cell, r.request_id, r.validity, repr(r.proximity),
                r.sparsity, r.minimality, repr(r.plausibility),
            ])


def read_quality_records(path) -> list[QualityRecord]:
    path = Path(path)
    records = []
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != QUALITY_HEADER:
            raise ValueError(f"{path}: unexpected quality-record header")
        for row in reader:
            records.append(QualityRecord(
                request_id=row[3],
                cell=Cell(row[0], row[1], row[2]),
                validity=int(row[4]),
                proximity=float(row[5]),
                sparsity=int(row[6]),
                minimality=int(row[7]),
                plausibility=float(row[8]),
            ))
    return records


def write_cell_summaries(path, summaries) -> None:
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["balancing", "tuning", "method", "metric", "median", "q1", "q3", "count"])
        for summary in summaries:
            for name in METRIC_NAMES:
                s = summary.stats[name]
                writer.writerow([*summary.cell, name, repr(s.median), repr(s.q1), repr(s.q3), s.count])
