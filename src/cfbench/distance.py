"""Range-normalized distance kernels (Gower, HEOM) and exact k-nearest-neighbor
search. All functions are pure over immutable inputs.

Feature ranges come from a :class:`RangeTable`, normally built once from the
training split and reused everywhere so that distances stay comparable when
the training composition changes under resampling. Zero-width (constant)
features contribute nothing to any distance. For Gower, values outside the
table's range cap their per-feature term at 1, keeping the metric in [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

GOWER = "gower"
HEOM = "heom"
METRICS = (GOWER, HEOM)


@dataclass(frozen=True)
class RangeTable:
    """Per-feature range widths used as distance denominators."""

    widths: np.ndarray

    def __post_init__(self):
        w = np.ascontiguousarray(self.widths, dtype=np.float64)
        if w.ndim != 1 or w.size == 0:
            raise ValueError("widths must be a non-empty vector")
        if (w < 0).any() or not np.isfinite(w).all():
            raise ValueError("widths must be finite and non-negative")
        w.setflags(write=False)
        object.__setattr__(self, "widths", w)

    @classmethod
    def from_bounds(cls, bounds) -> "RangeTable":
        b = np.asarray(bounds, dtype=np.float64)
        return cls(b[:, 1] - b[:, 0])

    @property
    def p(self) -> int:
        return self.widths.size

    @property
    def active(self) -> np.ndarray:
        return self.widths > 0


def _check(rt: RangeTable, *arrays):
    for a in arrays:
        if a.shape[-1] != rt.p:
            raise ValueError(f"dimension mismatch: instance has {a.shape[-1]} features, ranges {rt.p}")
    if not rt.active.any():
        raise ValueError("all feature ranges have zero width")


def gower(a, b, ranges: RangeTable) -> float:
    """Mean range-normalized absolute difference over non-constant features, in [0, 1]."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    _check(ranges, a, b)
    act = ranges.active
    terms = np.minimum(np.abs(a[act] - b[act]) / ranges.widths[act], 1.0)
    return float(terms.sum() / act.sum())


def gower_many(pool, x, ranges: RangeTable) -> np.ndarray:
    """Gower distance from each row of ``pool`` to ``x``."""
    pool = np.atleast_2d(np.asarray(pool, dtype=np.float64))
    x = np.asarray(x, dtype=np.float64)
    _check(ranges, pool, x)
    act = ranges.active
    terms = np.minimum(np.abs(pool[:, act] - x[act]) / ranges.widths[act], 1.0)
    return terms.sum(axis=1) / act.sum()


def gower_cross(rows, others, ranges: RangeTable) -> np.ndarray:
    """Pairwise Gower distances, shape (len(rows), len(others)).

    Accumulates one feature at a time to avoid materializing the full
    (rows x others x p) difference tensor.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    others = np.atleast_2d(np.asarray(others, dtype=np.float64))
    _check(ranges, rows, others)
    active = np.flatnonzero(ranges.active)
    total = np.zeros((rows.shape[0], others.shape[0]))
    buf = np.empty_like(total)
    for j in active:
        np.subtract(rows[:, j, None], others[None, :, j], out=buf)
        np.abs(buf, out=buf)
        buf /= ranges.widths[j]
        np.minimum(buf, 1.0, out=buf)
        total += buf
    return total / active.size


def heom_many(pool, x, ranges: RangeTable) -> np.ndarray:
    """Heterogeneous Euclidean-overlap distance from each row of ``pool`` to ``x``.

    Every feature is numeric here, so this is the L2 norm of the
    range-normalized absolute differences over non-constant features.
    """
    pool = np.atleast_2d(np.asarray(pool, dtype=np.float64))
    x = np.asarray(x, dtype=np.float64)
    _check(ranges, pool, x)
    num = ranges.active
    terms = np.abs(pool[:, num] - x[num]) / ranges.widths[num]
    return np.sqrt((terms * terms).sum(axis=1))


def k_nearest(query, pool, metric: str, k: int, ranges: RangeTable) -> list[tuple[int, float]]:
    """Exact k-nearest rows of ``pool`` to ``query``, sorted by ascending distance.

    Linear scan; ties are broken toward the lower pool index so results are
    deterministic.
    """
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}; expected one of {METRICS}")
    pool = np.atleast_2d(np.asarray(pool, dtype=np.float64))
    if pool.shape[0] == 0:
        raise ValueError("pool is empty")
    if not 1 <= k <= pool.shape[0]:
        raise ValueError(f"k={k} out of range for pool of {pool.shape[0]}")
    dist = gower_many(pool, query, ranges) if metric == GOWER else heom_many(pool, query, ranges)
    order = np.argsort(dist, kind="stable")[:k]
    return [(int(i), float(dist[i])) for i in order]
