"""Range-normalized distance kernels (Gower, HEOM) and exact k-nearest-neighbor
search. All functions are pure over immutable inputs.

Feature ranges come from a :class:`RangeTable`, normally built once from the
training split and reused everywhere so that distances stay comparable when
the training composition changes under resampling. Zero-width (constant)
features contribute nothing to any distance. For Gower, values outside the
table's range cap their per-feature term at 1, keeping the metric in [0, 1].

Pairwise Gower distances to a fixed row set go through :class:`GowerColumns`,
which codes each column by its distinct values: the click-count features
repeat a few dozen values over thousands of rows, so `gower_cross` computes a
per-feature term once per distinct value and gathers it by code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

GOWER = "gower"
HEOM = "heom"
METRICS = (GOWER, HEOM)
_CROSS_BLOCK = 40_000  # gower_cross accumulator cells per block of rows


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
    return float(gower_many(np.asarray(a, dtype=np.float64)[None], b, ranges)[0])


def gower_many(pool, x, ranges: RangeTable) -> np.ndarray:
    """Gower distance from each row of ``pool`` to ``x``."""
    pool = np.atleast_2d(np.asarray(pool, dtype=np.float64))
    x = np.asarray(x, dtype=np.float64)
    _check(ranges, pool, x)
    act = ranges.active
    terms = np.minimum(np.abs(pool[:, act] - x[act]) / ranges.widths[act], 1.0)
    return terms.sum(axis=1) / act.sum()


@dataclass(frozen=True)
class GowerColumns:
    """A fixed row set coded per feature for `gower_cross`.

    ``values[j]`` holds the sorted distinct values of column j and
    ``codes[j]`` each row's index into them, so ``values[j][codes[j]]`` is the
    column. Build it once with `of` and reuse it across calls.
    """

    values: tuple[np.ndarray, ...]
    codes: np.ndarray  # (p, n) intp

    @classmethod
    def of(cls, rows) -> "GowerColumns":
        rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
        n, p = rows.shape
        # one sort of all columns, as rows of the transpose: a sorted value
        # that differs from the one before starts a new code. Each temporary
        # goes once used, since the row set can be the whole training split
        at = rows.T.argsort(axis=1)
        ordered = np.take_along_axis(rows.T, at, axis=1)
        starts = np.ones((p, n), dtype=bool)
        starts[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
        values = []
        for v, new in zip(ordered, starts):
            v = v[new]
            v.setflags(write=False)
            values.append(v)
        del ordered
        at += np.arange(p)[:, None] * n  # flat positions in codes
        ranks = starts.cumsum(axis=1, dtype=np.int32)
        ranks -= 1
        codes = np.empty(p * n, dtype=np.intp)
        codes[at] = ranks
        codes = codes.reshape(p, n)
        codes.setflags(write=False)
        return cls(tuple(values), codes)

    @property
    def shape(self) -> tuple[int, int]:
        return self.codes.shape[::-1]


def gower_cross(rows, others, ranges: RangeTable) -> np.ndarray:
    """Pairwise Gower distances, shape (len(rows), len(others)).

    ``others`` is an array or a prepared `GowerColumns`. ``rows`` is walked in
    blocks sized so one (len(others), block) accumulator stays small. Per
    active feature, in ascending order, the capped terms between the block and
    that column's distinct values are computed once and gathered to every
    other row by code, so each distance sums the same terms in the same order
    as a plain per-pair loop.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    if not isinstance(others, GowerColumns):
        others = GowerColumns.of(others)
    _check(ranges, rows, others)
    active = np.flatnonzero(ranges.active)
    n = others.shape[0]
    step = max(1, _CROSS_BLOCK // max(n, 1))
    out = np.empty((rows.shape[0], n))
    for start in range(0, rows.shape[0], step):
        block = rows[start:start + step]
        acc = np.zeros((n, block.shape[0]))
        buf = np.empty_like(acc)
        for j in active:
            terms = np.abs(others.values[j][:, None] - block[None, :, j])
            terms /= ranges.widths[j]
            np.minimum(terms, 1.0, out=terms)
            # codes are always in range; the default "raise" mode would buffer out
            np.take(terms, others.codes[j], axis=0, out=buf, mode="clip")
            acc += buf
        out[start:start + step] = acc.T
    out /= active.size
    return out


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
