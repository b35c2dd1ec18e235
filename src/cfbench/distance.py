"""Range-normalized distance kernels (Gower, HEOM) and exact k-nearest-neighbor
search. All functions are pure over immutable inputs.

Feature ranges come from a :class:`RangeTable`, normally built once from the
training split and reused everywhere so that distances stay comparable when
the training composition changes under resampling. Zero-width (constant)
features contribute nothing to any distance. For Gower, values outside the
table's range cap their per-feature term at 1, keeping the metric in [0, 1].

Pairwise Gower distances to a fixed row set go through :class:`GowerColumns`,
which codes each column by its distinct values and keeps each distinct row
once: the click-count features repeat a few dozen values over thousands of
rows, and an oversampled training split repeats whole rows. `gower_cross`
computes one table of capped terms, every distinct value of every column
against a block of rows, then sums each distinct row's terms tile by tile and
copies the sums to every row that repeats it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

GOWER = "gower"
HEOM = "heom"
METRICS = (GOWER, HEOM)
_CROSS_BLOCK = 40_000  # gower_cross accumulator cells per tile of distinct rows
_TABLE_CELLS = 1 << 18  # gower_cross term-table cells per block of rows


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

    ``flat`` lays every column's sorted distinct values end to end, and
    ``column`` names the column of each. ``keys`` holds one (p,) column of
    indices into ``flat`` per distinct row, in order of first occurrence, and
    ``inverse`` maps each row to its distinct row, so ``inverse[i] <= i``; it
    is None when no row repeats, and then ``keys`` follows the rows. So
    ``flat[keys]``, expanded through ``inverse``, is the rows transposed.
    ``shape`` is that of the rows, repeats included. Build it once with `of`
    and reuse it across calls.
    """

    flat: np.ndarray  # (D,) every column's distinct values, column by column
    column: np.ndarray  # (D,) intp
    keys: np.ndarray  # (p, m) intp, m distinct rows
    inverse: np.ndarray | None  # (n,) intp

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
        flat = ordered[starts]
        del ordered
        flat.setflags(write=False)
        sizes = starts.sum(axis=1)
        widest = int(sizes.max(initial=0))
        offsets = np.zeros(p, dtype=np.intp)
        np.cumsum(sizes[:-1], out=offsets[1:])
        ranks = starts.cumsum(axis=1, dtype=np.int32)
        ranks -= 1
        del starts
        # row-major and as narrow as the codes allow, so that each row's codes
        # are one short byte string
        coded = np.empty((n, p), dtype=np.min_scalar_type(max(widest - 1, 0)))
        at *= p
        at += np.arange(p)[:, None]  # flat positions in coded
        coded.ravel()[at] = ranks
        del at, ranks
        distinct, inverse = coded, None
        if 0 < widest < n:  # else one column alone tells every row apart
            as_bytes = coded.view(np.dtype((np.void, coded.itemsize * p))).ravel()
            _, first, found = np.unique(as_bytes, return_index=True, return_inverse=True)
            if first.size < n:
                # number the distinct rows by first occurrence: inverse[i] <= i
                order = first.argsort()
                rank = np.empty_like(order)
                rank[order] = np.arange(order.size)
                distinct = coded[first[order]]
                inverse = rank[found]
                inverse.setflags(write=False)
        keys = np.ascontiguousarray(distinct.T, dtype=np.intp)
        keys += offsets[:, None]
        keys.setflags(write=False)
        column = np.repeat(np.arange(p), sizes)
        column.setflags(write=False)
        return cls(flat, column, keys, inverse)

    @property
    def shape(self) -> tuple[int, int]:
        p, m = self.keys.shape
        return (m if self.inverse is None else self.inverse.size, p)


def gower_cross(rows, others, ranges: RangeTable) -> np.ndarray:
    """Pairwise Gower distances, shape (len(rows), len(others)).

    ``others`` is an array or a prepared `GowerColumns`. ``rows`` is walked in
    blocks sized so that the block's term table stays within
    ``_TABLE_CELLS``: the capped term of every distinct value of every column
    against every row of the block, computed once. The distinct rows of
    ``others`` are then walked in tiles whose (tile, block) sums stay within
    ``_CROSS_BLOCK`` cells. Each tile gathers the active features' terms by
    key and adds them in ascending feature order, so each distance sums the
    same terms in the same order as a plain per-pair loop (the first term is
    copied, which equals 0.0 plus it). The sums fill the first columns of the
    result, one per distinct row, and are then copied out to every row.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    if not isinstance(others, GowerColumns):
        others = GowerColumns.of(others)
    _check(ranges, rows, others)
    active = np.flatnonzero(ranges.active)
    first, *rest = active.tolist()
    keys, inverse = others.keys, others.inverse
    m = keys.shape[1]
    n = others.shape[0]
    # a zero-width column's terms are never gathered; 1.0 keeps them finite
    widths = np.where(ranges.active, ranges.widths, 1.0)[others.column, None]
    step = max(1, _TABLE_CELLS // max(others.flat.size, 1))
    out = np.empty((rows.shape[0], n))
    for start in range(0, rows.shape[0], step):
        block = rows[start:start + step]
        b = block.shape[0]
        table = block.T.take(others.column, axis=0)
        np.subtract(others.flat[:, None], table, out=table)
        np.abs(table, out=table)
        table /= widths
        np.minimum(table, 1.0, out=table)
        tile = max(1, _CROSS_BLOCK // b)
        buf = np.empty((2, min(tile, m), b))
        for lo in range(0, m, tile):
            tile_keys = keys[:, lo:lo + tile]
            width = tile_keys.shape[1]
            acc, part = buf[:, :width]
            # keys are always in range; the default "raise" mode would buffer out
            table.take(tile_keys[first], axis=0, out=acc, mode="clip")
            for j in rest:
                table.take(tile_keys[j], axis=0, out=part, mode="clip")
                acc += part
            out[start:start + b, lo:lo + width] = acc.T
        del table  # before the next block's table
    if inverse is not None:
        # from the last row down, so that no column is overwritten before
        # the rows at or after it have read it (inverse[i] <= i)
        span = max(1, _CROSS_BLOCK // max(rows.shape[0], 1))
        for hi in range(n, 0, -span):
            lo = max(0, hi - span)
            out[:, lo:hi] = out[:, inverse[lo:hi]]
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
