import math

import numpy as np
import pytest

from cfbench import distance
from cfbench.distance import (
    GOWER,
    HEOM,
    GowerColumns,
    RangeTable,
    gower,
    gower_cross,
    gower_many,
    heom_many,
    k_nearest,
)


def rt(*widths):
    return RangeTable(np.asarray(widths, dtype=float))


def brute_gower(a, b, widths):
    """Independent oracle: plain loop over features."""
    total, active = 0.0, 0
    for j, w in enumerate(widths):
        if w > 0:
            total += min(abs(a[j] - b[j]) / w, 1.0)
            active += 1
    return total / active


def brute_heom(a, b, widths):
    """Independent oracle: L2 norm of the range-normalized differences."""
    return math.sqrt(sum(((a[j] - b[j]) / w) ** 2 for j, w in enumerate(widths) if w > 0))


def brute_knn(query, pool, widths, k):
    scored = [(brute_gower(query, row, widths), i) for i, row in enumerate(pool)]
    scored.sort(key=lambda t: (t[0], t[1]))
    return [(i, d) for d, i in scored[:k]]


class TestGower:
    def test_identity(self):
        a = np.array([1.0, 2.0])
        assert gower(a, a, rt(10, 10)) == 0.0

    def test_hand_value(self):
        assert gower([0, 5], [5, 5], rt(10, 10)) == pytest.approx(0.25)

    def test_zero_width_excluded(self):
        # second feature has zero width: excluded, so p' = 1
        assert gower([0, 1], [10, 9], rt(10, 0)) == pytest.approx(1.0)

    def test_out_of_range_clamped(self):
        # per-feature terms cap at 1, keeping the metric in [0, 1]
        assert gower([0.0], [25.0], rt(10)) == 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            gower([1.0], [1.0, 2.0], rt(1, 1))

    def test_all_zero_widths(self):
        with pytest.raises(ValueError, match="zero width"):
            gower([1.0], [2.0], rt(0))

    def test_symmetry_and_bounds_random(self):
        rng = np.random.default_rng(7)
        widths = rng.uniform(0.5, 4.0, size=8)
        table = RangeTable(widths)
        for _ in range(1000):
            a = rng.uniform(0, 4, size=8)
            b = rng.uniform(0, 4, size=8)
            d_ab = gower(a, b, table)
            assert d_ab == gower(b, a, table)
            assert 0.0 <= d_ab <= 1.0
            assert gower(a, b, table) == pytest.approx(brute_gower(a, b, widths))

    def test_zero_iff_equal_on_active(self):
        table = rt(5, 0, 5)
        assert gower([1, 0, 2], [1, 9, 2], table) == 0.0
        assert gower([1, 0, 2], [1.5, 0, 2], table) > 0.0


def heom(a, b, table):
    """HEOM between two instances, through the pool kernel with a one-row pool."""
    return float(heom_many(np.asarray(b, dtype=float)[None, :], a, table)[0])


class TestHeom:
    def test_identity(self):
        a = np.array([3.0, 4.0])
        assert heom(a, a, rt(5, 5)) == 0.0

    def test_hand_sqrt2(self):
        assert heom([0, 0], [10, 10], rt(10, 10)) == pytest.approx(math.sqrt(2))

    def test_hand_half(self):
        assert heom([3.0], [8.0], rt(10)) == pytest.approx(0.5)

    def test_triangle_inequality_random(self):
        rng = np.random.default_rng(11)
        table = RangeTable(rng.uniform(0.5, 3.0, size=5))
        for _ in range(500):
            a, b, c = rng.uniform(0, 3, size=(3, 5))
            assert heom(a, c, table) <= heom(a, b, table) + heom(b, c, table) + 1e-12


class TestKNearest:
    def test_self_match(self):
        q = np.array([1.0, 2.0])
        assert k_nearest(q, [q], GOWER, 1, rt(1, 1)) == [(0, 0.0)]

    def test_hand_computed_order(self):
        table = rt(10, 10)
        q = np.array([0.0, 0.0])
        pool = [np.array([4.0, 4.0]), np.array([1.0, 1.0]), np.array([7.0, 7.0])]
        # gower distances 0.4, 0.1, 0.7
        assert k_nearest(q, pool, GOWER, 2, table) == [(1, pytest.approx(0.1)), (0, pytest.approx(0.4))]

    def test_tie_breaks_to_lower_index(self):
        table = rt(10)
        q = np.array([5.0])
        pool = [np.array([7.0]), np.array([3.0])]  # both at distance 0.2
        assert [i for i, _ in k_nearest(q, pool, GOWER, 2, table)] == [0, 1]

    def test_errors(self):
        table = rt(1)
        with pytest.raises(ValueError, match="empty"):
            k_nearest(np.array([0.0]), np.empty((0, 1)), GOWER, 1, table)
        with pytest.raises(ValueError, match="out of range"):
            k_nearest(np.array([0.0]), [np.array([1.0])], GOWER, 2, table)
        with pytest.raises(ValueError, match="unknown metric"):
            k_nearest(np.array([0.0]), [np.array([1.0])], "cosine", 1, table)

    def test_full_k_is_permutation(self):
        rng = np.random.default_rng(3)
        table = RangeTable(rng.uniform(1, 2, size=4))
        pool = rng.uniform(0, 2, size=(30, 4))
        got = k_nearest(rng.uniform(0, 2, size=4), pool, HEOM, 30, table)
        assert sorted(i for i, _ in got) == list(range(30))
        dists = [d for _, d in got]
        assert dists == sorted(dists)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(23)
        widths = rng.uniform(0.5, 5.0, size=6)
        widths[2] = 0.0  # one constant feature in the mix
        table = RangeTable(widths)
        pool = rng.uniform(0, 5, size=(40, 6))
        for _ in range(500):
            q = rng.uniform(0, 5, size=6)
            k = int(rng.integers(1, 41))
            got = k_nearest(q, pool, GOWER, k, table)
            want = brute_knn(q, pool, widths, k)
            assert [i for i, _ in got] == [i for i, _ in want]
            for (_, dg), (_, dw) in zip(got, want):
                assert dg == pytest.approx(dw, abs=1e-12)


class TestVectorizedHelpers:
    def test_many_matches_scalar(self):
        rng = np.random.default_rng(5)
        table = RangeTable(rng.uniform(0.5, 2, size=3))
        pool = rng.uniform(0, 2, size=(10, 3))
        x = rng.uniform(0, 2, size=3)
        np.testing.assert_allclose(
            gower_many(pool, x, table), [gower(row, x, table) for row in pool]
        )
        np.testing.assert_allclose(
            heom_many(pool, x, table), [brute_heom(row, x, table.widths) for row in pool]
        )


def loop_gower_cross(rows, others, ranges):
    """Reference: the per-feature loop over full (rows, others) buffers that
    the column-code kernel replaced; the kernel must equal it bit for bit."""
    rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
    others = np.atleast_2d(np.asarray(others, dtype=np.float64))
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


def count_rows(rng, n, p):
    """Click-count-like rows: few distinct integers per column, duplicate rows."""
    rows = rng.integers(0, 12, size=(n, p)).astype(float)
    return rows[rng.integers(0, n, size=n)]


def expanded(cols):
    """The rows that ``cols`` codes, transposed: each distinct row's values
    looked up by key, repeated through ``inverse`` when some row repeats."""
    values = cols.flat[cols.keys]
    return values if cols.inverse is None else values[:, cols.inverse]


class TestGowerCross:
    def table(self, rng, p):
        widths = rng.uniform(2.0, 12.0, size=p)
        widths[1] = 0.0  # one zero-width feature
        return RangeTable(widths)

    def test_matches_loop_on_counts_and_reals(self):
        rng = np.random.default_rng(41)
        table = self.table(rng, 7)
        others = count_rows(rng, 90, 7)
        others[:, 3] += rng.normal(0.0, 0.3, size=90)  # a non-integer column
        rows = np.vstack([
            count_rows(rng, 30, 7),
            rng.uniform(-30.0, 40.0, size=(20, 7)),  # far outside the ranges: terms cap at 1
            others[:5],  # rows equal to rows of others
        ])
        got = gower_cross(rows, others, table)
        assert np.array_equal(got, loop_gower_cross(rows, others, table))
        assert got.shape == (55, 90)
        assert got.max() <= 1.0 and (got[30:50] > 0.5).any()

    def test_block_boundary_row_counts(self):
        rng = np.random.default_rng(43)
        table = self.table(rng, 5)
        others = count_rows(rng, 400, 5)
        step = max(1, distance._CROSS_BLOCK // others.shape[0])
        assert step > 2
        for m in (1, step - 1, step, step + 1, 2 * step + 3):
            rows = rng.uniform(-2.0, 14.0, size=(m, 5)).round(1)
            got = gower_cross(rows, others, table)
            assert np.array_equal(got, loop_gower_cross(rows, others, table)), m

    def test_single_other_row(self):
        rng = np.random.default_rng(47)
        table = self.table(rng, 4)
        rows = rng.uniform(0.0, 12.0, size=(9, 4))
        for other in (rows[3], rows[3:4]):
            got = gower_cross(rows, other, table)
            assert got.shape == (9, 1)
            assert np.array_equal(got, loop_gower_cross(rows, other, table))
        assert gower_cross(rows, rows[3], table)[3, 0] == 0.0

    def test_prepared_columns_equal_raw_array(self):
        rng = np.random.default_rng(53)
        table = self.table(rng, 6)
        others = count_rows(rng, 120, 6)
        cols = GowerColumns.of(others)
        assert cols.shape == others.shape
        assert np.array_equal(expanded(cols), others.T)
        rows = count_rows(rng, 40, 6)
        assert np.array_equal(gower_cross(rows, cols, table), gower_cross(rows, others, table))

    @pytest.mark.parametrize("seed", range(6))
    def test_columns_match_per_column_unique(self, seed):
        """The distinct values from one sort of all columns equal `np.unique`
        column by column, and the keys rebuild the rows, on tie-heavy columns
        with -0.0 and 0.0 (one value)."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 60))
        others = np.column_stack([
            rng.integers(0, 3, size=n).astype(float),
            rng.choice([-0.0, 0.0, 1.5], size=n),
            np.full(n, 2.0),
            rng.choice([1.0, 1.0 + 2.0 ** -52, -1.0], size=n),
            rng.normal(size=n),
        ])
        cols = GowerColumns.of(others)
        for j in range(others.shape[1]):
            # -0.0 == 0.0
            assert np.array_equal(cols.flat[cols.column == j], np.unique(others[:, j]))
        assert cols.shape == others.shape
        assert np.array_equal(expanded(cols), others.T)
        table = self.table(rng, 5)
        rows = np.vstack([others[:3], rng.uniform(-3.0, 3.0, size=(4, 5)), [[0.0] * 5]])
        assert np.array_equal(gower_cross(rows, cols, table), loop_gower_cross(rows, others, table))

    def test_tile_boundary_distinct_rows(self):
        """Distinct rows of others one short of, at and one past a tile."""
        rng = np.random.default_rng(59)
        table = self.table(rng, 4)
        rows = rng.uniform(-2.0, 14.0, size=(10, 4))
        tile = distance._CROSS_BLOCK // rows.shape[0]
        for m in (tile - 1, tile, tile + 1):
            others = rng.uniform(0.0, 12.0, size=(m, 4))
            cols = GowerColumns.of(others)
            assert cols.inverse is None and cols.keys.shape == (4, m)
            got = gower_cross(rows, cols, table)
            assert np.array_equal(got, loop_gower_cross(rows, others, table)), m
            # the same distinct rows, each repeated, so the copies cross tiles too
            doubled = others[rng.permutation(np.repeat(np.arange(m), 2))]
            got = gower_cross(rows, doubled, table)
            assert np.array_equal(got, loop_gower_cross(rows, doubled, table)), m

    def test_term_table_in_several_blocks(self, monkeypatch):
        rng = np.random.default_rng(61)
        table = self.table(rng, 5)
        others = count_rows(rng, 150, 5)
        cols = GowerColumns.of(others)
        monkeypatch.setattr(distance, "_TABLE_CELLS", 3 * cols.flat.size)
        for m in (1, 2, 3, 4, 9):  # blocks of 3 rows: one short, at, past, several
            rows = rng.uniform(-2.0, 14.0, size=(m, 5)).round(1)
            got = gower_cross(rows, cols, table)
            assert np.array_equal(got, loop_gower_cross(rows, others, table)), m
        monkeypatch.setattr(distance, "_TABLE_CELLS", 1)  # one row per block
        rows = count_rows(rng, 7, 5)
        assert np.array_equal(gower_cross(rows, cols, table), loop_gower_cross(rows, others, table))

    @pytest.mark.parametrize("values", [12, 1000])
    def test_duplicate_rows_coded_once(self, values):
        """A duplicate-heavy row set: each distinct row is summed once, its
        copies get its distances, and the shape keeps every row. A column of
        more than 256 distinct values has codes wider than one byte."""
        rng = np.random.default_rng(values)
        table = self.table(rng, 6)
        others = count_rows(rng, 400, 6)
        others[:, 4] = rng.integers(0, values, size=400)
        others = others[rng.permutation(np.r_[np.arange(400), rng.integers(0, 400, size=100)])]
        cols = GowerColumns.of(others)
        distinct = np.unique(others, axis=0)
        assert cols.shape == others.shape == (500, 6)
        assert cols.keys.shape == (6, len(distinct)) and cols.inverse.shape == (500,)
        first = np.unique(cols.inverse, return_index=True)[1]  # one row per distinct row
        assert (np.diff(first) > 0).all() and (cols.inverse <= np.arange(500)).all()
        assert np.array_equal(expanded(cols), others.T)
        assert np.array_equal(cols.flat[cols.keys], others[first].T)
        rows = np.vstack([others[:4], rng.uniform(-3.0, 14.0, size=(30, 6))])
        got = gower_cross(rows, cols, table)
        assert np.array_equal(got, loop_gower_cross(rows, others, table))
        for i in range(500):
            copies = np.flatnonzero((others == others[i]).all(axis=1))
            assert (got[:, copies] == got[:, [i]]).all()

    @pytest.mark.parametrize("seed", range(5))
    def test_many_rows_sum_as_cross_does(self, seed):
        """Multi-row `gower_many` adds the active features' terms one after
        another in ascending order, as `gower_cross` does, so a batch of
        nearest-row distances through prepared columns equals one scan per
        row bit for bit. Enough real-valued features that a pairwise sum
        would differ, repeated rows, and several zero-width features."""
        rng = np.random.default_rng(80 + seed)
        p = int(rng.integers(9, 45))
        widths = rng.uniform(0.5, 12.0, size=p)
        widths[rng.choice(p, size=3, replace=False)] = 0.0
        table = RangeTable(widths)
        n = int(rng.integers(2, 300))
        others = rng.uniform(-1.0, 13.0, size=(n, p))
        others[:, : p // 2] = count_rows(rng, n, p // 2)
        others = others[rng.integers(0, n, size=n + 20)]  # repeated rows
        rows = np.vstack([others[:3], rng.uniform(-3.0, 15.0, size=(int(rng.integers(1, 40)), p))])
        many = np.array([gower_many(others, v, table) for v in rows])
        cross = gower_cross(rows, GowerColumns.of(others), table)
        assert np.array_equal(cross, many)
        assert np.array_equal(cross.min(axis=1), [gower_many(others, v, table).min() for v in rows])

    def test_errors(self):
        with pytest.raises(ValueError, match="dimension"):
            gower_cross(np.zeros((2, 3)), np.zeros((4, 2)), rt(1, 1))
        with pytest.raises(ValueError, match="dimension"):
            gower_cross(np.zeros((2, 3)), GowerColumns.of(np.zeros((4, 2))), rt(1, 1, 1))
        with pytest.raises(ValueError, match="zero width"):
            gower_cross(np.zeros((2, 2)), np.ones((3, 2)), rt(0, 0))
