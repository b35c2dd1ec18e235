import math

import numpy as np
import pytest

from cfbench.distance import GOWER, HEOM, RangeTable, gower, gower_many, heom_many, k_nearest


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
