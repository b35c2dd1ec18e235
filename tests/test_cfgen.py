import json

import numpy as np
import pytest

from cfbench import cfgen
from cfbench.balance import ClassWeights, random_oversample
from cfbench.cfgen import (
    NICE_PR,
    NICE_SP,
    PROXIMITY,
    SPARSITY,
    WHATIF,
    CfRequest,
    MocConfig,
    MocObjectives,
    moc,
    nice,
    objectives,
    whatif,
    write_counterfactuals,
)
from cfbench.dataset import FAIL, PASS, LabeledDataset
from cfbench.distance import GowerColumns, RangeTable, gower
from cfbench.forest import Hyperparams, fit_forest

from conftest import StubModel
from synth import make_blobs, make_week_frame
from test_distance import loop_gower_cross


def dataset(rows, labels):
    return LabeledDataset.from_arrays(np.asarray(rows, dtype=float), labels)


def request_for(x, train, mutable=None):
    return CfRequest.for_instance(np.asarray(x, dtype=float), train, mutable=mutable)


def brute_gower(a, b, widths):
    total, active = 0.0, 0
    for j, w in enumerate(widths):
        if w > 0:
            total += min(abs(a[j] - b[j]) / w, 1.0)
            active += 1
    return total / active


def objectives_of(x, cand, model, train):
    """The merged MOC objective function on a one-row candidate block."""
    obj, _ = objectives(np.asarray(x, dtype=float), np.asarray(cand, dtype=float)[None, :],
                        model, train, request_for(x, train).ranges(),
                        GowerColumns.of(train.features))
    return MocObjectives(*obj[0])


class TestObjectives:
    def test_identity_candidate(self):
        train = dataset([[0, 0], [1, 1], [2, 2]], [FAIL, PASS, PASS])
        model = StubModel(lambda r: 1.0 if r[0] < 1 else 0.0, p=2)
        x = np.array([0.0, 0.0])
        obj = objectives_of(x, x, model, train)
        assert obj.o_p == 0.0 and obj.o_s == 0
        assert obj.o_v > 0.0

    def test_changed_feature_count(self):
        train = dataset([[0, 0, 0], [1, 1, 1]], [FAIL, PASS])
        model = StubModel(lambda r: 0.0, p=3)
        obj = objectives_of(np.zeros(3), np.array([1.0, 2.0, 3.0]), model, train)
        assert obj.o_s == 3
        assert obj.o_v == 0.0

    def test_plausibility_against_brute_force(self):
        rng = np.random.default_rng(4)
        rows = rng.uniform(0, 10, size=(20, 3))
        train = dataset(rows, [PASS] * 10 + [FAIL] * 10)
        model = StubModel(lambda r: 0.0, p=3)
        widths = rows.max(0) - rows.min(0)
        cand = rows[7]  # a real training instance: itself contributes 0
        dists = sorted(brute_gower(cand, row, widths) for row in rows)
        expected = sum(dists[:5]) / 5
        obj = objectives_of(rng.uniform(0, 10, size=3), cand, model, train)
        assert obj.o_pl == pytest.approx(expected)
        assert dists[0] == 0.0

    def test_dimension_mismatch(self):
        train = dataset([[0, 0], [1, 1]], [FAIL, PASS])
        model = StubModel(lambda r: 0.0, p=2)
        with pytest.raises(ValueError, match="dimension"):
            objectives_of(np.zeros(3), np.zeros(2), model, train)

    def test_plausibility_counts_each_copy_of_a_row(self):
        """A training row present 3 times fills 3 of the 5 nearest places."""
        near, others = [1.0, 1.0], [[3.0, 1.0], [1.0, 4.0], [6.0, 6.0], [9.0, 0.0]]
        rows = np.array([near, others[0], near, others[1], near, others[2], others[3]])
        train = dataset(rows, [FAIL, PASS] * 3 + [PASS])
        model = StubModel(lambda r: 0.0, p=2)
        x, cand = np.zeros(2), np.array([1.0, 2.0])
        ranges = request_for(x, train).ranges()
        dists = sorted(brute_gower(cand, row, ranges.widths) for row in rows)
        assert dists[:3] == [brute_gower(cand, near, ranges.widths)] * 3
        expected = sum(dists[:5]) / 5
        columns = GowerColumns.of(train.features)
        assert columns.keys.shape[1] == 5
        obj, _ = objectives(x, cand[None, :], model, train, ranges, columns)
        assert MocObjectives(*obj[0]).o_pl == pytest.approx(expected)

    def test_columns_of_other_rows_rejected(self):
        train = dataset([[0, 0], [1, 1], [2, 3]], [FAIL, PASS, PASS])
        model = StubModel(lambda r: 0.0, p=2)
        x = np.zeros(2)
        ranges = request_for(x, train).ranges()
        for rows in (train.features[:2], train.features[:, :1]):
            with pytest.raises(ValueError, match="shape"):
                objectives(x, x[None, :], model, train, ranges, GowerColumns.of(rows))


def whatif_oracle(req, model, pool, k, widths):
    """Independent filter + sort implementation."""
    scored = []
    for i in range(pool.n):
        row = pool.features[i]
        if model.predict_proba(row) < 0.5:
            scored.append((brute_gower(req.x, row, widths), i))
    scored.sort(key=lambda t: (t[0], t[1]))
    return [i for _, i in scored[:k]]


class TestWhatif:
    def setup_method(self):
        self.model = StubModel(lambda r: 1.0 if r.sum() < 4 else 0.0, p=2)

    def test_single_candidate(self):
        pool = dataset([[0, 0], [1, 1], [5, 5]], [FAIL, FAIL, PASS])
        req = request_for([0, 0], pool)
        out = whatif(req, self.model, pool, k=1)
        assert len(out) == 1
        np.testing.assert_array_equal(out[0].values, [5, 5])
        assert out[0].method == WHATIF

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(9)
        rows = rng.uniform(0, 8, size=(30, 2))
        pool = dataset(rows, [PASS if r.sum() >= 4 else FAIL for r in rows])
        widths = rows.max(0) - rows.min(0)
        for _ in range(50):
            x = rng.uniform(0, 3.9, size=2)
            if self.model.predict_proba(x) < 0.5:
                continue
            req = request_for(x, pool)
            k = int(rng.integers(1, 6))
            got = whatif(req, self.model, pool, k=k)
            want = whatif_oracle(req, self.model, pool, k, widths)
            assert [cf.generation_meta["pool_index"] for cf in got] == want

    def test_sorted_ascending_and_valid(self):
        rng = np.random.default_rng(13)
        rows = rng.uniform(0, 8, size=(40, 2))
        pool = dataset(rows, [PASS if r.sum() >= 4 else FAIL for r in rows])
        req = request_for([1.0, 1.0], pool)
        out = whatif(req, self.model, pool, k=8)
        dists = [cf.generation_meta["distance"] for cf in out]
        assert dists == sorted(dists)
        for cf in out:
            assert self.model.predict_proba(cf.values) < 0.5

    def test_shortfall_error_names_counts(self):
        pool = dataset([[0, 0], [1, 1], [5, 5]], [FAIL, FAIL, PASS])
        req = request_for([0, 0], pool)
        with pytest.raises(ValueError, match="needs 2.*has 1"):
            whatif(req, self.model, pool, k=2)

    def test_immutable_features_respected(self):
        pool = dataset([[5, 0], [5, 9], [6, 0], [0, 0]], [PASS, PASS, PASS, FAIL])
        req = request_for([0.0, 0.0], pool, mutable=np.array([True, False]))
        out = whatif(req, self.model, pool, k=2)
        for cf in out:
            assert cf.values[1] == 0.0


class TestNiceHandTraces:
    def test_single_copy_flip(self):
        """pass iff f1 >= 1: one copy of f1 flips; both reward modes agree."""
        model = StubModel(lambda r: 0.0 if r[0] >= 1 else 1.0, p=2)
        train = dataset([[1, 1], [0, 0]], [PASS, FAIL])
        req = request_for([0, 0], train)
        for reward in (SPARSITY, PROXIMITY):
            cf = nice(req, model, train, reward)
            np.testing.assert_array_equal(cf.values, [1, 0])
            assert cf.generation_meta["copied_features"] == [0]
            assert cf.generation_meta["nun_index"] == 0

    def test_and_model_copies_both_with_tie_breaks(self):
        """pass iff f1 >= 1 and f2 >= 1: zero-gain tie resolves to the lower index."""
        model = StubModel(lambda r: 0.0 if (r[0] >= 1 and r[1] >= 1) else 1.0, p=2)
        train = dataset([[1, 1], [0, 0], [0.5, 0.5]], [PASS, FAIL, FAIL])
        req = request_for([0, 0], train)
        cf = nice(req, model, train, SPARSITY)
        np.testing.assert_array_equal(cf.values, [1, 1])  # reaches the anchor itself
        assert cf.generation_meta["copied_features"] == [0, 1]

    def test_additive_gains_greedy_order(self):
        """p(pass) = .4 [f1>=1] + .3 [f2>=1] + .3 [f3>=1]: f1 first, then the f2/f3 tie."""

        def p_fail(r):
            return 1.0 - (0.4 * (r[0] >= 1) + 0.3 * (r[1] >= 1) + 0.3 * (r[2] >= 1))

        model = StubModel(p_fail, p=3)
        train = dataset([[1, 1, 1], [0, 0, 0]], [PASS, FAIL])
        req = request_for([0, 0, 0], train)
        cf = nice(req, model, train, SPARSITY)
        np.testing.assert_array_equal(cf.values, [1, 1, 0])
        assert cf.generation_meta["copied_features"] == [0, 1]

    def test_reward_modes_diverge_on_cost(self):
        """Sparsity takes the bigger gain; proximity takes the cheaper copy."""

        def p_fail(r):
            return 1.0 - min(1.0, 0.55 * (r[0] >= 5) + 0.52 * (r[1] >= 1))

        model = StubModel(p_fail, p=2)
        # ranges: f1 width 5, f2 width 100, so copying f2 is 100x cheaper
        train = dataset([[5, 1], [0, 0], [0, 100]], [PASS, FAIL, FAIL])
        req = request_for([0, 0], train)
        cf_sp = nice(req, model, train, SPARSITY)
        np.testing.assert_array_equal(cf_sp.values, [5, 0])
        assert cf_sp.generation_meta["copied_features"] == [0]
        cf_pr = nice(req, model, train, PROXIMITY)
        np.testing.assert_array_equal(cf_pr.values, [0, 1])
        assert cf_pr.generation_meta["copied_features"] == [1]
        assert cf_sp.method == NICE_SP and cf_pr.method == NICE_PR

    def test_immutable_feature_never_copied(self):
        """The anchor passes via f3, but f3 is frozen: the AND route must be taken."""

        def p_fail(r):
            return 0.0 if (r[2] >= 1 or (r[0] >= 1 and r[1] >= 1)) else 1.0

        model = StubModel(p_fail, p=3)
        train = dataset([[1, 1, 1], [0, 0, 0]], [PASS, FAIL])
        req = request_for([0, 0, 0], train, mutable=np.array([True, True, False]))
        cf = nice(req, model, train, SPARSITY)
        np.testing.assert_array_equal(cf.values, [1, 1, 0])
        assert cf.generation_meta["copied_features"] == [0, 1]
        assert cf.values[2] == 0.0

    def test_nun_pool_excludes_misclassified_pass(self):
        """A pass-labeled row predicted fail cannot anchor the search."""
        model = StubModel(lambda r: 0.0 if r[0] >= 2 else 1.0, p=2)
        train = dataset(
            [[3, 0], [2, 0], [1.9, 0], [0, 0]],
            [PASS, PASS, PASS, FAIL],  # the 1.9 row is misclassified
        )
        req = request_for([0, 0], train)
        cf = nice(req, model, train, SPARSITY)
        assert cf.generation_meta["nun_index"] == 1  # (2, 0): nearest correctly-predicted pass
        np.testing.assert_array_equal(cf.values, [2, 0])

    def test_no_anchor_error(self):
        model = StubModel(lambda r: 1.0, p=2)
        train = dataset([[0, 0], [1, 1]], [FAIL, PASS])
        req = request_for([0, 0], train)
        with pytest.raises(ValueError, match="no correctly predicted pass"):
            nice(req, model, train, SPARSITY)

    def test_result_values_come_from_x_or_anchor(self):
        ds = make_blobs(n=60, p=4, seed=3)
        model = StubModel(lambda r: 1.0 if r.sum() < 4 else 0.0, p=4)
        x = ds.features[int(np.argmax(model.predict_proba_batch(ds.features)))]
        req = request_for(x, ds)
        cf = nice(req, model, ds, PROXIMITY)
        z = ds.features[cf.generation_meta["nun_index"]]
        for j in range(4):
            assert cf.values[j] == x[j] or cf.values[j] == z[j]

    @pytest.mark.parametrize("reward", [SPARSITY, PROXIMITY])
    def test_one_forest_call_per_step(self, reward):
        """Each greedy step predicts c and its candidates in one call: a request
        with given pool scores makes exactly ``iterations`` calls, none of one row."""
        ds = make_blobs(n=80, p=6, seed=4, separation=0.6)
        model = fit_forest(ds, Hyperparams(2, "gini", 1, n_trees=9), ClassWeights.unit(), 2)
        scores = model.predict_proba_batch(ds.features)
        rows = []

        class Counting:
            def predict_proba_batch(self, X):
                rows.append(len(X))
                return model.predict_proba_batch(X)

            def predict_proba(self, x):
                rows.append(1)
                return model.predict_proba(x)

        fail_rows = np.flatnonzero(scores >= 0.5)[:5]
        assert fail_rows.size == 5
        for i in fail_rows:
            rows.clear()
            cf = nice(request_for(ds.features[i], ds), Counting(), ds, reward, scores=scores)
            assert len(rows) == cf.generation_meta["iterations"] and 1 not in rows
            assert model.predict_proba(cf.values) < 0.5


def one_dim_setup(seed=0):
    """pass iff value >= 10 on the range [0, 20]."""
    model = StubModel(lambda r: 1.0 if r[0] < 10 else 0.0, p=1)
    values = np.arange(0.0, 21.0)[:, None]
    labels = [PASS if v >= 10 else FAIL for v in values[:, 0]]
    train = LabeledDataset.from_arrays(values, labels)
    req = CfRequest.for_instance(np.array([0.0]), train)
    cfg = MocConfig(population=100, generations=50, seed=seed)
    return model, train, req, cfg


def assert_front_nondominated(cfs):
    objs = [cf.generation_meta["objectives"] for cf in cfs]
    for i, a in enumerate(objs):
        for j, b in enumerate(objs):
            if i == j:
                continue
            dominates = all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))
            assert not dominates, f"{a} dominates {b}"


def brute_dominates(a, b):
    return all(x <= y for x, y in zip(a, b)) and any(x < y for x, y in zip(a, b))


def tied_objectives(rng, n):
    """Integer objectives with many ties and some duplicate rows."""
    obj = rng.integers(0, 4, size=(n, 4)).astype(float)
    return obj[rng.integers(0, n, size=n)]


class TestNondominatedSort:
    @pytest.mark.parametrize("n", [1, 2, 17, 60, 300])
    def test_fronts_match_pairwise_oracle(self, n):
        rng = np.random.default_rng(n)
        obj = tied_objectives(rng, n)
        fronts = cfgen._fast_nondominated_sort(obj)
        assert np.array_equal(np.sort(np.concatenate(fronts)), np.arange(n))
        for k, front in enumerate(fronts):
            assert np.array_equal(front, np.sort(front))
            for i in front:
                assert not any(brute_dominates(obj[j], obj[i]) for j in front)
                if k:
                    assert any(brute_dominates(obj[j], obj[i]) for j in fronts[k - 1])

    @pytest.mark.parametrize("n", [1, 2, 255, 256, 257, 700])
    def test_first_front_is_front_zero(self, n):
        rng = np.random.default_rng(100 + n)
        for obj in (tied_objectives(rng, n), rng.random((n, 4)).round(2)):
            assert np.array_equal(cfgen._first_front(obj), cfgen._fast_nondominated_sort(obj)[0])


class TestMoc:
    def test_one_dim_validity_and_boundary(self):
        model, train, req, cfg = one_dim_setup(seed=5)
        out = moc(req, model, train, cfg)
        assert out, "expected a non-empty valid front"
        values = np.array([cf.values[0] for cf in out])
        assert (values >= 10.0).all()
        # grid brute force puts the closest valid point at exactly 10 (gower 0.5)
        best = out[0]  # results are sorted by proximity
        assert best.generation_meta["objectives"].o_p == pytest.approx(0.5, abs=0.01)
        assert 10.0 <= best.values[0] <= 10.2

    def test_front_is_internally_nondominated(self):
        model, train, req, cfg = one_dim_setup(seed=8)
        assert_front_nondominated(moc(req, model, train, cfg))

    def test_deterministic(self):
        model, train, req, cfg = one_dim_setup(seed=21)
        a = moc(req, model, train, cfg)
        b = moc(req, model, train, cfg)
        assert len(a) == len(b)
        for ca, cb in zip(a, b):
            np.testing.assert_array_equal(ca.values, cb.values)
            assert ca.generation_meta == cb.generation_meta

    def test_prepared_columns_match_raw_features(self, monkeypatch):
        rng = np.random.default_rng(6)
        rows = rng.integers(0, 15, size=(40, 3)).astype(float)
        model = StubModel(lambda r: 1.0 if r[0] + r[1] < 16 else 0.0, p=3)
        train = LabeledDataset.from_arrays(rows, [PASS if r[0] + r[1] >= 16 else FAIL for r in rows])
        req = CfRequest.for_instance(np.array([2.0, 3.0, 7.0]), train)
        cfg = MocConfig(population=30, generations=12, seed=9)
        prepared = moc(req, model, train, cfg)
        prepared_cross, calls = cfgen.gower_cross, []

        def raw_cross(rows, others, ranges):
            if isinstance(others, GowerColumns):  # plausibility, not front diversity
                calls.append(rows.shape[0])
                others = train.features
            return prepared_cross(rows, others, ranges)

        monkeypatch.setattr(cfgen, "gower_cross", raw_cross)
        raw = moc(req, model, train, cfg)
        assert calls == [30] * 13
        assert prepared and len(prepared) == len(raw)
        for a, b in zip(prepared, raw):
            assert np.array_equal(a.values, b.values)
            assert a.generation_meta == b.generation_meta

    def test_given_columns_match_columns_built_here(self, monkeypatch):
        """MOC with the caller's prepared columns returns what it returns
        when it builds them itself, and builds none when they are given."""
        model, train, req, cfg = one_dim_setup(seed=13)
        columns = GowerColumns.of(train.features)
        original, of_train = GowerColumns.of, []

        def counting(rows):
            of_train.append(rows is train.features)
            return original(rows)

        monkeypatch.setattr(GowerColumns, "of", counting)
        built = moc(req, model, train, cfg)
        assert of_train.count(True) == 1
        given = moc(req, model, train, cfg, columns)
        assert of_train.count(True) == 1
        assert built and len(built) == len(given)
        for a, b in zip(built, given):
            assert np.array_equal(a.values, b.values)
            assert a.generation_meta == b.generation_meta

    def test_oversampled_training_matches_loop_kernel(self, monkeypatch):
        """On a training split with duplicated rows, MOC gives the same front
        through the prepared columns as through the per-pair reference loop."""
        base = make_week_frame(n=60, seed=3)
        train = random_oversample(base, seed=4)
        columns = GowerColumns.of(train.features)
        assert columns.inverse is not None and columns.keys.shape[1] < train.n
        early = train.features[:, 4:14].sum(axis=1)
        cut = float(np.median(early))
        model = StubModel(lambda r: 1.0 if r[4:14].sum() < cut else 0.0, p=train.p)
        x = base.features[int(np.argmin(base.features[:, 4:14].sum(axis=1)))]
        req = CfRequest.for_instance(x, train)
        cfg = MocConfig(population=30, generations=8, seed=11)
        prepared = moc(req, model, train, cfg)

        def loop_cross(rows, others, ranges):
            if isinstance(others, GowerColumns):
                assert others.shape == train.features.shape
                others = train.features
            return loop_gower_cross(rows, others, ranges)

        monkeypatch.setattr(cfgen, "gower_cross", loop_cross)
        looped = moc(req, model, train, cfg)
        assert prepared and len(prepared) == len(looped)
        for a, b in zip(prepared, looped):
            assert np.array_equal(a.values, b.values)
            assert a.generation_meta == b.generation_meta

    def test_mask_and_bounds_respected(self):
        model = StubModel(lambda r: 1.0 if r[0] < 10 else 0.0, p=2)
        rng = np.random.default_rng(2)
        rows = np.column_stack([rng.uniform(0, 20, 30), rng.uniform(-5, 5, 30)])
        train = LabeledDataset.from_arrays(rows, [PASS if r[0] >= 10 else FAIL for r in rows])
        x = np.array([0.0, 1.5])
        req = CfRequest.for_instance(x, train, mutable=np.array([True, False]))
        out = moc(req, model, train, MocConfig(population=40, generations=20, seed=3))
        assert out
        for cf in out:
            assert cf.values[1] == 1.5  # immutable feature untouched
            assert req.bounds[0, 0] <= cf.values[0] <= req.bounds[0, 1]

    def test_out_of_range_immutable_feature_kept(self):
        """x_1 lies above the training max; only copied or mutated features are clipped."""
        model = StubModel(lambda r: 1.0 if r[0] < 10 else 0.0, p=2)
        rng = np.random.default_rng(4)
        rows = np.column_stack([rng.uniform(0, 20, 30), rng.uniform(-5, 5, 30)])
        train = LabeledDataset.from_arrays(rows, [PASS if r[0] >= 10 else FAIL for r in rows])
        x = np.array([0.0, 25.0])
        req = CfRequest.for_instance(x, train, mutable=np.array([True, False]))
        assert x[1] > req.bounds[1, 1]
        out = moc(req, model, train, MocConfig(population=40, generations=20, seed=3))
        assert out
        for cf in out:
            assert cf.values[1] == 25.0
            assert req.bounds[0, 0] <= cf.values[0] <= req.bounds[0, 1]

    def test_empty_result_is_legal(self):
        # nothing in range can flip the prediction: bounds cap at 5 < 10
        model = StubModel(lambda r: 1.0 if r[0] < 10 else 0.0, p=1)
        rows = np.arange(0.0, 5.1)[:, None]
        train = LabeledDataset.from_arrays(rows, [FAIL] * 6)
        req = CfRequest.for_instance(np.array([0.0]), train)
        out = moc(req, model, train, MocConfig(population=20, generations=5, seed=1))
        assert out == []

    def test_config_validation(self):
        with pytest.raises(ValueError, match="even"):
            MocConfig(population=7)
        with pytest.raises(ValueError, match="crossover_rate"):
            MocConfig(crossover_rate=1.5)
        with pytest.raises(ValueError, match="generations"):
            MocConfig(generations=0)


class TestRequest:
    def test_validation(self):
        train = dataset([[0, 0], [1, 1]], [FAIL, PASS])
        with pytest.raises(ValueError, match="mutable"):
            CfRequest.for_instance(np.zeros(2), train, mutable=np.array([False, False]))
        with pytest.raises(ValueError, match="bounds"):
            CfRequest(x=np.zeros(2), mutable_mask=np.ones(2, bool),
                      bounds=np.array([[1.0, 0.0], [0.0, 1.0]]))

    def test_bounds_from_training_ranges(self):
        train = dataset([[0, 5], [10, 7]], [FAIL, PASS])
        req = request_for([1, 6], train)
        np.testing.assert_array_equal(req.bounds, [[0, 10], [5, 7]])
        assert isinstance(req.ranges(), RangeTable)


class TestSerialization:
    def test_write_counterfactuals(self, tmp_path):
        """Each row and meta line takes the id of its counterfactual's request."""
        train = dataset([[1, 1], [0, 0]], [PASS, FAIL])
        model = StubModel(lambda r: 0.0 if r[0] >= 1 else 1.0, p=2)
        req = CfRequest.for_instance(np.zeros(2), train, request_id=3)
        cf = nice(req, model, train, SPARSITY)
        csv_path, meta_path = tmp_path / "cfs.csv", tmp_path / "cfs.jsonl"
        write_counterfactuals(csv_path, meta_path, train.feature_names, [(cf, True)])
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "request_id,method,f1,f2,valid"
        assert lines[1].startswith("3,nice_sp,1.0,0.0,1")
        meta = json.loads(meta_path.read_text().splitlines()[0])
        assert meta["request_id"] == 3
        assert meta["method"] == NICE_SP
        assert meta["meta"]["copied_features"] == [0]
