import numpy as np
import pytest

from cfbench.cfeval import (
    Cell,
    MetricStats,
    QualityRecord,
    aggregate,
    read_quality_records,
    score_request,
    write_cell_summaries,
    write_quality_records,
)
from cfbench.balance import ClassWeights
from cfbench.cfgen import SPARSITY, CfRequest, Counterfactual, nice, whatif
from cfbench.dataset import FAIL, PASS, LabeledDataset
from cfbench.distance import GowerColumns, gower, gower_many
from cfbench.forest import Hyperparams, RandomForestModel, fit_forest

from conftest import StubModel
from synth import make_blobs


CELL = Cell("original", "vanilla", "moc")


def dataset(rows, labels):
    return LabeledDataset.from_arrays(np.asarray(rows, dtype=float), labels)


def make_cf(values, req, method="moc"):
    return Counterfactual(values=np.asarray(values, dtype=float), method=method,
                          source_request=req)


def quality(request_id=0, cell=CELL, validity=1,
            proximity=0.1, sparsity=2, minimality=0, plausibility=0.05):
    return QualityRecord(request_id, cell, validity, proximity, sparsity, minimality, plausibility)


def scored(cfs, model, train):
    return score_request(cfs, model, GowerColumns.of(train.features), CELL)


def one_at_a_time(cf, model, train):
    """Reference record: every prediction a single-row call, plausibility a
    scan of the training rows, proximity a one-row distance."""
    req = cf.source_request
    x, ranges = req.x, req.ranges()
    changed = np.flatnonzero(cf.values != x)
    minimality = 0
    for j in changed:
        probe = cf.values.copy()
        probe[j] = x[j]
        minimality += int(model.predict_proba(probe) < 0.5)
    return QualityRecord(
        request_id=req.request_id, cell=CELL,
        validity=int(model.predict_proba(cf.values) < 0.5),
        proximity=gower(x, cf.values, ranges), sparsity=int(changed.size),
        minimality=minimality,
        plausibility=float(gower_many(train.features, cf.values, ranges).min()),
    )


class TestScore:
    def setup_method(self):
        # pass iff f1 >= 1, regardless of f2
        self.model = StubModel(lambda r: 0.0 if r[0] >= 1 else 1.0, p=2)
        self.train = dataset([[1, 1], [0, 0], [2, 5]], [PASS, FAIL, PASS])
        self.x = np.array([0.0, 0.0])
        self.req = CfRequest.for_instance(self.x, self.train)

    def test_whatif_output_is_plausible_and_valid(self):
        cfs = whatif(self.req, self.model, self.train, k=1)
        rec, = scored(cfs, self.model, self.train)
        assert rec.validity == 1
        assert rec.plausibility == 0.0

    def test_identity_counterfactual(self):
        rec, = scored([make_cf([0, 0], self.req)], self.model, self.train)
        assert (rec.validity, rec.proximity, rec.sparsity, rec.minimality) == (0, 0.0, 0, 0)

    def test_redundant_change_counted_by_reversion(self):
        """cf changes both features but only f1 was necessary: minimality 1."""
        rec, = scored([make_cf([1, 5], self.req)], self.model, self.train)
        assert rec.validity == 1
        assert rec.sparsity == 2
        assert rec.minimality == 1

    def test_distances_use_the_request_bounds(self):
        """A request whose bounds differ from the training split's ranges
        (widths 2 and 5) gets its proximity and plausibility from its own
        bounds (widths 4 and 10), and the record takes the request's id."""
        req = CfRequest(x=self.x, mutable_mask=[True, True], bounds=[[0, 4], [0, 10]],
                        request_id=7)
        rec, = scored([make_cf([1, 5], req)], self.model, self.train)
        assert rec.request_id == 7
        assert rec.proximity == (1 / 4 + 5 / 10) / 2
        assert rec.plausibility == (1 / 4 + 0 / 10) / 2  # the training row [2, 5]
        own, = scored([make_cf([1, 5], self.req)], self.model, self.train)
        assert (own.proximity, own.plausibility) == ((1 / 2 + 5 / 5) / 2, (1 / 2 + 0 / 5) / 2)

    def test_reversion_oracle_on_random_cases(self):
        """Minimality equals a brute-force one-at-a-time reversion count."""
        rng = np.random.default_rng(3)
        model = StubModel(lambda r: 0.0 if (r[0] >= 1 or r[2] >= 3) else 1.0, p=3)
        train = dataset(rng.uniform(0, 5, size=(10, 3)), [PASS] * 5 + [FAIL] * 5)
        x = np.zeros(3)
        req = CfRequest.for_instance(x, train)
        cands = []
        while len(cands) < 50:
            cand = np.where(rng.random(3) < 0.5, rng.uniform(0, 5, 3), x)
            if model.predict_proba(cand) < 0.5:
                cands.append(cand)
        for cand, rec in zip(cands, scored([make_cf(c, req) for c in cands], model, train)):
            expected = 0
            for j in range(3):
                if cand[j] != x[j]:
                    probe = cand.copy()
                    probe[j] = x[j]
                    if model.predict_proba(probe) < 0.5:
                        expected += 1
            assert rec.minimality == expected
            assert rec.minimality <= rec.sparsity

    def test_pure_function(self):
        cf = make_cf([1, 3], self.req)
        assert scored([cf], self.model, self.train) == scored([cf], self.model, self.train)

    def test_nice_always_valid(self):
        cf = nice(self.req, self.model, self.train, SPARSITY)
        rec, = scored([cf], self.model, self.train)
        assert rec.validity == 1

    def test_no_counterfactuals_no_records(self):
        assert scored([], self.model, self.train) == []

    def test_counterfactuals_of_one_request_only(self):
        other = CfRequest.for_instance(self.x, self.train)
        with pytest.raises(ValueError, match="one request"):
            scored([make_cf([1, 5], self.req), make_cf([1, 5], other)], self.model, self.train)

    @pytest.mark.parametrize("bounds", ["train", "other"])
    def test_batch_equals_scoring_each_alone(self, bounds):
        """Scoring a request's counterfactuals together gives exactly the
        records of scoring each alone and of the single-row reference, also
        for a counterfactual equal to x and for a request whose bounds
        differ from the training split's (wider, and one of zero width)."""
        train = make_blobs(n=120, p=12, seed=4, separation=0.7)
        model = fit_forest(train, Hyperparams(3, "gini", 1, n_trees=9), ClassWeights.unit(), 2)
        rng = np.random.default_rng(9)
        x = train.features[1]
        if bounds == "train":
            req = CfRequest.for_instance(x, train, request_id=3)
        else:
            wide = train.bounds + [-1.0, 2.0]
            wide[5] = wide[5, 0]
            req = CfRequest(x=x, mutable_mask=np.ones(12, dtype=bool), bounds=wide, request_id=3)
        cands = [x, *np.where(rng.random((25, 12)) < 0.4, rng.normal(size=(25, 12)), x)]
        cfs = [make_cf(c, req) for c in cands]
        batch = scored(cfs, model, train)
        assert batch == [scored([cf], model, train)[0] for cf in cfs]
        assert batch == [one_at_a_time(cf, model, train) for cf in cfs]
        assert batch[0].sparsity == 0 and {r.validity for r in batch} == {0, 1}

    def test_one_forest_call_per_request(self, monkeypatch):
        """Validity and minimality of a request's counterfactuals come from
        one batch of the counterfactuals and their reverts: the same as
        single-row calls."""
        train = make_blobs(n=80, p=4, seed=3, separation=0.7)
        model = fit_forest(train, Hyperparams(2, "gini", 1, n_trees=9), ClassWeights.unit(), 1)
        rng = np.random.default_rng(5)
        x = train.features[0]
        req = CfRequest.for_instance(x, train)
        cands = [x, *np.where(rng.random((30, 4)) < 0.5, rng.normal(size=(30, 4)), x)]
        single = []
        for cand in cands:
            reverted = [model.predict_proba(np.where(np.arange(4) == j, x, cand)) < 0.5
                        for j in np.flatnonzero(cand != x)]
            single.append((int(model.predict_proba(cand) < 0.5), int(sum(reverted))))
        calls = []
        original = RandomForestModel.predict_proba_batch

        def counting(self, X):
            calls.append(len(X))
            return original(self, X)

        monkeypatch.setattr(RandomForestModel, "predict_proba_batch", counting)
        requests = [cands[:1], cands[1:11], cands[11:]]
        records = []
        for group in requests:
            records += scored([make_cf(c, req) for c in group], model, train)
        assert [(r.validity, r.minimality) for r in records] == single
        assert calls == [sum(1 + int((c != x).sum()) for c in group) for group in requests]
        assert {v for v, _ in single} == {0, 1}

    def test_invariant_enforced(self):
        with pytest.raises(ValueError, match="minimality"):
            quality(sparsity=1, minimality=2)


class TestAggregate:
    def test_single_record(self):
        s = aggregate([quality(proximity=0.3)])
        assert len(s) == 1
        stats = s[0].stats["proximity"]
        assert stats == MetricStats(0.3, 0.3, 0.3, 1)

    def test_hand_order_statistics(self):
        cell = Cell("original", "vanilla", "moc")
        recs = [quality(request_id=i, cell=cell, sparsity=v, minimality=0)
                for i, v in enumerate([1, 2, 3, 4, 5])]
        stats = aggregate(recs)[0].stats["sparsity"]
        assert (stats.median, stats.q1, stats.q3, stats.count) == (3.0, 2.0, 4.0, 5)

    def test_groups_cells_separately(self):
        a = Cell("original", "vanilla", "moc")
        b = Cell("smote", "tuned", "whatif")
        recs = [quality(cell=a), quality(cell=a), quality(cell=b)]
        out = aggregate(recs)
        assert [s.cell for s in out] == [a, b]
        assert out[0].stats["validity"].count == 2
        assert out[1].stats["validity"].count == 1

    def test_quartile_ordering_invariant(self):
        rng = np.random.default_rng(8)
        cell = Cell("smote", "vanilla", "moc")
        recs = [
            quality(request_id=i, cell=cell, proximity=float(rng.random()),
                    sparsity=int(rng.integers(0, 6)), minimality=0,
                    plausibility=float(rng.random()))
            for i in range(40)
        ]
        for summary in aggregate(recs):
            for stats in summary.stats.values():
                assert stats.q1 <= stats.median <= stats.q3

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no records"):
            aggregate([])


class TestCsv:
    def test_quality_round_trip(self, tmp_path):
        recs = [
            quality(request_id="3", proximity=0.125, plausibility=0.0625),
            quality(request_id="9", cell=Cell("smote", "tuned", "nice_sp"),
                    validity=0, sparsity=5, minimality=2),
        ]
        path = tmp_path / "q.csv"
        write_quality_records(path, recs)
        assert read_quality_records(path) == recs

    def test_summaries_layout(self, tmp_path):
        path = tmp_path / "s.csv"
        write_cell_summaries(path, aggregate([quality()]))
        lines = path.read_text().splitlines()
        assert lines[0] == "balancing,tuning,method,metric,median,q1,q3,count"
        assert len(lines) == 1 + 5  # one row per metric
        assert lines[1].startswith("original,vanilla,moc,validity,")
