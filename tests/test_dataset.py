import logging

import numpy as np
import pytest

from cfbench.dataset import (
    FAIL,
    PASS,
    WEEK_COLUMNS,
    LabeledDataset,
    imbalance_ratio,
    ingest_oulad,
    load_csv,
    stratified_split,
)

from synth import write_oulad_raw


def write(path, text):
    path.write_text(text)
    return path


class TestLoadCsv:
    def test_basic_parse(self, tmp_path):
        f = write(tmp_path / "d.csv", "a,b,final_result\n1,2,fail\n3,4,pass\n5,6,pass\n")
        ds = load_csv(f, ["a", "b", "final_result"])
        assert (ds.n, ds.p) == (3, 2)
        assert ds.feature_names == ("a", "b")
        assert list(ds.labels) == [FAIL, PASS, PASS]
        np.testing.assert_array_equal(ds.features[:, 0], [1, 3, 5])

    def test_constant_column_flagged(self, tmp_path):
        f = write(tmp_path / "d.csv", "a,b,final_result\n0,1,fail\n0,2,pass\n")
        ds = load_csv(f, ["a", "b", "final_result"])
        np.testing.assert_array_equal(ds.bounds, [[0.0, 0.0], [1.0, 2.0]])

    def test_unparseable_cell_names_row_and_column(self, tmp_path):
        f = write(tmp_path / "d.csv", "a,b,final_result\n1,2,fail\n1,x,pass\n")
        with pytest.raises(ValueError, match=r"row 2, column 'b'"):
            load_csv(f, ["a", "b", "final_result"])

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "nope.csv", ["a", "final_result"])

    def test_missing_column(self, tmp_path):
        f = write(tmp_path / "d.csv", "a,final_result\n1,fail\n")
        with pytest.raises(ValueError, match="missing column"):
            load_csv(f, ["a", "b", "final_result"])

    def test_empty_file(self, tmp_path):
        f = write(tmp_path / "d.csv", "")
        with pytest.raises(ValueError, match="empty"):
            load_csv(f, ["a", "final_result"])

    def test_no_data_rows(self, tmp_path):
        f = write(tmp_path / "d.csv", "a,final_result\n")
        with pytest.raises(ValueError, match="no data rows"):
            load_csv(f, ["a", "final_result"])

    def test_bad_label(self, tmp_path):
        f = write(tmp_path / "d.csv", "a,final_result\n1,maybe\n")
        with pytest.raises(ValueError, match="invalid label 'maybe'"):
            load_csv(f, ["a", "final_result"])

    def test_extra_columns_ignored(self, tmp_path):
        f = write(tmp_path / "d.csv", "a,extra,final_result\n1,x,fail\n2,y,pass\n")
        ds = load_csv(f, ["a", "final_result"])
        assert ds.p == 1 and ds.ids is None

    def test_id_column_read_back(self, tmp_path):
        f = write(tmp_path / "d.csv", "student_id,a,final_result\ns1,1,fail\ns2,2,pass\n")
        ds = load_csv(f, ["a", "final_result"])
        assert ds.p == 1 and ds.ids == ("s1", "s2")
        out = tmp_path / "again.csv"
        ds.save_csv(out)
        assert out.read_text() == f.read_text()

    def test_round_trip(self, tmp_path, blobs):
        ds = blobs(n=40, p=3, seed=5)
        out = tmp_path / "round.csv"
        ds.save_csv(out)
        back = load_csv(out, list(ds.feature_names) + ["final_result"])
        np.testing.assert_array_equal(back.features, ds.features)
        assert list(back.labels) == list(ds.labels)
        assert back.feature_names == ds.feature_names
        np.testing.assert_array_equal(back.bounds, ds.bounds)


class TestIngest:
    def test_hand_aggregated_weeks(self, tmp_path):
        """Two students; clicks on day -20 and day 5 land in week_minus3 and week_0."""
        raw = tmp_path / "raw"
        raw.mkdir()
        (raw / "studentInfo.csv").write_text(
            "code_module,code_presentation,id_student,final_result\n"
            "DDD,2013J,1,Fail\nDDD,2013J,2,Pass\n"
        )
        (raw / "studentVle.csv").write_text(
            "code_module,code_presentation,id_student,id_site,date,sum_click\n"
            "DDD,2013J,1,9,-20,3\nDDD,2013J,1,9,5,2\n"
        )
        (raw / "vle.csv").write_text("id_site,code_module,code_presentation,activity_type\n")
        ds = ingest_oulad(raw, "DDD", ["2013J"])
        assert ds.n == 2 and ds.p == 42
        cols = dict(zip(ds.feature_names, ds.features[0]))
        assert cols["week_minus3"] == 3.0
        assert cols["week_0"] == 2.0
        assert ds.features[0].sum() == 5.0
        assert ds.features[1].sum() == 0.0  # enrolled, never clicked
        assert list(ds.labels) == [FAIL, PASS]

    def test_boundary_days(self, tmp_path):
        raw = tmp_path / "raw"
        raw.mkdir()
        (raw / "studentInfo.csv").write_text(
            "code_module,code_presentation,id_student,final_result\nDDD,2013J,1,Pass\n"
        )
        (raw / "studentVle.csv").write_text(
            "code_module,code_presentation,id_student,id_site,date,sum_click\n"
            "DDD,2013J,1,9,-29,7\n"   # before the window: dropped
            "DDD,2013J,1,9,-28,1\n"   # first day of week_minus4
            "DDD,2013J,1,9,265,2\n"   # last day of week_37
            "DDD,2013J,1,9,266,9\n"   # after the window: dropped
        )
        (raw / "vle.csv").write_text("id_site,code_module,code_presentation,activity_type\n")
        ds = ingest_oulad(raw, "DDD", ["2013J"])
        cols = dict(zip(ds.feature_names, ds.features[0]))
        assert cols["week_minus4"] == 1.0
        assert cols["week_37"] == 2.0
        assert ds.features[0].sum() == 3.0

    def test_mini_corpus(self, mini_oulad, caplog):
        with caplog.at_level(logging.INFO, logger="cfbench.dataset"):
            ds = ingest_oulad(mini_oulad, "DDD", ["2013J", "2014J"])
        assert ds.p == 42
        assert ds.feature_names == WEEK_COLUMNS
        counts = ds.class_counts()
        assert counts[FAIL] > 0 and counts[PASS] > 0
        # withdrawn students and other courses are excluded
        assert all(i.split("_")[0] in ("2013J", "2014J") for i in ds.ids)
        # orphan interactions (student with no final result) were dropped and logged
        assert any("no final result" in msg for msg in caplog.messages)

    def test_weekly_totals_match_raw_log(self, mini_oulad):
        """Sum over week columns equals the raw click total within days [-28, 265]."""
        import csv as csvmod

        ds = ingest_oulad(mini_oulad, "DDD", ["2013J", "2014J"])
        totals = {i: 0 for i in ds.ids}
        with (mini_oulad / "studentVle.csv").open() as fh:
            for rec in csvmod.DictReader(fh):
                if rec["code_module"] != "DDD":
                    continue
                key = f"{rec['code_presentation']}_{rec['id_student']}"
                if key in totals and -28 <= int(rec["date"]) <= 265:
                    totals[key] += int(rec["sum_click"])
        for i, key in enumerate(ds.ids):
            assert ds.features[i].sum() == totals[key]

    def test_missing_raw_file(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="studentInfo.csv"):
            ingest_oulad(tmp_path, "DDD", ["2013J"])

    def test_course_not_found(self, mini_oulad):
        with pytest.raises(ValueError, match="no students found"):
            ingest_oulad(mini_oulad, "ZZZ", ["2013J"])

    def test_deterministic(self, tmp_path):
        a = ingest_oulad(write_oulad_raw(tmp_path / "a", n_students=30, seed=11), "DDD", ["2013J", "2014J"])
        b = ingest_oulad(write_oulad_raw(tmp_path / "b", n_students=30, seed=11), "DDD", ["2013J", "2014J"])
        np.testing.assert_array_equal(a.features, b.features)
        assert list(a.labels) == list(b.labels)


class TestSplit:
    def make(self, n_pass, n_fail, seed=0):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n_pass + n_fail, 2))
        y = [PASS] * n_pass + [FAIL] * n_fail
        return LabeledDataset.from_arrays(X, y)

    def test_stratified_counts(self):
        ds = self.make(7, 3)
        res = stratified_split(ds, 0.3, seed=1)
        counts = res.test.class_counts()
        assert counts[PASS] == 2 and counts[FAIL] == 1  # round(0.3*7), round(0.3*3)
        counts = res.train.class_counts()
        assert counts[PASS] == 5 and counts[FAIL] == 2

    def test_deterministic(self):
        ds = self.make(20, 10)
        a = stratified_split(ds, 0.3, seed=42)
        b = stratified_split(ds, 0.3, seed=42)
        np.testing.assert_array_equal(a.test_indices, b.test_indices)
        np.testing.assert_array_equal(a.train_indices, b.train_indices)

    def test_fraction_out_of_range(self):
        ds = self.make(5, 5)
        for bad in (1.5, 0.0, 1.0, -0.2):
            with pytest.raises(ValueError, match="test_fraction"):
                stratified_split(ds, bad, seed=0)

    def test_small_class_rejected(self):
        ds = self.make(5, 1)
        with pytest.raises(ValueError, match="at least 2"):
            stratified_split(ds, 0.5, seed=0)

    def test_partition_property(self):
        for seed in range(10):
            ds = self.make(17, 6, seed=seed)
            res = stratified_split(ds, 0.25, seed=seed)
            merged = np.sort(np.concatenate([res.train_indices, res.test_indices]))
            np.testing.assert_array_equal(merged, np.arange(ds.n))
            assert np.intersect1d(res.train_indices, res.test_indices).size == 0

    def test_proportions_within_one_instance(self):
        ds = self.make(50, 20)
        res = stratified_split(ds, 0.3, seed=2)
        for part in (res.train, res.test):
            frac = part.class_counts()[FAIL] / part.n
            whole = 20 / 70
            assert abs(frac - whole) <= 1.0 / part.n + 1e-12


class TestImbalanceRatio:
    def test_reported_test_ratio(self):
        ds = TestSplit().make(241, 100)
        assert imbalance_ratio(ds) == pytest.approx(2.41)

    def test_balanced(self):
        assert imbalance_ratio(TestSplit().make(5, 5)) == 1.0

    def test_by_hand(self):
        assert imbalance_ratio(TestSplit().make(7, 2)) == 3.5

    def test_always_at_least_one(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a, b = int(rng.integers(1, 30)), int(rng.integers(1, 30))
            r = imbalance_ratio(TestSplit().make(a, b))
            assert r >= 1.0
            assert (r == 1.0) == (a == b)

    def test_single_class_rejected(self):
        X = np.zeros((3, 2))
        ds = LabeledDataset.from_arrays(X, [PASS, PASS, PASS])
        with pytest.raises(ValueError, match="absent"):
            imbalance_ratio(ds)
