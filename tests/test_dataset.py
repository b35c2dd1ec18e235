import csv
import logging
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cfbench import dataset
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

    @pytest.mark.parametrize("rows, message", [
        ("1,inf,fail\nx,2,pass\n", r"row 1, column 'b': cannot parse 'inf'"),
        ("1,2,fail\nnan,x,pass\n", r"row 2, column 'a': cannot parse 'nan'"),
        ("1,2,maybe\nx,2,pass\n", r"row 1, column 'c': invalid label 'maybe'"),
        ("1,-inf,maybe\n", r"row 1, column 'b': cannot parse '-inf'"),
        ("1e308,1e308,fail\n,2,pass\n", r"row 2, column 'a': cannot parse ''"),
    ])
    def test_first_bad_cell_in_file_order(self, tmp_path, rows, message):
        """Errors name the first bad cell: rows in order, a row's feature
        cells in column order before its label."""
        f = write(tmp_path / "d.csv", "a,b,c\n" + rows)
        with pytest.raises(ValueError, match=message):
            load_csv(f, ["a", "b", "c"])

    @pytest.mark.parametrize("n", [1, 3, 4, 5])
    def test_rows_across_batches(self, tmp_path, monkeypatch, n):
        """Batches of 2 rows: a short last batch, an empty one, several."""
        monkeypatch.setattr(dataset, "_ROW_BATCH", 2)
        values = np.arange(3.0 * n).reshape(n, 3) / 4
        text = "".join(f"{a!r},{b!r},{c!r},pass\n" for a, b, c in values.tolist())
        ds = load_csv(write(tmp_path / "d.csv", "a,b,c,final_result\n" + text),
                      ["a", "b", "c", "final_result"])
        assert ds.features.dtype == np.float64
        assert np.array_equal(ds.features, values)

    def test_finite_cells_whose_sum_overflows(self, tmp_path):
        f = write(tmp_path / "d.csv", "a,b,final_result\n1e308,1e308,fail\n-1e308,-1e308,pass\n")
        ds = load_csv(f, ["a", "b", "final_result"])
        np.testing.assert_array_equal(ds.features, [[1e308, 1e308], [-1e308, -1e308]])

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


def ref_ingest_oulad(raw_dir, course, presentations):
    """The row-at-a-time `csv.DictReader` ingest that `ingest_oulad` replaced,
    kept as its oracle. Returns the dataset and the number of distinct
    (presentation, id) keys with log rows but no enrollment."""
    raw_dir = Path(raw_dir)
    presentations = set(presentations)
    labels_by_key, known_keys = {}, set()
    with (raw_dir / "studentInfo.csv").open(newline="") as fh:
        for rec in csv.DictReader(fh):
            if rec["code_module"] != course or rec["code_presentation"] not in presentations:
                continue
            key = (rec["code_presentation"], rec["id_student"])
            known_keys.add(key)
            if rec["final_result"] != "Withdrawn":
                labels_by_key[key] = FAIL if rec["final_result"] == "Fail" else PASS
    clicks, unmatched = {}, set()
    with (raw_dir / "studentVle.csv").open(newline="") as fh:
        for rec in csv.DictReader(fh):
            if rec["code_module"] != course or rec["code_presentation"] not in presentations:
                continue
            key = (rec["code_presentation"], rec["id_student"])
            if key not in labels_by_key:
                if key not in known_keys:
                    unmatched.add(key)
                continue
            day = int(rec["date"])
            if day < dataset.FIRST_DAY or day > dataset.LAST_DAY:
                continue
            row = clicks.get(key)
            if row is None:
                row = clicks[key] = np.zeros(len(WEEK_COLUMNS))
            row[day // 7 - dataset.WEEK_NUMBERS.start] += int(rec["sum_click"])
    keys = sorted(labels_by_key, key=lambda k: (k[0], dataset._id_sort_key(k[1])))
    features = np.zeros((len(keys), len(WEEK_COLUMNS)))
    for i, key in enumerate(keys):
        if key in clicks:
            features[i] = clicks[key]
    ds = LabeledDataset.from_arrays(features, [labels_by_key[k] for k in keys], WEEK_COLUMNS,
                                    [f"{p}_{i}" for p, i in keys])
    return ds, len(unmatched)


LOG_COLUMNS = ("code_module", "code_presentation", "id_student", "id_site", "date", "sum_click")
# enrolled ids have 1-3 digits; these orphans reach or pass the 4-character id
# column, and all but the last share their first four characters
LONG_IDS = ("1234", "12345", "12346", "123456789", "99999")


def write_raw(raw, info, log):
    """Write a raw directory with the given studentInfo.csv and studentVle.csv
    text, line endings kept, and an empty vle.csv."""
    raw.mkdir(exist_ok=True)
    for name, text in (("studentInfo.csv", info), ("studentVle.csv", log),
                       ("vle.csv", "id_site,code_module,code_presentation,activity_type\n")):
        with (raw / name).open("w", newline="") as fh:
            fh.write(text)
    return raw


def csv_cell(text, quote):
    if quote or "," in text or '"' in text:
        return '"' + text.replace('"', '""') + '"'
    return text


@st.composite
def raw_oulad_files(draw):
    """The text of studentInfo.csv and studentVle.csv: DDD 2013J/2014J enrollments
    next to courses and presentations that extend those codes, and a log with
    permuted and extra columns, quoted cells, mixed line endings, blank lines,
    orphan and withdrawn students' rows and the window's boundary days."""
    key = st.tuples(st.sampled_from(["DDD", "DDD", "DDDX", "AAA"]),
                    st.sampled_from(["2013J", "2014J", "2013JX"]),
                    st.integers(10, 999).map(str))
    students = [("DDD", "2013J", "7", "Pass")] + [
        (*k, r) for k, r in draw(st.lists(
            st.tuples(key, st.sampled_from(["Pass", "Fail", "Distinction", "Withdrawn"])),
            max_size=12, unique_by=lambda s: s[0]))]
    info = "code_module,code_presentation,id_student,final_result\n" + "".join(
        ",".join(s) + "\n" for s in students)

    extra = [f"extra{k}" for k in range(draw(st.integers(0, 2)))]
    header = draw(st.permutations(list(LOG_COLUMNS) + extra))
    # half the rows are an enrolled student's own, so that the window's
    # boundary days meet frame rows often; the rest mix the codes freely
    ids = st.sampled_from(sorted({s[2] for s in students} | {"5", "8", *LONG_IDS}))
    key = st.one_of(st.sampled_from([s[:3] for s in students]), st.tuples(
        st.sampled_from(["DDD", "DDDX", "AAA", "DD"]),
        st.sampled_from(["2013J", "2014J", "2013JX", "2014B"]), ids))
    day = st.one_of(st.sampled_from([-29, -28, -1, 0, 6, 7, 265, 266]), st.integers(-40, 280))
    row = st.builds(
        lambda k, rest: {**dict(zip(LOG_COLUMNS, k)), **rest}, key, st.fixed_dictionaries({
            "id_site": st.integers(1, 9).map(str),
            "date": day.map(str),
            "sum_click": st.integers(0, 60).map(str),
            **{name: st.sampled_from(["", "x", "a,b", 'say "hi"', "12"]) for name in extra},
        }))
    lines = [",".join(header) + "\n"]
    for rec in draw(st.lists(row, min_size=20, max_size=80)):
        if draw(st.booleans()) and draw(st.booleans()):
            lines.append("\n")
        cells = [csv_cell(rec[name], draw(st.booleans())) for name in header]
        lines.append(",".join(cells) + draw(st.sampled_from(["\n", "\r\n"])))
    return info, "".join(lines)


def dropped_count(messages):
    found = [m for m in messages if "no final result" in m]
    return int(found[0].split(" of ")[1].split()[0]) if found else 0


class TestIngestOracle:
    @settings(max_examples=100, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(raw_oulad_files())
    def test_blocks_match_row_at_a_time_reference(self, caplog, files):
        """Features, labels, ids and the "no final result" count equal the
        DictReader reference with 64-character blocks, so rows cross many
        block ends; truncated long orphan ids stay distinct keys."""
        caplog.clear()
        with tempfile.TemporaryDirectory() as tmp:
            raw = write_raw(Path(tmp), *files)
            want, want_dropped = ref_ingest_oulad(raw, "DDD", ["2013J", "2014J"])
            with mock.patch.object(dataset, "_LOG_BLOCK", 64), \
                    caplog.at_level(logging.INFO, logger="cfbench.dataset"):
                got = ingest_oulad(raw, "DDD", ["2013J", "2014J"])
        np.testing.assert_array_equal(got.features, want.features)
        assert list(got.labels) == list(want.labels)
        assert got.ids == want.ids
        assert dropped_count(caplog.messages) == want_dropped

    def test_long_orphan_ids_stay_distinct(self, tmp_path, caplog):
        """Orphans sharing the id column's width of characters are three keys."""
        raw = write_raw(tmp_path / "raw",
                        "code_module,code_presentation,id_student,final_result\nDDD,2013J,7,Pass\n",
                        "code_module,code_presentation,id_student,id_site,date,sum_click\n"
                        "DDD,2013J,12,9,1,1\nDDD,2013J,123,9,1,1\nDDD,2013J,124,9,1,1\n"
                        "DDD,2013J,7,9,1,2\n")
        with caplog.at_level(logging.INFO, logger="cfbench.dataset"):
            ds = ingest_oulad(raw, "DDD", ["2013J"])
        assert ds.features.sum() == 2.0
        assert dropped_count(caplog.messages) == 3 == ref_ingest_oulad(raw, "DDD", ["2013J"])[1]


class TestIngestMalformedLog:
    HEADER = "code_module,code_presentation,id_student,id_site,date,sum_click\n"

    def raw(self, tmp_path, log):
        return write_raw(tmp_path / "raw", "code_module,code_presentation,id_student,"
                         "final_result\nDDD,2013J,1,Pass\n", self.HEADER + log)

    @pytest.mark.parametrize("block", [64, 1 << 16])
    @pytest.mark.parametrize("row, reason", [
        ("DDD,2013J,1,9,5.0,3", "date '5.0' and sum_click '3' must be integers"),
        ("AAA,2014B,77,9,x,3", "date 'x' and sum_click '3' must be integers"),
        ("AAA,2014B,77,9,4,", "date '4' and sum_click '' must be integers"),
        ("DDD,2013J,1,9,5", "expected 6 cells, got 5"),
        ("AAA,2014B", "expected 6 cells, got 2"),
    ], ids=["enrolled-float-date", "other-course-date", "empty-clicks", "enrolled-short",
            "other-course-short"])
    def test_bad_row_names_file_and_line(self, tmp_path, monkeypatch, block, row, reason):
        """A malformed row is an error whatever its course or student."""
        raw = self.raw(tmp_path, "DDD,2013J,1,9,5,3\n" * 30 + "\n" + row + "\nDDD,2013J,1,9,6,3\n")
        monkeypatch.setattr(dataset, "_LOG_BLOCK", block)
        with pytest.raises(ValueError) as exc:
            ingest_oulad(raw, "DDD", ["2013J"])
        assert str(exc.value) == f"{raw / 'studentVle.csv'}: line 33: {reason}"

    def test_blank_blocks_warn_nothing(self, tmp_path, monkeypatch):
        raw = self.raw(tmp_path, "DDD,2013J,1,9,5,3\n" + "\n" * 300 + "DDD,2013J,1,9,6,4\n")
        monkeypatch.setattr(dataset, "_LOG_BLOCK", 64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ds = ingest_oulad(raw, "DDD", ["2013J"])
        assert ds.features[0].sum() == 7.0


def ref_save_csv(ds, path):
    """Per-value reference for `LabeledDataset.save_csv`: an integral value
    below 2**53 in magnitude as an int, any other as its float repr."""
    def cell(v):
        f = float(v)
        return str(int(f)) if f.is_integer() and abs(f) < 2**53 else repr(f)

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        ids = [] if ds.ids is None else ["student_id"]
        writer.writerow(ids + list(ds.feature_names) + ["final_result"])
        for i in range(ds.n):
            ids = [] if ds.ids is None else [ds.ids[i]]
            writer.writerow(ids + [cell(v) for v in ds.features[i]] + [str(ds.labels[i])])


class TestSaveCsv:
    VALUES = [0.0, -0.0, 1.0, -7.0, 0.5, -2.25, 0.1, 1 / 3, 2.0**53 - 1, 2.0**53, -(2.0**53),
              2.0**60, 1e16, 1e300, -1e300, 5e-324, 123456789.0]

    @pytest.mark.parametrize("with_ids", [False, True])
    @pytest.mark.parametrize("n", [255, 256, 257])
    def test_bytes_equal_per_value_reference(self, tmp_path, n, with_ids):
        rng = np.random.default_rng(n)
        X = rng.choice(self.VALUES, size=(n, 3))
        X[:len(self.VALUES), 0] = self.VALUES
        X[:, 2] = rng.integers(-50, 50, size=n) / rng.choice([1, 2, 8], size=n)
        ids = [f"s{i}" for i in range(n)]
        ids[0], ids[1], ids[-1] = "a,b", 'q"x', 'last,"one"'
        ds = LabeledDataset.from_arrays(X, rng.choice([FAIL, PASS], size=n),
                                        ids=ids if with_ids else None)
        ds.save_csv(tmp_path / "got.csv")
        ref_save_csv(ds, tmp_path / "want.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


class TestSplit:
    def make(self, n_pass, n_fail, seed=0):
        """Rows with ids "0", "1", ..., so that a split shows where its rows came from."""
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n_pass + n_fail, 2))
        y = [PASS] * n_pass + [FAIL] * n_fail
        return LabeledDataset.from_arrays(X, y, ids=[str(i) for i in range(len(y))])

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
        assert a.test.ids == b.test.ids and a.train.ids == b.train.ids

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
            merged = sorted(res.train.ids + res.test.ids, key=int)
            assert merged == list(ds.ids)
            assert not set(res.train.ids) & set(res.test.ids)

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
