import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cfbench import forest
from cfbench.balance import ClassWeights, cost_weights
from cfbench.bench import ExperimentConfig, fail_predicted_rows
from cfbench.dataset import FAIL, PASS, LabeledDataset
from cfbench.forest import (
    EXTRATREES,
    GINI,
    CvSpec,
    Hyperparams,
    NodeTable,
    RandomForestModel,
    Tree,
    _cv_totals,
    _fit_trees,
    _left_sums,
    evaluate,
    fit_forest,
    load_model,
    rank_auc,
    save_model,
    tune,
    vanilla_hyperparams,
)
from cfbench.rng import KeyedStream, derive_seed, path_key, spawn_rng, stream_rngs

from synth import make_blobs


def brute_auc(scores, positives):
    """All-pairs oracle: wins count 1, ties count half."""
    pos = [s for s, y in zip(scores, positives) if y]
    neg = [s for s, y in zip(scores, positives) if not y]
    wins = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                wins += 1.0
            elif sp == sn:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def separable_dataset(n=40, seed=0):
    rng = np.random.default_rng(seed)
    x_fail = rng.uniform(0.0, 1.0, size=n // 2)
    x_pass = rng.uniform(2.0, 3.0, size=n - n // 2)
    X = np.concatenate([x_fail, x_pass])[:, None]
    y = [FAIL] * (n // 2) + [PASS] * (n - n // 2)
    order = rng.permutation(n)
    return LabeledDataset.from_arrays(X[order], np.asarray(y)[order])


def leaf_tree(p_fail):
    return Tree(
        feature=np.array([-1], dtype=np.int32),
        threshold=np.array([math.nan]),
        left=np.array([-1], dtype=np.int32),
        right=np.array([-1], dtype=np.int32),
        p_fail=np.array([float(p_fail)]),
    )


def leaf_forest(p_fails, p, seed=0):
    """A forest of one-leaf trees, which it also holds as its ``trees``."""
    trees = tuple(leaf_tree(v) for v in p_fails)
    return RandomForestModel(NodeTable.of(trees), ClassWeights.unit(), seed, p, trees=trees)


def trees_equal(a, b):
    return (
        np.array_equal(a.feature, b.feature)
        and np.array_equal(a.threshold, b.threshold, equal_nan=True)
        and np.array_equal(a.left, b.left)
        and np.array_equal(a.right, b.right)
        and np.array_equal(a.p_fail, b.p_fail, equal_nan=True)
    )


def ref_split_gini(V, y, w):
    """Reference gini split: scores every adjacent pair of sorted values and
    masks the ones that are not a boundary between distinct values."""
    m = V.shape[0]
    order = np.argsort(V, axis=0, kind="stable")
    sv = np.take_along_axis(V, order, axis=0)
    valid = sv[1:] > sv[:-1]
    if not valid.any():
        return None
    if w is None:
        cf = np.cumsum(y[order], axis=0)
        cw = np.arange(1.0, m + 1.0)[:, None]
        total_w = float(m)
        total_f = float(y.sum())
    else:
        cf = np.cumsum((w * y)[order], axis=0)
        cw = np.cumsum(w[order], axis=0)
        total_w = float(w.sum())
        total_f = float((w * y).sum())
    wl, fl = cw[:-1], cf[:-1]
    wr, fr = total_w - wl, total_f - fl
    score = (wl - (fl * fl + (wl - fl) ** 2) / wl) + (wr - (fr * fr + (wr - fr) ** 2) / wr)
    score = np.where(valid, score, np.inf)
    flat = int(np.argmin(score))
    pos, col = np.unravel_index(flat, score.shape)
    a, b = float(sv[pos, col]), float(sv[pos + 1, col])
    thr = 0.5 * (a + b)
    if not a <= thr < b:
        thr = a
    return int(col), thr


def ref_split_extratrees(V, y, w, rng):
    """Reference extratrees split: every threshold nudged, every column scored."""
    lo = V.min(axis=0)
    hi = V.max(axis=0)
    u = rng.random(V.shape[1])
    thr = lo + u * (hi - lo)
    thr = np.where(thr <= lo, np.nextafter(lo, hi), thr)
    thr = np.where(thr >= hi, np.nextafter(hi, lo), thr)
    ok = (thr > lo) & (thr < hi)
    if not ok.any():
        return None
    left = V <= thr
    if w is None:
        wl = left.sum(axis=0).astype(np.float64)
        fl = y @ left
        total_w = float(V.shape[0])
        total_f = float(y.sum())
    else:
        # row-order sums, as the grower adds them
        wl = np.cumsum(np.where(left, w[:, None], 0.0), axis=0)[-1]
        fl = np.cumsum(np.where(left, (w * y)[:, None], 0.0), axis=0)[-1]
        total_w = float(w.sum())
        total_f = float((w * y).sum())
    wl = np.where(ok, wl, 1.0)
    wr = np.where(ok, total_w - wl, 1.0)
    fr = total_f - fl
    score = (wl - (fl * fl + (wl - fl) ** 2) / wl) + (wr - (fr * fr + (wr - fr) ** 2) / wr)
    score = np.where(ok, score, np.inf)
    col = int(np.argmin(score))
    return col, float(thr[col])


def ref_grow_tree(X, y, w, hp, rng):
    """Reference grower: one `np.ix_` gather per node and a node list grown
    by appends. A node to split draws from the stream of its path key: the
    tree's key from ``rng`` at the root, `path_key` of its parent's key and
    side below. The grower in `forest` must give the same trees."""
    p = X.shape[1]
    feature, threshold, left, right, p_fail = [], [], [], [], []
    streams = KeyedStream()

    def new_node():
        feature.append(-1)
        threshold.append(math.nan)
        left.append(-1)
        right.append(-1)
        p_fail.append(math.nan)
        return len(feature) - 1

    stack = [(np.arange(X.shape[0]), new_node(), int(rng.integers(0, 1 << 64, dtype=np.uint64)))]
    while stack:
        idx, slot, key = stack.pop()
        yn = y[idx]
        fails = float(yn.sum())
        m = idx.size
        if m < hp.min_node_size or fails == 0.0 or fails == m:
            p_fail[slot] = fails / m
            continue
        node_rng = streams.at(key)
        feats = np.argsort(node_rng.random(p), kind="stable")[:hp.mtry]
        V = X[np.ix_(idx, feats)]
        wn = w[idx] if w is not None else None
        if hp.splitrule == GINI:
            res = ref_split_gini(V, yn, wn)
        else:
            res = ref_split_extratrees(V, yn, wn, node_rng)
        if res is None:
            p_fail[slot] = fails / m
            continue
        col, thr = res
        f_global = int(feats[col])
        go_left = X[idx, f_global] <= thr
        li, ri = new_node(), new_node()
        feature[slot] = f_global
        threshold[slot] = thr
        left[slot] = li
        right[slot] = ri
        stack.append((idx[~go_left], ri, path_key(key, 1)))
        stack.append((idx[go_left], li, path_key(key, 0)))

    return Tree(
        feature=np.asarray(feature, dtype=np.int32),
        threshold=np.asarray(threshold, dtype=np.float64),
        left=np.asarray(left, dtype=np.int32),
        right=np.asarray(right, dtype=np.int32),
        p_fail=np.asarray(p_fail, dtype=np.float64),
    )


def ref_forest(ds, hp, weights, seed):
    """`fit_forest`'s trees, grown by `ref_grow_tree`."""
    X = ds.features
    y01 = (ds.labels == FAIL).astype(np.float64)
    w_row = None if weights.is_unit else weights.per_row(ds.labels)
    trees = []
    for rng in stream_rngs(seed, hp.n_trees):
        if w_row is None:
            idxb = rng.choice(ds.n, size=ds.n, replace=True)
        else:
            idxb = rng.choice(ds.n, size=ds.n, replace=True, p=w_row / w_row.sum())
        wb = None if w_row is None else w_row[idxb]
        trees.append(ref_grow_tree(X[idxb], y01[idxb], wb, hp, rng))
    return trees


# 1 + k ulp: the midpoint of the last two rounds up onto the larger one
ADJACENT = [1.0 + k * 2.0 ** -52 for k in range(4)]


@st.composite
def grower_cases(draw):
    """A tie-heavy dataset and grower settings for the reference comparison.

    Columns are small integers, one constant, a mix of -0.0 and 0.0,
    adjacent floats, reals, or the negation of the first column (equal
    scores at mirrored positions). Rows are drawn from a smaller set of
    distinct rows, so most datasets hold duplicate rows.
    """
    n = draw(st.integers(2, 200))
    p = draw(st.integers(1, 5))
    distinct = draw(st.integers(1, n))
    columns = []
    for j in range(p):
        kind = draw(st.sampled_from(["ints", "const", "zeros", "adjacent", "reals", "negated"]))
        if kind == "negated" and j > 0:
            columns.append(-columns[0])
            continue
        values = {"ints": st.integers(0, 3).map(float),
                  "const": st.just(2.0),
                  "zeros": st.sampled_from([-0.0, 0.0, 1.0]),
                  "adjacent": st.sampled_from(ADJACENT),
                  "reals": st.floats(-5.0, 5.0),
                  "negated": st.integers(0, 1).map(float)}[kind]
        columns.append(np.array(draw(st.lists(values, min_size=distinct, max_size=distinct))))
    rows = draw(st.lists(st.integers(0, distinct - 1), min_size=n, max_size=n))
    X = np.column_stack(columns)[rows]
    fails = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    ds = LabeledDataset.from_arrays(X, np.where(fails, FAIL, PASS))
    weighted = draw(st.booleans()) and 0 < sum(fails) < n
    hp = Hyperparams(mtry=min(draw(st.sampled_from([1, 2, p])), p),
                     splitrule=draw(st.sampled_from([GINI, EXTRATREES])),
                     min_node_size=draw(st.sampled_from([1, 5])), n_trees=3)
    return ds, hp, cost_weights(ds) if weighted else ClassWeights.unit(), draw(st.integers(0, 99))


class TestGrowerOracle:
    """The grower against the reference implementation above, tree for tree."""

    @settings(max_examples=300, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(grower_cases())
    def test_trees_equal_reference(self, case):
        ds, hp, weights, seed = case
        got = fit_forest(ds, hp, weights, seed).trees
        want = ref_forest(ds, hp, weights, seed)
        assert all(trees_equal(a, b) for a, b in zip(got, want))

    def test_reference_on_paper_like_counts(self):
        """Click-count columns at a few hundred rows, both rules, both weightings."""
        ds = make_blobs(n=300, p=8, seed=44, separation=0.7)
        ds = LabeledDataset.from_arrays(np.rint(np.abs(ds.features) * 4.0), ds.labels)
        for rule in (GINI, EXTRATREES):
            for weights in (ClassWeights.unit(), cost_weights(ds)):
                for mtry, min_node in ((1, 1), (3, 5), (8, 1)):
                    hp = Hyperparams(mtry, rule, min_node, n_trees=4)
                    got = fit_forest(ds, hp, weights, seed=11).trees
                    want = ref_forest(ds, hp, weights, seed=11)
                    assert all(trees_equal(a, b) for a, b in zip(got, want)), (rule, weights, mtry)


def counts_equal(a, b):
    return np.array_equal(a.count, b.count) and np.array_equal(a.fails, b.fails)


class TestGroups:
    """`_fit_trees` grows trees in groups of at most `forest._GROUP_CELLS`
    cells; the trees do not depend on where the groups end."""

    @settings(max_examples=150, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(grower_cases(), st.integers(1, 3))
    def test_trees_equal_reference_in_any_grouping(self, case, size):
        """Groups of 1-3 trees over 5 trees, so the last group is partial
        when it holds more than one; then the table of a grown-at-1 forest
        pruned at each size predicts as the forest grown at that size."""
        ds, hp, weights, seed = case
        hp = replace(hp, n_trees=5)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(forest, "_GROUP_CELLS", size * ds.n * hp.mtry)
            got = fit_forest(ds, hp, weights, seed)
            full = fit_forest(ds, replace(hp, min_node_size=1), weights, seed)
        want = ref_forest(ds, hp, weights, seed)
        assert all(trees_equal(a, b) for a, b in zip(got.trees, want))
        assert_pruned_is_grown(full, got, hp.min_node_size, ds.features)

    def test_rules_weightings_and_sizes_on_counts(self, monkeypatch):
        """Every (rule, weighting, min_node_size 1 or 5) on click counts, 7
        trees in groups of 3: the last group holds one tree."""
        ds = make_blobs(n=200, p=8, seed=45, separation=0.7)
        ds = LabeledDataset.from_arrays(np.rint(np.abs(ds.features) * 4.0), ds.labels)
        for rule in (GINI, EXTRATREES):
            for weights in (ClassWeights.unit(), cost_weights(ds)):
                for s in (1, 5):
                    hp = Hyperparams(3, rule, s, n_trees=7)
                    monkeypatch.setattr(forest, "_GROUP_CELLS", 3 * ds.n * hp.mtry)
                    got = fit_forest(ds, hp, weights, seed=12).trees
                    monkeypatch.undo()
                    assert all(trees_equal(a, b) and counts_equal(a, b) for a, b in
                               zip(got, fit_forest(ds, hp, weights, seed=12).trees)), (rule, s)
                    assert all(trees_equal(a, b) for a, b in
                               zip(got, ref_forest(ds, hp, weights, seed=12))), (rule, s)


class TestKeyedStream:
    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(st.integers(0, 2 ** 64 - 1), st.integers(0, 2 ** 64 - 1), st.integers(0, 9),
           st.integers(0, 9))
    def test_reused_stream_draws_as_a_fresh_one(self, key, before, n_doubles, n_halves):
        """Draws at a key do not depend on what the stream drew before,
        buffered 32-bit halves included."""
        fresh = KeyedStream().at(key).random(12)
        reused = KeyedStream()
        rng = reused.at(before)
        rng.random(n_doubles)
        rng.integers(0, 1 << 32, size=n_halves, dtype=np.uint32)
        assert reused.at(key).random(12).tolist() == fresh.tolist()


def assert_pruned_is_grown(full, grown, s, X):
    """``full``'s node table pruned at min_node_size ``s`` gives every tree's
    leaf values of ``grown``, the forest grown at ``s``, bit for bit on the
    training rows ``X`` and on random probes around them, and has its depth."""
    count = np.concatenate([t.count for t in full.trees])
    fails = np.concatenate([t.fails for t in full.trees])
    pruned = full.table.pruned(count, fails, s)
    lo, hi = X.min(axis=0) - 1.0, X.max(axis=0) + 1.0
    probe = np.vstack([X, np.random.default_rng(s).uniform(lo, hi, size=(50, X.shape[1]))])
    np.testing.assert_array_equal(pruned.leaf_proba(probe), grown.table.leaf_proba(probe),
                                  err_msg=f"min_node_size {s}")
    assert pruned.depth == grown.table.depth, s


class TestPrune:
    """The node table of a forest grown at min_node_size 1, pruned at s,
    predicts as the forest grown at s."""

    @settings(max_examples=300, derandomize=True, database=None, deadline=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(grower_cases())
    def test_grown_equals_pruned(self, case):
        ds, hp, weights, seed = case
        full = fit_forest(ds, replace(hp, min_node_size=1), weights, seed)
        for s in (2, 5, 10):
            grown = fit_forest(ds, replace(hp, min_node_size=s), weights, seed)
            assert_pruned_is_grown(full, grown, s, ds.features)

    def test_rules_and_weightings_on_counts(self):
        """Both split rules and both weightings, on a frame deep enough that
        the sizes 5 and 10 cut nodes."""
        ds = make_blobs(n=300, p=8, seed=44, separation=0.7)
        ds = LabeledDataset.from_arrays(np.rint(np.abs(ds.features) * 4.0), ds.labels)
        for rule in (GINI, EXTRATREES):
            for weights in (ClassWeights.unit(), cost_weights(ds)):
                hp = Hyperparams(3, rule, 1, n_trees=4)
                full = fit_forest(ds, hp, weights, seed=5)
                for s in (2, 5, 10):
                    grown = fit_forest(ds, replace(hp, min_node_size=s), weights, seed=5)
                    assert_pruned_is_grown(full, grown, s, ds.features)
                    # a one-row node is pure, so s = 2 cuts nothing
                    cuts = grown.table.feature.size < full.table.feature.size
                    assert cuts == (s > 2), (rule, s)

    def test_node_counts(self):
        """A node's count and fails are its bootstrap rows and their fails,
        and a leaf's value is their ratio."""
        ds = make_blobs(n=80, p=4, seed=3)
        X = ds.features
        y01 = (ds.labels == FAIL).astype(np.float64)
        (tree,), inbag = _fit_trees(X, y01, Hyperparams(2, GINI, 3, n_trees=1), 8, None, False,
                                    None, True)
        rows = np.repeat(np.arange(ds.n), inbag[0])
        stack = [(0, rows)]
        while stack:
            node, idx = stack.pop()
            assert tree.count[node] == idx.size and tree.fails[node] == y01[idx].sum()
            f = int(tree.feature[node])
            if f < 0:
                assert tree.p_fail[node] == tree.fails[node] / tree.count[node]
                continue
            go_left = X[idx, f] <= tree.threshold[node]
            stack.append((int(tree.left[node]), idx[go_left]))
            stack.append((int(tree.right[node]), idx[~go_left]))


class TestLeftSums:
    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(st.integers(1, 300), st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
    def test_row_order_in_any_layout(self, m, k, seed):
        """The weighted extratrees sums equal a row-order loop, also for one
        column, for a Fortran-ordered node matrix, and for the node as one
        zero-padded block among others."""
        rng = np.random.default_rng(seed)
        w = rng.gamma(1.0, size=m) * 10.0 ** rng.integers(-3, 4, size=m)
        wy = w * (rng.random(m) < 0.4)
        V = rng.integers(0, 4, size=(m, k)).astype(float)
        thr = rng.uniform(0.0, 3.0, size=k)
        want = np.zeros((2, k))
        for j in range(k):
            for i in range(m):
                if V[i, j] <= thr[j]:
                    want[0, j] += w[i]
                    want[1, j] += wy[i]
        for layout in (np.ascontiguousarray(V), np.asfortranarray(V)):
            wl, fl = _left_sums(w, wy, layout <= thr)
            assert wl.tolist() == want[0].tolist() and fl.tolist() == want[1].tolist()
        # block 1 of 3, padded with zero weights to 2m rows; its neighbours
        # hold other values, which must not leak into its sums
        pad = np.zeros(m)
        w3 = np.column_stack([np.concatenate([w[::-1], w]), np.concatenate([w, pad]),
                              np.concatenate([w, w])])
        wy3 = np.column_stack([np.concatenate([wy[::-1], wy]), np.concatenate([wy, pad]),
                               np.concatenate([wy, wy])])
        left = np.concatenate([V <= thr, rng.random((m, k)) < 0.5])
        left3 = np.stack([~left, left, left], axis=1)
        wl3, fl3 = _left_sums(w3, wy3, left3)
        assert wl3.shape == fl3.shape == (3, k)
        assert wl3[1].tolist() == want[0].tolist() and fl3[1].tolist() == want[1].tolist()


class TestFit:
    def test_separable_training_accuracy(self):
        ds = separable_dataset()
        model = fit_forest(ds, Hyperparams(1, "gini", 1, n_trees=20), ClassWeights.unit(), seed=0)
        pred_fail = model.predict_proba_batch(ds.features) >= 0.5
        assert (pred_fail == (ds.labels == FAIL)).mean() == 1.0

    def test_deterministic_predictions(self):
        ds = make_blobs(n=80, p=4, seed=1)
        hp = Hyperparams(2, "gini", 2, n_trees=10)
        probe = np.random.default_rng(5).normal(size=(25, 4))
        a = fit_forest(ds, hp, ClassWeights.unit(), seed=7).predict_proba_batch(probe)
        b = fit_forest(ds, hp, ClassWeights.unit(), seed=7).predict_proba_batch(probe)
        np.testing.assert_array_equal(a, b)

    def test_extratrees_deterministic(self):
        ds = make_blobs(n=60, p=3, seed=2)
        hp = Hyperparams(2, "extratrees", 1, n_trees=8)
        probe = ds.features[:10]
        a = fit_forest(ds, hp, ClassWeights.unit(), seed=3).predict_proba_batch(probe)
        b = fit_forest(ds, hp, ClassWeights.unit(), seed=3).predict_proba_batch(probe)
        np.testing.assert_array_equal(a, b)

    def test_prefix_of_a_larger_forest(self):
        ds = make_blobs(n=70, p=4, seed=13)
        for rule in (GINI, EXTRATREES):
            for weights in (ClassWeights.unit(), cost_weights(ds)):
                small = fit_forest(ds, Hyperparams(2, rule, 3, n_trees=3), weights, seed=4).trees
                large = fit_forest(ds, Hyperparams(2, rule, 3, n_trees=7), weights, seed=4).trees
                assert all(trees_equal(a, b) for a, b in zip(small, large[:3])), rule

    def test_mtry_exceeds_p(self):
        ds = make_blobs(n=30, p=3)
        with pytest.raises(ValueError, match="mtry"):
            fit_forest(ds, Hyperparams(4, "gini", 1, n_trees=2), ClassWeights.unit(), seed=0)

    def test_hyperparam_validation(self):
        with pytest.raises(ValueError):
            Hyperparams(0, "gini", 1)
        with pytest.raises(ValueError):
            Hyperparams(1, "entropy", 1)
        with pytest.raises(ValueError):
            Hyperparams(1, "gini", 0)

    def test_weighted_path_with_unit_weights_matches_unweighted(self):
        """The weighted-Gini code with all-ones weights grows the same trees."""
        ds = make_blobs(n=70, p=4, seed=4)
        X = ds.features
        y01 = (ds.labels == FAIL).astype(np.float64)
        hp = Hyperparams(2, "gini", 1, n_trees=3)
        ones = np.ones(ds.n)
        for seed in range(20):
            unweighted, _ = _fit_trees(X, y01, hp, seed, None, False, None, False)
            weighted, _ = _fit_trees(X, y01, hp, seed, ones, True, None, False)
            assert all(trees_equal(a, b) for a, b in zip(unweighted, weighted))

    def test_weighted_path_extratrees_identity(self):
        ds = make_blobs(n=50, p=3, seed=6)
        X = ds.features
        y01 = (ds.labels == FAIL).astype(np.float64)
        hp = Hyperparams(2, "extratrees", 1, n_trees=3)
        ones = np.ones(ds.n)
        for seed in range(10):
            unweighted, _ = _fit_trees(X, y01, hp, seed, None, False, None, False)
            weighted, _ = _fit_trees(X, y01, hp, seed, ones, True, None, False)
            assert all(trees_equal(a, b) for a, b in zip(unweighted, weighted))

    def test_class_weights_change_fit(self):
        ds = make_blobs(n=80, p=3, seed=8, fail_frac=0.2, separation=1.0)
        hp = Hyperparams(2, "gini", 1, n_trees=15)
        plain = fit_forest(ds, hp, ClassWeights.unit(), seed=1)
        weighted = fit_forest(ds, hp, cost_weights(ds), seed=1)
        # weighting the minority up must increase its predicted probability mass
        assert weighted.predict_proba_batch(ds.features).mean() > \
            plain.predict_proba_batch(ds.features).mean()

    def test_gini_thresholds_are_midpoints(self):
        # small integer grid: every split threshold must be a midpoint of
        # adjacent distinct values present in the node
        rng = np.random.default_rng(9)
        X = rng.integers(0, 5, size=(40, 2)).astype(float)
        y01 = (rng.random(40) < 0.5).astype(np.float64)
        (tree,), _ = _fit_trees(X, y01, Hyperparams(2, "gini", 1, n_trees=1), 9, None, False,
                                None, False)
        midpoints = {(a + b) / 2 for a in range(5) for b in range(5)} | {float(v) for v in range(5)}
        assert (tree.feature >= 0).any()
        for i in range(tree.feature.size):
            if tree.feature[i] >= 0:
                assert float(tree.threshold[i]) in midpoints

    def test_extratrees_thresholds_strictly_inside_node_range(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(60, 3))
        y01 = (rng.random(60) < 0.4).astype(np.float64)
        (tree,), inbag = _fit_trees(X, y01, Hyperparams(3, "extratrees", 1, n_trees=1), 10, None,
                                    False, None, True)
        # walk the tree, tracking the bootstrap rows that reach each node
        stack = [(0, np.repeat(np.arange(60), inbag[0]))]
        checked = 0
        while stack:
            node, idx = stack.pop()
            f = int(tree.feature[node])
            if f < 0:
                continue
            vals = X[idx, f]
            thr = float(tree.threshold[node])
            assert vals.min() < thr < vals.max()
            checked += 1
            go_left = vals <= thr
            stack.append((int(tree.left[node]), idx[go_left]))
            stack.append((int(tree.right[node]), idx[~go_left]))
        assert checked > 0

    def test_oob_error_stabilizes(self):
        """Running OOB error variance over the last 100 trees stays below 1e-4."""
        ds = make_blobs(n=150, p=4, seed=12, separation=1.5)
        model = fit_forest(ds, Hyperparams(2, "gini", 5, n_trees=200),
                           ClassWeights.unit(), seed=0, keep_inbag=True)
        per_tree = model.table.leaf_proba(ds.features)  # (T, n)
        oob = model.inbag == 0
        contrib = np.cumsum(per_tree * oob, axis=0)
        counts = np.cumsum(oob, axis=0)
        truth_fail = ds.labels == FAIL
        errors = []
        for t in range(model.n_trees):
            have = counts[t] > 0
            proba = contrib[t, have] / counts[t, have]
            err = ((proba >= 0.5) != truth_fail[have]).mean()
            errors.append(err)
        assert np.var(errors[-100:]) < 1e-4


class TestPredict:
    def test_unanimous_fail(self):
        model = leaf_forest([1.0, 1.0], p=2)
        assert model.predict_proba([0.0, 0.0]) == 1.0

    def test_mean_of_leaf_probs(self):
        model = leaf_forest([0.2, 0.6], p=1)
        assert model.predict_proba([0.0]) == pytest.approx(0.4)

    def test_tie_goes_to_fail(self):
        model = leaf_forest([0.5], p=1)
        test = LabeledDataset.from_arrays([[0.0], [1.0]], [FAIL, PASS])
        assert fail_predicted_rows(model, test, None) == [0, 1]

    def test_dimension_mismatch(self):
        model = leaf_forest([0.5], p=2)
        with pytest.raises(ValueError, match="dimension"):
            model.predict_proba([1.0])

    def test_probabilities_in_unit_interval(self):
        ds = make_blobs(n=60, p=3, seed=14)
        model = fit_forest(ds, Hyperparams(2, "gini", 1, n_trees=12), ClassWeights.unit(), seed=2)
        probe = np.random.default_rng(1).normal(size=(50, 3)) * 10
        proba = model.predict_proba_batch(probe)
        assert ((proba >= 0.0) & (proba <= 1.0)).all()


def oracle_proba(trees, X):
    """One tree and one row at a time through a fitted model's ``trees``,
    leaf probabilities summed in tree order."""
    out = []
    for row in np.atleast_2d(X):
        total = 0.0
        for tree in trees:
            i = 0
            while tree.feature[i] >= 0:
                i = tree.left[i] if row[tree.feature[i]] <= tree.threshold[i] else tree.right[i]
            total += tree.p_fail[i]
        out.append(total / len(trees))
    return np.array(out)


class TestNodeTable:
    """The one traversal over all trees against a per-tree, per-row walk."""

    def forests(self):
        ds = make_blobs(n=90, p=5, seed=41, separation=0.8)
        weighted = cost_weights(ds)
        models = {
            f"{rule}-{'weighted' if w is weighted else 'unit'}":
                fit_forest(ds, Hyperparams(3, rule, 4, n_trees=40), w, seed=6)
            for rule in ("gini", "extratrees") for w in (ClassWeights.unit(), weighted)
        }
        # (0.1 + 0.2) + 0.3 != (0.3 + 0.2) + 0.1: the summation order shows
        models["single-leaf"] = leaf_forest([0.1, 0.2, 0.3], p=5)
        probe = np.vstack([ds.features, np.random.default_rng(2).normal(size=(40, 5)) * 3])
        return models, probe

    def test_matches_oracle_bit_for_bit(self):
        models, probe = self.forests()
        for name, model in models.items():
            np.testing.assert_array_equal(model.predict_proba_batch(probe),
                                          oracle_proba(model.trees, probe), err_msg=name)

    def test_per_tree_matrix(self):
        models, probe = self.forests()
        for name, model in models.items():
            per_tree = model.table.leaf_proba(probe)
            assert per_tree.shape == (model.n_trees, probe.shape[0])
            for t, tree in enumerate(model.trees):
                np.testing.assert_array_equal(per_tree[t], oracle_proba([tree], probe),
                                              err_msg=name)

    def test_rows_are_independent(self):
        models, probe = self.forests()
        for name, model in models.items():
            batch = model.predict_proba_batch(probe)
            for i in range(probe.shape[0]):
                assert model.predict_proba_batch(probe[i:i + 1])[0] == batch[i], name
                assert model.predict_proba(probe[i]) == batch[i], name

    def test_table_is_read_only(self):
        ds = make_blobs(n=40, p=3, seed=43)
        model = fit_forest(ds, Hyperparams(2, "gini", 1, n_trees=3), ClassWeights.unit(), seed=0)
        with pytest.raises(ValueError):
            model.table.threshold[0] = 0.0
        assert model.table.roots.size == 3


class TestAuc:
    def test_hand_example(self):
        # fail scores 0.9, 0.4; pass scores 0.6, 0.1 -> wins 3 of 4 pairs
        scores = np.array([0.9, 0.4, 0.6, 0.1])
        positives = np.array([True, True, False, False])
        assert rank_auc(scores, positives) == pytest.approx(0.75)

    def test_perfect_separation(self):
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        positives = np.array([True, True, False, False])
        assert rank_auc(scores, positives) == 1.0

    def test_matches_brute_force_on_random_vectors(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            n = int(rng.integers(4, 50))
            # coarse grid scores force plenty of ties
            scores = rng.integers(0, 6, size=n) / 5.0
            positives = rng.random(n) < 0.5
            if positives.all() or not positives.any():
                continue
            assert abs(rank_auc(scores, positives) - brute_auc(scores, positives)) < 1e-12

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="both classes"):
            rank_auc(np.array([0.5, 0.6]), np.array([True, True]))


class TestEvaluate:
    def test_all_correct(self):
        ds = separable_dataset()
        model = fit_forest(ds, Hyperparams(1, "gini", 1, n_trees=10), ClassWeights.unit(), seed=0)
        m = evaluate(model, ds)
        assert m.accuracy == 1.0 and m.f1 == 1.0 and m.auc == 1.0

    def test_single_class_test_set(self):
        ds = separable_dataset()
        model = fit_forest(ds, Hyperparams(1, "gini", 1, n_trees=5), ClassWeights.unit(), seed=0)
        only_pass = ds.subset(ds.indices_of(PASS))
        with pytest.raises(ValueError, match="single class"):
            evaluate(model, only_pass)

    def test_metrics_bounded(self):
        ds = make_blobs(n=100, p=3, seed=19, separation=0.6)
        model = fit_forest(ds, Hyperparams(2, "gini", 1, n_trees=10), ClassWeights.unit(), seed=4)
        m = evaluate(model, make_blobs(n=60, p=3, seed=23, separation=0.6))
        for v in (m.accuracy, m.auc, m.f1):
            assert 0.0 <= v <= 1.0


def ref_cv_totals(train, grid, cv, weights):
    """Reference CV totals: one forest fit per grid point, fold and repeat,
    on the folds and fold seeds that `tune` uses."""
    counts = train.class_counts()
    totals = np.zeros(len(grid))
    for r in range(cv.repeats):
        rng = spawn_rng(cv.seed, r)
        assign = np.empty(train.n, dtype=np.int64)
        for lab in counts:
            members = train.indices_of(lab)
            perm = rng.permutation(members.size)
            assign[members[perm]] = np.arange(members.size) % cv.folds
        for fold in range(cv.folds):
            sub_train = train.subset(np.flatnonzero(assign != fold))
            sub_val = train.subset(np.flatnonzero(assign == fold))
            for gi, hp in enumerate(grid):
                model = fit_forest(sub_train, hp, weights, derive_seed(cv.seed, 1000 + r, fold))
                totals[gi] += getattr(evaluate(model, sub_val), cv.objective)
    return totals


class TestTune:
    def test_single_point_grid(self):
        ds = make_blobs(n=60, p=3, seed=25)
        hp = Hyperparams(1, "gini", 5, n_trees=4)
        assert tune(ds, [hp], CvSpec(folds=3, repeats=1, seed=0), ClassWeights.unit()) == hp

    def test_tie_keeps_first_grid_point(self):
        ds = separable_dataset(n=30)
        # perfectly separable: every configuration scores AUC 1.0
        grid = [Hyperparams(1, "gini", 1, n_trees=4), Hyperparams(1, "gini", 2, n_trees=4)]
        best = tune(ds, grid, CvSpec(folds=3, repeats=1, seed=1), ClassWeights.unit())
        assert best == grid[0]

    def test_fold_infeasibility(self):
        ds = make_blobs(n=20, p=2, seed=27, fail_frac=0.12)
        with pytest.raises(ValueError, match="fold infeasibility"):
            tune(ds, [Hyperparams(1, "gini", 1, n_trees=2)],
                 CvSpec(folds=5, repeats=1, seed=0), ClassWeights.unit())

    def test_empty_grid(self):
        ds = make_blobs(n=30)
        with pytest.raises(ValueError, match="empty"):
            tune(ds, [], CvSpec(folds=2, repeats=1, seed=0), ClassWeights.unit())

    @pytest.mark.parametrize("objective,weighted", [("auc", False), ("f1", True),
                                                    ("accuracy", True)])
    def test_matches_one_fit_per_grid_point(self, objective, weighted):
        """Shared, pruned forests give the totals and the pick of one forest
        fit per grid point; sizes out of order and a repeated point included."""
        ds = make_blobs(n=120, p=5, seed=31, separation=0.6)
        weights = cost_weights(ds) if weighted else ClassWeights.unit()
        grid = [Hyperparams(m, rule, s, n_trees=3)
                for m in (1, 4) for rule in (GINI, EXTRATREES) for s in (5, 1, 10)]
        grid.append(Hyperparams(4, GINI, 5, n_trees=3))
        cv = CvSpec(folds=3, repeats=2, objective=objective, seed=7)
        want = ref_cv_totals(ds, grid, cv, weights)
        np.testing.assert_array_equal(_cv_totals(ds, grid, cv, weights), want)
        assert tune(ds, grid, cv, weights) == grid[int(np.argmax(want))]

    def test_picks_clearly_better_point(self):
        # mtry=2 on 2 informative features beats a stump-ish min_node_size equal
        # to the training size, which cannot split at all
        ds = make_blobs(n=80, p=2, seed=29, separation=2.5)
        bad = Hyperparams(1, "gini", 10_000, n_trees=6)
        good = Hyperparams(2, "gini", 1, n_trees=6)
        best = tune(ds, [bad, good], CvSpec(folds=3, repeats=2, seed=3), ClassWeights.unit())
        assert best == good


class TestDefaults:
    def test_vanilla(self):
        hp = vanilla_hyperparams(42)
        assert hp == Hyperparams(mtry=6, splitrule="gini", min_node_size=1, n_trees=500)

    def test_grid_covers_reported_optima(self):
        grid = ExperimentConfig(frame_csv=Path("frame.csv")).full_scale().grid(42)
        assert len(grid) == 4 * 2 * 3
        for mtry, rule, size in [(41, "gini", 1), (41, "extratrees", 1), (21, "gini", 1)]:
            assert Hyperparams(mtry, rule, size, n_trees=500) in grid

    def test_grid_clamped_to_p(self):
        grid = ExperimentConfig(frame_csv=Path("frame.csv")).grid(10)
        assert {hp.mtry for hp in grid} == {2, 6, 10}


def per_node_save(model, path):
    """Reference writer: the forest's text, one tree and one node at a time
    from the grower's per-tree arrays."""
    with Path(path).open("w") as fh:
        fh.write(forest.FOREST_FORMAT + "\n")
        fh.write(f"p {model.p}\n")
        fh.write(f"trees {model.n_trees}\n")
        fh.write(f"weight_fail {model.class_weights.weight_fail!r}\n")
        fh.write(f"weight_pass {model.class_weights.weight_pass!r}\n")
        fh.write(f"seed {model.training_seed}\n")
        fh.write("tree,node,feature,threshold,left,right,p_fail,p_pass\n")
        for t, tree in enumerate(model.trees):
            for i in range(tree.feature.size):
                if tree.feature[i] < 0:
                    pf = float(tree.p_fail[i])
                    fh.write(f"{t},{i},-1,,-1,-1,{pf!r},{1.0 - pf!r}\n")
                else:
                    fh.write(
                        f"{t},{i},{tree.feature[i]},{float(tree.threshold[i])!r},"
                        f"{tree.left[i]},{tree.right[i]},,\n"
                    )


class TestSerialization:
    @pytest.mark.parametrize("chunk", [forest._SAVE_NODES, 5, 1])
    def test_table_writer_matches_per_node_writer(self, tmp_path, monkeypatch, chunk):
        """`save_model` writes from the node table the bytes that a per-node
        walk of the trees writes: both rules, unit and cost weights, and
        one-leaf trees, in one chunk of nodes or in chunks that end inside
        trees and between them."""
        monkeypatch.setattr(forest, "_SAVE_NODES", chunk)
        ds = make_blobs(n=90, p=5, seed=41, separation=0.8)
        models = [fit_forest(ds, Hyperparams(3, rule, s, n_trees=12), w, seed=6)
                  for rule in (GINI, EXTRATREES) for s in (1, 8)
                  for w in (ClassWeights.unit(), cost_weights(ds))]
        models.append(leaf_forest([0.1, 1 / 3], p=5, seed=4))
        for k, model in enumerate(models):
            save_model(model, tmp_path / "got.forest")
            per_node_save(model, tmp_path / "want.forest")
            got = (tmp_path / "got.forest").read_bytes()
            assert got == (tmp_path / "want.forest").read_bytes(), k

    def test_round_trip(self, tmp_path):
        """A loaded forest has the node table of the forest it was saved
        from, predicts as it does bit for bit and saves to the same bytes:
        both rules, unit and cost weights, and one-leaf trees. It holds no
        per-tree output."""
        ds = make_blobs(n=60, p=4, seed=31)
        models = [fit_forest(ds, Hyperparams(2, rule, 1, n_trees=6), w, seed=9)
                  for rule in (GINI, EXTRATREES) for w in (ClassWeights.unit(), cost_weights(ds))]
        probe = np.vstack([ds.features, np.random.default_rng(0).normal(size=(20, 4))])
        for model in models + [leaf_forest([0.1, 1 / 3], p=4, seed=3)]:
            path = tmp_path / "model.forest"
            save_model(model, path)
            back = load_model(path)
            assert (back.p, back.class_weights, back.training_seed, back.trees) == \
                (model.p, model.class_weights, model.training_seed, None)
            for name in ("feature", "threshold", "children", "p_fail", "roots"):
                np.testing.assert_array_equal(getattr(back.table, name),
                                              getattr(model.table, name), err_msg=name)
            assert back.table.depth == model.table.depth
            np.testing.assert_array_equal(model.predict_proba_batch(probe),
                                          back.predict_proba_batch(probe))
            save_model(back, tmp_path / "again.forest")
            assert (tmp_path / "again.forest").read_bytes() == path.read_bytes()

    def test_leaf_probability_pairs_sum_to_one(self, tmp_path):
        ds = make_blobs(n=40, p=3, seed=33)
        model = fit_forest(ds, Hyperparams(2, "gini", 1, n_trees=4), ClassWeights.unit(), seed=1)
        path = tmp_path / "model.forest"
        save_model(model, path)
        for line in path.read_text().splitlines()[7:]:
            parts = line.split(",")
            if parts[2] == "-1":
                assert float(parts[6]) + float(parts[7]) == pytest.approx(1.0)

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.forest"
        path.write_text("something else\n")
        with pytest.raises(ValueError, match="not a"):
            load_model(path)


def edit(line, column, value):
    cells = line.rstrip("\n").split(",")
    cells[column] = value
    return ",".join(cells) + "\n"


def split_at(nodes, tree=1):
    """Index in ``nodes`` of the last split line of ``tree``."""
    return max(i for i, line in enumerate(nodes)
               if line.startswith(f"{tree},") and line.split(",")[2] != "-1")


# (header and column lines, node lines) -> the lines of a malformed file
MALFORMED = {
    "deleted-split-line": (lambda head, nodes: head + nodes[:split_at(nodes)]
                           + nodes[split_at(nodes) + 1:],
                           "tree 1 node .*: node ids must run from 0 within each tree"),
    "truncated": (lambda head, nodes: head + nodes[:4] + [nodes[4][:5]], "column"),
    "tree-beyond-header": (lambda head, nodes: head + nodes + ["3,0,-1,,-1,-1,0.5,0.5\n"],
                           "tree ids must run 0 to 2 in order"),
    "empty-tree": (lambda head, nodes: head + [n for n in nodes if not n.startswith("1,")],
                   "tree ids must run 0 to 2 in order"),
    "trees-out-of-order": (lambda head, nodes: head + sorted(nodes, key=lambda n: n[0] == "1"),
                           "tree ids must run 0 to 2 in order"),
    "no-tree": (lambda head, nodes: head, "tree ids must run 0 to 2 in order"),
    "feature-of-p": (lambda head, nodes: head + [edit(nodes[0], 2, "3")] + nodes[1:],
                     r"tree 0 node 0: a split feature must be in \[0, 3\)"),
    "negative-feature": (lambda head, nodes: head + [edit(nodes[0], 2, "-2")] + nodes[1:],
                         "a split feature must be in"),
    "no-threshold": (lambda head, nodes: head + [edit(nodes[0], 3, "")] + nodes[1:],
                     "tree 0 node 0: a split node needs a threshold"),
    "child-before-parent": (lambda head, nodes: head + [edit(nodes[0], 4, "0")] + nodes[1:],
                            "children must come after it in its tree"),
    "child-outside-tree": (lambda head, nodes: head + [edit(nodes[0], 5, "999")] + nodes[1:],
                           "children must come after it in its tree"),
    "leaf-without-p_fail": (lambda head, nodes: head + nodes[:-1] + [edit(nodes[-1], 6, "")],
                            "a leaf needs a p_fail"),
    "shared-child": (lambda head, nodes: head + [edit(nodes[0], 5, nodes[0].split(",")[4])]
                     + nodes[1:], "every node but a root must be the child of one split node"),
    "unparsable-cell": (lambda head, nodes: head + [edit(nodes[0], 3, "0.5x")] + nodes[1:],
                        "0.5x"),
    "missing-header-key": (lambda head, nodes: [line for line in head
                                                if not line.startswith("seed ")] + nodes,
                           "the header has no seed"),
}


# numpy warns of a file with no node lines before the loader rejects it
@pytest.mark.filterwarnings("ignore:loadtxt. input contained no data")
@pytest.mark.parametrize("case", MALFORMED, ids=list(MALFORMED))
def test_load_rejects_a_malformed_file_by_name(tmp_path, case):
    """Each defect gives a `ValueError` that names the file. The defects are
    made in a 3-tree forest whose every tree splits, which loads as saved."""
    ds = make_blobs(n=40, p=3, seed=2)
    model = fit_forest(ds, Hyperparams(2, GINI, 1, n_trees=3), ClassWeights.unit(), seed=0)
    path = tmp_path / "m.forest"
    save_model(model, path)
    lines = path.read_text().splitlines(keepends=True)
    assert load_model(path).table.depth == model.table.depth
    assert all(line.split(",")[2] != "-1" for line in lines[7:] if line.split(",")[1] == "0")
    make, message = MALFORMED[case]
    path.write_text("".join(make(lines[:7], lines[7:])))
    with pytest.raises(ValueError, match=message) as exc:
        load_model(path)
    assert str(exc.value).startswith(f"{path}: ")
