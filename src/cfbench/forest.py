"""Random forests of CART trees grown from scratch.

Split rules: ``gini`` scores each boundary between distinct sorted values of
the candidate features and splits at the midpoint of the impurity minimum;
``extratrees`` draws one uniform-random threshold per candidate feature
inside the node's value range. Class weights enter twice, mirroring
weighted-forest practice: as weighted Gini impurity and as weighted bootstrap
sampling probabilities. Leaf probabilities are plain within-leaf class
fractions of the bootstrap sample.

Everything is deterministic given the fitting seed: each tree draws its
bootstrap and its 64-bit key from its own RNG stream spawned from (seed, tree
index), so a fitted prefix of a larger forest is identical to a smaller
forest with the same seed. Each node to split draws its candidate features
and extratrees thresholds from a stream keyed by the tree's key and the
node's path (`rng.path_key`), not from the tree's stream in growth order. So
no node's draws depend on which other nodes split, and the tree grown at
``min_node_size`` s is the tree grown at 1 with every node of fewer than s
bootstrap rows made a leaf (`prune`). `tune` uses this to grow one forest per
(mtry, splitrule) and fold for all its min_node_sizes. A fitted model is
immutable and safe for concurrent prediction.

Trees grow level by level, a group of trees at a time (`_grow_group`), and
their nodes are numbered depth first afterwards, so the order of growth
shows in no tree. The two rules search differently because their costs
differ. A gini node sorts its rows per candidate column, so it is split on
its own. An extratrees node sorts nothing and does little arithmetic, so
per-call overhead dominates: a level's extratrees nodes are split in one
batch of segment-wise numpy operations, whose sums equal a lone node's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .balance import ClassWeights
from .dataset import FAIL, FAIL_CUT, LabeledDataset
from .rng import KeyedStream, derive_seed, path_key, spawn_rng, stream_rngs

GINI = "gini"
EXTRATREES = "extratrees"
SPLITRULES = (GINI, EXTRATREES)

OBJECTIVES = ("auc", "accuracy", "f1")

DEFAULT_N_TREES = 500

# Changes whenever the same settings grow other trees; reuse keys hash it, so
# a resume refits forests that an older grower fitted
GROWER_VERSION = 2


@dataclass(frozen=True)
class Hyperparams:
    mtry: int
    splitrule: str
    min_node_size: int
    n_trees: int = DEFAULT_N_TREES

    def __post_init__(self):
        if self.mtry < 1:
            raise ValueError("mtry must be a positive integer")
        if self.splitrule not in SPLITRULES:
            raise ValueError(f"splitrule must be one of {SPLITRULES}, got {self.splitrule!r}")
        if self.min_node_size < 1:
            raise ValueError("min_node_size must be >= 1")
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")


@dataclass(frozen=True)
class CvSpec:
    folds: int = 10
    repeats: int = 3
    objective: str = "auc"
    seed: int = 0

    def __post_init__(self):
        if self.folds < 2:
            raise ValueError("folds must be >= 2")
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        if self.objective not in OBJECTIVES:
            raise ValueError(f"objective must be one of {OBJECTIVES}")


@dataclass(frozen=True)
class EvalMetrics:
    accuracy: float
    auc: float
    f1: float


@dataclass(frozen=True)
class Tree:
    """Flat binary tree: feature[i] == -1 marks node i as a leaf.

    A grown tree also holds every node's bootstrap row ``count`` and fail
    count ``fails``, which `prune` reads; a loaded tree has neither.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    p_fail: np.ndarray
    count: np.ndarray | None = field(default=None, repr=False, compare=False)
    fails: np.ndarray | None = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class NodeTable:
    """Every node of a forest in one table, for prediction.

    Tree t's nodes follow tree t-1's, its root is ``roots[t]`` and child
    indices are global. A leaf's two children are the leaf itself (and its
    split feature is 0), so a traversal step needs no leaf mask: after
    ``depth`` steps every (tree, row) pair is at its leaf. ``children[2 * i]``
    is node i's right child and ``children[2 * i + 1]`` its left one. The
    arrays are read-only.
    """

    feature: np.ndarray
    threshold: np.ndarray
    children: np.ndarray
    p_fail: np.ndarray
    roots: np.ndarray
    depth: int

    @classmethod
    def of(cls, trees) -> "NodeTable":
        sizes = np.array([t.feature.size for t in trees], dtype=np.intp)
        roots = np.concatenate([[0], np.cumsum(sizes)[:-1]]).astype(np.intp)
        feature = np.concatenate([t.feature for t in trees]).astype(np.intp)
        leaf = feature < 0
        right_left = np.column_stack([np.concatenate([t.right for t in trees]),
                                      np.concatenate([t.left for t in trees])])
        children = np.where(leaf[:, None], np.arange(feature.size)[:, None],
                            right_left + np.repeat(roots, sizes)[:, None]).astype(np.intp)
        feature[leaf] = 0
        depth, level = 0, roots
        while True:  # one pass per level, over all trees at once
            level = level[~leaf[level]]
            if not level.size:
                break
            level = children[level].ravel()
            depth += 1
        table = cls(feature, np.concatenate([t.threshold for t in trees]), children.ravel(),
                    np.concatenate([t.p_fail for t in trees]), roots, depth)
        for arr in (table.feature, table.threshold, table.children, table.p_fail, table.roots):
            arr.setflags(write=False)
        return table

    def leaf_proba(self, X: np.ndarray) -> np.ndarray:
        """Leaf fail probability of every (tree, row) pair, shape (n_trees, n_rows)."""
        n, p = X.shape
        flat_x = np.ascontiguousarray(X).ravel()
        node = np.repeat(self.roots, n)
        row_start = np.tile(np.arange(0, n * p, p), self.roots.size)
        for _ in range(self.depth):
            go_left = flat_x[row_start + self.feature[node]] <= self.threshold[node]
            node = self.children[2 * node + go_left]
        return self.p_fail[node].reshape(self.roots.size, n)


@dataclass(frozen=True)
class RandomForestModel:
    """A fitted forest. ``trees`` is the grower's per-tree output, which
    `tune` prunes; prediction and `save_model` go through ``table``, one
    `NodeTable` of all trees, built here."""

    trees: tuple[Tree, ...]
    class_weights: ClassWeights
    training_seed: int
    p: int
    inbag: np.ndarray | None = field(default=None, repr=False)
    table: NodeTable = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "table", NodeTable.of(self.trees))

    @property
    def n_trees(self) -> int:
        return self.table.roots.size

    def predict_proba_batch(self, X) -> np.ndarray:
        """Probability of the fail class for each row: mean of per-tree leaf
        probabilities. A row's value does not depend on the other rows of ``X``."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.shape[1] != self.p:
            raise ValueError(f"dimension mismatch: {X.shape[1]} features, model expects {self.p}")
        # cumsum adds the trees one after another, in tree order, for every row
        return self.table.leaf_proba(X).cumsum(axis=0)[-1] / self.n_trees

    def predict_proba(self, x) -> float:
        return float(self.predict_proba_batch(np.asarray(x)[None, :])[0])


def vanilla_hyperparams(p: int, n_trees: int = DEFAULT_N_TREES) -> Hyperparams:
    """Standard defaults: mtry = floor(sqrt(p)), gini splits, min node size 1."""
    return Hyperparams(mtry=max(1, int(math.sqrt(p))), splitrule=GINI,
                       min_node_size=1, n_trees=n_trees)


def _split_gini(V, y, w):
    """Best midpoint split over the candidate columns of V.

    Returns (column, threshold) minimizing the weighted Gini impurity of the
    children, or None when no column has two distinct values. Only the
    boundaries between distinct sorted values are scored; ties go to the
    first in (position, column) order. ``w`` is the per-row weight vector,
    or None for the unweighted fast path (identical arithmetic with implicit
    unit weights).
    """
    m, mtry = V.shape
    # unit-weight sums at a boundary are exact in any order within ties, so
    # only the weighted path needs the stable sort
    order = V.argsort(axis=0, kind=None if w is None else "stable")
    sv = V[order, np.arange(mtry)]
    # flat (pos, col) indices of (m - 1, mtry) boundaries, in C order; a
    # boundary's flat index in the (m, mtry) cumulative sums is the same
    valid = np.flatnonzero(sv[1:] > sv[:-1])
    if not valid.size:
        return None
    if w is None:
        fl = y[order].cumsum(axis=0).ravel()[valid]
        wl = valid // mtry + 1  # rows up to boundary pos: pos + 1
        total_w = float(m)
        total_f = float(y.sum())
    else:
        fl = (w * y)[order].cumsum(axis=0).ravel()[valid]
        wl = w[order].cumsum(axis=0).ravel()[valid]
        total_w = float(w.sum())
        total_f = float((w * y).sum())
    wr, fr = total_w - wl, total_f - fl
    score = (wl - (fl * fl + (wl - fl) ** 2) / wl) + (wr - (fr * fr + (wr - fr) ** 2) / wr)
    pos, col = divmod(int(valid[score.argmin()]), mtry)
    a, b = float(sv[pos, col]), float(sv[pos + 1, col])
    thr = 0.5 * (a + b)
    if not a <= thr < b:  # midpoint rounded onto an endpoint
        thr = a
    return col, thr


def _left_sums(w, wy, left):
    """Per column of ``left``, the sums of ``w`` and of ``wy`` over its true
    rows, added one row after another in row order whatever the layout of
    ``left``, so the sums depend on no BLAS build or CPU.

    ``w`` and ``wy`` are (rows,) or (rows, blocks) and ``left`` is (rows,
    columns) or (rows, blocks, columns); each block is summed on its own.
    A block padded with zero weights after its last row sums as unpadded."""
    # numpy reduces the first axis of a C-ordered array row after row when a
    # row holds more than one value; here a row holds blocks x 2 x columns
    terms = np.multiply(np.stack([w, wy], axis=-1)[..., None], left[..., None, :], order="C")
    sums = terms.sum(axis=0)
    return sums[..., 0, :], sums[..., 1, :]


def _split_extratrees(X, y, w, rows, sizes, feats, u):
    """Extratrees splits of many nodes at once: one threshold per candidate
    column, ``lo + u * (hi - lo)`` in the node's value range, best weighted
    Gini wins.

    Node i holds the next ``sizes[i]`` entries of ``rows`` (rows of ``X``)
    and draws columns ``feats[i]`` with uniforms ``u[i]``. Thresholds are
    forced strictly inside the range so both children are non-empty;
    constant columns are skipped. Returns each node's column index into
    ``feats[i]`` (-1 when no column can split) and threshold. Every sum is
    the one a node alone gives: unit weights count exactly, and weighted
    sums add rows in row order, in zero-padded blocks of nodes whose sizes
    are within a factor of 2.
    """
    k, mtry = feats.shape
    starts = np.cumsum(sizes) - sizes
    # flat indices into X, which is C-ordered
    V = X.take(np.repeat(feats, sizes, axis=0) + (rows * X.shape[1])[:, None])
    lo = np.minimum.reduceat(V, starts)
    hi = np.maximum.reduceat(V, starts)
    thr = lo + u * (hi - lo)
    # a constant column, or a threshold rounded onto an end
    thr = np.where(thr <= lo, np.nextafter(lo, hi), thr)
    thr = np.where(thr >= hi, np.nextafter(hi, lo), thr)
    ok = (thr > lo) & (thr < hi)
    left = V <= np.repeat(thr, sizes, axis=0)
    del V  # the sums below need only ``left``; a level's values are its largest array
    if w is None:
        yr = y[rows]
        total_w, total_f = sizes.astype(np.float64), np.add.reduceat(yr, starts)
        wl = np.add.reduceat(left, starts, dtype=np.intp).astype(np.float64)
        fl = np.add.reduceat(left & (yr > 0.0)[:, None], starts, dtype=np.intp).astype(np.float64)
    else:
        wr, wyr = w[rows], w[rows] * y[rows]
        # pairwise sums, as a node's own arrays give them
        segments = list(zip(starts.tolist(), (starts + sizes).tolist()))
        total_w = np.array([wr[a:b].sum() for a, b in segments])
        total_f = np.array([wyr[a:b].sum() for a, b in segments])
        wl, fl = np.empty((k, mtry)), np.empty((k, mtry))
        bucket = np.frexp(sizes)[1]
        for b in np.unique(bucket):
            nodes = np.flatnonzero(bucket == b)
            offset = np.arange(sizes[nodes].max())[:, None]
            pad = offset >= sizes[nodes]
            at = np.where(pad, 0, starts[nodes] + offset)
            wl[nodes], fl[nodes] = _left_sums(np.where(pad, 0.0, wr[at]),
                                              np.where(pad, 0.0, wyr[at]), left[at])
    total_w, total_f = total_w[:, None], total_f[:, None]
    wl = np.where(ok, wl, 1.0)  # avoid 0/0 on masked columns
    wr = np.where(ok, total_w - wl, 1.0)
    fr = total_f - fl
    score = (wl - (fl * fl + (wl - fl) ** 2) / wl) + (wr - (fr * fr + (wr - fr) ** 2) / wr)
    col = np.where(ok, score, np.inf).argmin(axis=1)
    return np.where(ok.any(axis=1), col, -1), thr[np.arange(k), col]


# Trees grown together hold at most this many (bootstrap row, candidate
# column) cells, which bounds the memory of one level's extratrees batch
_GROUP_CELLS = 1 << 16


def _grow_group(X, y, w, hp: Hyperparams, boots, keys, streams: KeyedStream) -> list[Tree]:
    """Grow one CART tree per bootstrap sample in ``boots`` (rows of ``X``),
    level by level over all the trees at once.

    Nodes smaller than min_node_size, pure nodes, and nodes without a valid
    split become leaves. A node to split draws its candidate columns (and
    extratrees uniforms) from the stream of its path key, rooted at the
    tree's entry in ``keys``, so its draws depend on neither min_node_size
    nor growth order. Gini nodes are split one at a time, since their
    search sorts; a level's extratrees nodes are split in one batch.
    """
    n, p = X.shape
    extra = hp.splitrule == EXTRATREES
    rows = np.concatenate(boots)  # each node's rows, node after node
    sizes = np.full(len(boots), n)
    tree = np.arange(len(boots))
    levels = []
    while sizes.size:
        starts = np.cumsum(sizes) - sizes
        fails = np.add.reduceat(y[rows], starts)
        to_split = (sizes >= hp.min_node_size) & (fails > 0.0) & (fails < sizes)
        cand = np.flatnonzero(to_split)
        draws = np.empty((cand.size, p + hp.mtry if extra else p))
        for j, i in enumerate(cand.tolist()):
            streams.at(keys[i]).random(out=draws[j])
        feats = draws[:, :p].argsort(axis=1, kind="stable")[:, :hp.mtry]
        feature = np.full(sizes.size, -1, dtype=np.int32)
        threshold = np.full(sizes.size, math.nan)
        if not extra:
            for j, i in enumerate(cand.tolist()):
                seg = rows[starts[i]:starts[i] + sizes[i]]
                res = _split_gini(X.take(seg, 0).take(feats[j], 1), y[seg],
                                  None if w is None else w[seg])
                if res is not None:
                    feature[i], threshold[i] = feats[j, res[0]], res[1]
        elif cand.size:
            col, thr = _split_extratrees(X, y, w, rows[np.repeat(to_split, sizes)], sizes[cand],
                                         feats, draws[:, p:])
            found = col >= 0
            feature[cand[found]] = feats[found, col[found]]
            threshold[cand[found]] = thr[found]
        levels.append((tree, sizes, fails, feature, threshold))
        # a split node's rows go to its left child, then its right one; the
        # children of the level's j-th split node are the next level's 2j, 2j + 1
        split = feature >= 0
        rows, kept = rows[np.repeat(split, sizes)], sizes[split]
        go_left = X.take(rows * p + np.repeat(feature[split], kept)) <= \
            np.repeat(threshold[split], kept)
        child = np.repeat(np.arange(0, 2 * kept.size, 2), kept) + ~go_left
        # a stable sort of small integers is a radix sort
        child = child.astype(np.min_scalar_type(2 * kept.size))
        rows = rows[np.argsort(child, kind="stable")]
        sizes = np.bincount(child, minlength=2 * kept.size)
        tree = np.repeat(tree[split], 2)
        keys = [path_key(keys[i], side) for i in np.flatnonzero(split).tolist() for side in (0, 1)]
    return _number_nodes(levels)


def _number_nodes(levels) -> list[Tree]:
    """The trees of `_grow_group`'s ``levels``, each node numbered depth
    first, left first, as a recursive grower numbers them: the children of a
    tree's k-th split node in that order are its nodes 2k + 1 and 2k + 2."""
    # split nodes in each node's subtree, from the deepest level up
    subtree, below = [], np.zeros(0, dtype=np.intp)
    for *_, feature, _ in reversed(levels):
        split = feature >= 0
        s = split.astype(np.intp)
        s[split] += below[0::2] + below[1::2]
        subtree.append(s)
        below = s
    subtree.reverse()
    n_nodes = 1 + 2 * subtree[0]
    offset = np.cumsum(n_nodes) - n_nodes
    # top down: each node's index in the group's nodes, and its children's
    # numbers; ``before`` counts the split nodes that precede it in its tree
    before = number = np.zeros(n_nodes.size, dtype=np.intp)
    at, left, right = [], [], []
    for (tree, _, _, feature, _), below in zip(levels, subtree[1:] + [None]):
        split = feature >= 0
        at.append(offset[tree] + number)
        left.append(np.where(split, 2 * before + 1, -1))
        right.append(np.where(split, 2 * before + 2, -1))
        if below is not None:
            k = before[split]
            before = np.column_stack([k + 1, k + 1 + below[0::2]]).ravel()
            number = np.column_stack([2 * k + 1, 2 * k + 2]).ravel()
    order = np.empty(n_nodes.sum(), dtype=np.intp)
    order[np.concatenate(at)] = np.arange(order.size)

    def field(values, dtype):
        return np.concatenate(values).astype(dtype)[order]

    feature = field([lv[3] for lv in levels], np.int32)
    count = field([lv[1] for lv in levels], np.int32)
    fails = field([lv[2] for lv in levels], np.int32)
    arrays = dict(feature=feature, threshold=field([lv[4] for lv in levels], np.float64),
                  left=field(left, np.int32), right=field(right, np.int32),
                  p_fail=np.where(feature >= 0, math.nan, fails / count),
                  count=count, fails=fails)
    return [Tree(**{name: a[lo:hi] for name, a in arrays.items()})
            for lo, hi in zip(offset, offset + n_nodes)]


def prune(tree: Tree, min_node_size: int) -> Tree:
    """The tree that the grower gives at ``min_node_size``, from one it grew
    at a smaller size (or the same): every split node of fewer bootstrap rows
    becomes a leaf of value fails / rows, and its subtree goes.

    Node draws are keyed by path, so a kept node splits as it did, and the
    kept nodes keep their relative order: the grower numbers children in the
    order their parents split, which cutting subtrees does not change.
    """
    if tree.count is None:
        raise ValueError("prune needs a grown tree; a loaded one has no node counts")
    cut = (tree.feature >= 0) & (tree.count < min_node_size)
    if not cut.any():
        return tree
    split = (tree.feature >= 0) & ~cut
    keep = np.zeros(tree.feature.size, dtype=bool)
    level = np.zeros(1, dtype=np.intp)
    while level.size:  # one pass per level, from the root
        keep[level] = True
        level = level[split[level]]
        level = np.concatenate([tree.left[level], tree.right[level]])
    new_index = np.cumsum(keep, dtype=np.int32) - 1
    p_fail = np.where(cut, tree.fails / tree.count, tree.p_fail)
    return Tree(
        feature=np.where(split, tree.feature, -1)[keep],
        threshold=np.where(split, tree.threshold, math.nan)[keep],
        left=np.where(split, new_index[tree.left], -1)[keep],
        right=np.where(split, new_index[tree.right], -1)[keep],
        p_fail=p_fail[keep],
        count=tree.count[keep],
        fails=tree.fails[keep],
    )


def _fit_trees(X, y01, hp, seed, row_weight, weighted_split, bootstrap_p, keep_inbag):
    """The forest's trees and, with ``keep_inbag``, each tree's bootstrap
    counts. Tree t draws its bootstrap and then its key from stream t; trees
    are grown in groups of at most `_GROUP_CELLS` cells, one stream of node
    draws serving them all."""
    X = np.ascontiguousarray(X)
    n = X.shape[0]
    trees = []
    inbag = np.zeros((hp.n_trees, n), dtype=np.uint16) if keep_inbag else None
    w = row_weight if weighted_split else None
    group = max(1, _GROUP_CELLS // (n * hp.mtry))
    streams = KeyedStream()
    boots, keys = [], []
    for t, rng in enumerate(stream_rngs(seed, hp.n_trees)):
        idxb = rng.choice(n, size=n, replace=True, p=bootstrap_p)
        if keep_inbag:
            inbag[t] = np.bincount(idxb, minlength=n)
        boots.append(idxb)
        keys.append(int(rng.integers(0, 1 << 64, dtype=np.uint64)))
        if len(boots) == group or t == hp.n_trees - 1:
            trees.extend(_grow_group(X, y01, w, hp, boots, keys, streams))
            boots, keys = [], []
    return tuple(trees), inbag


def fit_forest(train: LabeledDataset, hp: Hyperparams, weights: ClassWeights,
               seed: int, keep_inbag: bool = False) -> RandomForestModel:
    """Fit a forest of ``hp.n_trees`` CART trees on bootstrap samples.

    With non-unit class weights the bootstrap draws rows with probability
    proportional to their class weight and splits use weighted Gini impurity;
    unit weights take an equivalent unweighted path.
    """
    if hp.mtry > train.p:
        raise ValueError(f"mtry={hp.mtry} exceeds the {train.p} available features")
    X = train.features
    y01 = (train.labels == FAIL).astype(np.float64)
    if weights.is_unit:
        trees, inbag = _fit_trees(X, y01, hp, seed, None, False, None, keep_inbag)
    else:
        w_row = weights.per_row(train.labels)
        trees, inbag = _fit_trees(X, y01, hp, seed, w_row, True, w_row / w_row.sum(), keep_inbag)
    return RandomForestModel(trees=trees, class_weights=weights, training_seed=int(seed),
                             p=train.p, inbag=inbag)


def _tied_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of ``x``, each tie group at the mean of its ranks."""
    order = np.argsort(x, kind="stable")
    boundaries = np.flatnonzero(np.diff(x[order]) != 0) + 1
    starts = np.concatenate([[0], boundaries])
    ends = np.concatenate([boundaries, [x.size]])
    ranks = np.empty(x.size)
    ranks[order] = np.repeat(0.5 * (starts + ends - 1) + 1.0, ends - starts)
    return ranks


def rank_auc(scores, positives) -> float:
    """AUC as the Mann-Whitney rank statistic of ``scores`` for the positive rows.

    Equivalent to counting score-ordered (positive, negative) pairs with ties
    worth one half.
    """
    scores = np.asarray(scores, dtype=np.float64)
    positives = np.asarray(positives, dtype=bool)
    n_pos = int(positives.sum())
    n_neg = positives.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs both classes present")
    ranks = _tied_ranks(scores)
    u = ranks[positives].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def evaluate(model: RandomForestModel, test: LabeledDataset) -> EvalMetrics:
    """Accuracy, rank-based AUC, and F1 (fail as the positive class) on a test set."""
    scores = model.predict_proba_batch(test.features)
    true_fail = test.labels == FAIL
    if not true_fail.any() or true_fail.all():
        raise ValueError("test set has a single class; AUC is undefined")
    pred_fail = scores >= FAIL_CUT
    accuracy = float(np.mean(pred_fail == true_fail))
    auc = rank_auc(scores, true_fail)
    tp = int((pred_fail & true_fail).sum())
    fp = int((pred_fail & ~true_fail).sum())
    fn = int((~pred_fail & true_fail).sum())
    denom = 2 * tp + fp + fn
    f1 = 2 * tp / denom if denom else 0.0
    return EvalMetrics(accuracy=accuracy, auc=auc, f1=float(f1))


def shared_forests(grid) -> dict[tuple, list[int]]:
    """The grid's points by the forest they share in `tune`, keyed
    (mtry, splitrule, n_trees): one forest grown at the smallest of their
    min_node_sizes gives each of them by `prune`."""
    shared: dict[tuple, list[int]] = {}
    for gi, hp in enumerate(grid):
        shared.setdefault((hp.mtry, hp.splitrule, hp.n_trees), []).append(gi)
    return shared


def _cv_totals(train: LabeledDataset, grid, cv: CvSpec, weights: ClassWeights) -> np.ndarray:
    """Each grid point's CV objective summed over repeats x folds, in that order."""
    grid = list(grid)
    if not grid:
        raise ValueError("tuning grid is empty")
    counts = train.class_counts()
    for lab, c in counts.items():
        if c < cv.folds:
            raise ValueError(
                f"fold infeasibility: class {lab!r} has {c} rows, fewer than {cv.folds} folds"
            )
    shared = shared_forests(grid)
    totals = np.zeros(len(grid))
    for r in range(cv.repeats):
        rng = spawn_rng(cv.seed, r)
        assign = np.empty(train.n, dtype=np.int64)
        for lab in counts:
            members = train.indices_of(lab)
            perm = rng.permutation(members.size)
            assign[members[perm]] = np.arange(members.size) % cv.folds
        for fold in range(cv.folds):
            val_idx = np.flatnonzero(assign == fold)
            fit_idx = np.flatnonzero(assign != fold)
            sub_train = train.subset(fit_idx)
            sub_val = train.subset(val_idx)
            fold_seed = derive_seed(cv.seed, 1000 + r, fold)
            for points in shared.values():
                smallest = min(grid[gi].min_node_size for gi in points)
                grown = fit_forest(sub_train, replace(grid[points[0]], min_node_size=smallest),
                                   weights, fold_seed)
                for gi in points:
                    s = grid[gi].min_node_size
                    model = grown if s == smallest else replace(
                        grown, trees=tuple(prune(t, s) for t in grown.trees))
                    totals[gi] += getattr(evaluate(model, sub_val), cv.objective)
    return totals


def tune(train: LabeledDataset, grid, cv: CvSpec, weights: ClassWeights) -> Hyperparams:
    """Pick the grid point with the best mean CV objective over folds x repeats.

    Folds are stratified; the same fold layout and forest seeds are shared by
    every grid point so the comparison is paired. Per fold, the points that
    differ only in min_node_size share one forest (`shared_forests`), and each
    evaluates its pruned copy, which equals the forest fit at its own size.
    Ties keep the earlier grid point.
    """
    grid = list(grid)
    return grid[int(np.argmax(_cv_totals(train, grid, cv, weights)))]


FOREST_FORMAT = "cfbench-forest 1"
# Nodes per writelines call of save_model, whose Python lines take about
# 200 bytes a node while they are written
_SAVE_NODES = 1 << 8


def save_model(model: RandomForestModel, path) -> None:
    """Write the forest as flat text, one node per line, from its node table:
    a node's index in its tree is its table index minus the tree's root, and
    a leaf, whose children are itself, is written with -1 and empty split
    fields."""
    table = model.table
    n = table.feature.size
    with Path(path).open("w") as fh:
        fh.write(FOREST_FORMAT + "\n")
        fh.write(f"p {model.p}\n")
        fh.write(f"trees {model.n_trees}\n")
        fh.write(f"weight_fail {model.class_weights.weight_fail!r}\n")
        fh.write(f"weight_pass {model.class_weights.weight_pass!r}\n")
        fh.write(f"seed {model.training_seed}\n")
        fh.write("tree,node,feature,threshold,left,right,p_fail,p_pass\n")
        for lo in range(0, n, _SAVE_NODES):
            hi = min(lo + _SAVE_NODES, n)
            index = np.arange(lo, hi)
            tree = np.searchsorted(table.roots, index, side="right") - 1
            root = table.roots[tree]
            right, left = table.children[2 * lo:2 * hi].reshape(-1, 2).T
            lines = zip(tree.tolist(), (index - root).tolist(), (right == index).tolist(),
                        table.feature[lo:hi].tolist(), table.threshold[lo:hi].tolist(),
                        (left - root).tolist(), (right - root).tolist(),
                        table.p_fail[lo:hi].tolist())
            fh.writelines(f"{t},{i},-1,,-1,-1,{pf!r},{1.0 - pf!r}\n" if leaf
                          else f"{t},{i},{f},{thr!r},{lc},{rc},,\n"
                          for t, i, leaf, f, thr, lc, rc, pf in lines)


def load_model(path) -> RandomForestModel:
    path = Path(path)
    with path.open() as fh:
        if fh.readline().strip() != FOREST_FORMAT:
            raise ValueError(f"{path}: not a {FOREST_FORMAT} file")
        header = {}
        for _ in range(5):
            key, value = fh.readline().split()
            header[key] = value
        fh.readline()  # column header
        per_tree: dict[int, list] = {}
        for line in fh:
            parts = line.rstrip("\n").split(",")
            t = int(parts[0])
            per_tree.setdefault(t, []).append(parts)
    trees = []
    for t in range(int(header["trees"])):
        rows = per_tree.get(t, [])
        rows.sort(key=lambda r: int(r[1]))
        n_nodes = len(rows)
        tree = Tree(
            feature=np.array([int(r[2]) for r in rows], dtype=np.int32),
            threshold=np.array(
                [float(r[3]) if r[3] else math.nan for r in rows], dtype=np.float64
            ),
            left=np.array([int(r[4]) for r in rows], dtype=np.int32),
            right=np.array([int(r[5]) for r in rows], dtype=np.int32),
            p_fail=np.array([float(r[6]) if r[6] else math.nan for r in rows], dtype=np.float64),
        )
        if n_nodes == 0:
            raise ValueError(f"{path}: tree {t} has no nodes")
        trees.append(tree)
    return RandomForestModel(
        trees=tuple(trees),
        class_weights=ClassWeights(float(header["weight_fail"]), float(header["weight_pass"])),
        training_seed=int(header["seed"]),
        p=int(header["p"]),
    )
