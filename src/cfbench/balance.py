"""Class-balancing strategies: random undersampling, random oversampling,
SMOTE interpolation, and cost-sensitive class weights.

All resamplers are pure given (dataset, seed) and return datasets with exactly
equal class counts. Resampled datasets drop row ids (synthetic or duplicated
rows have no meaningful identity).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import FAIL, PASS, LabeledDataset
from .rng import spawn_rng

DEFAULT_SMOTE_K = 5


@dataclass(frozen=True)
class ClassWeights:
    """Per-class error weights; the majority class carries weight 1."""

    weight_fail: float
    weight_pass: float

    def __post_init__(self):
        if self.weight_fail <= 0 or self.weight_pass <= 0:
            raise ValueError("class weights must be positive")

    @property
    def is_unit(self) -> bool:
        return self.weight_fail == 1.0 and self.weight_pass == 1.0

    def per_row(self, labels) -> np.ndarray:
        labels = np.asarray(labels)
        return np.where(labels == FAIL, self.weight_fail, self.weight_pass)

    @classmethod
    def unit(cls) -> "ClassWeights":
        return cls(1.0, 1.0)


def _class_split(train: LabeledDataset):
    counts = train.class_counts()
    absent = [lab for lab, c in counts.items() if c == 0]
    if absent:
        raise ValueError(f"class {absent[0]!r} absent from the training set")
    if counts[FAIL] <= counts[PASS]:
        return PASS, FAIL, counts[PASS], counts[FAIL]
    return FAIL, PASS, counts[FAIL], counts[PASS]


def random_undersample(train: LabeledDataset, seed: int) -> LabeledDataset:
    """Drop random majority rows (without replacement) until class counts match."""
    maj, _, n_maj, n_min = _class_split(train)
    if n_maj == n_min:
        return train.subset(np.arange(train.n))
    rng = spawn_rng(seed)
    maj_idx = train.indices_of(maj)
    keep = rng.choice(maj_idx, size=n_min, replace=False)
    mask = np.zeros(train.n, dtype=bool)
    mask[keep] = True
    mask[train.indices_of(_other(maj))] = True
    return train.subset(np.flatnonzero(mask))


def random_oversample(train: LabeledDataset, seed: int) -> LabeledDataset:
    """Append random duplicates of minority rows (with replacement) until counts match."""
    _, mino, n_maj, n_min = _class_split(train)
    if n_maj == n_min:
        return train.subset(np.arange(train.n))
    rng = spawn_rng(seed)
    extra = rng.choice(train.indices_of(mino), size=n_maj - n_min, replace=True)
    features = np.vstack([train.features, train.features[extra]])
    labels = np.concatenate([train.labels, train.labels[extra]])
    return LabeledDataset.from_arrays(features, labels, train.feature_names)


def smote(train: LabeledDataset, k: int = DEFAULT_SMOTE_K, seed: int = 0) -> LabeledDataset:
    """Equalize class counts by interpolating synthetic minority rows.

    Each synthetic row is x_i + lam * (x_nn - x_i) with lam uniform in [0, 1]
    and x_nn one of the k Euclidean-nearest minority neighbors of x_i
    (unnormalized distances on the raw features, classical formulation).
    Minority rows are visited round-robin in dataset order, one synthetic per
    visit, which makes generation deterministic given the seed.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    _, mino, n_maj, n_min = _class_split(train)
    if n_min < k + 1:
        raise ValueError(f"minority class has {n_min} rows; SMOTE with k={k} needs at least {k + 1}")
    if n_maj == n_min:
        return train.subset(np.arange(train.n))

    rng = spawn_rng(seed)
    mino_rows = train.features[train.indices_of(mino)]

    # k nearest minority neighbors per minority row, self excluded,
    # distance ties broken toward the lower index
    sq = np.einsum("ij,ij->i", mino_rows, mino_rows)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (mino_rows @ mino_rows.T)
    np.fill_diagonal(d2, np.inf)
    neighbor_idx = np.argsort(d2, axis=1, kind="stable")[:, :k]

    need = n_maj - n_min
    synth = np.empty((need, train.p))
    for t in range(need):
        i = t % n_min
        nn = neighbor_idx[i, rng.integers(k)]
        lam = rng.random()
        synth[t] = mino_rows[i] + lam * (mino_rows[nn] - mino_rows[i])

    features = np.vstack([train.features, synth])
    labels = np.concatenate([train.labels, np.full(need, mino, dtype=train.labels.dtype)])
    return LabeledDataset.from_arrays(features, labels, train.feature_names)


def cost_weights(train: LabeledDataset) -> ClassWeights:
    """Minority weight = imbalance ratio of the training set, majority weight = 1."""
    maj, mino, n_maj, n_min = _class_split(train)
    ratio = n_maj / n_min
    if mino == FAIL:
        return ClassWeights(weight_fail=ratio, weight_pass=1.0)
    return ClassWeights(weight_fail=1.0, weight_pass=ratio)


def _other(label: str) -> str:
    return PASS if label == FAIL else FAIL
