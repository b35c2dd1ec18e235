"""Counterfactual generation for instances the model predicts as failing.

Three methods over a shared request abstraction:

* ``whatif``   -- the k Gower-nearest real instances whose model prediction is
  pass, so every result is valid by construction.
* ``nice``     -- greedy feature-copying from the HEOM-nearest correctly
  predicted pass instance (the nearest unlike neighbor), rewarding either raw
  prediction gain (sparsity) or gain per unit of Gower cost (proximity).
* ``moc``      -- an evolutionary search minimizing the four objectives
  (validity shortfall, proximity, sparsity, implausibility) with fast
  non-dominated sorting and crowding-distance selection; returns the
  non-dominated front of all valid candidates found during the search.

All methods are pure given (request, model, data, config, seed) and respect
the request's mutable-feature mask and per-feature bounds. Models are only
required to expose ``predict_proba`` / ``predict_proba_batch`` returning the
fail-class probability, so test doubles work anywhere a forest does.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .dataset import PASS, LabeledDataset
from .distance import GowerColumns, RangeTable, gower_cross, gower_many, heom_many
from .rng import spawn_rng

WHATIF = "whatif"
MOC = "moc"
NICE_SP = "nice_sp"
NICE_PR = "nice_pr"
METHODS = (WHATIF, MOC, NICE_SP, NICE_PR)

SPARSITY = "sparsity"
PROXIMITY = "proximity"

DEFAULT_WHATIF_K = 10
PLAUSIBILITY_NEIGHBORS = 5
_RESET_SHARE = 0.3  # share of mutation events that restore x_j instead of stepping
_FRONT_CHUNK = 256  # archive rows per dominance check in `_first_front`


@dataclass(frozen=True)
class CfRequest:
    """An instance predicted as fail, to be explained toward the pass outcome."""

    x: np.ndarray
    mutable_mask: np.ndarray
    bounds: np.ndarray
    request_id: int | str | None = None

    def __post_init__(self):
        x = np.array(self.x, dtype=np.float64)
        mask = np.array(self.mutable_mask, dtype=bool)
        bounds = np.array(self.bounds, dtype=np.float64)
        if x.ndim != 1:
            raise ValueError("x must be a 1-D instance vector")
        if mask.shape != x.shape:
            raise ValueError("mutable_mask must match the instance dimension")
        if not mask.any():
            raise ValueError("at least one feature must be mutable")
        if bounds.shape != (x.size, 2) or (bounds[:, 0] > bounds[:, 1]).any():
            raise ValueError("bounds must be a (p, 2) array of lo <= hi pairs")
        for arr in (x, mask, bounds):
            arr.setflags(write=False)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "mutable_mask", mask)
        object.__setattr__(self, "bounds", bounds)

    @classmethod
    def for_instance(cls, x, train: LabeledDataset, mutable=None, request_id=None) -> "CfRequest":
        """Request with bounds taken from the training feature ranges."""
        mask = np.ones(train.p, dtype=bool) if mutable is None else mutable
        return cls(x=np.asarray(x), mutable_mask=mask, bounds=train.bounds, request_id=request_id)

    @property
    def p(self) -> int:
        return self.x.size

    def ranges(self) -> RangeTable:
        return RangeTable.from_bounds(self.bounds)


@dataclass(frozen=True)
class Counterfactual:
    """A candidate explanation with provenance."""

    values: np.ndarray
    method: str
    source_request: CfRequest
    generation_meta: dict = field(default_factory=dict)

    def __post_init__(self):
        v = np.array(self.values, dtype=np.float64)  # own copy, callers may reuse buffers
        if v.shape != self.source_request.x.shape:
            raise ValueError("counterfactual dimension must match the request")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)


class MocObjectives(NamedTuple):
    o_v: float   # validity shortfall: 0 once the pass region is reached
    o_p: float   # Gower proximity to x
    o_s: float   # number of changed features
    o_pl: float  # mean Gower distance to the 5 nearest training rows


@dataclass(frozen=True)
class MocConfig:
    population: int = 100
    generations: int = 50
    mutation_rate: float = 0.3
    crossover_rate: float = 0.7
    seed: int = 0

    def __post_init__(self):
        if self.population < 2 or self.population % 2:
            raise ValueError("population must be an even integer >= 2 (offspring are paired)")
        if self.generations < 1:
            raise ValueError("generations must be >= 1")
        for name in ("mutation_rate", "crossover_rate"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise ValueError(f"{name} must lie in (0, 1)")


def objectives(x, cands: np.ndarray, model, train: LabeledDataset, ranges: RangeTable,
               columns: GowerColumns | None = None):
    """MOC's four objectives for each row of ``cands`` against the instance ``x``.

    Returns the (rows, 4) matrix with columns in `MocObjectives` order and the
    fail probabilities it was computed from. Plausibility is the mean Gower
    distance to the ``PLAUSIBILITY_NEIGHBORS`` nearest training rows;
    ``columns``, when given, is ``GowerColumns.of(train.features)``, prepared
    once by a caller that evaluates many candidate sets.
    """
    pfail = model.predict_proba_batch(cands)
    o_v = np.maximum(0.0, pfail - 0.5)
    o_p = gower_many(cands, x, ranges)
    o_s = (cands != x).sum(axis=1).astype(np.float64)
    d = gower_cross(cands, train.features if columns is None else columns, ranges)
    k = min(PLAUSIBILITY_NEIGHBORS, train.n)
    o_pl = np.partition(d, k - 1, axis=1)[:, :k].mean(axis=1)
    return np.column_stack([o_v, o_p, o_s, o_pl]), pfail


def whatif(req: CfRequest, model, pool: LabeledDataset, k: int = DEFAULT_WHATIF_K,
           scores=None) -> list[Counterfactual]:
    """The k Gower-nearest pool instances whose model prediction is pass.

    Filtering the candidate pool by prediction (not observed label) guarantees
    validity. With a partial mutable mask, candidates must also agree with x
    on every immutable feature. Ties break toward the lower pool index.
    ``scores`` are the model's fail probabilities of the pool rows, predicted
    here when not given; a caller explaining many requests predicts them once.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    rt = req.ranges()
    if scores is None:
        scores = model.predict_proba_batch(pool.features)
    valid = scores < 0.5
    if not req.mutable_mask.all():
        frozen = ~req.mutable_mask
        valid &= (pool.features[:, frozen] == req.x[frozen]).all(axis=1)
    candidates = np.flatnonzero(valid)
    if candidates.size < k:
        raise ValueError(
            f"whatif needs {k} pass-predicted candidates but the pool has {candidates.size}"
        )
    d = gower_many(pool.features[candidates], req.x, rt)
    order = np.argsort(d, kind="stable")[:k]
    return [
        Counterfactual(
            values=pool.features[candidates[o]],
            method=WHATIF,
            source_request=req,
            generation_meta={"pool_index": int(candidates[o]), "distance": float(d[o])},
        )
        for o in order
    ]


def nice(req: CfRequest, model, train: LabeledDataset, reward: str,
         scores=None) -> Counterfactual:
    """Greedy feature-copy search anchored at the nearest unlike neighbor.

    The anchor z is the HEOM-nearest training instance that is labeled pass
    and predicted pass. Starting from c = x, each step copies into c the one
    mutable feature value of z that maximizes the reward -- the prediction
    gain toward pass (``sparsity``) or that gain divided by the Gower cost of
    the copy (``proximity``) -- until the prediction flips. Copying every
    mutable feature reaches z itself, which is valid by construction, so
    termination is guaranteed under a full mask. ``scores`` are the model's
    fail probabilities of the training rows, as in `whatif`.
    """
    if reward not in (SPARSITY, PROXIMITY):
        raise ValueError(f"reward must be {SPARSITY!r} or {PROXIMITY!r}")
    rt = req.ranges()
    if scores is None:
        scores = model.predict_proba_batch(train.features)
    pool = np.flatnonzero((scores < 0.5) & (train.labels == PASS))
    if pool.size == 0:
        raise ValueError("no correctly predicted pass instance to anchor the search")
    d = heom_many(train.features[pool], req.x, rt)
    nun_index = int(pool[np.argmin(d)])  # first minimum: lower index wins ties
    z = train.features[nun_index]

    widths = rt.widths
    n_active = int(rt.active.sum())
    c = req.x.copy()
    copied: list[int] = []
    while True:
        cand_feats = np.flatnonzero(req.mutable_mask & (c != z))
        if cand_feats.size == 0:
            raise ValueError("greedy search exhausted mutable features without flipping the prediction")
        # one model call per step: row 0 is c, row 1 + i copies z[cand_feats[i]]
        cands = np.repeat(c[None, :], 1 + cand_feats.size, axis=0)
        cands[1 + np.arange(cand_feats.size), cand_feats] = z[cand_feats]
        p_step = model.predict_proba_batch(cands)
        p_c, p_new = p_step[0], p_step[1:]
        gain = p_c - p_new  # increase in p(pass)
        if reward == SPARSITY:
            score = gain
        else:
            w = widths[cand_feats]
            diff = np.abs(c[cand_feats] - z[cand_feats])
            cost = np.where(w > 0, np.minimum(diff / np.where(w > 0, w, 1.0), 1.0) / n_active, 0.0)
            score = gain / np.maximum(cost, 1e-12)
        best = int(np.argmax(score))  # first maximum: lowest feature index wins ties
        j = int(cand_feats[best])
        c[j] = z[j]
        copied.append(j)
        if p_new[best] < 0.5:
            break
    return Counterfactual(
        values=c,
        method=NICE_SP if reward == SPARSITY else NICE_PR,
        source_request=req,
        generation_meta={
            "nun_index": nun_index,
            "copied_features": copied,
            "iterations": len(copied),
            "reward": reward,
        },
    )


def _dominates(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """dom[i, j]: row i of ``a`` dominates row j of ``b`` (minimization).

    One 2-D comparison pair per objective, so no (len(a), len(b), m) tensor.
    """
    le = np.ones((a.shape[0], b.shape[0]), dtype=bool)
    lt = np.zeros_like(le)
    for k in range(a.shape[1]):
        le &= a[:, k, None] <= b[None, :, k]
        lt |= a[:, k, None] < b[None, :, k]
    return le & lt


def _first_front(obj: np.ndarray) -> np.ndarray:
    """Front 0 of `_fast_nondominated_sort`, without peeling later fronts.

    A dominator precedes the row it dominates in lexicographic objective
    order, and every dominated row is dominated by some front-0 row, so rows
    are taken in that order, ``_FRONT_CHUNK`` at a time, and checked only
    against the front found so far and their own chunk.
    """
    order = np.lexsort(obj.T[::-1])
    front = np.empty(0, dtype=np.intp)
    for s in range(0, order.size, _FRONT_CHUNK):
        chunk = order[s:s + _FRONT_CHUNK]
        c = obj[chunk]
        dominated = _dominates(obj[front], c).any(axis=0) | _dominates(c, c).any(axis=0)
        front = np.concatenate([front, chunk[~dominated]])
    return np.sort(front)


def _fast_nondominated_sort(obj: np.ndarray) -> list[np.ndarray]:
    """Peel minimization fronts: front 0 is dominated by nobody, and so on."""
    dom = _dominates(obj, obj)
    n_dominators = dom.sum(axis=0)
    fronts = []
    current = np.flatnonzero(n_dominators == 0)
    while current.size:
        fronts.append(current)
        n_dominators = n_dominators - dom[current].sum(axis=0)
        n_dominators[current] = -1
        current = np.flatnonzero(n_dominators == 0)
    return fronts


def _crowding_distance(obj: np.ndarray, front: np.ndarray) -> np.ndarray:
    m = front.size
    dist = np.zeros(m)
    if m <= 2:
        dist[:] = np.inf
        return dist
    vals_all = obj[front]
    for k in range(obj.shape[1]):
        vals = vals_all[:, k]
        order = np.argsort(vals, kind="stable")
        dist[order[0]] = dist[order[-1]] = np.inf
        span = vals[order[-1]] - vals[order[0]]
        if span > 0:
            dist[order[1:-1]] += (vals[order[2:]] - vals[order[:-2]]) / span
    return dist


def _select(obj: np.ndarray, target: int, rows: np.ndarray, ranges: RangeTable) -> np.ndarray:
    """Environmental selection: fill by fronts, truncate by crowding distance.

    The truncation crowding score also rewards feature-space diversity of the
    candidate ``rows`` (mean Gower distance to the two nearest members of the
    front), which keeps the population from collapsing onto one corner of the
    objective space.
    """
    keep: list[int] = []
    for front in _fast_nondominated_sort(obj):
        if len(keep) + front.size <= target:
            keep.extend(front.tolist())
        else:
            cd = _crowding_distance(obj, front)
            if front.size > 3:
                d = gower_cross(rows[front], rows[front], ranges)
                np.fill_diagonal(d, np.inf)
                diversity = np.sort(d, axis=1)[:, :2].mean(axis=1)
                cd = np.where(np.isinf(cd), cd, cd + diversity * front.size)
            order = np.argsort(-cd, kind="stable")  # ties keep front (index) order
            keep.extend(front[order[: target - len(keep)]].tolist())
            break
    return np.asarray(keep, dtype=np.intp)


def moc(req: CfRequest, model, train: LabeledDataset, cfg: MocConfig) -> list[Counterfactual]:
    """Four-objective evolutionary counterfactual search.

    The population starts from copies of x with a random mutable subset
    overwritten by draws from the training marginals. Each generation pairs
    the population, applies per-feature uniform crossover, then mutates
    features at ``mutation_rate`` -- a share of mutation events resets the
    feature to x_j (restoring sparsity), the rest take a Gaussian step with
    scale 10% of the feature range, clipped to the bounds. Parents and
    offspring compete through non-dominated sorting with crowding-distance
    truncation.

    Every candidate evaluated during the search whose prediction is pass goes
    into an archive; the result is the deduplicated non-dominated front of
    that archive, sorted by ascending proximity. An empty list (nothing valid
    was ever found) is a legal outcome, not an error.

    Initial candidates copy a random mutable feature subset from one random
    training row (a joint draw from the observed data), and truncation
    crowding mixes in feature-space diversity; both keep the search from
    fixating on the trivially sparse region around x, where no candidate is
    valid.
    """
    x = req.x
    rt = req.ranges()
    lo, hi = req.bounds[:, 0], req.bounds[:, 1]
    mutable = req.mutable_mask
    mutable_idx = np.flatnonzero(mutable)
    pop = cfg.population
    p = req.p
    rng = spawn_rng(cfg.seed)

    archive_rows: list[np.ndarray] = []
    archive_obj: list[np.ndarray] = []
    archive_birth: list[np.ndarray] = []

    columns = GowerColumns.of(train.features)

    def evaluate(cands: np.ndarray, gen: int):
        obj, pfail = objectives(x, cands, model, train, rt, columns)
        valid = pfail < 0.5
        if valid.any():
            archive_rows.append(cands[valid].copy())
            archive_obj.append(obj[valid])
            archive_birth.append(np.full(int(valid.sum()), gen, dtype=np.int64))
        return obj

    population = np.repeat(x[None, :], pop, axis=0)
    for i in range(pop):
        size = int(rng.integers(1, mutable_idx.size + 1))
        subset = rng.choice(mutable_idx, size=size, replace=False)
        donor = int(rng.integers(0, train.n))
        # only the copied features are clipped: an out-of-range x_j stays x_j
        population[i, subset] = np.clip(train.features[donor, subset], lo[subset], hi[subset])
    obj = evaluate(population, gen=0)

    sigma = 0.1 * rt.widths
    for gen in range(1, cfg.generations + 1):
        perm = rng.permutation(pop)
        children = population[perm].copy()
        half = pop // 2
        crossed = rng.random(half) < cfg.crossover_rate
        swap = (rng.random((half, p)) < 0.5) & mutable[None, :] & crossed[:, None]
        a, b = children[0::2], children[1::2]
        a_new = np.where(swap, b, a)
        b_new = np.where(swap, a, b)
        children[0::2], children[1::2] = a_new, b_new

        mutate = (rng.random((pop, p)) < cfg.mutation_rate) & mutable[None, :]
        reset = rng.random((pop, p)) < _RESET_SHARE
        stepped = np.clip(children + rng.normal(0.0, 1.0, (pop, p)) * sigma[None, :], lo, hi)
        children = np.where(mutate & reset, x[None, :], np.where(mutate, stepped, children))

        obj_c = evaluate(children, gen=gen)
        all_pop = np.vstack([population, children])
        all_obj = np.vstack([obj, obj_c])
        keep = _select(all_obj, pop, all_pop, rt)
        population, obj = all_pop[keep], all_obj[keep]

    if not archive_rows:
        return []
    rows = np.vstack(archive_rows)
    objs = np.vstack(archive_obj)
    births = np.concatenate(archive_birth)
    _, first = np.unique(rows, axis=0, return_index=True)
    first.sort()  # keep earliest occurrence, in evaluation order
    rows, objs, births = rows[first], objs[first], births[first]
    front = _first_front(objs)
    order = sorted(
        front.tolist(),
        key=lambda i: (objs[i, 1], objs[i, 2], objs[i, 3], objs[i, 0], rows[i].tobytes()),
    )
    return [
        Counterfactual(
            values=rows[i],
            method=MOC,
            source_request=req,
            generation_meta={
                "objectives": MocObjectives(*(float(v) for v in objs[i])),
                "birth_generation": int(births[i]),
                "front_size": int(front.size),
                "archive_size": int(rows.shape[0]),
            },
        )
        for i in order
    ]


def write_counterfactuals(csv_path, meta_path, feature_names, items) -> None:
    """Serialize generated counterfactuals.

    ``items`` yields (request_id, Counterfactual, valid) triples. The CSV has
    one row per counterfactual (request_id, method, feature values, valid);
    generation metadata goes to a JSON-lines stream alongside.
    """
    csv_path, meta_path = Path(csv_path), Path(meta_path)
    with csv_path.open("w", newline="") as fh, meta_path.open("w") as mh:
        writer = csv.writer(fh)
        writer.writerow(["request_id", "method", *feature_names, "valid"])
        for request_id, cf, valid in items:
            writer.writerow([request_id, cf.method, *[repr(float(v)) for v in cf.values],
                             int(valid)])
            mh.write(json.dumps(
                {"request_id": request_id, "method": cf.method, "meta": cf.generation_meta},
                sort_keys=True,
            ) + "\n")
