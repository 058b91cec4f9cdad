"""Sparse aggregation when the transferable source set is unknown.

The target sample is split in half. On the first half each source gets a
contrast score, the RKHS distance between its own KRR fit and the
target-only fit; ranking the scores induces nested candidate source sets
and one two-step fit per set. Their pooled steps, and the whole-target
all-sources pooled fit, are rungs of one nested ladder whose rows are the
first half, the sources in rank order, then the second half
(prepare_candidates runs these stages once, so SA, exponential weighting
and the all-sources pooled method can share them). The candidates are
evaluated on both halves as one batch: a Gram per half times the stacked
coefficients, so each candidate's predictions on the second half are
computed once. On the second half a hyper-sparse aggregation picks a
convex pair of candidates: an empirical-risk winner on one sub-half, a
margin rule that keeps near-winners, and a closed-form mixing weight
fitted on the other sub-half, each sub-half a row slice of those
predictions. SA then refits the chosen pair on the whole target: the
all-sources candidate on the ladder's top rung, any other pooling in index
order. The rule has no settings: the margin is that of Gaiffas & Lecue
2011 with constant 1. Exponential weighting over the same candidates is
provided as a softer alternative.

Every fitted model is a callable on covariate rows: a RepresenterFunction
(candidate 0, target-only KRR), a WeightedSum (the two-step candidates and
the exponentially weighted mixture) or the AggregateModel pair record.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from .kernels import (
    Dataset,
    KernelConfig,
    RepresenterFunction,
    TooFewRowsError,
    WeightedSum,
    _gemm,
    gram_matrix,
    rkhs_norm_diff,
    rkhs_norm_sq,
)
from .krr import (
    LambdaSchedule,
    fit_krr,
    fit_krr_nested,
    schedule_lambda_debias,
    schedule_lambda_source,
)
from .transfer import SourceCollection, _pooled_dataset, fit_ah_tkrr, fit_debias

__all__ = [
    "CandidateSet",
    "AggregateModel",
    "split_uniform",
    "rank_contrasts",
    "build_candidates",
    "prepare_candidates",
    "hyper_sparse_aggregate",
    "sa_tkrr",
    "aew_aggregate",
]


@dataclass(frozen=True)
class CandidateSet:
    """Ranked sources and the candidate models they induce.

    ranks is a permutation of 1..m (rank 1 = smallest contrast, ties broken
    by source index). nested_sets, derived from ranks, lists the m+1 induced
    source sets from the empty set up to all sources, each in rank order.
    The candidate fits on T1 pool their sources in rank order, as rungs of
    one nested ladder. candidates holds the m+1 models (index 0 =
    target-only KRR) and may be empty on a ranking-only result. pooled is
    the ladder's top rung, the pooled fit of the whole target with every
    source, its rows T1, the sources in rank order, then T2; SA's refit of
    the all-sources candidate uses it as its pooled step, while a refit of
    any other set pools in index order. It is None on a ranking-only
    result or with no sources. values holds the candidates' predictions at
    T2's rows, row l for candidate l, computed as one batch and within
    1e-12 relative of candidates[l](T2.x); it is None on a ranking-only
    result.
    """

    contrast_norms: NDArray[np.float64]
    ranks: NDArray[np.int64]
    candidates: tuple = ()
    pooled: RepresenterFunction | None = None
    values: NDArray[np.float64] | None = None

    def __post_init__(self) -> None:
        norms = np.asarray(self.contrast_norms, dtype=np.float64)
        ranks = np.asarray(self.ranks, dtype=np.int64)
        m = norms.shape[0]
        if ranks.shape != (m,):
            raise ValueError(f"ranks shape {ranks.shape} does not match {m} norms")
        if sorted(ranks.tolist()) != list(range(1, m + 1)):
            raise ValueError(f"ranks must be a permutation of 1..{m}: {ranks}")
        if self.candidates and len(self.candidates) != m + 1:
            raise ValueError(
                f"expected {m + 1} candidates, got {len(self.candidates)}"
            )
        object.__setattr__(self, "contrast_norms", norms)
        object.__setattr__(self, "ranks", ranks)
        object.__setattr__(self, "candidates", tuple(self.candidates))

    @property
    def m(self) -> int:
        return self.contrast_norms.shape[0]

    @property
    def nested_sets(self) -> tuple[tuple[int, ...], ...]:
        order = [0] * self.m
        for k, r in enumerate(self.ranks, start=1):
            order[int(r) - 1] = k
        return tuple(tuple(order[:size]) for size in range(self.m + 1))


@dataclass(frozen=True)
class AggregateModel:
    """Convex pair f = weight * candidates[idx_a] + (1 - weight) * candidates[idx_b].

    Only the candidates with nonzero weight are evaluated.
    """

    idx_a: int
    idx_b: int
    weight: float
    candidates: tuple

    def __post_init__(self) -> None:
        if not 0.0 <= self.weight <= 1.0:
            raise ValueError(f"weight must lie in [0, 1], got {self.weight}")
        for idx in (self.idx_a, self.idx_b):
            if not 0 <= idx < len(self.candidates):
                raise ValueError(f"candidate index {idx} out of range")

    def __call__(self, x: NDArray) -> NDArray[np.float64]:
        pair = (self.candidates[self.idx_a], self.candidates[self.idx_b])
        return WeightedSum(pair, (self.weight, 1.0 - self.weight))(x)


def split_uniform(data: Dataset, seed: int) -> tuple[Dataset, Dataset]:
    """Random row split in halves; the first gets the extra row of an odd n.

    The permutation comes from a generator seeded with seed alone, and both
    parts keep their rows in original order.
    """
    if data.n < 2:
        raise TooFewRowsError("need at least two rows to split")
    return data.split((data.n + 1) // 2, seed)


def rank_contrasts(
    t1: Dataset,
    sources: Sequence[Dataset],
    schedules: LambdaSchedule,
    cfg: KernelConfig,
    target_fit: RepresenterFunction | None = None,
) -> CandidateSet:
    """Score and rank sources by contrast against the target-only fit.

    Each source gets its own KRR fit at the source-rate ridge for its
    sample size; the contrast is the RKHS distance to the target-only fit
    on t1 (target_fit, if given). Returns ranking fields only, with an empty
    candidate tuple; with no sources the ranking is empty (m = 0).
    """
    lam0 = schedule_lambda_source(t1.n, schedules)
    f0 = fit_krr(t1, lam0, cfg) if target_fit is None else target_fit
    norms = np.empty(len(sources))
    f0_sq = rkhs_norm_sq(f0) if sources else None
    for j, src in enumerate(sources):
        fk = fit_krr(src, schedule_lambda_source(src.n, schedules), cfg)
        norms[j] = rkhs_norm_diff(fk, f0, f0_sq)
    order = np.argsort(norms, kind="stable")
    ranks = np.empty(len(sources), dtype=np.int64)
    ranks[order] = np.arange(1, len(sources) + 1)
    return CandidateSet(contrast_norms=norms, ranks=ranks)


def _fit_candidate(
    level: int,
    target: Dataset,
    sources: Sequence[Dataset],
    ranked: CandidateSet,
    schedules: LambdaSchedule,
    cfg: KernelConfig,
):
    # SA's refit of candidate `level` on the whole target, with ridges for
    # its size. The all-sources candidate's pooled step is ranked.pooled,
    # the ladder's top rung; any other set pools in index order.
    if level == 0:
        return fit_krr(target, schedule_lambda_source(target.n, schedules), cfg)
    subset = tuple(sorted(ranked.nested_sets[level]))
    coll = SourceCollection(sources=tuple(sources), transferable=subset)
    lam1 = schedule_lambda_source(coll.n_transferable + target.n, schedules)
    lam2 = _debias_ridge(level, target.n, ranked, schedules)
    pooled = ranked.pooled if level == ranked.m else None
    return fit_ah_tkrr(target, coll, lam1, lam2, cfg, pooled)


def _debias_ridge(level: int, n_target: int, ranked: CandidateSet, schedules: LambdaSchedule) -> float:
    # The debias ridge of candidate `level`, at the plug-in offset: the
    # largest contrast within its set.
    h = float(max(ranked.contrast_norms[k - 1] for k in ranked.nested_sets[level]))
    return schedule_lambda_debias(n_target, h, schedules)


def build_candidates(
    t1: Dataset,
    sources: Sequence[Dataset],
    ranked: CandidateSet,
    schedules: LambdaSchedule,
    cfg: KernelConfig,
    target_fit: RepresenterFunction,
    t2: Dataset,
) -> CandidateSet:
    """Fit the m+1 candidate models induced by a ranking.

    Candidate 0 is target_fit, the target-only KRR fit with t1's rows as its
    anchors; candidate l pools t1 with the l lowest-contrast sources and
    runs the two-step fit, the debias ridge using the plug-in offset max
    contrast within the set. The pooled steps are the rungs of one
    krr.fit_krr_nested ladder on t1 followed by the sources in rank order.
    With at least one source the ladder gets one more rung with t2, the
    rest of the target, last: the whole-target all-sources pooled fit, at
    the source-rate ridge for all its rows, returned as the set's pooled
    field.

    The candidates are evaluated as a batch. One Gram of t1 against the top
    candidate's rows, times the zero-padded pooled coefficients in one
    dgemm, gives every pooled step at t1, from which the debias steps fit
    their residuals. The same product at t2, plus one Gram of t2 against t1
    times candidate 0's and the debias coefficients, gives every
    candidate's values at t2 (pooled + debias, the sum WeightedSum forms),
    the set's values field.
    """
    m = ranked.m
    ranked_all = SourceCollection(tuple(sources), ranked.nested_sets[-1])
    data = _pooled_dataset(t1, ranked_all)
    sizes = list(t1.n + np.cumsum([sources[k - 1].n for k in ranked_all.transferable], dtype=int))
    if m:
        data = Dataset(np.concatenate([data.x, t2.x]), np.concatenate([data.y, t2.y]))
        sizes.append(data.n)
    lam1 = [schedule_lambda_source(int(n), schedules) for n in sizes]
    ladder = fit_krr_nested(data, sizes, lam1, cfg)
    debias = []
    if m:
        anchors, coef = data.x[: sizes[m - 1]], np.zeros((m, sizes[m - 1]))
        for row, f in zip(coef, ladder):
            row[: f.coefficients.shape[0]] = f.coefficients
        at_t1 = _gemm(gram_matrix(cfg, t1.x, anchors), coef)
        debias = [
            fit_debias(t1, f, _debias_ridge(level, t1.n, ranked, schedules), cfg, at)
            for level, (f, at) in enumerate(zip(ladder, at_t1), start=1)
        ]
    t1_coef = np.array([target_fit.coefficients] + [g.coefficients for g in debias])
    values = _gemm(gram_matrix(cfg, t2.x, t1.x), t1_coef)
    if m:
        values[1:] += _gemm(gram_matrix(cfg, t2.x, anchors), coef)
    candidates = (target_fit,) + tuple(
        WeightedSum((f, g), (1.0, 1.0)) for f, g in zip(ladder, debias)
    )
    return dataclasses.replace(
        ranked, candidates=candidates, pooled=ladder[-1] if m else None, values=values
    )


def prepare_candidates(
    target: Dataset,
    sources: Sequence[Dataset],
    split_seed: int,
    schedules: LambdaSchedule,
    cfg: KernelConfig,
) -> tuple[Dataset, CandidateSet]:
    """Split the target in half with split_seed, then rank and build on the first half.

    Returns the second half, on which candidates are aggregated, and the
    candidate set, whose pooled field holds the whole-target all-sources
    pooled fit (None with no sources). The target-only fit on T1 serves the
    ranking and is candidate 0; with no sources it is the only candidate.
    """
    t1, t2 = split_uniform(target, split_seed)
    f0 = fit_krr(t1, schedule_lambda_source(t1.n, schedules), cfg)
    ranked = rank_contrasts(t1, sources, schedules, cfg, f0)
    return t2, build_candidates(t1, sources, ranked, schedules, cfg, f0, t2)


def hyper_sparse_aggregate(
    candidates: Sequence, t2: Dataset, split_seed: int, values: NDArray
) -> AggregateModel:
    """Pick a convex pair of candidates on held-out data.

    t2 is split in half with split_seed. On the first sub-half, of n rows,
    the empirical-risk winner is found and candidates within
    max(phi * dist, phi^2) of its risk survive, phi being
    sqrt(log(M + 1) / n) for M candidates and dist the root mean squared
    gap to the winner on that sub-half. On the second sub-half every
    survivor pair gets the closed-form least squares mixing weight clamped
    to [0, 1] (weight 1 when the pair's predictions coincide), and the pair
    with the smallest risk wins; earlier pairs win ties. A singleton
    survivor set returns the winner with weight 1. values holds the
    candidates' predictions at t2's rows, row l for candidate l
    (CandidateSet.values); any other shape raises ValueError. The
    sub-halves are split_uniform's halves of those columns paired with t2's
    responses, so they are t2's own halves' rows, and no candidate is
    evaluated here.
    """
    if not candidates or np.shape(values) != (len(candidates), t2.n):
        raise ValueError(f"want values of shape ({len(candidates)} >= 1, {t2.n}), got {np.shape(values)}")
    t21, t22 = split_uniform(Dataset(values.T, t2.y), split_seed)
    preds21, preds22 = t21.x.T.copy(), t22.x.T.copy()
    risks21 = np.array([float(np.mean((t21.y - p) ** 2)) for p in preds21])
    best = int(np.argmin(risks21))
    phi = math.sqrt(math.log(len(candidates) + 1) / t21.n)
    survivors = []
    for l, p in enumerate(preds21):
        dist = math.sqrt(float(np.mean((preds21[best] - p) ** 2)))
        if risks21[l] <= risks21[best] + max(phi * dist, phi * phi):
            survivors.append(l)
    if len(survivors) == 1:
        only = survivors[0]
        return AggregateModel(
            idx_a=only, idx_b=only, weight=1.0, candidates=tuple(candidates)
        )
    best_pair = None
    best_risk = math.inf
    for ia, a in enumerate(survivors):
        for b in survivors[ia + 1 :]:
            fa, fb = preds22[a], preds22[b]
            diff = fa - fb
            denom = float(diff @ diff)
            if denom == 0.0:
                t = 1.0
            else:
                t = float((t22.y - fb) @ diff) / denom
                t = min(max(t, 0.0), 1.0)
            mix = t * fa + (1.0 - t) * fb
            risk = float(np.mean((t22.y - mix) ** 2))
            if risk < best_risk:
                best_risk = risk
                best_pair = (a, b, t)
    a, b, t = best_pair
    return AggregateModel(idx_a=a, idx_b=b, weight=t, candidates=tuple(candidates))


def sa_tkrr(
    target: Dataset,
    sources: Sequence[Dataset],
    split_seed: int,
    schedules: LambdaSchedule,
    cfg: KernelConfig,
    prepared: tuple[Dataset, CandidateSet] | None = None,
) -> AggregateModel:
    """Full pipeline: split, rank, build candidates, aggregate, refit.

    The target is split in half with split_seed; ranking and candidate
    fitting run on the first half, aggregation on the second (whose own
    sub-split reuses split_seed on different rows). `prepared` passes in
    prepare_candidates' result for these same arguments when it has already
    been computed; the sweep's SA_TKRR is this call with it. The chosen
    candidates with nonzero weight are then refit on the full target sample
    at schedules recomputed for the full size, keeping the T1 contrast
    estimates for the plug-in offset and the mixing weight unchanged. The
    all-sources refit's pooled step is the candidate set's pooled field,
    the ladder's top rung; a refit of any other set pools in index order.
    """
    if target.n < 4:
        raise TooFewRowsError(f"need at least 4 target rows, got {target.n}")
    t2, cs = prepared or prepare_candidates(target, sources, split_seed, schedules, cfg)
    agg = hyper_sparse_aggregate(cs.candidates, t2, split_seed, cs.values)
    refit = list(agg.candidates)
    for idx, w in ((agg.idx_a, agg.weight), (agg.idx_b, 1.0 - agg.weight)):
        if w != 0.0:
            refit[idx] = _fit_candidate(idx, target, sources, cs, schedules, cfg)
    return dataclasses.replace(agg, candidates=tuple(refit))


def aew_aggregate(
    candidates: Sequence, t2: Dataset, temperature: float, values: NDArray
) -> WeightedSum:
    """Exponential weights w_l proportional to exp(-n * risk_l / temperature).

    values holds the candidates' predictions at t2's rows, as in
    hyper_sparse_aggregate.
    """
    if not candidates or np.shape(values) != (len(candidates), t2.n):
        raise ValueError(f"want values of shape ({len(candidates)} >= 1, {t2.n}), got {np.shape(values)}")
    if not temperature > 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    risks = np.array([float(np.mean((t2.y - p) ** 2)) for p in values])
    logits = -t2.n * risks / temperature
    logits -= logits.max()
    w = np.exp(logits)
    w /= w.sum()
    return WeightedSum(parts=tuple(candidates), weights=w)
