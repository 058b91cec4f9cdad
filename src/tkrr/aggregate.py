"""Sparse aggregation when the transferable source set is unknown.

The target sample is split in half. On the first half each source gets a
contrast score, the RKHS distance between its own KRR fit and the
target-only fit; ranking the scores induces nested candidate source sets
and one two-step fit per set (prepare_candidates runs these stages once,
so SA and exponential weighting can share them). On the second half a
hyper-sparse aggregation picks a convex pair of candidates: an
empirical-risk winner on one sub-half, a margin rule that keeps
near-winners, and a closed-form mixing weight fitted on the other sub-half.
Exponential weighting over the same candidates is provided as a softer
alternative.

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

from .kernels import Dataset, KernelConfig, RepresenterFunction, WeightedSum, rkhs_norm_diff
from .krr import (
    LambdaSchedule,
    fit_krr,
    schedule_lambda_debias,
    schedule_lambda_source,
)
from .transfer import SourceCollection, fit_ah_tkrr

__all__ = [
    "AggregationParams",
    "CandidateSet",
    "AggregateModel",
    "model_predict",
    "split_uniform",
    "rank_contrasts",
    "build_candidates",
    "prepare_candidates",
    "empirical_risk",
    "hyper_sparse_aggregate",
    "sa_tkrr",
    "aew_aggregate",
]


@dataclass(frozen=True)
class AggregationParams:
    """Knobs for the hyper-sparse aggregation step.

    phi is the margin rate; "auto" resolves to sqrt(log(m + 2) / n) with m
    the number of sources and n the size of the risk-comparison sub-half.
    retrain controls whether the two chosen candidates are refit on the
    full target sample (keeping the mixing weight) before prediction.
    """

    c: float = 1.0
    phi: float | str = "auto"
    split_seed: int = 0
    retrain: bool = True

    def __post_init__(self) -> None:
        if not self.c > 0:
            raise ValueError(f"c must be positive, got {self.c}")
        if isinstance(self.phi, str):
            if self.phi != "auto":
                raise ValueError(f"phi must be positive or 'auto', got {self.phi!r}")
        elif not self.phi > 0:
            raise ValueError(f"phi must be positive or 'auto', got {self.phi}")


@dataclass(frozen=True)
class CandidateSet:
    """Ranked sources and the candidate models they induce.

    ranks is a permutation of 1..m (rank 1 = smallest contrast, ties broken
    by source index). nested_sets lists the m+1 induced source sets from
    the empty set up to all sources, each in rank order, which is also the
    pooling order of the corresponding candidate fit. candidates holds the
    m+1 models (index 0 = target-only KRR) and may be empty on a
    ranking-only result.
    """

    contrast_norms: NDArray[np.float64]
    ranks: NDArray[np.int64]
    nested_sets: tuple[tuple[int, ...], ...]
    candidates: tuple = ()

    def __post_init__(self) -> None:
        norms = np.asarray(self.contrast_norms, dtype=np.float64)
        ranks = np.asarray(self.ranks, dtype=np.int64)
        m = norms.shape[0]
        if ranks.shape != (m,):
            raise ValueError(f"ranks shape {ranks.shape} does not match {m} norms")
        if sorted(ranks.tolist()) != list(range(1, m + 1)):
            raise ValueError(f"ranks must be a permutation of 1..{m}: {ranks}")
        if len(self.nested_sets) != m + 1 or self.nested_sets[0] != ():
            raise ValueError("nested_sets must start empty and have m+1 entries")
        if self.candidates and len(self.candidates) != m + 1:
            raise ValueError(
                f"expected {m + 1} candidates, got {len(self.candidates)}"
            )
        object.__setattr__(self, "contrast_norms", norms)
        object.__setattr__(self, "ranks", ranks)
        object.__setattr__(self, "nested_sets", tuple(self.nested_sets))
        object.__setattr__(self, "candidates", tuple(self.candidates))

    @property
    def m(self) -> int:
        return self.contrast_norms.shape[0]


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


def model_predict(model, x: NDArray) -> NDArray[np.float64]:
    """Evaluate a fitted model, or any callable on covariate rows, at x."""
    return np.asarray(model(x), dtype=np.float64)


def split_uniform(data: Dataset, fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Random row split; the first part gets round(fraction * n) rows.

    Rounding is half-up, the permutation comes from a generator seeded with
    seed alone, and both parts keep their rows in original order.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must lie strictly in (0, 1), got {fraction}")
    if data.n < 2:
        raise ValueError("need at least two rows to split")
    n1 = int(math.floor(fraction * data.n + 0.5))
    n1 = min(max(n1, 1), data.n - 1)
    perm = np.random.default_rng(seed).permutation(data.n)
    first = np.sort(perm[:n1])
    second = np.sort(perm[n1:])
    return (
        Dataset(x=data.x[first], y=data.y[first]),
        Dataset(x=data.x[second], y=data.y[second]),
    )


def _nested_sets(ranks: NDArray[np.int64]) -> tuple[tuple[int, ...], ...]:
    order = [0] * ranks.shape[0]
    for k, r in enumerate(ranks, start=1):
        order[int(r) - 1] = k
    return tuple(tuple(order[:size]) for size in range(ranks.shape[0] + 1))


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
    candidate tuple.
    """
    if not sources:
        raise ValueError("need at least one source to rank")
    lam0 = schedule_lambda_source(t1.n, schedules)
    f0 = fit_krr(t1, lam0, cfg) if target_fit is None else target_fit
    norms = np.empty(len(sources))
    for j, src in enumerate(sources):
        fk = fit_krr(src, schedule_lambda_source(src.n, schedules), cfg)
        norms[j] = rkhs_norm_diff(fk, f0)
    order = np.argsort(norms, kind="stable")
    ranks = np.empty(len(sources), dtype=np.int64)
    ranks[order] = np.arange(1, len(sources) + 1)
    return CandidateSet(
        contrast_norms=norms, ranks=ranks, nested_sets=_nested_sets(ranks)
    )


def _plug_in_h(norms: NDArray[np.float64], subset: tuple[int, ...]) -> float:
    return float(max(norms[k - 1] for k in subset))


def _fit_candidate(
    level: int,
    target: Dataset,
    sources: Sequence[Dataset],
    ranked: CandidateSet,
    schedules: LambdaSchedule,
    cfg: KernelConfig,
):
    # Candidate `level` of build_candidates, fitted on `target` (T1, or the
    # full sample on a refit) with ridges for its size.
    if level == 0:
        return fit_krr(target, schedule_lambda_source(target.n, schedules), cfg)
    subset = ranked.nested_sets[level]
    coll = SourceCollection(sources=tuple(sources), transferable=subset)
    lam1 = schedule_lambda_source(coll.n_transferable + target.n, schedules)
    lam2 = schedule_lambda_debias(
        target.n, _plug_in_h(ranked.contrast_norms, subset), schedules
    )
    return fit_ah_tkrr(target, coll, lam1, lam2, cfg)


def build_candidates(
    t1: Dataset,
    sources: Sequence[Dataset],
    ranked: CandidateSet,
    schedules: LambdaSchedule,
    cfg: KernelConfig,
    target_fit: RepresenterFunction | None = None,
) -> CandidateSet:
    """Fit the m+1 candidate models induced by a ranking.

    Candidate 0 is target-only KRR on t1 (target_fit, if given); candidate l
    pools t1 with the l lowest-contrast sources and runs the two-step fit, with
    the debias ridge using the plug-in offset max contrast within the set.
    """
    first = () if target_fit is None else (target_fit,)
    candidates = first + tuple(
        _fit_candidate(level, t1, sources, ranked, schedules, cfg)
        for level in range(len(first), ranked.m + 1)
    )
    return dataclasses.replace(ranked, candidates=candidates)


def prepare_candidates(
    target: Dataset,
    sources: Sequence[Dataset],
    params: AggregationParams,
    schedules: LambdaSchedule,
    cfg: KernelConfig,
) -> tuple[Dataset, CandidateSet]:
    """Split the target in half with split_seed, then rank and build on the first half.

    Returns the second half, on which candidates are aggregated, and the
    candidate set. The target-only fit on T1 serves the ranking and is
    candidate 0; with no sources it is the only candidate.
    """
    t1, t2 = split_uniform(target, 0.5, params.split_seed)
    f0 = fit_krr(t1, schedule_lambda_source(t1.n, schedules), cfg)
    unranked = CandidateSet(np.empty(0), np.empty(0, np.int64), ((),))
    ranked = rank_contrasts(t1, sources, schedules, cfg, f0) if sources else unranked
    return t2, build_candidates(t1, sources, ranked, schedules, cfg, f0)


def empirical_risk(model, data: Dataset) -> float:
    """Mean squared prediction error of a fitted model on one dataset."""
    r = data.y - model_predict(model, data.x)
    return float(np.mean(r * r))


def _resolve_phi(params: AggregationParams, n_candidates: int, n21: int) -> float:
    if params.phi == "auto":
        return math.sqrt(math.log(n_candidates + 1) / n21)
    return float(params.phi)


def hyper_sparse_aggregate(
    candidates: Sequence, t2: Dataset, params: AggregationParams
) -> AggregateModel:
    """Pick a convex pair of candidates on held-out data.

    t2 is split in half. On the first sub-half the empirical-risk winner is
    found and candidates within c * max(phi * dist, phi^2) of its risk
    survive, dist being the root mean squared gap to the winner on that
    sub-half. On the second sub-half every survivor pair gets the
    closed-form least squares mixing weight clamped to [0, 1] (weight 1
    when the pair's predictions coincide), and the pair with the smallest
    risk wins; earlier pairs win ties. A singleton survivor set returns the
    winner with weight 1.
    """
    if not candidates:
        raise ValueError("need at least one candidate")
    t21, t22 = split_uniform(t2, 0.5, params.split_seed)
    preds21 = [model_predict(f, t21.x) for f in candidates]
    risks21 = np.array([float(np.mean((t21.y - p) ** 2)) for p in preds21])
    best = int(np.argmin(risks21))
    phi = _resolve_phi(params, len(candidates), t21.n)
    survivors = []
    for l, p in enumerate(preds21):
        dist = math.sqrt(float(np.mean((preds21[best] - p) ** 2)))
        if risks21[l] <= risks21[best] + params.c * max(phi * dist, phi * phi):
            survivors.append(l)
    if len(survivors) == 1:
        only = survivors[0]
        return AggregateModel(
            idx_a=only, idx_b=only, weight=1.0, candidates=tuple(candidates)
        )
    preds22 = {l: model_predict(candidates[l], t22.x) for l in survivors}
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
    params: AggregationParams,
    schedules: LambdaSchedule,
    cfg: KernelConfig,
    prepared: tuple[Dataset, CandidateSet] | None = None,
) -> AggregateModel:
    """Full pipeline: split, rank, build candidates, aggregate.

    The target is split in half with split_seed; ranking and candidate
    fitting run on the first half, aggregation on the second (whose own
    sub-split reuses split_seed on different rows). `prepared` passes in
    prepare_candidates' result for these same arguments when it has already
    been computed. With retrain on, the chosen candidates with nonzero
    weight are refit on the full target sample at schedules recomputed for
    the full size, keeping the T1 contrast estimates for the plug-in offset
    and the mixing weight unchanged.
    """
    if target.n < 4:
        raise ValueError(f"need at least 4 target rows, got {target.n}")
    t2, cs = prepared or prepare_candidates(target, sources, params, schedules, cfg)
    agg = hyper_sparse_aggregate(cs.candidates, t2, params)
    if not params.retrain:
        return agg
    refit = list(agg.candidates)
    for idx, w in ((agg.idx_a, agg.weight), (agg.idx_b, 1.0 - agg.weight)):
        if w != 0.0:
            refit[idx] = _fit_candidate(idx, target, sources, cs, schedules, cfg)
    return dataclasses.replace(agg, candidates=tuple(refit))


def aew_aggregate(candidates: Sequence, t2: Dataset, temperature: float) -> WeightedSum:
    """Exponential weights w_l proportional to exp(-n * risk_l / temperature)."""
    if not candidates:
        raise ValueError("need at least one candidate")
    if not temperature > 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    risks = np.array([empirical_risk(f, t2) for f in candidates])
    logits = -t2.n * risks / temperature
    logits -= logits.max()
    w = np.exp(logits)
    w /= w.sum()
    return WeightedSum(parts=tuple(candidates), weights=w)
