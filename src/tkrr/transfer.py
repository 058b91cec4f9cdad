"""Two-step transfer estimator for a known transferable source set.

Step one pools the target sample with the transferable sources and fits
KRR at the source-rate ridge; step two fits KRR at the debias-rate ridge
on the target residuals of the pooled fit. The estimator is their sum, a
WeightedSum of the two fits with unit weights. The no-debias ablation is
step one alone, the pooled fit. The target's rows are rows of the pooled
fit's own system, so their residuals come from it, with no kernel
evaluated (RepresenterFunction.shift).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import Dataset, KernelConfig, RepresenterFunction, WeightedSum
from .krr import fit_krr

__all__ = [
    "SourceCollection",
    "fit_pooled",
    "fit_debias",
    "fit_ah_tkrr",
]


@dataclass(frozen=True)
class SourceCollection:
    """Source studies indexed 1..m plus the transferable index set.

    transferable is an ordered tuple of distinct 1-based indices; pooling
    concatenates the listed studies in exactly this order after the target.
    """

    sources: tuple[Dataset, ...]
    transferable: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "sources", tuple(self.sources))
        idx = tuple(int(i) for i in self.transferable)
        m = len(self.sources)
        for i in idx:
            if not 1 <= i <= m:
                raise ValueError(f"transferable index {i} outside 1..{m}")
        if len(set(idx)) != len(idx):
            raise ValueError(f"transferable indices must be distinct: {idx}")
        d = {s.d for s in self.sources}
        if len(d) > 1:
            raise ValueError(f"sources disagree on covariate dimension: {sorted(d)}")
        object.__setattr__(self, "transferable", idx)

    @property
    def n_transferable(self) -> int:
        return sum(self.sources[i - 1].n for i in self.transferable)


def _pooled_dataset(target: Dataset, sources: SourceCollection) -> Dataset:
    if sources.sources and sources.sources[0].d != target.d:
        raise ValueError(
            f"target dimension {target.d} differs from sources {sources.sources[0].d}"
        )
    picked = [sources.sources[i - 1] for i in sources.transferable]
    x = np.concatenate([target.x] + [s.x for s in picked], axis=0)
    y = np.concatenate([target.y] + [s.y for s in picked], axis=0)
    return Dataset(x=x, y=y)


def fit_pooled(
    target: Dataset, sources: SourceCollection, lambda1: float, cfg: KernelConfig
) -> RepresenterFunction:
    """Fit KRR on the target concatenated with the transferable sources.

    With an empty transferable set this runs the same concatenation and fit
    code on the bare target, so it agrees with fit_krr bit for bit.
    """
    return fit_krr(_pooled_dataset(target, sources), lambda1, cfg)


def fit_debias(
    target: Dataset, pooled: RepresenterFunction, lambda2: float, cfg: KernelConfig, rows=None
) -> RepresenterFunction:
    """Fit KRR on the target residuals y - pooled(target.x).

    rows, if given, index the pooled fit's anchors that are the target's
    rows, in target order; the residuals are then pooled.shift *
    pooled.coefficients[rows], from the pooled fit's own system, equal to
    the evaluated ones up to the solve's own residual (for a certified
    pooled fit, its certified truncation too, within n tau / s relative:
    krr.fit_krr). Otherwise pooled is evaluated.
    """
    if rows is None:
        w = target.y - pooled(target.x)
    else:
        w = pooled.shift * pooled.coefficients[rows]
    return fit_krr(Dataset(x=target.x, y=w), lambda2, cfg)


def fit_ah_tkrr(
    target: Dataset,
    sources: SourceCollection,
    lambda1: float,
    lambda2: float,
    cfg: KernelConfig,
    pooled: RepresenterFunction | None = None,
    rows=None,
) -> WeightedSum:
    """Two-step fit: pooled step at lambda1, debias step at lambda2.

    pooled, if given, is the pooled step already fitted (a fit of these
    sources with target at lambda1), and fit_pooled is not called. rows
    index its anchors that are the target's rows, in target order, for
    fit_debias; by default the first target.n, where fit_pooled puts them.
    """
    if pooled is None:
        pooled = fit_pooled(target, sources, lambda1, cfg)
    rows = slice(0, target.n) if rows is None else rows
    return WeightedSum((pooled, fit_debias(target, pooled, lambda2, cfg, rows)), (1.0, 1.0))
