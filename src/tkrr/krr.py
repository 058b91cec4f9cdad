"""Kernel ridge regression and the theory-rate ridge schedules.

fit_krr solves the representer system (K + n*lambda*I) beta = y, which is
the first-order condition of the 1/n squared loss plus lambda times the
squared RKHS norm; fit_krr_nested fits nested leading row blocks of one
dataset. The two schedule functions map sample sizes to ridge levels at
the smoothness/eigendecay rates used throughout the estimators: the
source-sample rate for pooled fits and the bias-aware rate for the debias
step.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np
from numpy.typing import NDArray

from .kernels import (
    Dataset,
    KernelConfig,
    RepresenterFunction,
    TooFewRowsError,
    _gemv,
    _jitter,
    blas,
    cho_factor,
    family,
    lapack,
    low_rank_factor,
    ridge_system,
    spd_solve,
)

__all__ = [
    "LambdaSchedule",
    "fit_krr",
    "fit_krr_nested",
    "plan_direct",
    "schedule_lambda_source",
    "schedule_lambda_debias",
]

# Plug-in similarity estimates can collapse to zero on easy scenarios; the
# debias schedule floors them so the exponent never blows up.
H_FLOOR = 1e-3
# A rung's CG stops at relative residual _CG_TOL, within _CG_CAP * sqrt(kappa) steps: more
# than the sqrt(kappa)/2 * log(2 sqrt(kappa) / _CG_TOL) it needs for any kappa up to 1e6.
_CG_TOL, _CG_CAP = 1e-14, 20
# fit_krr tries the low-rank route from _LOW_RANK_ROWS rows on, with at most
# n // _RANK_CAP pivots. An attempt that runs to that cap and fails costs
# about a fifth of a dense fit from 768 rows on, and every ex1 Gram tried
# needs a cap of 34 to 44 to certify (at rank 23 or 24): n // 16 is 48 from
# 768 rows (README, "Low-rank Grams").
_LOW_RANK_ROWS, _RANK_CAP = 768, 16


@dataclass(frozen=True)
class LambdaSchedule:
    """Rate parameters for the ridge schedules.

    r is the source smoothness exponent (1/2 = bare RKHS membership, 1 =
    extra smoothness), alpha the kernel eigendecay exponent, and scale a
    free constant multiplying both schedules.
    """

    r: float = 1.0
    alpha: float = 1.0
    scale: float = 1.0

    def __post_init__(self) -> None:
        if not 0.5 <= self.r <= 1.0:
            raise ValueError(f"r must lie in [1/2, 1], got {self.r}")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in (0, 1], got {self.alpha}")
        if not self.scale > 0:
            raise ValueError(f"scale must be positive, got {self.scale}")


def fit_krr(data: Dataset, ridge: float, cfg: KernelConfig) -> RepresenterFunction:
    """Fit KRR on one dataset; anchors are exactly the training covariates.

    Solves (K + s I) beta = y for s = n * ridge by one of two routes, chosen
    from the input. From 768 rows on, kernels.low_rank_factor first tries
    to certify K = G G' + E within n // 16 pivots, E positive semi-definite
    with trace(E) <= n tau for tau gram_matrix's own entry error. If it
    does, beta = (y - G z) / s for (s I + G'G) z = G'y, an r x r Cholesky
    solve: the exact solution for G G' in place of K, so it differs from
    the exact one for K by at most ||E|| / s <= n tau / s relative, the
    bound the Gram's own rounding puts on the dense solve. Otherwise, or if
    that r x r factor fails, the n x n packed system is built and factored
    (spd_solve), and the fit's shift is s plus spd_solve's jitter if it
    retried. Either way the shift is the s whose system the coefficients
    solve.
    """
    if not ridge > 0:
        raise ValueError(f"ridge must be positive, got {ridge}")
    if data.n < 1:
        raise TooFewRowsError("need at least one observation")
    s = data.n * ridge
    if data.n >= _LOW_RANK_ROWS and (g := low_rank_factor(cfg, data.x, data.n // _RANK_CAP)) is not None:
        # g is G'; the r x r system takes LAPACK's upper triangle of s I + G'G.
        m = blas.dsyrk(1.0, g.T, trans=1)
        m[np.diag_indices_from(m)] += s
        _, z, info = lapack.dposv(m, _gemv(g, data.y), overwrite_a=1)
        if info == 0:
            return RepresenterFunction(data.x, (data.y - _gemv(g, z, left=True)) / s, cfg, shift=s)
    # One packed buffer of n(n+1)/2 entries holds the system, then its factor.
    build, jitter = partial(ridge_system, cfg, data.x, s), []
    # A retry refills the system, then adds _jitter of it to the diagonal.
    beta = spd_solve(build(), data.y, refill=lambda a: jitter.append(_jitter(build(a))))
    return RepresenterFunction(data.x, beta, cfg, shift=s + sum(jitter))


def _cg_steps(shifts: NDArray) -> NDArray[np.float64]:
    # CG steps per rung on a factor at c = sqrt(min s * max s), as plan_direct
    # models them.
    c = np.sqrt(shifts.min() * shifts.max())
    root = np.sqrt(np.maximum(c / shifts, shifts / c))
    return root / 2.0 * np.log(2.0 * root / _CG_TOL)


def plan_direct(sizes, shifts) -> NDArray[np.bool_]:
    """Which rungs fit_krr_nested fits with fit_krr on their own rows, not by CG.

    The j smallest rungs (ties in rung order) go direct, for the j that
    minimises an empirical cost proxy: sizes[k]^3 / 3 per direct rung, plus
    2 N^2 per CG step of each other rung on the factor of order N = max
    sizes. Rung k takes sqrt(kappa_k)/2 * log(2 sqrt(kappa_k) / _CG_TOL)
    steps, where kappa_k = max(c / s_k, s_k / c) and c = sqrt(min s * max s)
    over the CG rungs, so dropping the smallest shifts brings c and the
    steps down. A rung of N rows never goes direct, since the factor is its
    own; ties go to fewer direct rungs.

    The CG term is not the time _ladder spends. It counts each rung's steps
    as a solve of its own, but _ladder advances every active rung in one
    memory-bound pass over the factor per step, so the term overstates that
    time by about the number of rungs, and it is weighed against the
    compute-bound flops of the direct factors. Its picks were timed only on
    two ladder shapes, SA's at unknown-ex2mod and at fig6's m = 10 sizes
    (README, "The candidate ladder"), where they land in the fastest range;
    a count of passes (most steps times 2 N^2) picks one rung or none there,
    which timed slower. Its picks for the other shipped shapes are pinned
    by tests, not timed.
    """
    sizes, shifts = np.asarray(sizes, dtype=int).ravel(), np.asarray(shifts, dtype=float).ravel()
    best, direct = np.inf, np.zeros(sizes.shape, dtype=bool)
    if not sizes.size:
        return direct
    order, n = np.argsort(sizes, kind="stable"), float(sizes.max())
    for j in range(np.count_nonzero(sizes < n) + 1):
        d = np.zeros(sizes.shape, dtype=bool)
        d[order[:j]] = True
        flops = (sizes[d] ** 3.0).sum() / 3.0 + 2.0 * n * n * _cg_steps(shifts[~d]).sum()
        if flops < best:
            best, direct = flops, d
    return direct


def _ladder(cfg: KernelConfig, x, y, sizes, shifts):
    # Rows beta_k, zero past sizes[k], and which rungs met the tolerance.
    c = np.sqrt(shifts.min() * shifts.max())
    try:
        cho_factor(factor := ridge_system(cfg, x, c))
    except np.linalg.LinAlgError:
        return (), np.zeros(len(sizes), dtype=bool)
    flat, past = factor.reshape(-1, order="F"), np.arange(len(y)) >= sizes[:, None]

    def solve(v, rungs):  # v[i] times M_k^-1 for k = rungs[i], in place:
        t = lapack.dtfsm(1.0, flat, v.T, uplo="L", trans="N", overwrite_b=1)
        t.T[past[rungs]] = 0.0  # L^-1, the rows past each block cut, L^-T
        return lapack.dtfsm(1.0, flat, t, uplo="L", trans="T", overwrite_b=1).T

    res = np.where(past, 0.0, y)
    w, p, rr = np.zeros_like(res), res.copy(), np.einsum("ij,ij->i", res, res)
    stop = _CG_TOL**2 * rr
    for _ in range(int(np.ceil(_CG_CAP * np.sqrt(c / shifts.min())))):
        if (a := np.flatnonzero(rr > stop)).size == 0:
            break
        q = (pa := p[a]) - (c - shifts[a])[:, None] * solve(p[a], a)
        alpha = rr[a] / np.einsum("ij,ij->i", pa, q)
        w[a] += alpha[:, None] * pa
        res[a] -= alpha[:, None] * q
        ra = np.einsum("ij,ij->i", res[a], res[a])
        p[a], rr[a] = res[a] + (ra / rr[a])[:, None] * pa, ra
    return solve(w, slice(None)), rr <= stop


def fit_krr_nested(data: Dataset, sizes, ridges, cfg: KernelConfig) -> tuple:
    """Fit k is KRR on the first sizes[k] rows of data at ridge ridges[k].

    The rungs plan_direct picks for shifts s_k = sizes[k] * ridges[k] are
    fit_krr itself. For the others and c = sqrt(min s * max s) over them, one
    Cholesky factor of K + c I holds each M_k = K_k + c I as a leading block.
    Rung k runs CG on (I - (c - s_k) M_k^-1) w = y_k, a spectrum in [1/kappa,
    kappa] for kappa = sqrt(max s / min s), and beta_k = M_k^-1 w. A rung
    short of the tolerance at the cap, or all if the factorization fails, is
    fit_krr too. Direct and fallback fits run after the factor is freed.
    Memory: the largest rung's packed system, rungs x n arrays.

    The fits are returned as one kernels.family, each with its shift s_k.
    """
    sizes, ridges = np.asarray(sizes, dtype=int).ravel(), np.asarray(ridges, dtype=float).ravel()
    if ridges.shape != sizes.shape or not all(r > 0 and 1 <= k <= data.n for k, r in zip(sizes, ridges)):
        raise ValueError(f"need positive ridges for sizes in 1..{data.n}: {sizes}, {ridges}")
    cg = np.flatnonzero(~plan_direct(sizes, sizes * ridges))
    n = sizes.max(initial=0)
    beta, done = _ladder(cfg, data.x[:n], data.y[:n], sizes[cg], (sizes * ridges)[cg]) if n else ((), ())
    solved = {int(i): b for i, b, ok in zip(cg, beta, done) if ok}
    return family(
        RepresenterFunction(data.x[:k], solved[i][:k], cfg, float(k * r)) if i in solved
        else fit_krr(Dataset(data.x[:k], data.y[:k]), float(r), cfg)
        for i, (k, r) in enumerate(zip(sizes, ridges))
    )


def schedule_lambda_source(n: int, schedule: LambdaSchedule) -> float:
    """Ridge level scale * n^(-1/(2r + alpha)) for a fit on n observations."""
    if n <= 0:
        raise ValueError(f"sample size must be positive, got {n}")
    return schedule.scale * float(n) ** (-1.0 / (2.0 * schedule.r + schedule.alpha))


def schedule_lambda_debias(n0: int, h_hat: float, schedule: LambdaSchedule) -> float:
    """Ridge level for the debias fit on n0 target observations.

    scale * h^(-2/(1+alpha)) * n0^(-1/(1+alpha)) with h = max(h_hat, H_FLOOR):
    the smaller the source-target offset h, the harder the debias step
    shrinks, since there is less bias signal to recover.
    """
    if n0 <= 0:
        raise ValueError(f"sample size must be positive, got {n0}")
    if h_hat < 0:
        raise ValueError(f"offset magnitude must be nonnegative, got {h_hat}")
    h = max(h_hat, H_FLOOR)
    e = 1.0 / (1.0 + schedule.alpha)
    return schedule.scale * h ** (-2.0 * e) * float(n0) ** (-e)
