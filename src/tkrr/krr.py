"""Kernel ridge regression and the theory-rate ridge schedules.

fit_krr solves the representer system (K + n*lambda*I) beta = y, which is
the first-order condition of the 1/n squared loss plus lambda times the
squared RKHS norm; fit_krr_nested fits nested leading row blocks of one
dataset together, and from 768 rows on fit_krr is its one-rung case. The
two schedule functions map sample sizes to ridge levels at
the smoothness/eigendecay rates used throughout the estimators: the
source-sample rate for pooled fits and the bias-aware rate for the debias
step.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .kernels import (
    Dataset,
    KernelConfig,
    RepresenterFunction,
    TooFewRowsError,
    _gemv,
    _gram_panels,
    _jitter,
    _panels_times,
    _pivots,
    _scaled_rows,
    blas,
    family,
    lapack,
    ridge_system,
    spd_solve,
)

__all__ = [
    "LambdaSchedule",
    "fit_krr",
    "fit_krr_nested",
    "schedule_lambda_source",
    "schedule_lambda_debias",
]

# Plug-in similarity estimates can collapse to zero on easy scenarios; the
# debias schedule floors them so the exponent never blows up.
H_FLOOR = 1e-3
# A rung's PCG stops at relative residual _CG_TOL, within _CG_CAP * sqrt(kappa)
# steps for kappa its preconditioned condition number's bound: more than the
# sqrt(kappa)/2 * log(2 sqrt(kappa) / _CG_TOL) it needs for any kappa up to
# 1e6. It never takes more than n, the steps of CG in exact arithmetic.
_CG_TOL, _CG_CAP = 1e-14, 20
# The ladder's preconditioner takes at most n // _PIVOT_SHARE pivots, so G'
# holds at most n^2 / 32 entries: 2.2 MB at 3,000 rows (README, "One solver
# from 768 rows", times the alternatives).
_PIVOT_SHARE = 32
# fit_krr is a one-rung ladder from _LOW_RANK_ROWS rows on, dense below.
_LOW_RANK_ROWS = 768


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

    Solves (K + s I) beta = y for s = n * ridge: from 768 rows on as
    fit_krr_nested's one rung, certified by its pivots or solved by PCG;
    below 768 rows, or if that rung fails, by factoring the n x n packed
    system (spd_solve). The shift is the s whose system the coefficients
    solve: s, plus spd_solve's jitter if it retried.
    """
    if not ridge > 0:
        raise ValueError(f"ridge must be positive, got {ridge}")
    if data.n < 1:
        raise TooFewRowsError("need at least one observation")
    s = data.n * ridge
    if data.n >= _LOW_RANK_ROWS:
        beta, solved = _ladder(cfg, data.x, data.y, np.array([data.n]), np.array([s]))[:2]
        if solved[0]:
            return RepresenterFunction(data.x, beta[0], cfg, shift=s)
    return _dense(cfg, data.x, data.y, s)


def _dense(cfg: KernelConfig, x, y, s: float) -> RepresenterFunction:
    # One packed buffer of n(n+1)/2 entries holds the system, then its factor.
    build, jitter = partial(ridge_system, cfg, x, s), []
    # A retry refills the system, then adds _jitter of it to the diagonal.
    beta = spd_solve(build(), y, refill=lambda a: jitter.append(_jitter(build(a))))
    return RepresenterFunction(x, beta, cfg, shift=s + sum(jitter))


def _ladder(cfg: KernelConfig, x, y, sizes, shifts):
    # Rows beta_k, zero past sizes[k]; which rungs are solved; each rung's
    # PCG steps; and the preconditioner's rank r.
    n = len(y)
    rows = _scaled_rows(cfg, x, x.mean(axis=0))
    # tau is gram_matrix's entry error for these rows. Pivots that bring
    # every residual diagonal within tau and _CG_TOL of each shift certify
    # every rung: G G' is then as close to K as the assembled Gram is.
    tau = 4 * (x.shape[1] + 2) * np.finfo(np.float64).eps * (1.0 - 2.0 * float(rows[1].min()))
    tol = min(tau, _CG_TOL * shifts.min())
    gt, resid = _pivots(rows, n // _PIVOT_SHARE, tol)
    r = gt.shape[0]
    # (s I + G G')^-1 = (I - G (s I + G'G)^-1 G') / s for G = gt.T, so each
    # rung factors s_k I + G_k'G_k, G_k'G_k summed over G's rows by segment.
    factors, gram, done = {}, np.zeros((r, r)), 0
    for k in np.argsort(sizes, kind="stable"):
        if r and sizes[k] > done:
            gram += blas.dsyrk(1.0, gt[:, done : sizes[k]].T, trans=1)
            done = sizes[k]
        factor, info = lapack.dpotrf(gram + shifts[k] * np.eye(r), overwrite_a=1) if r else (None, 0)
        if info == 0:
            factors[k] = factor

    def precondition(res, act):
        if not r:
            return res / shifts[act]
        t = blas.dgemm(1.0, gt.T, res.T, trans_a=1, trans_b=1)  # G'res, r x c
        for i, k in enumerate(act):
            t[:, i] = lapack.dpotrs(factors[k], t[:, i])[0]
        u = blas.dgemm(1.0, t, gt.T, trans_a=1, trans_b=1).T  # G t, n x c
        for col, size in zip(u.T, sizes[act]):
            col[size:] = 0.0
        return (res - u) / shifts[act]

    def dots(a, b):
        return np.einsum("ij,ij->j", a, b)

    # Column i of each state array is rung act[i]'s, largest rungs first.
    act = np.array([k for k in np.argsort(-sizes, kind="stable") if k in factors], dtype=int)
    beta, steps = np.zeros((len(sizes), n)), np.zeros(len(sizes), dtype=int)
    solved = np.zeros(len(sizes), dtype=bool)
    if resid.max(initial=0.0) <= tol:
        # Certified: E's diagonal is within tol, so G_k G_k' is K_k to the
        # Gram's own rounding, and beta_k = (y_k - G_k z_k) / s_k for
        # (s_k I + G_k'G_k) z_k = G_k'y_k solves the rung with it for K_k.
        for k in act:
            g, yk = gt[:, : sizes[k]], y[: sizes[k]]
            z = lapack.dpotrs(factors[k], _gemv(g, yk))[0]
            beta[k, : sizes[k]] = (yk - _gemv(g, z, left=True)) / shifts[k]
        solved[act] = True
        return beta, solved, steps, r
    # G' grows before the panels exist, so its growth adds nothing to the peak.
    panels = _gram_panels(rows)
    res = np.where(np.arange(n)[:, None] < sizes[act], y[:, None], 0.0)
    state = np.stack([res, np.zeros_like(res), precondition(res, act)])  # residual, beta, direction
    stop, rz = _CG_TOL**2 * dots(res, res), dots(res, state[2])
    kappa = 1.0 + max(np.maximum(resid[:k], 0.0).sum() / s for k, s in zip(sizes, shifts))
    cap = min(n, int(np.ceil(_CG_CAP * np.sqrt(kappa))))
    for step in range(cap + 1):
        res, w, p = state
        if (met := dots(res, res) <= stop).any():
            beta[act[met]], steps[act[met]], solved[act[met]] = w[:, met].T, step, True
            act, stop, rz = act[~met], stop[~met], rz[~met]
            state = np.ascontiguousarray(state[:, :, ~met])
            res, w, p = state
        if not act.size or step == cap:
            break
        q = _panels_times(panels, p, sizes[act]) + shifts[act] * p
        alpha = rz / dots(p, q)
        w += alpha * p
        res -= alpha * q
        z = precondition(res, act)
        rz, last = dots(res, z), rz
        p *= rz / last
        p += z
    steps[act] = cap
    return beta, solved, steps, r


def fit_krr_nested(data: Dataset, sizes, ridges, cfg: KernelConfig) -> tuple:
    """Fit k is KRR on the first sizes[k] rows of data at ridge ridges[k].

    Every rung solves (K_k + s_k I) beta_k = y_k, for s_k = sizes[k] *
    ridges[k] and K_k the leading block of the largest rung's Gram K. One
    greedy pivoted Cholesky K = G G' + E (kernels._pivots), E positive
    semi-definite, stops at n // 32 pivots, or early once E's diagonal is
    within min(tau, 1e-14 min_k s_k), tau gram_matrix's entry error. Then
    every rung is certified: beta_k = (s_k I + G_k G_k')^-1 y_k (Woodbury,
    through an r x r Cholesky), within ||E_k|| / s_k relative of the exact
    solution, the bound the Gram's own rounding puts on a dense solve; no
    panel is assembled and no PCG step runs. Otherwise that inverse
    preconditions CG on each rung's exact system, whose preconditioned
    spectrum lies in [1, 1 + ||E_k|| / s_k]: K is assembled once, in row
    panels of n(n + 64)/2 entries, nothing is factored at n x n, and the
    rungs step together, one panel pass and one preconditioner apply per
    step, to relative residual 1e-14. A rung that misses it within
    min(n, 20 sqrt(kappa)) steps, kappa = 1 + max_k trace(E_k) / s_k, or
    whose r x r factor fails, gets a dense packed factor of its own system,
    jitter retry included, after the panels are freed. Memory: the panels,
    G's n^2 / 32 entries at most, and a few rungs x n arrays.

    The fits are returned as one kernels.family, each with its shift s_k.
    """
    sizes, ridges = np.asarray(sizes, dtype=int).ravel(), np.asarray(ridges, dtype=float).ravel()
    if ridges.shape != sizes.shape or not all(r > 0 and 1 <= k <= data.n for k, r in zip(sizes, ridges)):
        raise ValueError(f"need positive ridges for sizes in 1..{data.n}: {sizes}, {ridges}")
    n, shifts = sizes.max(initial=0), sizes * ridges
    beta, solved = _ladder(cfg, data.x[:n], data.y[:n], sizes, shifts)[:2] if n else ((), ())
    return family(
        RepresenterFunction(data.x[:k], b[:k], cfg, float(s)) if ok else _dense(cfg, data.x[:k], data.y[:k], float(s))
        for k, s, b, ok in zip(sizes, shifts, beta, solved)
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
