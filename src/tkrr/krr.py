"""Kernel ridge regression and the theory-rate ridge schedules.

fit_krr solves the representer system (K + n*lambda*I) beta = y, which is
the first-order condition of the 1/n squared loss plus lambda times the
squared RKHS norm. The two schedule functions map sample sizes to ridge
levels at the smoothness/eigendecay rates used throughout the estimators:
the source-sample rate for pooled fits and the bias-aware rate for the
debias step.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from .kernels import (
    Dataset,
    KernelConfig,
    RepresenterFunction,
    TooFewRowsError,
    ridge_system,
    spd_solve,
)

__all__ = [
    "LambdaSchedule",
    "fit_krr",
    "schedule_lambda_source",
    "schedule_lambda_debias",
]

# Plug-in similarity estimates can collapse to zero on easy scenarios; the
# debias schedule floors them so the exponent never blows up.
H_FLOOR = 1e-3


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
    """Fit KRR on one dataset; anchors are exactly the training covariates."""
    if not ridge > 0:
        raise ValueError(f"ridge must be positive, got {ridge}")
    if data.n < 1:
        raise TooFewRowsError("need at least one observation")
    # One packed buffer of n(n+1)/2 entries holds the system, then its factor.
    build = partial(ridge_system, cfg, data.x, data.n * ridge)
    beta = spd_solve(build(), data.y, refill=build)
    return RepresenterFunction(anchors=data.x, coefficients=beta, kernel=cfg)


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
