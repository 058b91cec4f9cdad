"""Gaussian kernel evaluation, Gram matrices, SPD solves, and RKHS geometry.

Everything downstream (ridge fits, transfer steps, aggregation) reduces to
Gram-matrix assembly plus symmetric positive definite solves, so those two
primitives live here together with the two fitted-function types (one
representer-form expansion, and a weighted sum of fitted functions) and the
RKHS norm of a difference of two expansions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray
from scipy.linalg import cho_factor, cho_solve
from scipy.spatial.distance import cdist

__all__ = [
    "KernelConfig",
    "Dataset",
    "RepresenterFunction",
    "WeightedSum",
    "SpdSolveError",
    "kernel_eval",
    "gram_matrix",
    "spd_solve",
    "rkhs_norm_diff",
]

_JITTER_REL = 1e-10


class SpdSolveError(np.linalg.LinAlgError):
    """Factorization failed even after the single jitter retry.

    Attributes:
        jitter: The diagonal shift that was attempted on the retry.
    """

    def __init__(self, message: str, jitter: float):
        super().__init__(message)
        self.jitter = jitter


@dataclass(frozen=True)
class KernelConfig:
    """Gaussian kernel family with a squared-distance bandwidth.

    K(a, b) = exp(-||a - b||^2 / bandwidth). Bandwidth 1 is the classical
    unit-width Gaussian kernel; real-data configs shrink or grow it to match
    covariate scales.
    """

    family: str = "gaussian"
    bandwidth: float = 1.0

    def __post_init__(self) -> None:
        if self.family != "gaussian":
            raise ValueError(f"unsupported kernel family: {self.family!r}")
        if not self.bandwidth > 0:
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth}")


def _as_matrix(x: NDArray) -> NDArray[np.float64]:
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {a.shape}")
    return a


@dataclass(frozen=True)
class Dataset:
    """One study's sample: covariate rows x paired with responses y."""

    x: NDArray[np.float64]
    y: NDArray[np.float64]

    def __post_init__(self) -> None:
        x = _as_matrix(self.x)
        y = np.asarray(self.y, dtype=np.float64)
        if y.ndim != 1:
            raise ValueError(f"y must be 1-d, got shape {y.shape}")
        if x.shape[0] != y.shape[0]:
            raise ValueError(f"x has {x.shape[0]} rows but y has {y.shape[0]}")
        if x.shape[1] < 1:
            raise ValueError("covariate dimension must be at least 1")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True)
class RepresenterFunction:
    """Finite kernel expansion f(x) = sum_i coefficients_i K(x, anchors_i)."""

    anchors: NDArray[np.float64]
    coefficients: NDArray[np.float64]
    kernel: KernelConfig

    def __post_init__(self) -> None:
        anchors = _as_matrix(self.anchors)
        coef = np.asarray(self.coefficients, dtype=np.float64)
        if coef.ndim != 1:
            raise ValueError(f"coefficients must be 1-d, got shape {coef.shape}")
        if anchors.shape[0] != coef.shape[0]:
            raise ValueError(
                f"{anchors.shape[0]} anchors but {coef.shape[0]} coefficients"
            )
        object.__setattr__(self, "anchors", anchors)
        object.__setattr__(self, "coefficients", coef)

    def __call__(self, x: NDArray) -> NDArray[np.float64]:
        return gram_matrix(self.kernel, _as_matrix(x), self.anchors) @ self.coefficients


@dataclass(frozen=True)
class WeightedSum:
    """Fitted function f(x) = sum_l weights_l * parts_l(x), summed in part order.

    Parts are any fitted functions, weighted sums included, and each part is
    evaluated whole: w * (pooled + debias) is never expanded into
    w * pooled + w * debias. A part with weight 0 is not evaluated and a
    weight of 1 multiplies nothing, so the sum of two parts with unit weights
    is exactly parts_0(x) + parts_1(x).
    """

    parts: tuple
    weights: NDArray[np.float64]

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=np.float64)
        if w.shape != (len(self.parts),):
            raise ValueError(f"{len(self.parts)} parts but weights of shape {w.shape}")
        object.__setattr__(self, "parts", tuple(self.parts))
        object.__setattr__(self, "weights", w)

    def __call__(self, x: NDArray) -> NDArray[np.float64]:
        out = None
        for w, f in zip(self.weights, self.parts):
            if w == 0.0:
                continue
            term = f(x) if w == 1.0 else w * f(x)
            out = term if out is None else out + term
        return np.zeros(_as_matrix(x).shape[0]) if out is None else out


def kernel_eval(cfg: KernelConfig, a: NDArray, b: NDArray) -> float:
    """Evaluate K(a, b) for two single points."""
    av = np.asarray(a, dtype=np.float64).ravel()
    bv = np.asarray(b, dtype=np.float64).ravel()
    if av.shape != bv.shape:
        raise ValueError(f"point dimensions differ: {av.shape} vs {bv.shape}")
    d2 = float(np.sum((av - bv) ** 2))
    return float(np.exp(-d2 / cfg.bandwidth))


def gram_matrix(cfg: KernelConfig, x: NDArray, x2: NDArray | None = None) -> NDArray[np.float64]:
    """Assemble the kernel matrix K[i, j] = K(x_i, x2_j).

    With x2 omitted (or identical to x) the result is exactly symmetric with
    an exact unit diagonal: cdist evaluates each squared distance pairwise,
    so (i, j) and (j, i) run the same float operations.
    """
    xm = _as_matrix(x)
    x2m = xm if x2 is None else _as_matrix(x2)
    if xm.shape[1] != x2m.shape[1]:
        raise ValueError(
            f"covariate dimensions differ: {xm.shape[1]} vs {x2m.shape[1]}"
        )
    k = cdist(xm, x2m, "sqeuclidean")
    np.negative(k, out=k)
    k /= cfg.bandwidth
    return np.exp(k, out=k)


def spd_solve(a: NDArray, b: NDArray, overwrite_a: bool = False) -> NDArray[np.float64]:
    """Solve A z = b for symmetric positive definite A by Cholesky.

    If the factorization fails (duplicate anchor rows at a tiny ridge can
    push the matrix to numerical semi-definiteness), one jitter of
    1e-10 * trace(A)/n is added to the diagonal and the solve is retried;
    a second failure raises SpdSolveError carrying the attempted jitter.

    With overwrite_a, A (exactly symmetric, C-ordered float64) is factored
    in place through its transpose, a Fortran-ordered view, and overwritten.
    """
    am = _as_matrix(a)
    bv = np.asarray(b, dtype=np.float64)
    if am.shape[0] != am.shape[1]:
        raise ValueError(f"matrix is not square: {am.shape}")
    if bv.shape[0] != am.shape[0]:
        raise ValueError(f"shape mismatch: A is {am.shape}, b has {bv.shape[0]} rows")
    # LAPACK reads and writes the lower triangle of what it factors; the
    # strict upper triangle and this copy of the diagonal survive a failure.
    work = am.T if overwrite_a else am
    diag = am.diagonal().copy()
    try:
        c, low = cho_factor(work, lower=True, overwrite_a=overwrite_a, check_finite=False)
    except np.linalg.LinAlgError:
        n = am.shape[0]
        if overwrite_a:
            for i in range(1, n):
                work[i, :i] = work[:i, i]
            work[np.diag_indices(n)] = diag
        else:
            work = np.array(am, order="F")
        jitter = _JITTER_REL * float(np.trace(work)) / n
        work[np.diag_indices(n)] += jitter
        try:
            c, low = cho_factor(work, lower=True, overwrite_a=True, check_finite=False)
        except np.linalg.LinAlgError as exc:
            raise SpdSolveError(
                f"matrix not positive definite even with jitter {jitter:.3e}",
                jitter=jitter,
            ) from exc
    return cho_solve((c, low), bv, check_finite=False)


def rkhs_norm_diff(f: RepresenterFunction, g: RepresenterFunction) -> float:
    """RKHS norm ||f - g||_K of two representer-form functions.

    Expands to the Gram quadratic form
    b_f' K_ff b_f - 2 b_f' K_fg b_g + b_g' K_gg b_g, clamped at zero before
    the square root since roundoff can leave a tiny negative residue.
    """
    if f.kernel != g.kernel:
        raise ValueError(f"kernel configs differ: {f.kernel} vs {g.kernel}")
    if f.anchors.shape[1] != g.anchors.shape[1]:
        raise ValueError(
            f"anchor dimensions differ: {f.anchors.shape[1]} vs {g.anchors.shape[1]}"
        )
    bf, bg = f.coefficients, g.coefficients
    q = (
        bf @ gram_matrix(f.kernel, f.anchors) @ bf
        - 2.0 * (bf @ gram_matrix(f.kernel, f.anchors, g.anchors) @ bg)
        + bg @ gram_matrix(g.kernel, g.anchors) @ bg
    )
    return float(np.sqrt(max(q, 0.0)))
