"""Synthetic multi-study regression scenarios.

Five designs over uniform covariates on the unit cube, Gaussian noise, and
a true function whose kink term slides with a per-source shift drawn from
U(0, s); the target always sits at shift 0. The modified designs append
exactly three adversarial sources whose shifts come from U(s, 0.4), for
benchmarking estimators that must discover the transferable set.

All draws are keyed per study (see rng), in a fixed order within a study:
shift (sources only), covariates, then noise. The test grid lives on its
own stream and is noiseless.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from numpy.typing import NDArray

from .csvio import write_csv
from .kernels import Dataset
from .rng import TARGET_STREAM, TEST_STREAM, philox_stream

__all__ = [
    "SimSpec",
    "gen_true_function",
    "gen_study",
    "gen_scenario",
    "gen_test",
    "scenario_to_csv",
    "EXAMPLES",
]

# example -> (covariate dim, noise sd, default n0, default n_k, negative sources)
EXAMPLES: dict[str, tuple[int, float, int, int, int]] = {
    "ex1": (1, 0.4, 200, 150, 0),
    "ex2": (3, 0.3, 600, 300, 0),
    "ex3": (10, 0.3, 600, 300, 0),
    "ex2mod": (3, 0.3, 600, 300, 3),
    "ex3mod": (10, 0.3, 600, 300, 3),
}


@dataclass(frozen=True)
class SimSpec:
    """One synthetic scenario: design, similarity level, and sample sizes.

    m counts the regular sources (shift ~ U(0, s)); the modified designs
    add three more with shift ~ U(s, 0.4) and therefore require s < 0.4.
    Omitted sizes fall back to the design defaults. fixed_shifts, when
    given, freezes all source shifts instead of redrawing them per seed.
    """

    example: str
    s: float = 0.0
    m: int = 10
    n0: int | None = None
    n_k: int | None = None
    n_te: int = 500
    fixed_shifts: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.example not in EXAMPLES:
            raise ValueError(f"unknown example {self.example!r}, want one of {sorted(EXAMPLES)}")
        if self.s < 0:
            raise ValueError(f"s must be nonnegative, got {self.s}")
        if self.m < 0:
            raise ValueError(f"m must be nonnegative, got {self.m}")
        d, sigma, n0, n_k, extra = EXAMPLES[self.example]
        if extra and self.s >= 0.4:
            raise ValueError(
                f"modified designs need s < 0.4 so negative shifts U(s, 0.4) exist, got s={self.s}"
            )
        if self.n0 is None:
            object.__setattr__(self, "n0", n0)
        if self.n_k is None:
            object.__setattr__(self, "n_k", n_k)
        for name in ("n0", "n_k", "n_te"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.fixed_shifts is not None:
            shifts = tuple(float(v) for v in self.fixed_shifts)
            if len(shifts) != self.total_sources:
                raise ValueError(
                    f"need {self.total_sources} fixed shifts, got {len(shifts)}"
                )
            object.__setattr__(self, "fixed_shifts", shifts)

    @property
    def d(self) -> int:
        return EXAMPLES[self.example][0]

    @property
    def sigma(self) -> float:
        return EXAMPLES[self.example][1]

    @property
    def total_sources(self) -> int:
        return self.m + EXAMPLES[self.example][4]


def gen_true_function(example: str, shift: float) -> Callable[[NDArray], NDArray]:
    """Regression function of the given design at one shift value."""
    if example == "ex1":

        def f(x: NDArray) -> NDArray:
            x = np.atleast_2d(np.asarray(x, dtype=np.float64))
            x1 = x[:, 0]
            return 3.0 * np.sin(3.0 * np.pi * x1) - 1.5 * np.exp(
                np.abs(x1 - shift - 0.5)
            )

    elif example in ("ex2", "ex2mod"):

        def f(x: NDArray) -> NDArray:
            x = np.atleast_2d(np.asarray(x, dtype=np.float64))
            return (
                np.sin(3.0 * np.pi * x[:, 0])
                + 3.0 * np.abs(x[:, 0] - shift - 0.5)
                - np.exp(x[:, 1] ** 2 - x[:, 2] ** 2)
            )

    elif example in ("ex3", "ex3mod"):

        def f(x: NDArray) -> NDArray:
            x = np.atleast_2d(np.asarray(x, dtype=np.float64))
            w1 = x[:, 0] + x[:, 3] + x[:, 4] + x[:, 5]
            w2 = (x[:, 0] + x[:, 1] + x[:, 2]) / 3.0
            w3 = x[:, 5] ** 2 + x[:, 6] ** 2 - x[:, 7] ** 2 - x[:, 8] ** 2
            return (
                np.sin(0.75 * np.pi * w1)
                + 3.0 * np.abs(w2 - shift - 0.5)
                - np.exp(w3)
            )

    else:
        raise ValueError(f"unknown example {example!r}")
    return f


def gen_study(spec: SimSpec, k: int, shift: float, rng: np.random.Generator) -> Dataset:
    """Draw one study: k = 0 is the target (n0 rows), k >= 1 a source (n_k).

    Covariates first, then noise, both from the supplied generator.
    """
    n = spec.n0 if k == 0 else spec.n_k
    x = rng.random((n, spec.d))
    f = gen_true_function(spec.example, shift)
    eps = rng.normal(0.0, spec.sigma, n)
    return Dataset(x=x, y=f(x) + eps)


def gen_scenario(
    spec: SimSpec, seed: int
) -> tuple[Dataset, tuple[Dataset, ...], Callable[[NDArray], NDArray], tuple[float, ...]]:
    """Draw the full scenario: target, sources, true target function, shifts.

    Study k draws from stream (seed, k), the target being study 0 at shift
    0; a source stream yields its shift first (unless fixed_shifts pins
    it), then covariates, then noise. Regular sources 1..m take shifts from
    U(0, s), the modified designs' last three from U(s, 0.4).
    """
    target = gen_study(spec, 0, 0.0, philox_stream(seed, TARGET_STREAM))
    sources = []
    shifts = []
    for k in range(1, spec.total_sources + 1):
        rng = philox_stream(seed, k)
        if spec.fixed_shifts is not None:
            shift = spec.fixed_shifts[k - 1]
        elif k <= spec.m:
            shift = float(rng.uniform(0.0, spec.s))
        else:
            shift = float(rng.uniform(spec.s, 0.4))
        sources.append(gen_study(spec, k, shift, rng))
        shifts.append(shift)
    return (
        target,
        tuple(sources),
        gen_true_function(spec.example, 0.0),
        tuple(shifts),
    )


def gen_test(
    spec: SimSpec, true_fn: Callable[[NDArray], NDArray], seed: int
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Noiseless evaluation grid from the dedicated test stream."""
    rng = philox_stream(seed, TEST_STREAM)
    x = rng.random((spec.n_te, spec.d))
    return x, np.asarray(true_fn(x), dtype=np.float64)


def scenario_to_csv(
    target: Dataset, sources: tuple[Dataset, ...], out_dir: str | Path
) -> list[Path]:
    """Dump a scenario as one CSV per study with columns x1..xd, y."""
    out = Path(out_dir)
    paths = []
    studies = [("target.csv", target)] + [
        (f"source_{k:02d}.csv", s) for k, s in enumerate(sources, start=1)
    ]
    for name, ds in studies:
        header = [f"x{j + 1}" for j in range(ds.d)] + ["y"]
        rows = [list(ds.x[i]) + [float(ds.y[i])] for i in range(ds.n)]
        path = out / name
        write_csv(path, header, rows)
        paths.append(path)
    return paths
