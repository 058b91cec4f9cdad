"""Sweep runner: configs in, result and summary tables out.

An experiment is a scenario (synthetic spec or CSV-backed studies), a set
of methods, and one swept parameter. CSV studies load once per sweep.
Every (sweep value, replication) cell derives its own seed as
hash(base_seed, value_index, replication), generates its data or
subsamples the loaded studies, fits each method, and scores it on the
held out test set. Cells are independent, so with --threads N they fan out
over a process pool (the default is one process); rows are sorted
afterwards, making output byte-identical for any worker count on one
host. Gram blocks, kernel matrix-vector products, factorizations and
solves all run in SciPy's OpenBLAS. Each Gram product is small enough to
stay on the calling thread; the rest run at OpenBLAS's default thread
count, which nothing pins, in the serial path or in pool workers.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from .aggregate import (
    aew_aggregate,
    prepare_candidates,
    sa_tkrr,
)
from .csvio import write_csv
from .datasets import (
    StudyConfig,
    apply_standardizer,
    fit_standardizer,
    load_studies,
    subsample_split,
)
from .kernels import Dataset, KernelConfig, RepresenterFunction, TooFewRowsError
from .krr import (
    LambdaSchedule,
    fit_krr,
    schedule_lambda_debias,
    schedule_lambda_source,
)
from .rng import derive_seed
from .synthetic import SimSpec, gen_scenario, gen_test
from .transfer import SourceCollection, fit_ah_tkrr, fit_pooled

__all__ = [
    "METHODS",
    "SWEEPS",
    "ExperimentConfig",
    "ResultRow",
    "SummaryRow",
    "build_cell",
    "config_from_json",
    "config_to_dict",
    "prediction_error",
    "run_sweep",
    "summarize",
    "emit_csv",
]

METHODS = ("KRR", "AhTKRR", "AhTKRR_WD", "Pooled_TKRR", "SA_TKRR", "AEW_TKRR")
SWEEPS = ("s", "a_h", "n0", "n_ah", "m")
# The seed of SA's and AEW's target split, from a cell's seed.
_sa_split_seed = partial(derive_seed, 0)

_BLAS_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a sweep needs, mirrored one-to-one by the JSON config.

    fixed pins the scenario parameters a cell reads and no sweep sets: a_h
    on synthetic data (default m), n0 and n_ah on CSV studies (defaults
    half the target and every source row). Any other fixed key, or one
    that is also swept, raises, as does an |A_h| outside 0..total sources.
    Methods run in the order given. SA's aggregation rule (see aggregate)
    has no settings; its split seed derives from the cell seed.
    """

    scenario: SimSpec | tuple[StudyConfig, ...]
    methods: tuple[str, ...]
    sweep_name: str
    sweep_values: tuple
    replications: int = 100
    seed: int = 0
    schedules: LambdaSchedule = LambdaSchedule()
    kernel: KernelConfig = KernelConfig()
    fixed: tuple[tuple[str, float], ...] = ()
    output_dir: str = "results"

    def __post_init__(self) -> None:
        if not isinstance(self.scenario, SimSpec):
            object.__setattr__(self, "scenario", tuple(self.scenario))
        methods = tuple(self.methods)
        if not methods:
            raise ValueError("methods must be nonempty")
        for m in methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}, want subset of {METHODS}")
        if len(set(methods)) != len(methods):
            raise ValueError("duplicate methods")
        object.__setattr__(self, "methods", methods)
        fixed = dict(self.fixed)
        for name in (self.sweep_name, *fixed):
            if name not in SWEEPS:
                raise ValueError(f"unknown sweep parameter {name!r}, want one of {SWEEPS}")
        synthetic = isinstance(self.scenario, SimSpec)
        if not synthetic and self.sweep_name not in ("n0", "n_ah"):
            raise ValueError(f"sweep {self.sweep_name!r} needs a synthetic scenario")
        readable = ("a_h",) if synthetic else ("n0", "n_ah")
        for name in fixed:
            if name == self.sweep_name or name not in readable:
                raise ValueError(
                    f"fixed {name!r} is never read: it is swept, or a "
                    f"{'synthetic' if synthetic else 'CSV'} cell reads only {readable}"
                )
        if not self.sweep_values:
            raise ValueError("sweep values must be nonempty")
        object.__setattr__(self, "sweep_values", tuple(self.sweep_values))
        if len(set(self.sweep_values)) != len(self.sweep_values):  # 10 == 10.0
            raise ValueError(f"duplicate sweep values: {self.sweep_values}")
        if synthetic:
            spec = self.scenario
            fewest = spec.total_sources - spec.m + min(
                self.sweep_values if self.sweep_name == "m" else (spec.m,)
            )
            # A synthetic cell's only fixed key is a_h.
            for n in self.sweep_values if self.sweep_name == "a_h" else fixed.values():
                if not 0 <= int(n) <= fewest:
                    raise ValueError(f"|A_h|={int(n)} outside 0..{int(fewest)}")
        if self.replications < 1:
            raise ValueError(f"replications must be >= 1, got {self.replications}")
        object.__setattr__(self, "fixed", tuple(fixed.items()))

    def fixed_value(self, name: str, default=None):
        return dict(self.fixed).get(name, default)


@dataclass(frozen=True)
class ResultRow:
    method: str
    sweep_value: float
    replication: int
    seed: int
    test_error: float
    wall_ms: float


@dataclass(frozen=True)
class SummaryRow:
    method: str
    sweep_value: float
    mean_error: float
    std_error: float
    n_ok: int
    n_failed: int


_SECTIONS = {"schedules": LambdaSchedule, "kernel": KernelConfig}


def config_from_json(source: str | Path | dict) -> ExperimentConfig:
    """Build a config from a JSON config file's path or its parsed dict.

    Every key is an ExperimentConfig field, except that "sweep" holds the
    sweep's "name" and "values"; an unknown key raises TypeError.
    """
    doc = dict(source if isinstance(source, dict) else json.loads(Path(source).read_text()))
    scen, sweep = doc.pop("scenario"), doc.pop("sweep")
    if isinstance(scen, dict):
        scenario = SimSpec(**scen)
    else:
        scenario = tuple(StudyConfig(**c) for c in scen)
    for key, cls in _SECTIONS.items():
        if key in doc:
            doc[key] = cls(**doc[key])
    sweep_args = {f"sweep_{k}": v for k, v in sweep.items()}
    return ExperimentConfig(scenario=scenario, **sweep_args, **doc)


def config_to_dict(config: ExperimentConfig) -> dict:
    """Inverse of config_from_json, for archiving resolved configs."""
    doc = dataclasses.asdict(config)
    doc["sweep"] = {"name": doc.pop("sweep_name"), "values": doc.pop("sweep_values")}
    doc["fixed"] = dict(doc.pop("fixed"))
    return doc


def prediction_error(model, x: NDArray, reference: NDArray) -> float:
    """Mean squared deviation of model predictions from the reference."""
    ref = np.asarray(reference, dtype=np.float64)
    pred = model(x)
    if pred.shape != ref.shape:
        raise ValueError(f"length mismatch: {pred.shape} vs {ref.shape}")
    d = pred - ref
    return float(np.mean(d * d))


def _limit_blas():
    # The context each cell runs in; it limits no thread count.
    return nullcontext()


def _pin_blas_env() -> None:
    for var in _BLAS_ENV:
        os.environ[var] = "1"


def _synthetic_cell(config: ExperimentConfig, value, cell_seed: int):
    spec: SimSpec = config.scenario
    name = config.sweep_name
    field = {"s": "s", "n0": "n0", "n_ah": "n_k", "m": "m"}.get(name)
    if field is not None:
        spec = dataclasses.replace(spec, **{field: float(value) if name == "s" else int(value)})
    target, sources, true_fn, _ = gen_scenario(spec, seed=cell_seed)
    x_test, reference = gen_test(spec, true_fn, seed=cell_seed)
    n_transfer = int(value) if name == "a_h" else int(config.fixed_value("a_h", spec.m))
    transferable = tuple(range(1, n_transfer + 1))
    return target, sources, transferable, x_test, reference


def _n0(config: ExperimentConfig, value, n_target: int) -> int:
    # A CSV cell's training rows; leaving no test rows is a bad input, not a
    # failed fit.
    n0 = int(value) if config.sweep_name == "n0" else int(config.fixed_value("n0", n_target // 2))
    if n0 >= n_target:
        raise ValueError(f"n0={n0} leaves no test rows of the target's {n_target}")
    return n0


def _real_cell(config: ExperimentConfig, value, cell_seed: int, studies):
    target_full, sources_full = studies
    n0 = _n0(config, value, target_full.n)
    n_ah = int(value) if config.sweep_name == "n_ah" else config.fixed_value("n_ah")
    train, test = subsample_split(target_full, n0, derive_seed(cell_seed, 0))
    std = fit_standardizer(train)
    train, test = apply_standardizer(std, train), apply_standardizer(std, test)

    sources = []
    for k, src in enumerate(sources_full, start=1):
        take = src.n if n_ah is None else min(int(n_ah), src.n)
        used = subsample_split(src, take, derive_seed(cell_seed, k))[0]
        # A source with no rows adds nothing to any fit, so the cell drops it.
        if used.n > 0:
            sources.append(apply_standardizer(fit_standardizer(used), used))
    return train, tuple(sources), tuple(range(1, len(sources) + 1)), test.x, test.y


def build_cell(config: ExperimentConfig, v_index: int, rep: int, studies=None):
    """One sweep cell: (cell_seed, target, sources, transferable, x_test, reference).

    A synthetic cell draws its studies from the cell seed. A CSV cell subsamples
    and standardizes `studies`, what `load_studies(config.scenario)` returns
    (loaded here if not given).
    """
    value = config.sweep_values[v_index]
    cell_seed = derive_seed(config.seed, v_index, rep)
    if isinstance(config.scenario, SimSpec):
        return (cell_seed, *_synthetic_cell(config, value, cell_seed))
    if studies is None:
        studies = load_studies(config.scenario)
    return (cell_seed, *_real_cell(config, value, cell_seed, studies))


def _once(shared: dict, key, fit):
    if key not in shared:
        shared[key] = fit()
    return shared[key]


@dataclass(frozen=True, eq=False)
class _Kept(RepresenterFunction):
    """A cell's shared index-order pooled fit that keeps its values for each array it is called on.

    Arrays are matched by identity: a call on an array seen before returns
    the values of the first call, read-only and bit for bit the fit's own
    evaluation. In a cell that array is the test grid, evaluated once for
    AhTKRR and AhTKRR_WD; AhTKRR's debias step reads the target's residuals
    from the fit's own system.
    """

    kept: list = dataclasses.field(default_factory=list)

    def __call__(self, x: NDArray) -> NDArray[np.float64]:
        for seen, values in self.kept:
            if seen is x:
                return values
        values = super().__call__(x)
        values.flags.writeable = False
        self.kept.append((x, values))
        return values


def _prepared(shared: dict, target: Dataset, sources, config: ExperimentConfig, cell_seed: int):
    # SA's split, ranking and candidate set; its pooled rung is the cell's
    # all-sources pooled fit.
    seed = _sa_split_seed(cell_seed)
    prepare = partial(prepare_candidates, target, sources, seed, config.schedules, config.kernel)
    return _once(shared, "candidates", prepare)


def _fit_method(
    method: str,
    target: Dataset,
    sources: tuple[Dataset, ...],
    transferable: tuple[int, ...],
    config: ExperimentConfig,
    cell_seed: int,
    shared: dict | None = None,
):
    """Fit one method on one cell's data.

    `shared` holds the stages that methods of the same cell have in common,
    so each is fitted once: SA's split, ranking and candidate set, which AEW
    aggregates differently, and the index-order pooled fits by source set,
    each keeping its values for every array it is called on (the test
    grid). Without it (`tkrr fit`) every result is bit for bit the sweep's.
    AhTKRR_WD is AhTKRR's pooled step. Pooled_TKRR's is the candidate set's
    top rung, on which SA_TKRR (aggregate.sa_tkrr) refits its all-sources
    candidate, unless the cell has no sources or too small a target to
    split; then it pools in index order. The candidate set's families keep
    their values per array, so the rung's test-grid values serve
    Pooled_TKRR, SA's refit and AEW's candidates alike.
    """
    shared = {} if shared is None else shared
    sched, cfg = config.schedules, config.kernel
    lam0 = schedule_lambda_source(target.n, sched)
    if method == "KRR":
        return fit_krr(target, lam0, cfg)

    if method in ("AhTKRR", "AhTKRR_WD", "Pooled_TKRR"):
        idx, pooled, rows = transferable, None, None
        if method == "Pooled_TKRR":
            idx = tuple(range(1, len(sources) + 1))
            if sources and target.n >= 2:  # split_uniform's minimum
                cs = _prepared(shared, target, sources, config, cell_seed)[1]
                pooled, rows = cs.pooled, cs.pooled_rows
        coll = SourceCollection(sources=sources, transferable=idx)
        lam1 = schedule_lambda_source(coll.n_transferable + target.n, sched)
        if pooled is None:  # the cell's index-order pooled fit of this set, kept
            fit = partial(fit_pooled, target, coll, lam1, cfg)
            pooled = _once(shared, ("pooled", coll.transferable), lambda: _Kept(**vars(fit())))
        if method == "AhTKRR_WD":
            return pooled
        # Offset magnitude defaults to 1 when the transferable set is taken
        # as given rather than estimated.
        lam2 = schedule_lambda_debias(target.n, 1.0, sched)
        return fit_ah_tkrr(target, coll, lam1, lam2, cfg, pooled, rows)

    if method not in ("SA_TKRR", "AEW_TKRR"):
        raise ValueError(f"unknown method {method!r}")
    prepared = _prepared(shared, target, sources, config, cell_seed)
    if method == "SA_TKRR":
        return sa_tkrr(target, sources, _sa_split_seed(cell_seed), sched, cfg, prepared)
    t2, cs = prepared
    temperature = max(2.0 * float(np.var(t2.y)), 1e-12)
    return aew_aggregate(cs.candidates, t2, temperature, cs.values)


def _run_cell(config: ExperimentConfig, v_index: int, rep: int, studies=None) -> list[ResultRow]:
    value = config.sweep_values[v_index]
    with _limit_blas():
        cell = build_cell(config, v_index, rep, studies)
        cell_seed, target, sources, transferable, x_test, reference = cell
        rows = []
        shared: dict = {}
        for method in config.methods:
            t0 = time.perf_counter()
            try:
                model = _fit_method(
                    method, target, sources, transferable, config, cell_seed, shared
                )
                err = prediction_error(model, x_test, reference)
            # A numerical failure (SpdSolveError is a LinAlgError) or too
            # little data is a failed fit; any other error propagates.
            except (np.linalg.LinAlgError, TooFewRowsError):
                err = float("nan")
            wall_ms = (time.perf_counter() - t0) * 1000.0
            rows.append(
                ResultRow(
                    method=method,
                    sweep_value=value,
                    replication=rep,
                    seed=cell_seed,
                    test_error=err,
                    wall_ms=wall_ms,
                )
            )
    return rows


def run_sweep(config: ExperimentConfig, threads: int | None = None) -> list[ResultRow]:
    """Run every (value, replication) cell and return sorted result rows.

    CSV studies are loaded once here and handed to every cell, and every
    sweep value's n0 is checked against them before any cell runs.
    Rows sort by (method, value position, replication), so the table is
    identical no matter how cells were scheduled. A failed fit (LinAlgError
    or TooFewRowsError) keeps its row with a blank test_error; the run goes on.
    """
    studies = None if isinstance(config.scenario, SimSpec) else load_studies(config.scenario)
    for value in () if studies is None else config.sweep_values:
        _n0(config, value, studies[0].n)
    # Pool workers leave BLAS at its default thread count, so on a small host
    # they fight over cores and a pooled sweep runs slower than a serial one:
    # the default is one process.
    n_threads = 1 if threads is None else max(1, int(threads))
    cells = [
        (vi, rep)
        for vi in range(len(config.sweep_values))
        for rep in range(config.replications)
    ]
    run = partial(_run_cell, config, studies=studies)
    if n_threads <= 1 or len(cells) <= 1:
        per_cell = list(map(run, *zip(*cells)))
    else:
        # Imported here: a serial sweep never starts a pool.
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context

        with ProcessPoolExecutor(
            max_workers=n_threads,
            mp_context=get_context("spawn"),
            initializer=_pin_blas_env,
        ) as pool:
            per_cell = list(
                pool.map(run, *zip(*cells), chunksize=max(1, len(cells) // (4 * n_threads)))
            )
    order = {v: i for i, v in enumerate(config.sweep_values)}
    rows = [row for chunk in per_cell for row in chunk]
    rows.sort(key=lambda r: (r.method, order[r.sweep_value], r.replication))
    return rows


def summarize(rows: Sequence[ResultRow]) -> list[SummaryRow]:
    """Per (method, value) mean and sample sd over successful replications."""
    if not rows:
        raise ValueError("no rows to summarize")
    groups: dict[tuple, list[ResultRow]] = {}
    for r in rows:
        groups.setdefault((r.method, r.sweep_value), []).append(r)
    out = []
    for (method, value), grp in groups.items():
        errs = np.array([g.test_error for g in grp])
        ok = errs[~np.isnan(errs)]
        out.append(
            SummaryRow(
                method=method,
                sweep_value=value,
                mean_error=float(np.mean(ok)) if ok.size else float("nan"),
                std_error=float(np.std(ok, ddof=1)) if ok.size > 1 else 0.0,
                n_ok=int(ok.size),
                n_failed=int(errs.size - ok.size),
            )
        )
    return out


def emit_csv(rows: Sequence[ResultRow | SummaryRow], path: str | Path) -> Path:
    """Write result or summary rows with a stable header and full precision."""
    if not rows:
        raise ValueError("refusing to write an empty table")
    header = [f.name for f in dataclasses.fields(rows[0])]
    write_csv(path, header, [[getattr(r, f) for f in header] for r in rows])
    return Path(path)
