"""Sweep runner: configs in, result and summary tables out.

An experiment is a scenario (synthetic spec or CSV-backed studies), a set
of methods, and one swept parameter. CSV studies load once per sweep.
Every (sweep value, replication) cell derives its own seed as
hash(base_seed, value_index, replication), generates its data or
subsamples the loaded studies, fits each method, and scores it on the
held out test set. Cells are independent, so replications fan out over a
process pool; rows are sorted afterwards, making output byte-identical
for any worker count on one host. Each cell asks for one BLAS thread,
which takes effect only when threadpoolctl can be imported.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from multiprocessing import get_context
from pathlib import Path
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

try:
    from threadpoolctl import threadpool_limits
except ImportError:  # pragma: no cover
    threadpool_limits = None

from .aggregate import (
    AggregationParams,
    aew_aggregate,
    model_predict,
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
from .kernels import Dataset, KernelConfig, SpdSolveError
from .krr import (
    LambdaSchedule,
    fit_krr,
    schedule_lambda_debias,
    schedule_lambda_source,
)
from .rng import derive_seed
from .synthetic import SimSpec, gen_scenario, gen_test
from .transfer import SourceCollection, fit_pooled, fit_two_step

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
    "resolve_threads",
]

METHODS = ("KRR", "AhTKRR", "AhTKRR_WD", "Pooled_TKRR", "SA_TKRR", "AEW_TKRR")
SWEEPS = ("s", "a_h", "n0", "n_ah", "m")

RESULT_HEADER = ("method", "sweep_value", "replication", "seed", "test_error", "wall_ms")
SUMMARY_HEADER = ("method", "sweep_value", "mean_error", "std_error", "n_ok", "n_failed")

_BLAS_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a sweep needs, mirrored one-to-one by the JSON config.

    fixed pins scenario parameters that are not being swept (real-data
    experiments use it for n0 and n_ah; defaults are half the target for
    n0 and every source row for n_ah). Methods run in the order given.
    """

    scenario: SimSpec | tuple[StudyConfig, ...]
    methods: tuple[str, ...]
    sweep_name: str
    sweep_values: tuple
    replications: int = 100
    seed: int = 0
    schedules: LambdaSchedule = LambdaSchedule()
    aggregation: AggregationParams = AggregationParams()
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
        name = _normalize_sweep(self.sweep_name)
        object.__setattr__(self, "sweep_name", name)
        if not self.sweep_values:
            raise ValueError("sweep values must be nonempty")
        object.__setattr__(self, "sweep_values", tuple(self.sweep_values))
        if self.replications < 1:
            raise ValueError(f"replications must be >= 1, got {self.replications}")
        object.__setattr__(
            self,
            "fixed",
            tuple((_normalize_sweep(k), v) for k, v in dict(self.fixed).items()),
        )

    def fixed_value(self, name: str, default=None):
        for k, v in self.fixed:
            if k == name:
                return v
        return default


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


_SWEEP_ALIASES = {"n_a_h": "n_ah", "n_0": "n0"}


def _normalize_sweep(name: str) -> str:
    canon = str(name).lower().replace("|", "").replace("{", "").replace("}", "")
    canon = _SWEEP_ALIASES.get(canon, canon)
    if canon not in SWEEPS:
        raise ValueError(f"unknown sweep parameter {name!r}, want one of {SWEEPS}")
    return canon


def config_from_json(source: str | Path | dict) -> ExperimentConfig:
    """Build a config from a JSON document (path, text, or parsed dict)."""
    if isinstance(source, dict):
        doc = source
    else:
        text = Path(source).read_text() if Path(str(source)).is_file() else str(source)
        doc = json.loads(text)
    scen = doc["scenario"]
    if isinstance(scen, dict):
        if "fixed_shifts" in scen and scen["fixed_shifts"] is not None:
            scen = dict(scen, fixed_shifts=tuple(scen["fixed_shifts"]))
        scenario = SimSpec(**scen)
    else:
        scenario = tuple(
            StudyConfig(**dict(c, feature_columns=tuple(c["feature_columns"])))
            for c in scen
        )
    sweep = doc["sweep"]
    kwargs = dict(
        scenario=scenario,
        methods=tuple(doc["methods"]),
        sweep_name=sweep["name"],
        sweep_values=tuple(sweep["values"]),
    )
    if "schedules" in doc:
        kwargs["schedules"] = LambdaSchedule(**doc["schedules"])
    if "aggregation" in doc:
        kwargs["aggregation"] = AggregationParams(**doc["aggregation"])
    if "kernel" in doc:
        kwargs["kernel"] = KernelConfig(**doc["kernel"])
    if "fixed" in doc:
        kwargs["fixed"] = tuple(doc["fixed"].items())
    for key in ("replications", "seed", "output_dir"):
        if key in doc:
            kwargs[key] = doc[key]
    return ExperimentConfig(**kwargs)


def config_to_dict(config: ExperimentConfig) -> dict:
    """Inverse of config_from_json, for archiving resolved configs."""
    doc = dataclasses.asdict(config)
    doc["sweep"] = {"name": doc.pop("sweep_name"), "values": list(doc.pop("sweep_values"))}
    doc["fixed"] = dict(doc.pop("fixed"))
    if isinstance(config.scenario, SimSpec):
        if doc["scenario"]["fixed_shifts"] is not None:
            doc["scenario"]["fixed_shifts"] = list(doc["scenario"]["fixed_shifts"])
    else:
        for c in doc["scenario"]:
            c["feature_columns"] = list(c["feature_columns"])
    return doc


def prediction_error(model, x: NDArray, reference: NDArray) -> float:
    """Mean squared deviation of model predictions from the reference."""
    ref = np.asarray(reference, dtype=np.float64)
    pred = model_predict(model, x)
    if pred.shape != ref.shape:
        raise ValueError(f"length mismatch: {pred.shape} vs {ref.shape}")
    d = pred - ref
    return float(np.mean(d * d))


def _limit_blas():
    if threadpool_limits is not None:
        return threadpool_limits(limits=1)
    return nullcontext()


def _pin_blas_env() -> None:
    for var in _BLAS_ENV:
        os.environ[var] = "1"


def _synthetic_cell(config: ExperimentConfig, value, cell_seed: int):
    spec: SimSpec = config.scenario
    name = config.sweep_name
    if name == "s":
        spec = dataclasses.replace(spec, s=float(value))
    elif name == "n0":
        spec = dataclasses.replace(spec, n0=int(value))
    elif name == "n_ah":
        spec = dataclasses.replace(spec, n_k=int(value))
    elif name == "m":
        spec = dataclasses.replace(spec, m=int(value))
    target, sources, true_fn, _ = gen_scenario(spec, seed=cell_seed)
    x_test, reference = gen_test(spec, true_fn, seed=cell_seed)

    if name == "a_h":
        n_transfer = int(value)
        if not 0 <= n_transfer <= spec.total_sources:
            raise ValueError(f"|A_h|={n_transfer} outside 0..{spec.total_sources}")
    else:
        n_transfer = int(config.fixed_value("a_h", spec.m))
    transferable = tuple(range(1, n_transfer + 1))
    return target, sources, transferable, x_test, reference


def _real_cell(config: ExperimentConfig, value, cell_seed: int, studies):
    target_full, sources_full = studies
    name = config.sweep_name
    n0 = int(value) if name == "n0" else int(config.fixed_value("n0", target_full.n // 2))
    n_ah = int(value) if name == "n_ah" else config.fixed_value("n_ah")
    train, test = subsample_split(target_full, n0, derive_seed(cell_seed, 0))
    if next(c for c in config.scenario if c.role == "target").standardize:
        std = fit_standardizer(train)
        train, test = apply_standardizer(std, train), apply_standardizer(std, test)

    src_cfgs = [c for c in config.scenario if c.role == "source"]
    sources = []
    for k, (src, cfg) in enumerate(zip(sources_full, src_cfgs), start=1):
        take = src.n if n_ah is None else min(int(n_ah), src.n)
        used = subsample_split(src, take, derive_seed(cell_seed, k))[0]
        # A source with no rows adds nothing to any fit, so the cell drops it.
        if used.n > 0:
            if cfg.standardize:
                used = apply_standardizer(fit_standardizer(used), used)
            sources.append(used)
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
    so each is fitted once: the pooled fit, keyed by its source set
    (AhTKRR_WD is AhTKRR's pooled step alone), and SA's split, ranking and
    candidate set, which AEW aggregates differently.
    """
    shared = {} if shared is None else shared
    sched, cfg = config.schedules, config.kernel
    lam0 = schedule_lambda_source(target.n, sched)
    if method == "KRR":
        return fit_krr(target, lam0, cfg)

    if method in ("AhTKRR", "AhTKRR_WD", "Pooled_TKRR"):
        idx = tuple(range(1, len(sources) + 1)) if method == "Pooled_TKRR" else transferable
        coll = SourceCollection(sources=sources, transferable=idx)
        lam1 = schedule_lambda_source(coll.n_transferable + target.n, sched)
        pooled = _once(shared, ("pooled", idx), lambda: fit_pooled(target, coll, lam1, cfg))
        if method == "AhTKRR_WD":
            return pooled
        # Offset magnitude defaults to 1 when the transferable set is taken
        # as given rather than estimated.
        lam2 = schedule_lambda_debias(target.n, 1.0, sched)
        return fit_two_step(target, pooled, lam2, cfg)

    if method not in ("SA_TKRR", "AEW_TKRR"):
        raise ValueError(f"unknown method {method!r}")
    params = dataclasses.replace(
        config.aggregation,
        split_seed=derive_seed(config.aggregation.split_seed, cell_seed),
    )
    prepared = _once(
        shared, "candidates", lambda: prepare_candidates(target, sources, params, sched, cfg)
    )
    if method == "SA_TKRR":
        return sa_tkrr(target, sources, params, sched, cfg, prepared)
    t2, cs = prepared
    temperature = max(2.0 * float(np.var(t2.y)), 1e-12)
    return aew_aggregate(cs.candidates, t2, temperature)


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
            except (SpdSolveError, np.linalg.LinAlgError, ValueError):
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


def resolve_threads(threads: int | None = None) -> int:
    """TKRR_THREADS env beats the argument; fall back to the core count."""
    env = os.environ.get("TKRR_THREADS")
    if env:
        return max(1, int(env))
    if threads is not None:
        return max(1, int(threads))
    return os.cpu_count() or 1


def run_sweep(config: ExperimentConfig, threads: int | None = None) -> list[ResultRow]:
    """Run every (value, replication) cell and return sorted result rows.

    CSV studies are loaded once here and handed to every cell.
    Rows sort by (method, value position, replication), so the table is
    identical no matter how cells were scheduled. A failed fit keeps its
    row with a blank test_error; the run continues.
    """
    if not isinstance(config.scenario, SimSpec) and config.sweep_name not in ("n0", "n_ah"):
        raise ValueError(f"sweep {config.sweep_name!r} needs a synthetic scenario")
    studies = None if isinstance(config.scenario, SimSpec) else load_studies(config.scenario)
    n_threads = resolve_threads(threads)
    cells = [
        (vi, rep)
        for vi in range(len(config.sweep_values))
        for rep in range(config.replications)
    ]
    if n_threads <= 1 or len(cells) <= 1:
        per_cell = [_run_cell(config, vi, rep, studies) for vi, rep in cells]
    else:
        with ProcessPoolExecutor(
            max_workers=n_threads,
            mp_context=get_context("spawn"),
            initializer=_pin_blas_env,
        ) as pool:
            per_cell = list(
                pool.map(
                    _run_cell,
                    [config] * len(cells),
                    [vi for vi, _ in cells],
                    [rep for _, rep in cells],
                    [studies] * len(cells),
                    chunksize=max(1, len(cells) // (4 * n_threads)),
                )
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
    header = RESULT_HEADER if isinstance(rows[0], ResultRow) else SUMMARY_HEADER
    write_csv(path, header, [[getattr(r, f) for f in header] for r in rows])
    return Path(path)
