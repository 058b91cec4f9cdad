"""The names the benchmark's tracer and host-facts probe hook, by name.

perfbench/tracer.py wraps every function listed in a traced module's
__all__, plus harness._run_cell and the module-level kernels.cho_factor,
reads a few attributes of their results, and counts dropped rows from the
datasets logger; perfbench/hostfacts.py enters harness._limit_blas() and
starts pool workers with harness._pin_blas_env. Renaming or inlining any of
these would silently empty a traced run's counters, so they are pinned here.
"""

import importlib
import inspect
import logging

import numpy as np

from tkrr import aggregate, datasets, harness, kernels, krr
from tkrr.datasets import StudyConfig
from tkrr.kernels import Dataset, KernelConfig
from tkrr.krr import LambdaSchedule

# Every layer.function whose span or result the tracer reads.
TRACED = (
    "kernels.gram_matrix",
    "kernels.spd_solve",
    "kernels.rkhs_norm_diff",
    "krr.fit_krr",
    "transfer.fit_pooled",
    "transfer.fit_debias",
    "transfer.fit_ah_tkrr",
    "aggregate.rank_contrasts",
    "aggregate.build_candidates",
    "aggregate.hyper_sparse_aggregate",
    "aggregate.sa_tkrr",
    "aggregate.aew_aggregate",
    "synthetic.gen_scenario",
    "synthetic.gen_test",
    "datasets.load_csv",
    "datasets.load_studies",
    "datasets.subsample_split",
    "datasets.fit_standardizer",
    "datasets.apply_standardizer",
    "harness.prediction_error",
    "harness.run_sweep",
    "harness.summarize",
    "harness.emit_csv",
)


def test_traced_kernel_functions_are_public():
    for name in TRACED:
        layer, fname = name.split(".")
        mod = importlib.import_module(f"tkrr.{layer}")
        fn = getattr(mod, fname)
        assert fname in mod.__all__, name
        assert inspect.isfunction(fn) and fn.__module__ == mod.__name__, name


def test_result_attributes_the_tracer_reads():
    rng = np.random.default_rng(210)
    target = Dataset(x=rng.random((24, 1)), y=rng.normal(size=24))
    sources = [Dataset(x=rng.random((n, 1)), y=rng.normal(size=n)) for n in (10, 12)]
    sched, cfg = LambdaSchedule(scale=0.5), KernelConfig(bandwidth=0.5)
    ranked = aggregate.rank_contrasts(target, sources, sched, cfg)
    assert sorted(ranked.ranks.tolist()) == [1, 2]
    f0 = krr.fit_krr(target, krr.schedule_lambda_source(target.n, sched), cfg)
    built = aggregate.build_candidates(target, sources, ranked, sched, cfg, f0)
    assert len(built.candidates) == 3
    values = np.array([f(target.x) for f in built.candidates])
    mixed = aggregate.aew_aggregate(built.candidates, target, 1.0, values)
    assert len(mixed.weights) == 3
    model = aggregate.sa_tkrr(target, sources, 3, sched, cfg)
    assert {model.idx_a, model.idx_b} <= {0, 1, 2} and 0.0 <= model.weight <= 1.0


def test_dropped_rows_log_record(tmp_path, caplog):
    # The tracer adds up args[1] of every datasets record whose message
    # says "dropped" and that has three arguments.
    path = tmp_path / "s.csv"
    path.write_text("u,y\n1,2\nbad,3\n4,\n5,6\n")
    with caplog.at_level(logging.INFO, logger=datasets.__name__):
        datasets.load_csv(StudyConfig(path=str(path), feature_columns=("u",), response_column="y"))
    (record,) = [r for r in caplog.records if "dropped" in str(r.msg)]
    assert record.name == datasets.__name__
    assert len(record.args) == 3 and record.args[1] == 2


def test_cell_and_blas_hooks_exist(monkeypatch):
    params = list(inspect.signature(harness._run_cell).parameters)
    assert params[:3] == ["config", "v_index", "rep"]
    with harness._limit_blas():
        pass
    for var in harness._BLAS_ENV:
        monkeypatch.setenv(var, "")
    harness._pin_blas_env()


def _trace_solves(monkeypatch):
    # Record, per spd_solve call, its positional arguments and the
    # cho_factor calls made within it, as the tracer counts them.
    calls = []
    real_solve, real_factor = krr.spd_solve, kernels.cho_factor

    def solve(*args, **kwargs):
        calls.append((args, []))
        return real_solve(*args, **kwargs)

    def factor(*args, **kwargs):
        calls[-1][1].append(1)
        return real_factor(*args, **kwargs)

    monkeypatch.setattr(krr, "spd_solve", solve)
    monkeypatch.setattr(kernels, "cho_factor", factor)
    return calls


def test_fit_krr_solves_once_through_the_traced_names(monkeypatch):
    # The tracer reads spd_solve's matrix and right-hand side positionally,
    # takes np.shape(matrix)[0] as the system's order (n, or n + 1 for a
    # packed system of even order), and counts jitter retries as extra
    # cho_factor calls within one solve.
    calls = _trace_solves(monkeypatch)
    for n in (30, 31):
        ds = Dataset(x=np.random.default_rng(208).normal(size=(n, 2)), y=np.ones(n))
        krr.fit_krr(ds, 0.1, KernelConfig())
    assert len(calls) == 2
    for n, (args, factors) in zip((30, 31), calls):
        assert len(args) >= 2 and factors == [1]
        assert np.shape(args[0]) == (n + 1 - n % 2, (n + 1) // 2)
        assert np.shape(args[0])[0] in (n, n + 1)
        assert np.shape(args[1]) == (n,)


def test_jitter_retry_is_a_second_cho_factor_call(monkeypatch):
    calls = _trace_solves(monkeypatch)
    x = np.random.default_rng(209).normal(size=(20, 2))
    ds = Dataset(x=np.concatenate([x, x]), y=np.ones(40))
    krr.fit_krr(ds, 1e-20, KernelConfig())
    assert [len(factors) for _, factors in calls] == [2]
