"""The names the benchmark's tracer and host-facts probe hook, by name.

perfbench/tracer.py wraps every function listed in a traced module's
__all__, plus harness._run_cell and the module-level kernels.cho_factor;
perfbench/hostfacts.py enters harness._limit_blas() and starts pool
workers with harness._pin_blas_env. Renaming or inlining any of these
would silently empty a traced run's counters, so they are pinned here.
"""

import inspect

import numpy as np

from tkrr import harness, kernels, krr, transfer
from tkrr.kernels import Dataset, KernelConfig


def test_traced_kernel_functions_are_public():
    for name in ("gram_matrix", "spd_solve"):
        assert name in kernels.__all__
        assert inspect.isfunction(getattr(kernels, name))
    assert "fit_krr" in krr.__all__
    assert "fit_pooled" in transfer.__all__


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
