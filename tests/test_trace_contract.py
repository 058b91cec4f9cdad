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


def test_fit_krr_solves_once_through_the_traced_names(monkeypatch):
    # The tracer reads spd_solve's matrix and right-hand side positionally
    # and counts jitter retries as extra cho_factor calls within one solve.
    solves, factors = [], []
    real_solve, real_factor = krr.spd_solve, kernels.cho_factor

    def solve(*args, **kwargs):
        solves.append(len(args))
        return real_solve(*args, **kwargs)

    def factor(*args, **kwargs):
        factors.append(1)
        return real_factor(*args, **kwargs)

    monkeypatch.setattr(krr, "spd_solve", solve)
    monkeypatch.setattr(kernels, "cho_factor", factor)
    ds = Dataset(x=np.random.default_rng(208).normal(size=(30, 2)), y=np.ones(30))
    krr.fit_krr(ds, 0.1, KernelConfig())
    assert len(solves) == 1 and solves[0] >= 2
    assert factors == [1]
