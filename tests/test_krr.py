import importlib.util
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import lapack

from tkrr import harness, kernels, krr
from tkrr.kernels import Dataset, KernelConfig, RepresenterFunction, TooFewRowsError, gram_matrix
from tkrr.krr import (
    H_FLOOR,
    LambdaSchedule,
    fit_krr,
    fit_krr_nested,
    plan_direct,
    schedule_lambda_debias,
    schedule_lambda_source,
)
from tkrr.synthetic import SimSpec, gen_scenario

N_CASES = 100


def random_dataset(rng, n_max=30, d_max=4):
    n = int(rng.integers(2, n_max))
    d = int(rng.integers(1, d_max))
    x = rng.normal(size=(n, d))
    y = rng.normal(size=n)
    return Dataset(x=x, y=y)


def rfp_solve(mat, b):
    """Oracle: LAPACK packs, factors and solves the explicit system itself."""
    n = mat.shape[0]
    arf, info = lapack.dtrttf(mat, transr="N", uplo="L")
    factor, info2 = lapack.dpftrf(n, arf, transr="N", uplo="L")
    z, info3 = lapack.dpftrs(n, factor, np.reshape(b, (n, 1)), transr="N", uplo="L")
    assert info == info2 == info3 == 0
    return z.ravel()


class TestFitOracles:
    def test_one_point(self):
        # (K + n*lambda) beta = y with K = [[1]], n = 1: beta = 2 / 1.5
        ds = Dataset(x=np.array([[0.0]]), y=np.array([2.0]))
        model = fit_krr(ds, 0.5, KernelConfig(bandwidth=1.0))
        assert model.coefficients[0] == pytest.approx(4.0 / 3.0, abs=1e-12)
        assert model([[0.0]])[0] == pytest.approx(4.0 / 3.0, abs=1e-12)

    def test_two_point_closed_form(self):
        # A = [[2, e^-1], [e^-1, 2]] (n*lambda = 1), invert by hand
        ds = Dataset(x=np.array([[0.0], [1.0]]), y=np.array([1.0, 0.0]))
        model = fit_krr(ds, 0.5, KernelConfig(bandwidth=1.0))
        a = np.exp(-1.0)
        expect = np.array([2.0, -a]) / (4.0 - a * a)
        np.testing.assert_allclose(model.coefficients, expect, atol=1e-8)

    def test_three_point_direct_solve(self):
        ds = Dataset(x=np.array([[0.0], [0.5], [1.0]]), y=np.array([1.0, -1.0, 2.0]))
        cfg = KernelConfig(bandwidth=0.7)
        model = fit_krr(ds, 0.2, cfg)
        a = gram_matrix(cfg, ds.x) + 3 * 0.2 * np.eye(3)
        np.testing.assert_allclose(
            model.coefficients, np.linalg.solve(a, ds.y), atol=1e-8
        )

    def test_matches_direct_solve(self):
        rng = np.random.default_rng(201)
        for _ in range(N_CASES):
            ds = random_dataset(rng)
            cfg = KernelConfig(bandwidth=float(rng.uniform(0.3, 2.0)))
            lam = float(rng.uniform(0.01, 1.0))
            model = fit_krr(ds, lam, cfg)
            a = gram_matrix(cfg, ds.x) + ds.n * lam * np.eye(ds.n)
            expect = np.linalg.solve(a, ds.y)
            assert np.max(np.abs(model.coefficients - expect)) <= 1e-8 * (
                1.0 + np.max(np.abs(ds.y))
            )


class TestFitInvariants:
    def test_stationarity(self):
        rng = np.random.default_rng(202)
        for _ in range(N_CASES):
            ds = random_dataset(rng)
            cfg = KernelConfig(bandwidth=float(rng.uniform(0.3, 2.0)))
            lam = float(rng.uniform(0.005, 1.0))
            model = fit_krr(ds, lam, cfg)
            a = gram_matrix(cfg, ds.x) + ds.n * lam * np.eye(ds.n)
            resid = np.max(np.abs(a @ model.coefficients - ds.y))
            assert resid <= 1e-8 * (1.0 + np.max(np.abs(ds.y)))

    def test_rkhs_norm_nonincreasing_in_ridge(self):
        rng = np.random.default_rng(203)
        for _ in range(N_CASES):
            ds = random_dataset(rng)
            cfg = KernelConfig(bandwidth=float(rng.uniform(0.3, 2.0)))
            lo = float(rng.uniform(0.01, 0.5))
            hi = lo * float(rng.uniform(1.5, 20.0))
            k = gram_matrix(cfg, ds.x)
            sq = []
            for lam in (lo, hi):
                beta = fit_krr(ds, lam, cfg).coefficients
                sq.append(beta @ k @ beta)
            assert sq[1] <= sq[0] + 1e-10

    def test_interpolation_limit(self):
        # well-separated anchors keep the Gram comfortably invertible, so
        # a vanishing ridge must reproduce the training responses
        rng = np.random.default_rng(204)
        for _ in range(N_CASES):
            n = int(rng.integers(3, 10))
            x = (np.arange(n) + rng.uniform(0.2, 0.8, size=n))[:, None]
            y = rng.normal(size=n)
            model = fit_krr(Dataset(x=x, y=y), 1e-10, KernelConfig(bandwidth=0.1))
            assert np.max(np.abs(model(x) - y)) <= 1e-4

    def test_deterministic(self):
        rng = np.random.default_rng(205)
        ds = random_dataset(rng)
        cfg = KernelConfig(bandwidth=0.9)
        a = fit_krr(ds, 0.1, cfg).coefficients
        b = fit_krr(ds, 0.1, cfg).coefficients
        assert np.array_equal(a, b)

    def test_metadata(self):
        # The fit is its representer function: anchors are the n training
        # rows, and the ridge is the one the coefficients were solved at.
        ds = Dataset(x=np.array([[0.0], [0.4]]), y=np.array([1.0, -1.0]))
        cfg = KernelConfig()
        model = fit_krr(ds, 0.3, cfg)
        assert np.array_equal(model.anchors, ds.x)
        assert model.anchors.shape[0] == 2
        a = gram_matrix(cfg, ds.x) + 2 * 0.3 * np.eye(2)
        assert np.array_equal(model.coefficients, rfp_solve(a, ds.y))

    @pytest.mark.parametrize("n", [1, 2, 3, 63, 64, 65, 127, 128, 129, 300, 700, 701])
    def test_in_place_system_matches_explicit_matrix(self, monkeypatch, n):
        # fit_krr builds its packed system in one buffer, 64 rows at a time,
        # and factors it there; the sizes cover odd and even layouts, the
        # row blocks, and LAPACK's unblocked and blocked Cholesky. Every size
        # is below the low-rank route's 768 rows, so every fit is dense.
        rng = np.random.default_rng(206)
        cfg = KernelConfig(bandwidth=1.7)
        solves = _spy(monkeypatch, krr, "spd_solve")
        for d in (1, 10):
            ds = Dataset(x=rng.normal(size=(n, d)), y=rng.normal(size=n))
            a = gram_matrix(cfg, ds.x) + n * 0.01 * np.eye(n)
            assert np.array_equal(fit_krr(ds, 0.01, cfg).coefficients, rfp_solve(a, ds.y))
        assert len(solves) == 2

    def test_jitter_retry_in_place_matches_explicit_matrix(self, monkeypatch):
        # 150 distinct rows, then the same rows again, at a ridge far below
        # roundoff: the first factorization fails in the second half, after
        # writing the first half's factor over the system; the retry refills
        # the system, adds 1e-10 * trace / n to its diagonal and succeeds.
        rng = np.random.default_rng(207)
        x = rng.normal(size=(150, 2))
        ds = Dataset(x=np.concatenate([x, x]), y=rng.normal(size=300))
        cfg = KernelConfig()
        calls = []
        real = kernels.cho_factor
        monkeypatch.setattr(kernels, "cho_factor", lambda *a, **k: calls.append(1) or real(*a, **k))
        coef = fit_krr(ds, 1e-20, cfg).coefficients
        assert len(calls) == 2
        a = gram_matrix(cfg, ds.x) + 300 * 1e-20 * np.eye(300)
        a += 1e-10 * np.trace(a) / 300 * np.eye(300)
        assert np.array_equal(coef, rfp_solve(a, ds.y))

    def test_values_at_own_rows_from_the_system(self):
        # f(x_i) = y_i - s beta_i for the system (K + s I) beta = y that the
        # fit solved: within 1e-12 relative of the Gram evaluation.
        rng = np.random.default_rng(211)
        for n, d, ridge in ((40, 1, 0.01), (200, 3, 0.002), (300, 2, 0.1)):
            ds = Dataset(x=rng.random((n, d)), y=rng.normal(size=n))
            f = fit_krr(ds, ridge, KernelConfig(bandwidth=0.5))
            assert f.shift == n * ridge
            want = RepresenterFunction(f.anchors, f.coefficients, f.kernel)(ds.x)
            got = ds.y - f.shift * f.coefficients
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_jitter_is_part_of_the_shift(self, monkeypatch):
        # A retried fit solved (K + (s + jitter) I) beta = y, so its shift
        # carries the jitter spd_solve added: 1e-10 * trace / n.
        rng = np.random.default_rng(212)
        x = rng.normal(size=(150, 2))
        ds = Dataset(x=np.concatenate([x, x]), y=rng.normal(size=300))
        f = fit_krr(ds, 1e-20, KernelConfig())
        s = 300 * 1e-20
        assert abs(f.shift - (s + 1e-10 * (1.0 + s))) <= 1e-24

    def test_bad_ridge(self):
        ds = Dataset(x=np.zeros((2, 1)), y=np.ones(2))
        with pytest.raises(ValueError):
            fit_krr(ds, 0.0, KernelConfig())

    def test_empty_data_is_too_few_rows(self):
        ds = Dataset(x=np.zeros((0, 1)), y=np.zeros(0))
        with pytest.raises(TooFewRowsError):
            fit_krr(ds, 0.1, KernelConfig())


def _spy(monkeypatch, module, name):
    # Record the positional arguments of every call of module.name.
    calls = []
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a, **k: calls.append(a) or real(*a, **k))
    return calls


def _ex1_like(n, seed):
    # The 1-d ex1 design's rows at its bandwidth and the shipped source-rate
    # ridge, as fit_krr's arguments.
    rng = np.random.default_rng(seed)
    x = rng.random((n, 1))
    y = 3.0 * np.sin(3.0 * np.pi * x[:, 0]) + rng.normal(0.0, 0.4, n)
    return Dataset(x, y), schedule_lambda_source(n, LambdaSchedule(scale=0.1)), KernelConfig(bandwidth=0.05)


class TestLowRankRoute:
    def test_size_threshold_and_cap(self, monkeypatch):
        # No attempt below 768 rows; from 768 on, at most n // 16 pivots.
        # Both are derived from measured costs (README, "Low-rank Grams").
        assert (krr._LOW_RANK_ROWS, krr._RANK_CAP) == (768, 16)
        attempts = _spy(monkeypatch, krr, "low_rank_factor")
        solves = _spy(monkeypatch, krr, "spd_solve")
        for n in (767, 768, 1000):
            fit_krr(*_ex1_like(n, 240))
        assert [(len(x), cap) for _, x, cap in attempts] == [(768, 48), (1000, 62)]
        assert [len(b) for _, b in solves] == [767]

    @pytest.mark.parametrize("n", [800, 1700, 4500])
    def test_matches_dense_route_within_certified_bound(self, monkeypatch, n):
        # fit_krr takes the low-rank route, solving (G G' + s I) beta = y;
        # the dense route solves (K + s I) beta = y. Each is within n tau / s
        # of the exact solution for K, relative, so they are within twice
        # that of each other, and so are their predictions.
        ds, ridge, cfg = _ex1_like(n, 241)
        solves = _spy(monkeypatch, krr, "spd_solve")
        f = fit_krr(ds, ridge, cfg)
        assert solves == [] and f.shift == n * ridge
        dense = kernels.spd_solve(kernels.ridge_system(cfg, ds.x, n * ridge), ds.y)
        u = (ds.x - ds.x.mean()) / np.sqrt(cfg.bandwidth)
        tau = 12 * np.finfo(np.float64).eps * (1 + 2 * np.max(u * u))
        bound = 2 * n * tau / f.shift
        assert np.linalg.norm(f.coefficients - dense) <= bound * np.linalg.norm(dense)
        x_test = np.linspace(0.0, 1.0, 300)[:, None]
        want = RepresenterFunction(ds.x, dense, cfg)(x_test)
        assert np.max(np.abs(f(x_test) - want)) <= bound * np.max(np.abs(want))
        # Values at the fit's own rows come from its system: y - s beta.
        got = ds.y - f.shift * f.coefficients
        assert np.max(np.abs(got - f(ds.x))) <= bound * np.max(np.abs(got))

    def test_duplicate_rows_need_no_jitter(self, monkeypatch):
        # 400 rows twice at a ridge where the dense system fails to factor and
        # is retried with jitter; the low-rank route solves at s itself, and
        # the fit takes the same value at a row and its copy.
        rng = np.random.default_rng(242)
        x = np.concatenate([rng.random((400, 1))] * 2)
        ds = Dataset(x, np.sin(6.0 * x[:, 0]) + rng.normal(0.0, 0.1, 800))
        cfg, ridge = KernelConfig(), 1e-17
        factors = _spy(monkeypatch, kernels, "cho_factor")
        build = lambda a=None: kernels.ridge_system(cfg, ds.x, 800 * ridge, a)
        kernels.spd_solve(build(), ds.y, refill=build)
        assert len(factors) == 2
        factors.clear()
        solves = _spy(monkeypatch, krr, "spd_solve")
        f = fit_krr(ds, ridge, cfg)
        assert solves == [] and factors == [] and f.shift == 800 * ridge
        assert np.all(np.isfinite(f.coefficients))
        own = ds.y - f.shift * f.coefficients
        assert np.max(np.abs(own[:400] - own[400:])) <= 1e-12


def _load_workloads():
    # perfbench/workloads.py, which writes the benchmark's configs and studies.
    if "workloads" not in sys.modules:
        path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("workloads", path)
        sys.modules["workloads"] = module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return sys.modules["workloads"]


class TestShippedRoutes:
    # Per sweep value, how many fit_krr calls of each row count take each
    # route in replication 0: "low-rank", "dense" (no attempt, below 768
    # rows), or "failed" (an attempt that gave up, then the dense route).
    # Every shipped low-rank Gram certifies at rank 23 or 24, and every
    # failed attempt stops after 8 pivots.
    EX1 = {(200, "dense"): 2, (1700, "low-rank"): 1}
    ROUTES = {
        "fig3": dict.fromkeys((0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45), EX1),
        "fig4": {
            0: {(200, "dense"): 3},
            2: {(200, "dense"): 2, (500, "dense"): 1},
            **{a_h: {(200, "dense"): 2, (200 + 150 * a_h, "low-rank"): 1} for a_h in (4, 6, 8, 10)},
        },
        "fig5": {
            200: EX1,
            1000: {(1000, "low-rank"): 2, (2500, "low-rank"): 1},
            3000: {(3000, "low-rank"): 2, (4500, "low-rank"): 1},
        },
        "fig6": {
            0: {(300, "dense"): 7, (600, "dense"): 4},
            5: {(300, "dense"): 17, (600, "dense"): 4, (900, "failed"): 1},
            10: {(300, "dense"): 27, (600, "dense"): 4, (900, "failed"): 1, (1200, "failed"): 1},
        },
        "known-ex1": {0.05: EX1, 0.45: EX1},
        "unknown-ex2mod": {
            10: {(200, "dense"): 27, (400, "dense"): 4, (600, "dense"): 1, (800, "failed"): 1, (1000, "failed"): 1},
        },
        "csv-studies": {300: {(75, "dense"): 5, (150, "dense"): 3, (300, "dense"): 4, (375, "dense"): 1}},
    }

    @staticmethod
    def routes(monkeypatch, cfg, v_index):
        # (rows, route, pivots taken) of every fit_krr call in the cell.
        out, pivots = [], []
        real_block, real_factor, real_solve = kernels._kernel_block, krr.low_rank_factor, krr.spd_solve

        def block(*a, **k):
            pivots.append(1)
            return real_block(*a, **k)

        def factor(cfg, x, cap):
            pivots.clear()
            monkeypatch.setattr(kernels, "_kernel_block", block)
            g = real_factor(cfg, x, cap)
            monkeypatch.setattr(kernels, "_kernel_block", real_block)
            out.append([len(x), "failed" if g is None else "low-rank", len(pivots)])
            return g

        def solve(a, b, refill=None):
            if out and out[-1][:2] == [len(b), "failed"]:
                out[-1].append("solved")
            else:
                out.append([len(b), "dense", 0])
            return real_solve(a, b, refill)

        monkeypatch.setattr(krr, "low_rank_factor", factor)
        monkeypatch.setattr(krr, "spd_solve", solve)
        harness._run_cell(cfg, v_index, 0)
        monkeypatch.undo()
        # A failed attempt is followed by its dense solve.
        assert all(r[3:] == ["solved"] for r in out if r[1] == "failed")
        return out

    @pytest.mark.parametrize("name", list(ROUTES))
    def test_routes(self, name, monkeypatch, tmp_path):
        if name.startswith("fig"):
            cfg = harness.config_from_json(f"{Path(__file__).resolve().parents[1]}/configs/{name}.json")
        else:
            cfg = harness.config_from_json(_load_workloads().build(name, 101, tmp_path).config_path)
        assert cfg.sweep_values == tuple(self.ROUTES[name])
        for v_index, (value, want) in enumerate(self.ROUTES[name].items()):
            got = self.routes(monkeypatch, cfg, v_index)
            assert Counter((n, route) for n, route, *_ in got) == want, value
            for n, route, pivots, *_ in got:
                if route == "low-rank":
                    assert pivots in (23, 24), (value, n)
                elif route == "failed":
                    assert pivots == 8, (value, n)


def _spy_fit_krr(monkeypatch):
    # Record the row count of every fit_krr call that fit_krr_nested makes.
    calls = []
    real = krr.fit_krr
    monkeypatch.setattr(krr, "fit_krr", lambda data, *a: calls.append(data.n) or real(data, *a))
    return calls


def _planned(sizes, ridges):
    # The sizes of the rungs plan_direct fits with fit_krr, in rung order.
    sizes = np.asarray(sizes)
    return sizes[plan_direct(sizes, sizes * np.asarray(ridges))].tolist()


def _nested_case(rng, d, sizes, ridges):
    n = max(sizes)
    ds = Dataset(x=rng.normal(size=(n, d)), y=rng.normal(size=n))
    cfg, x_test = KernelConfig(bandwidth=float(d)), rng.normal(size=(40, d))
    return ds, cfg, x_test, fit_krr_nested(ds, sizes, ridges, cfg)


def _assert_rungs_match(ds, cfg, x_test, sizes, ridges, fits):
    # Each rung predicts as fit_krr on its leading rows does, within 1e-12
    # relative to the largest prediction, and keeps those rows as anchors.
    assert len(fits) == len(sizes)
    for k, ridge, fit in zip(sizes, ridges, fits):
        want = fit_krr(Dataset(x=ds.x[:k], y=ds.y[:k]), ridge, cfg)
        assert np.array_equal(fit.anchors, want.anchors)
        got, ref = fit(x_test), want(x_test)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestFitKrrNested:
    # plan_direct fits the three smallest rungs with fit_krr and leaves three
    # rungs to CG, for every shift pattern below.
    SIZES = (30, 90, 1, 330, 400, 360)
    # The ridge at n rows, so that the shifts n * ridge rise, fall or are
    # equal. The shifts stay above 0.1: fit_krr's own distance from the exact
    # solution grows with the system's condition number, and at a shift of
    # 0.025 on 400 rows in 1-d both fits are 1.5e-12 from a refined solution.
    SHIFTS = {
        "rising": lambda n: 0.1 * n ** (-1.0 / 3.0),
        "falling": lambda n: 5.0 * n**-1.5,
        "equal": lambda n: 0.2 / n,
    }

    @pytest.mark.parametrize("d", [1, 3, 10])
    @pytest.mark.parametrize("shifts", ["rising", "falling", "equal"])
    def test_rungs_match_fit_krr(self, monkeypatch, d, shifts):
        rng = np.random.default_rng(220)
        ridges = [self.SHIFTS[shifts](n) for n in self.SIZES]
        calls = _spy_fit_krr(monkeypatch)
        case = _nested_case(rng, d, self.SIZES, ridges)
        assert calls == _planned(self.SIZES, ridges) == [30, 90, 1]
        _assert_rungs_match(*case[:3], self.SIZES, ridges, case[3])
        ds, cfg = case[:2]
        for k, ridge, fit in zip(self.SIZES, ridges, case[3]):
            if k in calls:  # a planned direct rung is fit_krr, bit for bit
                want = fit_krr(Dataset(x=ds.x[:k], y=ds.y[:k]), ridge, cfg)
                assert np.array_equal(fit.coefficients, want.coefficients)

    # SA's ladder for every shipped config and benchmark workload, at the
    # shipped schedules (r = alpha = 1; the picks do not depend on the
    # schedules' scale), as (|T1|, rows per source, sources),
    # and the rungs plan_direct fits directly. The rungs have |T1| + n_k,
    # |T1| + 2 n_k, ... rows, then the whole target's 2 |T1| + m n_k. Only
    # unknown-ex2mod and fig6 at m = 10 were timed; the rest are pinned.
    LADDERS = {
        "fig6 m=0": ((300, 300, 3), [600]),
        "fig6 m=5": ((300, 300, 8), [600, 900]),
        "fig6 m=10": ((300, 300, 13), [600, 900, 1200]),
        "unknown-ex2mod": ((200, 200, 13), [400, 600, 800, 1000]),
        "csv-studies": ((75, 300, 4), [375]),
        "used-car": ((250, 500, 8), [750, 1250]),
        **{
            f"wine n0={2 * t1} n_ah={n_k}": ((t1, n_k, 1), [])
            for t1 in (50, 100, 150)
            for n_k in (200, 400, 600, 800, 1000, 1500)
        },
    }

    def test_values_at_own_rows_from_the_system(self):
        # Every rung, direct or CG, knows its shift s_k = sizes[k] * ridges[k],
        # and y_k - s_k beta_k is its Gram evaluation at its own rows within
        # 1e-12 relative.
        rng = np.random.default_rng(226)
        ridges = [self.SHIFTS["rising"](n) for n in self.SIZES]
        ds, cfg, _, fits = _nested_case(rng, 3, self.SIZES, ridges)
        assert _planned(self.SIZES, ridges) == [30, 90, 1]
        for k, ridge, f in zip(self.SIZES, ridges, fits):
            assert f.shift == k * ridge
            want = RepresenterFunction(f.anchors, f.coefficients, cfg)(ds.x[:k])
            got = ds.y[:k] - f.shift * f.coefficients
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), k

    def test_plan(self):
        # Direct rungs are a smallest-first prefix, never of the largest size;
        # a lone rung, or rungs of one size, are all CG.
        for name, ((t1, n_k, m), direct) in self.LADDERS.items():
            sizes = np.array([t1 + k * n_k for k in range(1, m + 1)] + [2 * t1 + m * n_k])
            ridges = [schedule_lambda_source(int(n), LambdaSchedule(scale=0.1)) for n in sizes]
            assert _planned(sizes, ridges) == direct, name
        assert plan_direct([5], [1.0]).tolist() == [False]
        assert plan_direct([7, 7], [0.1, 10.0]).tolist() == [False, False]
        assert plan_direct([], []).tolist() == []

    @pytest.mark.parametrize("sizes", [(80,), (1,), (1, 2), (60, 1)])
    def test_single_and_one_row_rungs(self, sizes):
        rng = np.random.default_rng(221)
        ridges = [0.3 * n ** (-1.0 / 3.0) for n in sizes]
        case = _nested_case(rng, 3, sizes, ridges)
        _assert_rungs_match(*case[:3], sizes, ridges, case[3])

    def test_no_rungs(self):
        ds = Dataset(x=np.zeros((3, 1)), y=np.ones(3))
        assert fit_krr_nested(ds, [], [], KernelConfig()) == ()

    def test_validation(self):
        ds = Dataset(x=np.zeros((3, 1)), y=np.ones(3))
        for sizes, ridges in (((2,), (0.0,)), ((2, 3), (0.1,)), ((0,), (0.1,)), ((4,), (0.1,))):
            with pytest.raises(ValueError):
                fit_krr_nested(ds, sizes, ridges, KernelConfig())

    def test_failed_factorization_falls_back_to_fit_krr(self, monkeypatch):
        # Duplicated rows at a ridge far below roundoff: the shared factor
        # fails, and every rung is fit_krr on its rows, jitter retry included.
        rng = np.random.default_rng(222)
        x = rng.normal(size=(150, 2))
        ds = Dataset(x=np.concatenate([x, x]), y=rng.normal(size=300))
        sizes, cfg = (200, 300, 250), KernelConfig()
        calls = _spy_fit_krr(monkeypatch)
        fits = fit_krr_nested(ds, sizes, [1e-20] * 3, cfg)
        assert calls == list(sizes)
        for k, fit in zip(sizes, fits):
            want = fit_krr(Dataset(x=ds.x[:k], y=ds.y[:k]), 1e-20, cfg)
            assert np.array_equal(fit.coefficients, want.coefficients)
            assert np.array_equal(fit.anchors, want.anchors)

    def test_rungs_that_miss_the_cap_are_refit(self, monkeypatch):
        # The 1-row rung is planned direct. With the step cap cut to
        # ceil(sqrt(kappa)) CG steps, none of the three CG rungs converges, so
        # each is refit by fit_krr, in rung order, and still matches it.
        monkeypatch.setattr(krr, "_CG_CAP", 1)
        rng = np.random.default_rng(223)
        sizes = (300, 1, 400, 350)
        ridges = [self.SHIFTS["rising"](n) for n in sizes]
        assert _planned(sizes, ridges) == [1]
        calls = _spy_fit_krr(monkeypatch)
        case = _nested_case(rng, 2, sizes, ridges)
        assert calls == [300, 1, 400, 350]
        _assert_rungs_match(*case[:3], sizes, ridges, case[3])

    def test_direct_converged_and_refit_rungs_in_one_ladder(self, monkeypatch):
        # All three paths in one ladder. The 1-row rung is planned direct.
        # The CG rungs have shifts 0.25, 1 and 4, so c = 1 and, at the cut
        # cap of 2 steps, the 460-row rung (shift c, operator I) converges in
        # one step while the 420- and 512-row rungs miss and are refit. So
        # fit_krr sees the direct and the refit rungs, in rung order, and
        # never the converged one; every rung still matches fit_krr.
        monkeypatch.setattr(krr, "_CG_CAP", 1)
        rng = np.random.default_rng(225)
        sizes = (420, 1, 512, 460)
        ridges = [s / n for s, n in zip((0.25, 0.25, 4.0, 1.0), sizes)]
        assert _planned(sizes, ridges) == [1]
        calls = _spy_fit_krr(monkeypatch)
        case = _nested_case(rng, 2, sizes, ridges)
        assert calls == [420, 1, 512]
        _assert_rungs_match(*case[:3], sizes, ridges, case[3])


    def test_fig6_ladder_with_whole_target_rung_converges(self, monkeypatch):
        # SA's ladder at fig6 sizes with m = 10 (n0 = 600, 13 sources of 300
        # rows): T1, the sources, then T2, with rungs at T1 plus each source
        # count and one whole-target rung of 4500 rows. Every CG rung meets
        # the tolerance, so the only fit_krr calls are the planned direct
        # rungs, and the top rung is fit_krr on all rows within the 1e-12
        # relative bound.
        spec = SimSpec(example="ex2mod", s=0.25, m=10)
        target, sources, _, _ = gen_scenario(spec, seed=20260815)
        t1, t2 = target.split(300, 0)
        rows = [t1, *sources, t2]
        ds = Dataset(np.concatenate([d.x for d in rows]), np.concatenate([d.y for d in rows]))
        sizes = [300 + 300 * k for k in range(1, 14)] + [4500]
        sched, cfg = LambdaSchedule(scale=0.1), KernelConfig(bandwidth=0.1)
        ridges = [schedule_lambda_source(n, sched) for n in sizes]
        calls = _spy_fit_krr(monkeypatch)
        fits = fit_krr_nested(ds, sizes, ridges, cfg)
        assert calls == _planned(sizes, ridges) == [600, 900, 1200]
        x_test = np.random.default_rng(224).random((100, 3))
        want = fit_krr(ds, ridges[-1], cfg)(x_test)
        assert np.max(np.abs(fits[-1](x_test) - want)) <= 1e-12 * np.max(np.abs(want))


class TestSchedules:
    def test_source_oracle(self):
        # n^(-1/(2r+alpha)) = 1000^(-1/3) at r = alpha = 1
        sched = LambdaSchedule(r=1.0, alpha=1.0, scale=1.0)
        assert schedule_lambda_source(1000, sched) == pytest.approx(0.1, rel=1e-12)

    def test_debias_oracle(self):
        sched = LambdaSchedule(alpha=1.0, scale=1.0)
        assert schedule_lambda_debias(100, 1.0, sched) == pytest.approx(0.1, rel=1e-12)

    def test_scale_multiplies(self):
        a = schedule_lambda_source(500, LambdaSchedule(scale=1.0))
        b = schedule_lambda_source(500, LambdaSchedule(scale=2.5))
        assert b == pytest.approx(2.5 * a, rel=1e-12)

    def test_h_floor(self):
        sched = LambdaSchedule()
        floored = schedule_lambda_debias(100, 0.0, sched)
        assert floored == schedule_lambda_debias(100, H_FLOOR, sched)
        assert floored > schedule_lambda_debias(100, 1.0, sched)

    def test_decreasing_in_n(self):
        rng = np.random.default_rng(206)
        for _ in range(N_CASES):
            sched = LambdaSchedule(
                r=float(rng.uniform(0.5, 1.0)),
                alpha=float(rng.uniform(0.05, 1.0)),
                scale=float(rng.uniform(0.1, 3.0)),
            )
            n = int(rng.integers(2, 5000))
            m = n + int(rng.integers(1, 5000))
            assert schedule_lambda_source(m, sched) < schedule_lambda_source(n, sched)
            assert schedule_lambda_debias(m, 1.0, sched) < schedule_lambda_debias(
                n, 1.0, sched
            )

    def test_larger_offset_means_smaller_debias_ridge(self):
        sched = LambdaSchedule()
        assert schedule_lambda_debias(100, 2.0, sched) < schedule_lambda_debias(
            100, 0.5, sched
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            LambdaSchedule(r=0.4)
        with pytest.raises(ValueError):
            LambdaSchedule(alpha=0.0)
        with pytest.raises(ValueError):
            LambdaSchedule(scale=-1.0)
        with pytest.raises(ValueError):
            schedule_lambda_source(0, LambdaSchedule())
        with pytest.raises(ValueError):
            schedule_lambda_debias(10, -0.1, LambdaSchedule())
