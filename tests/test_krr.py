import importlib.util
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import lapack

from tkrr import aggregate, harness, kernels, krr
from tkrr.kernels import Dataset, KernelConfig, RepresenterFunction, TooFewRowsError, gram_matrix
from tkrr.krr import (
    H_FLOOR,
    LambdaSchedule,
    fit_krr,
    fit_krr_nested,
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


def _dense_route(cfg, x, y, shift):
    # The dense route on its own: one packed system, factored once.
    return RepresenterFunction(x, kernels.spd_solve(kernels.ridge_system(cfg, x, shift), y), cfg)


class TestLowRankRoute:
    def test_size_threshold_and_cap(self, monkeypatch):
        # No ladder below 768 rows; from 768 on, fit_krr is a one-rung ladder
        # of at most n // 32 pivots, and these ex1 Grams certify within it.
        assert (krr._LOW_RANK_ROWS, krr._PIVOT_SHARE) == (768, 32)
        ladders = _spy_ladder(monkeypatch)
        solves = _spy(monkeypatch, krr, "spd_solve")
        for n in (767, 768, 1000):
            fit_krr(*_ex1_like(n, 240))
        assert [(sizes, solved.tolist(), steps.tolist()) for sizes, _, solved, steps, _ in ladders] == [
            ([768], [True], [0]),
            ([1000], [True], [0]),
        ]
        assert all(23 <= r <= 24 for *_, r in ladders)
        assert [len(b) for _, b in solves] == [767]

    @pytest.mark.parametrize("n", [800, 1700, 4500])
    def test_matches_dense_route_within_certified_bound(self, monkeypatch, n):
        # fit_krr's ladder certifies, solving (G G' + s I) beta = y; the dense
        # route solves (K + s I) beta = y. Each is within n tau / s of the
        # exact solution for K, relative, so they are within twice that of
        # each other, and so are their predictions.
        ds, ridge, cfg = _ex1_like(n, 241)
        solves = _spy(monkeypatch, krr, "spd_solve")
        ladders = _spy_ladder(monkeypatch)
        f = fit_krr(ds, ridge, cfg)
        assert solves == [] and f.shift == n * ridge
        assert ladders[0][2].tolist() == [True] and ladders[0][3].tolist() == [0]
        dense = _dense_route(cfg, ds.x, ds.y, n * ridge).coefficients
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

    def test_certified_fit_assembles_no_panels(self, monkeypatch):
        # known-ex1's pooled fit of 1,700 rows: the pivots certify the Gram,
        # so the ladder exits before it assembles the Gram's panels.
        panels = _spy(monkeypatch, krr, "_gram_panels")
        ladders = _spy_ladder(monkeypatch)
        fit_krr(*_ex1_like(1700, 243))
        assert panels == [] and ladders[0][2].tolist() == [True] and ladders[0][4] in (23, 24)

    def test_high_rank_fit_is_a_pcg_rung(self, monkeypatch):
        # A 2,000-row pooled set of the ex2mod design (unknown-ex2mod's
        # target and its first eight sources, in index order), the shape of
        # SA's partial-set refits: the pivots run to the n // 32 cap without
        # certifying, and PCG solves the exact system, with no packed system
        # and no factor, within 1e-12 relative of the dense route.
        target, sources, _, _ = gen_scenario(SimSpec("ex2mod", s=0.25, m=10, n0=400, n_k=200), seed=244)
        rows = [target, *sources[:8]]
        ds = Dataset(np.concatenate([d.x for d in rows]), np.concatenate([d.y for d in rows]))
        cfg, ridge = KernelConfig(bandwidth=0.1), schedule_lambda_source(2000, LambdaSchedule(scale=0.1))
        factors = _spy(monkeypatch, kernels, "cho_factor")
        solves = _spy(monkeypatch, krr, "spd_solve")
        ladders = _spy_ladder(monkeypatch)
        f = fit_krr(ds, ridge, cfg)
        assert factors == solves == []
        ((sizes, _, solved, steps, r),) = ladders
        assert sizes == [2000] and solved.tolist() == [True] and steps[0] > 0 and r == 2000 // 32
        assert f.shift == 2000 * ridge
        want = _dense_route(cfg, ds.x, ds.y, f.shift)
        assert np.linalg.norm(f.coefficients - want.coefficients) <= 1e-12 * np.linalg.norm(want.coefficients)
        x_test = np.random.default_rng(245).random((100, 3))
        assert np.max(np.abs(f(x_test) - want(x_test))) <= 1e-12 * np.max(np.abs(want(x_test)))

    def test_duplicate_rows_at_a_tiny_shift_take_the_dense_route(self, monkeypatch):
        # 400 rows twice at a ridge far below roundoff (s = 8e-15): the pivots
        # reach the Gram's rounding, but the certificate also asks for
        # 1e-14 s, so the rung runs PCG, misses, and is refit densely, where
        # the factor fails and the retry adds jitter. The fit is the dense
        # route's bit for bit and its shift carries the jitter.
        rng = np.random.default_rng(242)
        x = np.concatenate([rng.random((400, 1))] * 2)
        ds = Dataset(x, np.sin(6.0 * x[:, 0]) + rng.normal(0.0, 0.1, 800))
        cfg, ridge = KernelConfig(), 1e-17
        factors = _spy(monkeypatch, kernels, "cho_factor")
        ladders = _spy_ladder(monkeypatch)
        f = fit_krr(ds, ridge, cfg)
        assert ladders[0][2].tolist() == [False] and len(factors) == 2
        build = lambda a=None: kernels.ridge_system(cfg, ds.x, 800 * ridge, a)
        assert np.array_equal(f.coefficients, kernels.spd_solve(build(), ds.y, refill=build))
        s = 800 * ridge
        assert abs(f.shift - (s + 1e-10 * (1.0 + s))) <= 1e-24


def _load_workloads():
    # perfbench/workloads.py, which writes the benchmark's configs and studies.
    if "workloads" not in sys.modules:
        path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("workloads", path)
        sys.modules["workloads"] = module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return sys.modules["workloads"]


class TestShippedRoutes:
    # Per sweep value, how many fits of each row count take each route in
    # one replication: "dense" (fit_krr below 768 rows), "certified" (a
    # one-rung ladder whose 23 or 24 pivots certify the Gram, with no panels
    # and no PCG step) or "pcg" (a one-rung ladder that runs to n // 32
    # pivots, then PCG). A rung that failed would be refit densely; no
    # shipped fit's does. The candidate ladders of fit_krr_nested are not
    # counted here (TestFitKrrNested::test_pivots_and_steps pins them).
    # Each entry is (replication, routes); the workloads are built at seed
    # 101. Replication 2 of csv-studies is a cell where SA refits a partial
    # source set (T1 with three of the four sources, 1,050 rows, pooled in
    # index order), so its route is pinned too.
    EX1 = {(200, "dense"): 2, (1700, "certified"): 1}
    CSV = {(75, "dense"): 5, (150, "dense"): 3, (300, "dense"): 4}
    ROUTES = {
        "fig3": (0, dict.fromkeys((0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45), EX1)),
        "fig4": (0, {
            0: {(200, "dense"): 3},
            2: {(200, "dense"): 2, (500, "dense"): 1},
            **{a_h: {(200, "dense"): 2, (200 + 150 * a_h, "certified"): 1} for a_h in (4, 6, 8, 10)},
        }),
        "fig5": (0, {
            200: EX1,
            1000: {(1000, "certified"): 2, (2500, "certified"): 1},
            3000: {(3000, "certified"): 2, (4500, "certified"): 1},
        }),
        "fig6": (0, {
            0: {(300, "dense"): 7, (600, "dense"): 3},
            5: {(300, "dense"): 17, (600, "dense"): 3},
            10: {(300, "dense"): 27, (600, "dense"): 3},
        }),
        "known-ex1": (0, {0.05: EX1, 0.45: EX1}),
        "unknown-ex2mod": (0, {10: {(200, "dense"): 27, (400, "dense"): 3}}),
        "csv-studies": (0, {300: CSV}),
        "csv-studies replication 2": (2, {300: {**CSV, (150, "dense"): 4, (750, "dense"): 1, (1050, "pcg"): 1}}),
    }

    @staticmethod
    def routes(monkeypatch, cfg, v_index, replication):
        # (rows, route, pivots taken) of every fit_krr fit in the cell.
        out, nested = [], []
        real_ladder, real_dense, real_nested = krr._ladder, krr._dense, aggregate.fit_krr_nested

        def ladder(cfg, x, y, sizes, shifts):
            beta, solved, steps, r = real_ladder(cfg, x, y, sizes, shifts)
            if not nested:
                route = "failed" if not solved[0] else "pcg" if steps[0] else "certified"
                out.append([len(y), route, r])
            return beta, solved, steps, r

        def dense(cfg, x, y, s):
            if not nested:
                out.append([len(y), "dense", 0])
            return real_dense(cfg, x, y, s)

        def fit_nested(*a):
            nested.append(1)
            try:
                return real_nested(*a)
            finally:
                nested.pop()

        monkeypatch.setattr(krr, "_ladder", ladder)
        monkeypatch.setattr(krr, "_dense", dense)
        monkeypatch.setattr(aggregate, "fit_krr_nested", fit_nested)
        harness._run_cell(cfg, v_index, replication)
        monkeypatch.undo()
        return out

    @pytest.mark.parametrize("name", list(ROUTES))
    def test_routes(self, name, monkeypatch, tmp_path):
        config = name.split()[0]
        if config.startswith("fig"):
            cfg = harness.config_from_json(f"{Path(__file__).resolve().parents[1]}/configs/{config}.json")
        else:
            cfg = harness.config_from_json(_load_workloads().build(config, 101, tmp_path).config_path)
        replication, routes = self.ROUTES[name]
        assert cfg.sweep_values == tuple(routes)
        for v_index, (value, want) in enumerate(routes.items()):
            got = self.routes(monkeypatch, cfg, v_index, replication)
            assert Counter((n, route) for n, route, _ in got) == want, value
            for n, route, pivots in got:
                if route == "certified":
                    assert pivots in (23, 24), (value, n)
                elif route == "pcg":
                    assert pivots == n // krr._PIVOT_SHARE, (value, n)


def _spy_dense(monkeypatch):
    # Record the row count of every dense-route fit that krr makes.
    calls = []
    real = krr._dense
    monkeypatch.setattr(krr, "_dense", lambda cfg, x, *a: calls.append(len(x)) or real(cfg, x, *a))
    return calls


def _spy_ladder(monkeypatch):
    # Record each krr._ladder call's rung sizes and its result: the rows
    # beta_k, which rungs converged, their PCG steps and the pivots taken.
    calls = []
    real = krr._ladder

    def ladder(cfg, x, y, sizes, shifts):
        out = real(cfg, x, y, sizes, shifts)
        calls.append((sizes.tolist(), *out))
        return out

    monkeypatch.setattr(krr, "_ladder", ladder)
    return calls


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


def _used_car_like():
    # The used-car configs' ladder shape (n0 = 500, so |T1| = 250, and 8
    # sources of n_ah = 500 rows) on the synthetic ex2 design, the stand-in
    # ROADMAP's used-car probe uses: the CSVs are not in the repository.
    return harness.ExperimentConfig(
        SimSpec("ex2", s=0.1, m=8, n0=500, n_k=500),
        ("KRR", "Pooled_TKRR", "SA_TKRR", "AEW_TKRR"),
        "m",
        (8,),
        replications=1,
        seed=20260815,
        schedules=LambdaSchedule(scale=0.1),
        kernel=KernelConfig(bandwidth=0.5),
    )


def _shipped_ladder(name, monkeypatch, tmp_path):
    # Replication 0 of the cell whose SA ladder is the shipped shape name:
    # fit_krr_nested's (data, sizes, ridges, cfg) and fits, and _ladder's
    # record (_spy_ladder). Each such cell fits one ladder.
    config, v_index = {
        "fig6 m=0": ("fig6", 0),
        "fig6 m=5": ("fig6", 1),
        "fig6 m=10": ("fig6", 2),
        "unknown-ex2mod": ("unknown-ex2mod", 0),
        "csv-studies": ("csv-studies", 0),
        "used-car": (None, 0),
    }[name]
    if config is None:
        cfg = _used_car_like()
    elif config.startswith("fig"):
        cfg = harness.config_from_json(f"{Path(__file__).resolve().parents[1]}/configs/{config}.json")
    else:
        cfg = harness.config_from_json(_load_workloads().build(config, 101, tmp_path).config_path)
    nested, real = [], aggregate.fit_krr_nested
    monkeypatch.setattr(aggregate, "fit_krr_nested", lambda *a: nested.append((*a, real(*a))) or nested[-1][-1])
    ladders = _spy_ladder(monkeypatch)
    harness._run_cell(cfg, v_index, 0)
    monkeypatch.undo()
    (call,), (ladder,) = nested, ladders
    return call, ladder


class TestFitKrrNested:
    # Rung sizes in no order, a 1-row rung among them.
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
        # Every rung converges, so no rung is refit densely.
        rng = np.random.default_rng(220)
        ridges = [self.SHIFTS[shifts](n) for n in self.SIZES]
        calls = _spy_dense(monkeypatch)
        case = _nested_case(rng, d, self.SIZES, ridges)
        assert calls == []
        _assert_rungs_match(*case[:3], self.SIZES, ridges, case[3])

    # SA's ladder in replication 0 of each shipped shape: the pivots the
    # preconditioner takes, n // 32 on every one, and each rung's PCG steps,
    # in rung order (|T1| + n_k, |T1| + 2 n_k, ..., then the whole target's
    # 2 |T1| + m n_k rows). No rung is refit densely. The wine ladders
    # (two rungs) have no data in the repository.
    LADDERS = {
        "fig6 m=0": ((600, 900, 1200, 1500), 46, [15, 16, 16, 17]),
        "fig6 m=5": ((600, 900, 1200, 1500, 1800, 2100, 2400, 2700, 3000), 93, [10, 10, 10, 11, 11, 11, 11, 11, 11]),
        "fig6 m=10": ((*range(600, 4201, 300), 4500), 140, [8] * 11 + [9] * 3),
        "unknown-ex2mod": ((*range(400, 2801, 200), 3000), 93, [10] * 3 + [11] * 11),
        "csv-studies": ((375, 675, 975, 1275, 1350), 42, [10, 11, 11, 12, 12]),
        "used-car": ((*range(750, 4251, 500), 4500), 140, [3] * 9),
    }

    @pytest.mark.parametrize("name", list(LADDERS))
    def test_pivots_and_steps(self, name, monkeypatch, tmp_path):
        sizes, rank, steps = self.LADDERS[name]
        (_, got_sizes, *_), (ladder_sizes, _, solved, got_steps, got_rank) = _shipped_ladder(name, monkeypatch, tmp_path)
        assert tuple(got_sizes) == tuple(ladder_sizes) == sizes
        assert (got_rank, got_steps.tolist()) == (rank, steps)
        assert got_rank == max(sizes) // krr._PIVOT_SHARE
        assert solved.all()

    @pytest.mark.parametrize("name", ["fig6 m=10", "csv-studies"])
    def test_shipped_ladders_match_dense_fits(self, name, monkeypatch, tmp_path):
        # Every rung predicts within 1e-12 relative of the dense route on its
        # rows, and its true residual
        # ||y_k - (K_k + s_k I) beta_k|| / ||y_k||, from a dense Gram rather
        # than the PCG recursion, is at most 1e-13.
        (data, sizes, ridges, cfg, fits), _ = _shipped_ladder(name, monkeypatch, tmp_path)
        k_full = gram_matrix(cfg, data.x[: max(sizes)])
        x_test = np.random.default_rng(227).random((100, data.d))
        for k, ridge, fit in zip(sizes, ridges, fits):
            y = data.y[:k]
            resid = y - k_full[:k, :k] @ fit.coefficients - k * ridge * fit.coefficients
            assert np.linalg.norm(resid) <= 1e-13 * np.linalg.norm(y), k
            want = _dense_route(cfg, data.x[:k], y, k * ridge)(x_test)
            assert np.max(np.abs(fit(x_test) - want)) <= 1e-12 * np.max(np.abs(want)), k

    def test_no_factor_or_spd_solve_when_every_rung_converges(self, monkeypatch):
        rng = np.random.default_rng(228)
        sizes = (300, 700, 500, 900)
        ridges = [self.SHIFTS["rising"](n) for n in sizes]
        factors = _spy(monkeypatch, kernels, "cho_factor")
        solves = _spy(monkeypatch, krr, "spd_solve")
        ladders = _spy_ladder(monkeypatch)
        _nested_case(rng, 3, sizes, ridges)
        assert factors == solves == []
        assert ladders[0][2].all()

    def test_values_at_own_rows_from_the_system(self):
        # Every rung knows its shift s_k = sizes[k] * ridges[k], and
        # y_k - s_k beta_k is its Gram evaluation at its own rows within
        # 1e-12 relative.
        rng = np.random.default_rng(226)
        ridges = [self.SHIFTS["rising"](n) for n in self.SIZES]
        ds, cfg, _, fits = _nested_case(rng, 3, self.SIZES, ridges)
        for k, ridge, f in zip(self.SIZES, ridges, fits):
            assert f.shift == k * ridge
            want = RepresenterFunction(f.anchors, f.coefficients, cfg)(ds.x[:k])
            got = ds.y[:k] - f.shift * f.coefficients
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), k

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

    def test_unconverged_ladder_falls_back_to_fit_krr(self, monkeypatch):
        # Duplicated rows at a ridge far below roundoff: no rung's PCG
        # converges within its n steps, and every rung is refit by the dense
        # route on its rows, jitter retry included: below 768 rows, fit_krr
        # on its rows bit for bit.
        rng = np.random.default_rng(222)
        x = rng.normal(size=(150, 2))
        ds = Dataset(x=np.concatenate([x, x]), y=rng.normal(size=300))
        sizes, cfg = (200, 300, 250), KernelConfig()
        calls = _spy_dense(monkeypatch)
        ladders = _spy_ladder(monkeypatch)
        fits = fit_krr_nested(ds, sizes, [1e-20] * 3, cfg)
        assert not ladders[0][2].any()
        assert calls == list(sizes)
        for k, fit in zip(sizes, fits):
            want = fit_krr(Dataset(x=ds.x[:k], y=ds.y[:k]), 1e-20, cfg)
            assert np.array_equal(fit.coefficients, want.coefficients)
            assert np.array_equal(fit.anchors, want.anchors)
            assert fit.shift == want.shift > k * 1e-20

    def test_rungs_that_miss_the_cap_are_refit(self, monkeypatch):
        # With the step cap cut to one step, the 1-row rung converges (its
        # Krylov space has one dimension) and the others miss the tolerance:
        # the dense route refits each of them, in rung order, and never the
        # converged rung; every rung still matches fit_krr.
        monkeypatch.setattr(krr, "_CG_CAP", 1e-9)
        rng = np.random.default_rng(223)
        sizes = (300, 1, 400, 350)
        ridges = [self.SHIFTS["rising"](n) for n in sizes]
        calls = _spy_dense(monkeypatch)
        ladders = _spy_ladder(monkeypatch)
        case = _nested_case(rng, 2, sizes, ridges)
        assert ladders[0][2].tolist() == [False, True, False, False]
        assert ladders[0][3].tolist() == [1, 1, 1, 1]
        assert calls == [300, 400, 350]
        _assert_rungs_match(*case[:3], sizes, ridges, case[3])

    def test_direct_converged_and_refit_rungs_in_one_ladder(self, monkeypatch):
        # Rungs solved directly, by PCG, and refit, in one ladder. The 1-row
        # rung's PCG is a direct solve: one step. The others have shifts
        # 0.25, 4 and 1; at the full cap their PCG takes 30, 15 and 22
        # steps. With the cap cut to 1.3 sqrt(kappa), 18 steps, the 512-row
        # rung (the largest shift) converges while the 420- and 460-row
        # rungs miss and are refit. So the dense route sees the refit rungs,
        # in rung order, and never a converged one; every rung still matches
        # fit_krr.
        monkeypatch.setattr(krr, "_CG_CAP", 1.3)
        rng = np.random.default_rng(225)
        sizes = (420, 1, 512, 460)
        ridges = [s / n for s, n in zip((0.25, 0.25, 4.0, 1.0), sizes)]
        calls = _spy_dense(monkeypatch)
        ladders = _spy_ladder(monkeypatch)
        case = _nested_case(rng, 2, sizes, ridges)
        assert ladders[0][2].tolist() == [False, True, True, False]
        assert ladders[0][3].tolist() == [18, 1, 15, 18]
        assert calls == [420, 460]
        _assert_rungs_match(*case[:3], sizes, ridges, case[3])

    def test_fig6_ladder_with_whole_target_rung_converges(self, monkeypatch):
        # SA's ladder at fig6 sizes with m = 10 (n0 = 600, 13 sources of 300
        # rows): T1, the sources, then T2, with rungs at T1 plus each source
        # count and one whole-target rung of 4500 rows. Every rung converges,
        # so none is refit, and the top rung is the dense route on all rows
        # within the 1e-12 relative bound.
        spec = SimSpec(example="ex2mod", s=0.25, m=10)
        target, sources, _, _ = gen_scenario(spec, seed=20260815)
        t1, t2 = target.split(300, 0)
        rows = [t1, *sources, t2]
        ds = Dataset(np.concatenate([d.x for d in rows]), np.concatenate([d.y for d in rows]))
        sizes = [300 + 300 * k for k in range(1, 14)] + [4500]
        sched, cfg = LambdaSchedule(scale=0.1), KernelConfig(bandwidth=0.1)
        ridges = [schedule_lambda_source(n, sched) for n in sizes]
        calls = _spy_dense(monkeypatch)
        fits = fit_krr_nested(ds, sizes, ridges, cfg)
        assert calls == []
        x_test = np.random.default_rng(224).random((100, 3))
        want = _dense_route(cfg, ds.x, ds.y, 4500 * ridges[-1])(x_test)
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
