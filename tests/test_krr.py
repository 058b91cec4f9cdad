import numpy as np
import pytest

from tkrr import kernels
from tkrr.kernels import Dataset, KernelConfig, gram_matrix, spd_solve
from tkrr.krr import (
    H_FLOOR,
    LambdaSchedule,
    fit_krr,
    schedule_lambda_debias,
    schedule_lambda_source,
)

N_CASES = 100


def random_dataset(rng, n_max=30, d_max=4):
    n = int(rng.integers(2, n_max))
    d = int(rng.integers(1, d_max))
    x = rng.normal(size=(n, d))
    y = rng.normal(size=n)
    return Dataset(x=x, y=y)


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
        assert np.array_equal(model.coefficients, spd_solve(a, ds.y))

    @pytest.mark.parametrize("n", [2, 65, 300, 700])
    def test_in_place_system_matches_explicit_matrix(self, n):
        # fit_krr builds and factors its system in one buffer; the sizes
        # cover LAPACK's unblocked and blocked Cholesky.
        rng = np.random.default_rng(206)
        ds = Dataset(x=rng.normal(size=(n, 3)), y=rng.normal(size=n))
        cfg = KernelConfig(bandwidth=1.7)
        a = gram_matrix(cfg, ds.x) + n * 0.01 * np.eye(n)
        assert np.array_equal(fit_krr(ds, 0.01, cfg).coefficients, spd_solve(a, ds.y))

    def test_jitter_retry_in_place_matches_explicit_matrix(self, monkeypatch):
        # 150 distinct rows, then the same rows again, at a ridge far below
        # roundoff: the first factorization fails at row 151, after writing
        # 150 columns of the factor over the system, and the retry succeeds.
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
        assert np.array_equal(coef, spd_solve(a, ds.y))

    def test_bad_ridge(self):
        ds = Dataset(x=np.zeros((2, 1)), y=np.ones(2))
        with pytest.raises(ValueError):
            fit_krr(ds, 0.0, KernelConfig())


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
