import numpy as np
import pytest

from tkrr.kernels import Dataset, KernelConfig, gram_matrix
from tkrr.krr import fit_krr
from tkrr.transfer import (
    SourceCollection,
    fit_ah_tkrr,
    fit_debias,
    fit_pooled,
)

N_CASES = 100


def _dataset(rng, n, d):
    return Dataset(x=rng.random((n, d)), y=rng.normal(size=n))


def random_problem(rng, m_max=4, n_max=15):
    d = int(rng.integers(1, 3))
    target = _dataset(rng, int(rng.integers(4, n_max)), d)
    m = int(rng.integers(1, m_max + 1))
    sources = tuple(_dataset(rng, int(rng.integers(3, n_max)), d) for _ in range(m))
    return target, sources


class TestSourceCollection:
    def test_valid(self):
        rng = np.random.default_rng(300)
        s = tuple(_dataset(rng, 5, 2) for _ in range(3))
        coll = SourceCollection(sources=s, transferable=(3, 1))
        assert len(coll.sources) == 3
        assert coll.n_transferable == 10

    def test_index_out_of_range(self):
        rng = np.random.default_rng(301)
        s = (_dataset(rng, 4, 1),)
        with pytest.raises(ValueError):
            SourceCollection(sources=s, transferable=(2,))
        with pytest.raises(ValueError):
            SourceCollection(sources=s, transferable=(0,))

    def test_duplicate_indices(self):
        rng = np.random.default_rng(302)
        s = tuple(_dataset(rng, 4, 1) for _ in range(2))
        with pytest.raises(ValueError):
            SourceCollection(sources=s, transferable=(1, 1))

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(303)
        with pytest.raises(ValueError):
            SourceCollection(
                sources=(_dataset(rng, 4, 1), _dataset(rng, 4, 2)), transferable=(1,)
            )


class TestPooledFit:
    def test_concatenates_in_transferable_order(self):
        rng = np.random.default_rng(304)
        target = _dataset(rng, 5, 1)
        s = tuple(_dataset(rng, 3, 1) for _ in range(2))
        coll = SourceCollection(sources=s, transferable=(2, 1))
        model = fit_pooled(target, coll, 0.1, KernelConfig())
        expect = np.concatenate([target.x, s[1].x, s[0].x])
        assert np.array_equal(model.anchors, expect)
        assert model.anchors.shape[0] == 11

    def test_degenerate_equals_plain_krr(self):
        rng = np.random.default_rng(305)
        for _ in range(N_CASES):
            target, sources = random_problem(rng)
            coll = SourceCollection(sources=sources, transferable=())
            cfg = KernelConfig(bandwidth=0.7)
            pooled = fit_pooled(target, coll, 0.2, cfg)
            plain = fit_krr(target, 0.2, cfg)
            assert np.array_equal(
                pooled.coefficients, plain.coefficients
            )

    def test_pooled_stationarity(self):
        rng = np.random.default_rng(306)
        for _ in range(N_CASES):
            target, sources = random_problem(rng)
            coll = SourceCollection(
                sources=sources, transferable=tuple(range(1, len(sources) + 1))
            )
            cfg = KernelConfig(bandwidth=0.7)
            lam = float(rng.uniform(0.02, 0.5))
            model = fit_pooled(target, coll, lam, cfg)
            x = model.anchors
            y = np.concatenate([target.y] + [s.y for s in sources])
            a = gram_matrix(cfg, x) + x.shape[0] * lam * np.eye(x.shape[0])
            resid = np.max(np.abs(a @ model.coefficients - y))
            assert resid <= 1e-8 * (1.0 + np.max(np.abs(y)))


class TestTwoStep:
    def test_debias_fits_residuals(self):
        rng = np.random.default_rng(307)
        target, sources = random_problem(rng)
        cfg = KernelConfig(bandwidth=0.7)
        coll = SourceCollection(sources=sources, transferable=(1,))
        pooled = fit_pooled(target, coll, 0.1, cfg)
        debias = fit_debias(target, pooled, 0.05, cfg)
        w = target.y - pooled(target.x)
        expect = fit_krr(Dataset(x=target.x, y=w), 0.05, cfg)
        assert np.array_equal(
            debias.coefficients, expect.coefficients
        )

    def test_additivity_exact(self):
        rng = np.random.default_rng(308)
        for _ in range(N_CASES):
            target, sources = random_problem(rng)
            cfg = KernelConfig(bandwidth=0.7)
            coll = SourceCollection(
                sources=sources, transferable=tuple(range(1, len(sources) + 1))
            )
            model = fit_ah_tkrr(target, coll, 0.1, 0.05, cfg)
            xq = rng.random((7, target.d))
            pooled, debias = model.parts
            lhs = model(xq)
            rhs = pooled(xq) + debias(xq)
            assert np.array_equal(lhs, rhs)

    def test_source_order_invariance(self):
        rng = np.random.default_rng(309)
        for _ in range(N_CASES):
            target, sources = random_problem(rng, m_max=4)
            m = len(sources)
            cfg = KernelConfig(bandwidth=0.7)
            idx = tuple(range(1, m + 1))
            perm = tuple(int(i) for i in rng.permutation(np.arange(1, m + 1)))
            xq = rng.random((6, target.d))
            p1 = fit_ah_tkrr(target, SourceCollection(sources, idx), 0.1, 0.05, cfg)(xq)
            p2 = fit_ah_tkrr(target, SourceCollection(sources, perm), 0.1, 0.05, cfg)(xq)
            assert np.max(np.abs(p1 - p2)) <= 1e-12

    def test_records_ridges(self):
        # Each step is the fit at its own ridge, bit for bit: the debias step
        # fits the pooled fit's residuals at the target's rows, its leading
        # rows, read from its own system. They are the evaluated residuals
        # within 1e-12 relative, so the debias step predicts as a fit of
        # those does within the same bound.
        rng = np.random.default_rng(310)
        target, sources = random_problem(rng)
        coll = SourceCollection(sources=sources, transferable=(1,))
        cfg = KernelConfig()
        model = fit_ah_tkrr(target, coll, 0.3, 0.07, cfg)
        pooled, debias = model.parts
        assert model.weights.tolist() == [1.0, 1.0]
        assert np.array_equal(pooled.coefficients, fit_pooled(target, coll, 0.3, cfg).coefficients)
        assert np.array_equal(
            debias.coefficients, fit_debias(target, pooled, 0.07, cfg, slice(0, target.n)).coefficients
        )
        assert np.array_equal(debias.anchors, target.x)
        evaluated = fit_debias(target, pooled, 0.07, cfg)
        xq = rng.random((9, target.d))
        want = evaluated(xq)
        assert np.max(np.abs(debias(xq) - want)) <= 1e-12 * np.max(np.abs(want))


class TestNoDebiasVariant:
    # The no-debias ablation is the pooled step alone; the harness returns
    # the pooled fit for it (see test_harness.TestSharedStages).
    def test_prediction_equals_pooled(self):
        rng = np.random.default_rng(312)
        for _ in range(N_CASES):
            target, sources = random_problem(rng)
            cfg = KernelConfig(bandwidth=0.7)
            coll = SourceCollection(
                sources=sources, transferable=tuple(range(1, len(sources) + 1))
            )
            model = fit_ah_tkrr(target, coll, 0.1, 0.05, cfg)
            pooled = fit_pooled(target, coll, 0.1, cfg)
            xq = rng.random((5, target.d))
            assert np.array_equal(model.parts[0](xq), pooled(xq))
