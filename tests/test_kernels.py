import numpy as np
import pytest
from scipy.spatial.distance import cdist

from tkrr.kernels import (
    Dataset,
    KernelConfig,
    RepresenterFunction,
    SpdSolveError,
    gram_matrix,
    kernel_eval,
    rkhs_norm_diff,
    spd_solve,
)

N_CASES = 100


def random_function(rng, cfg, d, n_max=12):
    n = int(rng.integers(1, n_max))
    return RepresenterFunction(
        anchors=rng.normal(size=(n, d)),
        coefficients=rng.normal(size=n),
        kernel=cfg,
    )


class TestKernelEval:
    def test_unit_distance(self):
        cfg = KernelConfig(bandwidth=1.0)
        assert kernel_eval(cfg, [0.0], [1.0]) == pytest.approx(np.exp(-1.0), abs=1e-15)

    def test_same_point_is_one(self):
        cfg = KernelConfig(bandwidth=0.3)
        assert kernel_eval(cfg, [0.4, -2.0], [0.4, -2.0]) == 1.0

    def test_bandwidth_scales_exponent(self):
        cfg = KernelConfig(bandwidth=4.0)
        assert kernel_eval(cfg, [0.0], [1.0]) == pytest.approx(np.exp(-0.25), abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            kernel_eval(KernelConfig(), [0.0], [0.0, 1.0])

    def test_bad_config(self):
        with pytest.raises(ValueError):
            KernelConfig(bandwidth=0.0)
        with pytest.raises(ValueError):
            KernelConfig(family="laplace")


class TestGramMatrix:
    def test_small_oracle(self):
        cfg = KernelConfig(bandwidth=2.0)
        k = gram_matrix(cfg, np.array([[0.0], [1.0]]))
        expect = np.array([[1.0, np.exp(-0.5)], [np.exp(-0.5), 1.0]])
        np.testing.assert_allclose(k, expect, atol=1e-15)

    def test_symmetry_unit_diag_psd(self):
        rng = np.random.default_rng(101)
        for _ in range(N_CASES):
            n = int(rng.integers(2, 25))
            d = int(rng.integers(1, 6))
            cfg = KernelConfig(bandwidth=float(np.exp(rng.uniform(-3, 1.5))))
            x = rng.normal(size=(n, d))
            k = gram_matrix(cfg, x)
            assert np.array_equal(k, k.T)
            assert np.all(np.diag(k) == 1.0)
            assert np.linalg.eigvalsh(k).min() >= -1e-10

    def test_cross_matches_pointwise(self):
        rng = np.random.default_rng(102)
        for _ in range(N_CASES):
            d = int(rng.integers(1, 4))
            cfg = KernelConfig(bandwidth=float(rng.uniform(0.2, 3.0)))
            a = rng.normal(size=(3, d))
            b = rng.normal(size=(4, d))
            k = gram_matrix(cfg, a, b)
            i = int(rng.integers(0, 3))
            j = int(rng.integers(0, 4))
            assert k[i, j] == pytest.approx(kernel_eval(cfg, a[i], b[j]), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            gram_matrix(KernelConfig(), np.zeros((2, 2)), np.zeros((2, 3)))

    @pytest.mark.parametrize("d", [1, 10])
    def test_equals_exp_of_cdist_bitwise(self, d):
        rng = np.random.default_rng(104)
        cfg = KernelConfig(bandwidth=0.7)
        x, x2 = rng.normal(size=(57, d)), rng.normal(size=(23, d))
        for other in (None, x2):
            expect = np.exp(-cdist(x, x if other is None else other, "sqeuclidean") / 0.7)
            assert np.array_equal(gram_matrix(cfg, x, other), expect)


class TestSpdSolve:
    def test_closed_form_oracle(self):
        # [[2, a], [a, 2]] has inverse [[2, -a], [-a, 2]] / (4 - a^2)
        a = np.exp(-1.0)
        mat = np.array([[2.0, a], [a, 2.0]])
        expect = np.array([2.0, -a]) / (4.0 - a * a)
        np.testing.assert_allclose(spd_solve(mat, [1.0, 0.0]), expect, atol=1e-12)

    def test_residual_bound(self):
        rng = np.random.default_rng(103)
        for _ in range(N_CASES):
            n = int(rng.integers(2, 30))
            x = rng.normal(size=(n, int(rng.integers(1, 4))))
            cfg = KernelConfig(bandwidth=float(rng.uniform(0.3, 3.0)))
            mat = gram_matrix(cfg, x) + float(rng.uniform(1e-6, 0.5)) * np.eye(n)
            b = rng.normal(size=n)
            z = spd_solve(mat, b)
            resid = np.max(np.abs(mat @ z - b))
            assert resid <= 1e-8 * (1.0 + np.max(np.abs(b)))

    def test_jitter_rescues_semidefinite(self):
        mat = np.array([[1.0, 1.0], [1.0, 1.0]])
        z = spd_solve(mat, np.array([1.0, 1.0]))
        assert np.all(np.isfinite(z))

    def test_indefinite_raises_with_jitter(self):
        mat = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(SpdSolveError) as err:
            spd_solve(mat, np.array([1.0, 0.0]))
        assert err.value.jitter > 0

    @pytest.mark.parametrize("semidefinite", [False, True])
    def test_leaves_input_unchanged(self, semidefinite):
        # The jitter path is taken when the rows repeat at a tiny ridge.
        x = np.random.default_rng(105).normal(size=(40, 2))
        mat = gram_matrix(KernelConfig(), np.concatenate([x, x]) if semidefinite else x)
        mat += (1e-20 if semidefinite else 0.1) * np.eye(mat.shape[0])
        before = mat.copy()
        assert np.all(np.isfinite(spd_solve(mat, np.ones(mat.shape[0]))))
        assert np.array_equal(mat, before)

    def test_shape_errors(self):
        with pytest.raises(ValueError):
            spd_solve(np.zeros((2, 3)), np.zeros(2))
        with pytest.raises(ValueError):
            spd_solve(np.eye(2), np.zeros(3))


class TestRkhsNormDiff:
    def test_identical_functions_zero(self):
        cfg = KernelConfig()
        f = RepresenterFunction(np.array([[0.0], [1.0]]), np.array([1.0, -2.0]), cfg)
        assert rkhs_norm_diff(f, f) == 0.0

    def test_single_anchor_oracle(self):
        # ||K_0 - K_1||^2 = K(0,0) - 2 K(0,1) + K(1,1) = 2 - 2/e
        cfg = KernelConfig(bandwidth=1.0)
        f = RepresenterFunction(np.array([[0.0]]), np.array([1.0]), cfg)
        g = RepresenterFunction(np.array([[1.0]]), np.array([1.0]), cfg)
        assert rkhs_norm_diff(f, g) == pytest.approx(
            np.sqrt(2.0 - 2.0 * np.exp(-1.0)), abs=1e-14
        )

    def test_symmetry(self):
        rng = np.random.default_rng(104)
        cfg = KernelConfig(bandwidth=0.8)
        for _ in range(N_CASES):
            d = int(rng.integers(1, 4))
            f = random_function(rng, cfg, d)
            g = random_function(rng, cfg, d)
            assert abs(rkhs_norm_diff(f, g) - rkhs_norm_diff(g, f)) <= 1e-8

    def test_triangle_inequality(self):
        rng = np.random.default_rng(105)
        cfg = KernelConfig(bandwidth=1.2)
        for _ in range(N_CASES):
            d = int(rng.integers(1, 4))
            f, g, h = (random_function(rng, cfg, d) for _ in range(3))
            assert rkhs_norm_diff(f, h) <= (
                rkhs_norm_diff(f, g) + rkhs_norm_diff(g, h) + 1e-8
            )

    def test_anchor_permutation_invariance(self):
        rng = np.random.default_rng(106)
        cfg = KernelConfig(bandwidth=0.6)
        for _ in range(N_CASES):
            d = int(rng.integers(1, 4))
            f = random_function(rng, cfg, d, n_max=10)
            g = random_function(rng, cfg, d, n_max=10)
            perm = rng.permutation(f.anchors.shape[0])
            f2 = RepresenterFunction(f.anchors[perm], f.coefficients[perm], cfg)
            assert abs(rkhs_norm_diff(f, g) - rkhs_norm_diff(f2, g)) <= 1e-8

    def test_kernel_mismatch(self):
        f = RepresenterFunction(np.zeros((1, 1)), np.ones(1), KernelConfig(bandwidth=1.0))
        g = RepresenterFunction(np.zeros((1, 1)), np.ones(1), KernelConfig(bandwidth=2.0))
        with pytest.raises(ValueError):
            rkhs_norm_diff(f, g)


class TestTypes:
    def test_dataset_validation(self):
        with pytest.raises(ValueError):
            Dataset(x=np.zeros((3, 2)), y=np.zeros(2))
        with pytest.raises(ValueError):
            Dataset(x=np.zeros(3), y=np.zeros(3))
        ds = Dataset(x=np.zeros((3, 2)), y=np.zeros(3))
        assert (ds.n, ds.d) == (3, 2)

    def test_representer_validation(self):
        with pytest.raises(ValueError):
            RepresenterFunction(np.zeros((2, 1)), np.zeros(3), KernelConfig())

    def test_representer_evaluates(self):
        cfg = KernelConfig()
        f = RepresenterFunction(np.array([[0.0]]), np.array([2.0]), cfg)
        np.testing.assert_allclose(f([[0.0], [1.0]]), [2.0, 2.0 * np.exp(-1.0)])
