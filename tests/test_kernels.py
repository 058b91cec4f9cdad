import numpy as np
import pytest
from scipy.linalg import lapack
from scipy.spatial.distance import cdist

from tkrr import kernels
from tkrr.kernels import (
    Dataset,
    KernelConfig,
    RepresenterFunction,
    SpdSolveError,
    family,
    gram_matrix,
    ridge_system,
    rkhs_norm_diff,
    spd_solve,
)

N_CASES = 100
# Sizes around the row block that kernel assembly works in (64 rows), odd
# and even: a packed system of order n is built in ceil(n / 2) rows.
BLOCK_SIZES = [1, 2, 3, 63, 64, 65, 127, 128, 129, 700, 701]


def kernel_eval(cfg, a, b):
    """Independent oracle: K(a, b) for two single points, written out."""
    av = np.asarray(a, dtype=np.float64).ravel()
    bv = np.asarray(b, dtype=np.float64).ravel()
    if av.shape != bv.shape:
        raise ValueError(f"point dimensions differ: {av.shape} vs {bv.shape}")
    return float(np.exp(-float(np.sum((av - bv) ** 2)) / cfg.bandwidth))


def within_stated_bound(k, a, anchors, bandwidth):
    """The gram_matrix docstring's bound against exp(-cdist / b):
    |K - exp(-cdist / b)| <= 4 (d + 2) eps (1 + ||u_i||^2 + ||u_j||^2), u the
    rows centred on the anchors' mean and scaled by 1/sqrt(b)."""
    eps = np.finfo(np.float64).eps
    centre = anchors.mean(axis=0)
    ua = ((a - centre) ** 2).sum(axis=1) / bandwidth
    ub = ((anchors - centre) ** 2).sum(axis=1) / bandwidth
    bound = 4 * (a.shape[1] + 2) * eps * (1.0 + ua[:, None] + ub[None, :])
    expect = np.exp(-cdist(a, anchors, "sqeuclidean") / bandwidth)
    return bool(np.all(np.abs(k - expect) <= bound))


def packed(mat):
    """Oracle: LAPACK's own packing of an explicit symmetric matrix, in its Fortran shape."""
    n = mat.shape[0]
    arf, info = lapack.dtrttf(mat, transr="N", uplo="L")
    assert info == 0
    return arf.reshape((n + 1 - n % 2, (n + 1) // 2), order="F")


def packed_solve(mat, b):
    """Oracle: the explicit matrix packed, factored and solved by LAPACK directly."""
    n = mat.shape[0]
    factor, info = lapack.dpftrf(n, packed(mat).ravel(order="F"), transr="N", uplo="L")
    assert info == 0
    z, info = lapack.dpftrs(n, factor, np.reshape(b, (n, 1)), transr="N", uplo="L")
    assert info == 0
    return factor, z.ravel()


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

    @pytest.mark.parametrize("d", [1, 3, 6, 10])
    @pytest.mark.parametrize("n", [1, 63, 64, 65, 127, 128, 129])
    def test_within_stated_bound_of_cdist(self, d, n):
        # Unit-cube data, the same moved by +100 (centring keeps it
        # accurate), and a spread of 100.
        rng = np.random.default_rng(1000 * d + n)
        for shift, spread, bandwidth in ((0.0, 1.0, 0.05), (0.0, 1.0, 6.0), (100.0, 1.0, 0.3), (0.0, 100.0, 1.0)):
            cfg = KernelConfig(bandwidth=bandwidth)
            x = shift + spread * rng.uniform(size=(n, d))
            x2 = shift + spread * rng.uniform(size=(n + 5, d))
            for a, b in ((x, None), (x, x2), (x2, x)):
                anchors = a if b is None else b
                assert within_stated_bound(gram_matrix(cfg, a, b), a, anchors, bandwidth)

    @pytest.mark.parametrize("n", BLOCK_SIZES)
    def test_cross_gram_bitwise_around_block_size(self, n):
        # At the row-block edges, every row of a cross Gram has the bits it
        # has when computed alone (off the diagonal when x is passed twice),
        # and the whole Gram is within the stated bound of exp(-cdist / b).
        rng = np.random.default_rng(106)
        cfg = KernelConfig(bandwidth=0.3)
        x, x2 = rng.normal(size=(n, 3)), rng.normal(size=(n + 5, 3))
        for a, b in ((x, x2), (x2, x), (x, x)):
            k = gram_matrix(cfg, a, b)
            off = ~np.eye(*k.shape, dtype=bool) if b is a else np.ones(k.shape, dtype=bool)
            for i in range(a.shape[0]):
                row = gram_matrix(cfg, a[i : i + 1], b)[0]
                assert np.array_equal(row[off[i]], k[i][off[i]])
            assert within_stated_bound(k, a, b, 0.3)

    @pytest.mark.parametrize("d", [1, 3, 10, 40])
    @pytest.mark.parametrize("n", [2, 65, 129, 701])
    def test_entry_bits_do_not_depend_on_the_block(self, d, n):
        # Any subset of rows, against the same anchors, gives the same bits
        # as the whole Gram; 40 features take two products per block.
        rng = np.random.default_rng(d * 7919 + n)
        cfg = KernelConfig(bandwidth=0.3 * d)
        x = rng.normal(size=(n, d))
        k = gram_matrix(cfg, x)
        assert np.array_equal(k, k.T)
        assert np.all(np.diag(k) == 1.0)
        off = ~np.eye(n, dtype=bool)
        for rows in (slice(0, 1), slice(n // 2, n // 2 + 1), slice(n - 1, n), slice(n // 3, n // 3 + 70)):
            part = gram_matrix(cfg, x[rows], x)
            assert np.array_equal(part[off[rows]], k[rows][off[rows]])

    def test_empty_rows_or_anchors(self):
        cfg = KernelConfig()
        x = np.ones((5, 3))
        for a, b, shape in ((np.zeros((0, 3)), None, (0, 0)), (x, np.zeros((0, 3)), (5, 0)), (np.zeros((0, 3)), x, (0, 5))):
            k = gram_matrix(cfg, a, b)
            assert k.shape == shape and k.dtype == np.float64
        assert ridge_system(cfg, np.zeros((0, 3)), 1.0).shape == (1, 0)

    def test_x2_the_same_array_is_the_square_gram(self):
        # Passing x twice keeps the exact symmetry and unit diagonal; an
        # equal copy gives the same off-diagonal bits.
        rng = np.random.default_rng(105)
        cfg = KernelConfig(bandwidth=0.4)
        x = rng.normal(size=(130, 4))
        k = gram_matrix(cfg, x)
        assert np.array_equal(gram_matrix(cfg, x, x), k)
        copy = gram_matrix(cfg, x, x.copy())
        off = ~np.eye(130, dtype=bool)
        assert np.array_equal(copy[off], k[off])
        np.testing.assert_allclose(np.diag(copy), 1.0, rtol=0, atol=1e-14)


class TestRidgeSystem:
    @pytest.mark.parametrize("n", BLOCK_SIZES)
    def test_upper_triangle_of_explicit_system(self, n):
        # The one triangle a packed system holds equals LAPACK's packing of
        # the explicit gram_matrix + shift * I, entry for entry.
        rng = np.random.default_rng(107)
        cfg = KernelConfig(bandwidth=0.3)
        for d in (1, 10, 40):
            x = rng.normal(size=(n, d))
            a = ridge_system(cfg, x, 0.25)
            assert a.shape == (n + 1 - n % 2, (n + 1) // 2)
            assert a.flags.f_contiguous
            assert np.array_equal(a, packed(gram_matrix(cfg, x) + 0.25 * np.eye(n)))

    def test_refills_only_the_upper_triangle(self):
        # A refill writes every packed entry, so nothing of the old contents survives.
        rng = np.random.default_rng(108)
        cfg = KernelConfig()
        for n in (69, 70):
            x = rng.normal(size=(n, 2))
            out = np.full((n + 1 - n % 2, (n + 1) // 2), np.nan, order="F")
            assert ridge_system(cfg, x, 1.0, out=out) is out
            assert np.array_equal(out, ridge_system(cfg, x, 1.0))


class TestLowRankFactor:
    # kernels._pivots, the greedy pivoted Cholesky K = G G' + E that krr's
    # ladder takes, stopped at a residual diagonal tolerance or a pivot cap.
    @staticmethod
    def tau(x, bandwidth):
        # gram_matrix's entry error for these rows, the certificate's tolerance.
        u = (x - x.mean(axis=0)) / np.sqrt(bandwidth)
        return 4 * (x.shape[1] + 2) * np.finfo(np.float64).eps * (1 + 2 * (u * u).sum(axis=1).max())

    @staticmethod
    def pivots(cfg, x, max_rank, tol):
        return kernels._pivots(kernels._scaled_rows(cfg, x, x.mean(axis=0)), max_rank, tol)

    @staticmethod
    def pivot_rows(monkeypatch):
        # (pivot, kernel row) for each row of K the factor assembles.
        calls = []
        real = kernels._kernel_block

        def spy(a, rows, b, cols, out=None):
            k = real(a, rows, b, cols, out)
            calls.append((rows.start, k[0].copy()))
            return k

        monkeypatch.setattr(kernels, "_kernel_block", spy)
        return calls

    def test_certificate(self):
        # K = G G' + E: E's diagonal is at most tau, so every entry of G G'
        # is within 2 tau of the kernel (tau for the rows' own rounding), and
        # E is positive semi-definite up to that rounding. The residual
        # diagonal returned is E's.
        x = np.random.default_rng(230).random((400, 1))
        cfg, tau = KernelConfig(bandwidth=0.05), self.tau(x, 0.05)
        gt, resid = self.pivots(cfg, x, 400, tau)
        assert gt.shape[1] == 400 and 20 <= gt.shape[0] <= 30
        assert gt.flags.c_contiguous and resid.max() <= tau
        e = np.exp(-cdist(x, x, "sqeuclidean") / 0.05) - gt.T @ gt
        assert np.max(np.diag(e)) <= 2 * tau
        assert np.max(np.abs(e)) <= 2 * tau
        assert np.max(np.abs(np.diag(e) - resid)) <= 2 * tau
        assert np.linalg.eigvalsh(e).min() >= -400 * tau
        assert np.array_equal(gt, self.pivots(cfg, x, 400, tau)[0])
        # A cap below the rank stops there, short of the tolerance.
        gt5, resid5 = self.pivots(cfg, x, 5, tau)
        assert np.array_equal(gt5, gt[:5]) and resid5.max() > tau

    def test_pivot_rows_are_gram_matrix_rows(self, monkeypatch):
        # Each pivot's row of K is gram_matrix's, bit for bit, from rows
        # scaled once; the pivots are distinct rows.
        x = np.random.default_rng(234).random((500, 2))
        cfg = KernelConfig(bandwidth=0.3)
        rows = self.pivot_rows(monkeypatch)
        gt, _ = self.pivots(cfg, x, 500, self.tau(x, 0.3))
        monkeypatch.undo()
        assert len(rows) == gt.shape[0] and len({p for p, _ in rows}) == len(rows)
        for p, row in rows:
            assert np.array_equal(row, gram_matrix(cfg, x[p : p + 1], x)[0])

    def test_rows_grow_in_blocks(self):
        x = np.random.default_rng(231).random((600, 1))
        gt, _ = self.pivots(KernelConfig(bandwidth=0.05), x, 600, self.tau(x, 0.05))
        assert gt.base is not None and gt.shape[0] <= gt.base.shape[0] < 2 * gt.shape[0]


class TestSpdSolve:
    def test_closed_form_oracle(self):
        # [[2, a], [a, 2]] has inverse [[2, -a], [-a, 2]] / (4 - a^2)
        a = np.exp(-1.0)
        mat = np.array([[2.0, a], [a, 2.0]])
        expect = np.array([2.0, -a]) / (4.0 - a * a)
        np.testing.assert_allclose(spd_solve(packed(mat), [1.0, 0.0]), expect, atol=1e-12)

    def test_residual_bound(self):
        rng = np.random.default_rng(103)
        for _ in range(N_CASES):
            n = int(rng.integers(2, 30))
            x = rng.normal(size=(n, int(rng.integers(1, 4))))
            cfg = KernelConfig(bandwidth=float(rng.uniform(0.3, 3.0)))
            mat = gram_matrix(cfg, x) + float(rng.uniform(1e-6, 0.5)) * np.eye(n)
            b = rng.normal(size=n)
            z = spd_solve(packed(mat), b)
            resid = np.max(np.abs(mat @ z - b))
            assert resid <= 1e-8 * (1.0 + np.max(np.abs(b)))

    def test_jitter_rescues_semidefinite(self):
        mat = np.array([[1.0, 1.0], [1.0, 1.0]])

        def refill(system):
            system[...] = packed(mat)

        z = spd_solve(packed(mat), np.array([1.0, 1.0]), refill=refill)
        assert np.all(np.isfinite(z))
        # The jitter is 1e-10 * trace / n = 1e-10 on both diagonal entries.
        assert np.array_equal(z, packed_solve(mat + 1e-10 * np.eye(2), [1.0, 1.0])[1])

    def test_indefinite_raises_with_jitter(self):
        mat = np.array([[1.0, 2.0], [2.0, 1.0]])

        def refill(system):
            system[...] = packed(mat)

        with pytest.raises(SpdSolveError) as err:
            spd_solve(packed(mat), np.array([1.0, 0.0]), refill=refill)
        assert err.value.jitter > 0

    @pytest.mark.parametrize("semidefinite", [False, True])
    def test_leaves_input_unchanged(self, semidefinite):
        # The right-hand side (a fit's responses) is never written, on the
        # plain path or on the jitter path, which is taken when the rows
        # repeat at a tiny ridge.
        x = np.random.default_rng(105).normal(size=(40, 2))
        xs = np.concatenate([x, x]) if semidefinite else x
        shift = 1e-20 if semidefinite else 0.1
        b = np.ones(xs.shape[0])
        z = spd_solve(
            ridge_system(KernelConfig(), xs, shift),
            b,
            refill=lambda s: ridge_system(KernelConfig(), xs, shift, out=s),
        )
        assert np.all(np.isfinite(z)) and not np.shares_memory(z, b)
        assert np.array_equal(b, np.ones(xs.shape[0]))

    @pytest.mark.parametrize("n", [2, 65, 300])
    def test_overwrite_reads_only_the_upper_triangle(self, n):
        # The packed triangle is all spd_solve reads, and it is overwritten
        # in place by LAPACK's factor of the explicit matrix.
        rng = np.random.default_rng(109)
        mat = gram_matrix(KernelConfig(), rng.normal(size=(n, 2))) + 0.1 * np.eye(n)
        b = rng.normal(size=n)
        system = packed(mat)
        factor, expect = packed_solve(mat, b)
        assert np.array_equal(spd_solve(system, b), expect)
        assert np.array_equal(system.ravel(order="F"), factor)

    def test_overwrite_failure_without_refill_raises(self):
        with pytest.raises(SpdSolveError) as err:
            spd_solve(packed(np.array([[1.0, 2.0], [2.0, 1.0]])), np.array([1.0, 0.0]))
        assert err.value.jitter == 0.0

    def test_shape_errors(self):
        with pytest.raises(ValueError):
            spd_solve(np.zeros((2, 3), order="F"), np.zeros(2))
        with pytest.raises(ValueError):
            spd_solve(np.zeros((3, 2)), np.zeros(3))  # C-ordered: not LAPACK's layout
        with pytest.raises(ValueError):
            spd_solve(packed(np.eye(2)).astype(np.float32), np.zeros(2))
        with pytest.raises(ValueError):
            spd_solve(packed(np.eye(2)), np.zeros(3))


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


MATVEC_SIZES = [1, 63, 64, 65, 500, 1700]


class TestMatvec:
    """Kernel products run in SciPy's BLAS, bit for bit what NumPy's @ gives."""

    @pytest.mark.parametrize("rows", MATVEC_SIZES)
    @pytest.mark.parametrize("anchors", MATVEC_SIZES)
    def test_evaluation_equals_numpy_matmul_bitwise(self, rows, anchors):
        rng = np.random.default_rng(rows * 7919 + anchors)
        cfg = KernelConfig(bandwidth=0.5)
        f = RepresenterFunction(rng.normal(size=(anchors, 2)), rng.normal(size=anchors), cfg)
        x = rng.normal(size=(rows, 2))
        assert np.array_equal(f(x), gram_matrix(cfg, x, f.anchors) @ f.coefficients)

    def test_empty_and_single_inputs(self):
        cfg = KernelConfig()
        f = RepresenterFunction(np.array([[0.0], [1.0]]), np.array([2.0, -1.0]), cfg)
        empty = f(np.zeros((0, 1)))
        assert empty.shape == (0,) and empty.dtype == np.float64
        one_row = f([[0.5]])
        assert one_row.shape == (1,)
        assert np.array_equal(one_row, gram_matrix(cfg, [[0.5]], f.anchors) @ f.coefficients)
        g = RepresenterFunction(np.array([[0.0]]), np.array([2.0]), cfg)
        np.testing.assert_allclose(g([[0.0], [1.0]]), [2.0, 2.0 * np.exp(-1.0)])
        assert g(np.zeros((0, 1))).shape == (0,)

    @pytest.mark.parametrize("n", MATVEC_SIZES)
    def test_rkhs_norm_diff_equals_numpy_expression_bitwise(self, n):
        rng = np.random.default_rng(n)
        cfg = KernelConfig(bandwidth=0.7)
        for m in (1, n, 2 * n + 1):
            f = RepresenterFunction(rng.normal(size=(n, 3)), rng.normal(size=n), cfg)
            g = RepresenterFunction(rng.normal(size=(m, 3)), rng.normal(size=m), cfg)
            bf, bg = f.coefficients, g.coefficients
            q = (
                bf @ gram_matrix(cfg, f.anchors) @ bf
                - 2.0 * (bf @ gram_matrix(cfg, f.anchors, g.anchors) @ bg)
                + bg @ gram_matrix(cfg, g.anchors) @ bg
            )
            assert rkhs_norm_diff(f, g) == float(np.sqrt(max(q, 0.0)))

    def test_scipy_gets_an_f_ordered_view(self, monkeypatch):
        # A C-ordered matrix would be copied on every call (12 MB at n = 1700).
        seen = []
        dgemv = kernels.blas.dgemv

        def recording(alpha, a, x, **kw):
            seen.append(a.flags.f_contiguous)
            return dgemv(alpha, a, x, **kw)

        monkeypatch.setattr(kernels.blas, "dgemv", recording)
        rng = np.random.default_rng(7)
        cfg = KernelConfig()
        f = RepresenterFunction(rng.normal(size=(40, 2)), rng.normal(size=40), cfg)
        g = RepresenterFunction(rng.normal(size=(30, 2)), rng.normal(size=30), cfg)
        f(rng.normal(size=(50, 2)))
        rkhs_norm_diff(f, g)
        assert seen == [True] * 4


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


class TestFamily:
    """A family evaluates all its members on an array at once and keeps the values."""

    def _members(self, rng, cfg, sizes=(5, 40, 120, 120)):
        anchors = rng.normal(size=(max(sizes), 2))
        fits = [RepresenterFunction(anchors[:k], rng.normal(size=k), cfg, shift=0.5) for k in sizes]
        return fits, family(fits)

    def test_one_gram_per_array_and_values_match(self, monkeypatch):
        # One gram_matrix call per array, against the widest anchors; each
        # member's values are its own evaluation within 1e-13 relative, are
        # read-only, and are read back for the same array. An equal copy
        # is another array.
        rng = np.random.default_rng(230)
        cfg = KernelConfig(bandwidth=0.7)
        fits, members = self._members(rng, cfg)
        x = rng.normal(size=(90, 2))
        wants = [RepresenterFunction(f.anchors, f.coefficients, cfg)(x) for f in fits]
        grams = []
        real = kernels.gram_matrix
        monkeypatch.setattr(kernels, "gram_matrix", lambda c, x, x2=None: grams.append(x2.shape) or real(c, x, x2))
        for f, member, want in zip(fits, members, wants):
            got = member(x)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
            assert not got.flags.writeable and np.shares_memory(member(x), got)
            assert np.array_equal(member.anchors, f.anchors) and member.shift == 0.5
        assert grams == [(120, 2)]
        members[0](x.copy())
        assert grams == [(120, 2)] * 2

    def test_row_blocks(self, monkeypatch):
        # Rows are evaluated in blocks of at most _FAMILY_ENTRIES entries,
        # in whole multiples of 64 rows, with the same values within 1e-13.
        rng = np.random.default_rng(231)
        cfg = KernelConfig(bandwidth=0.7)
        fits, members = self._members(rng, cfg)
        x = rng.normal(size=(300, 2))
        wants = [RepresenterFunction(f.anchors, f.coefficients, cfg)(x) for f in fits]
        monkeypatch.setattr(kernels, "_FAMILY_ENTRIES", 128 * 120)
        grams = []
        real = kernels.gram_matrix
        monkeypatch.setattr(kernels, "gram_matrix", lambda c, x, x2=None: grams.append(len(x)) or real(c, x, x2))
        for member, want in zip(members, wants):
            assert np.max(np.abs(member(x) - want)) <= 1e-13 * np.max(np.abs(want))
        assert grams == [128, 128, 44]
        assert members[0](np.zeros((0, 2))).shape == (0,)

    def test_members_must_lead_one_anchor_array(self):
        rng = np.random.default_rng(232)
        cfg = KernelConfig()
        f = RepresenterFunction(rng.normal(size=(4, 1)), rng.normal(size=4), cfg)
        g = RepresenterFunction(rng.normal(size=(6, 1)), rng.normal(size=6), cfg)
        with pytest.raises(ValueError, match="lead one anchor array"):
            family([f, g])
        h = RepresenterFunction(g.anchors[:3], rng.normal(size=3), KernelConfig(bandwidth=2.0))
        with pytest.raises(ValueError, match="share a kernel"):
            family([g, h])
        assert family([]) == ()
