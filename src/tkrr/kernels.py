"""Gaussian kernel evaluation, Gram matrices, SPD solves, and RKHS geometry.

Everything downstream (ridge fits, transfer steps, aggregation) reduces to
Gram-matrix assembly plus symmetric positive definite solves, so those two
primitives live here, with the pieces of krr's ladder solver (a greedy
pivoted Cholesky of the Gram, and the Gram in row panels with their
product), the two fitted-function types (one representer-form expansion,
and a weighted sum of fitted functions), the families that evaluate
several expansions over one anchor array together, and the RKHS norm of a
difference of two expansions. Ridge systems are held in LAPACK's
rectangular full packed format (Gustavson, Wasniewski, Dongarra and
Langou 2010): one triangle in n(n+1)/2 entries, factored by a level-3
Cholesky; the ladder's Gram is held in row panels whose blocks SciPy's
BLAS reads in place, and is never factored. Gram blocks and kernel
matrix-vector products run in SciPy's BLAS too, the OpenBLAS that
factors: a block's squared distances are ||a||^2 + ||b||^2 - 2 a.b over
centred rows, the cross term one dgemm.

The eight routines tkrr calls (dgemm, dgemv, ddot, dpftrf and dpftrs here,
and dsyrk, dpotrf and dpotrs, which krr calls through this module's
blas and lapack) are SciPy's f2py wrappers, the very objects
scipy.linalg.blas and scipy.linalg.lapack re-export, loaded straight from
the extension modules scipy.linalg._fblas and scipy.linalg._flapack.
Importing the scipy.linalg package instead would run its __init__, whose
array-API layer loads numpy.f2py, numpy.testing and numpy.ma: about 0.3 s
and 16 MB in every process, pool workers included.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

__all__ = [
    "KernelConfig",
    "Dataset",
    "RepresenterFunction",
    "WeightedSum",
    "family",
    "SpdSolveError",
    "TooFewRowsError",
    "gram_matrix",
    "ridge_system",
    "spd_solve",
    "rkhs_norm_sq",
    "rkhs_norm_diff",
]

_JITTER_REL = 1e-10
# Kernel rows are assembled this many at a time, so each block's exponents
# are clamped and exponentiated while they are still in cache.
_BLOCK_ROWS = 64
# A block's dgemm gets anchor rows in a multiple of _PAD and at most
# _DOT_COLS features, so OpenBLAS computes every entry in a full tile of its
# tiled kernel, never an edge tile or its small-matrix kernel (which takes
# this transpose pair from 32 features): an entry's bits do not depend on
# the block. OpenBLAS threads a dgemm of over _DGEMM_MACS multiply-adds,
# which makes products this thin slower, so each call stays under it.
_PAD, _DOT_COLS, _DGEMM_MACS = 16, 31, 1 << 18
# _BELOW[:b, :b - 1] marks the strictly lower entries of a b x b block.
_BELOW = np.tri(_BLOCK_ROWS, _BLOCK_ROWS - 1, -1, dtype=bool)
# A family's Gram is assembled in row blocks of at most this many entries
# (4 MB), or _BLOCK_ROWS rows if one row block is larger.
_FAMILY_ENTRIES = 1 << 19


def _load_scipy_linalg_extension(name: str):
    """Import the extension module scipy.linalg.<name> without running
    scipy.linalg's __init__; raise ImportError if SciPy has no such module.

    The module goes into sys.modules under its full name, so a later
    `import scipy.linalg` reuses it rather than loading it a second time.
    """
    fullname = f"scipy.linalg.{name}"
    if fullname in sys.modules:
        return sys.modules[fullname]
    # find_spec of the top-level package locates it without running its
    # __init__, as a submodule's find_spec would.
    (scipy_dir,) = importlib.util.find_spec("scipy").submodule_search_locations
    package_dir = os.path.join(scipy_dir, "linalg")
    loader = (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES)
    spec = importlib.machinery.FileFinder(package_dir, loader).find_spec(fullname)
    if spec is None:
        raise ImportError(f"no extension module {fullname} in {package_dir}", name=fullname)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    spec.loader.exec_module(module)
    return module


blas = _load_scipy_linalg_extension("_fblas")
lapack = _load_scipy_linalg_extension("_flapack")


class SpdSolveError(np.linalg.LinAlgError):
    """Factorization failed even after the single jitter retry.

    Attributes:
        jitter: The diagonal shift that was attempted on the retry.
    """

    def __init__(self, message: str, jitter: float):
        super().__init__(message)
        self.jitter = jitter


class TooFewRowsError(ValueError):
    """A fit or split got fewer rows than it needs: a sweep's failed fit."""


@dataclass(frozen=True)
class KernelConfig:
    """The Gaussian kernel, the only one tkrr fits, and its bandwidth.

    K(a, b) = exp(-||a - b||^2 / bandwidth). Bandwidth 1 is the classical
    unit-width Gaussian kernel; real-data configs shrink or grow it to match
    covariate scales.
    """

    bandwidth: float = 1.0

    def __post_init__(self) -> None:
        if not self.bandwidth > 0:
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth}")


def _as_matrix(x: NDArray) -> NDArray[np.float64]:
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-d array, got shape {a.shape}")
    return a


@dataclass(frozen=True)
class Dataset:
    """One study's sample: covariate rows x paired with responses y."""

    x: NDArray[np.float64]
    y: NDArray[np.float64]

    def __post_init__(self) -> None:
        x = _as_matrix(self.x)
        y = np.asarray(self.y, dtype=np.float64)
        if y.ndim != 1:
            raise ValueError(f"y must be 1-d, got shape {y.shape}")
        if x.shape[0] != y.shape[0]:
            raise ValueError(f"x has {x.shape[0]} rows but y has {y.shape[0]}")
        if x.shape[1] < 1:
            raise ValueError("covariate dimension must be at least 1")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]

    def split_rows(self, n_first: int, seed: int) -> tuple[NDArray[np.intp], NDArray[np.intp]]:
        """The first n_first rows of a seeded permutation, then the rest, each sorted."""
        perm = np.random.default_rng(seed).permutation(self.n)
        return np.sort(perm[:n_first]), np.sort(perm[n_first:])

    def split(self, n_first: int, seed: int) -> tuple["Dataset", "Dataset"]:
        """The rows split_rows picks, as two datasets."""
        return tuple(Dataset(self.x[rows], self.y[rows]) for rows in self.split_rows(n_first, seed))


@dataclass(frozen=True)
class RepresenterFunction:
    """Finite kernel expansion f(x) = sum_i coefficients_i K(x, anchors_i).

    shift is the s of the ridge system (K + s I) coefficients = y that
    fitted it, K the Gram of its anchors, or None for an expansion not
    fitted so. A fit's values at its own anchors are then y - s *
    coefficients and its residuals y_i - f(anchors_i) are s *
    coefficients_i, up to the solve's own residual, with no kernel
    evaluated. The solve's residual covers a certified fit's truncation
    too: it solved with G G' in place of K, within n tau / s relative
    (krr.fit_krr).
    """

    anchors: NDArray[np.float64]
    coefficients: NDArray[np.float64]
    kernel: KernelConfig
    shift: float | None = None

    def __post_init__(self) -> None:
        anchors = _as_matrix(self.anchors)
        coef = np.asarray(self.coefficients, dtype=np.float64)
        if coef.ndim != 1:
            raise ValueError(f"coefficients must be 1-d, got shape {coef.shape}")
        if anchors.shape[0] != coef.shape[0]:
            raise ValueError(
                f"{anchors.shape[0]} anchors but {coef.shape[0]} coefficients"
            )
        object.__setattr__(self, "anchors", anchors)
        object.__setattr__(self, "coefficients", coef)

    def __call__(self, x: NDArray) -> NDArray[np.float64]:
        return _gemv(gram_matrix(self.kernel, _as_matrix(x), self.anchors), self.coefficients)


class _Family:
    # Row k of coef holds member k's coefficients, zero past its rows.
    def __init__(self, kernel: KernelConfig, anchors: NDArray, coef: NDArray):
        self.kernel, self.anchors, self.coef = kernel, anchors, coef
        self.kept: list = []

    def values(self, x: NDArray) -> NDArray[np.float64]:
        for seen, values in self.kept:
            if seen is x:
                return values
        xm = _as_matrix(x)
        values = np.empty((self.coef.shape[0], xm.shape[0]))
        step = max(1, _FAMILY_ENTRIES // self.anchors.shape[0] // _BLOCK_ROWS) * _BLOCK_ROWS
        for i in range(0, xm.shape[0], step):
            values[:, i : i + step] = _gemm(gram_matrix(self.kernel, xm[i : i + step], self.anchors), self.coef)
        values.flags.writeable = False
        self.kept.append((x, values))
        return values


@dataclass(frozen=True, eq=False)
class _Member(RepresenterFunction):
    family: _Family | None = None
    index: int = 0

    def __call__(self, x: NDArray) -> NDArray[np.float64]:
        return self.family.values(x)[self.index]


def family(fits) -> tuple[RepresenterFunction, ...]:
    """The fits, each anchored at leading rows of the widest one's anchors, as one family.

    A member is its fit, but a call of any member on an array evaluates them
    all there: the Gram against the widest anchors, in row blocks of at most
    4 MB, times the stacked zero-padded coefficients. The values are kept
    per array, matched by identity, read-only, and within a few ulps of each
    fit's own evaluation, not bit for bit. No Gram is kept.
    """
    fits = tuple(fits)
    if not fits:
        return ()
    anchors = max(fits, key=lambda f: f.anchors.shape[0]).anchors
    coef = np.zeros((len(fits), anchors.shape[0]))
    for row, f in zip(coef, fits):
        if f.kernel != fits[0].kernel or not np.array_equal(f.anchors, anchors[: f.anchors.shape[0]]):
            raise ValueError("family members must share a kernel and lead one anchor array")
        row[: f.coefficients.shape[0]] = f.coefficients
    fam = _Family(fits[0].kernel, anchors, coef)
    return tuple(_Member(f.anchors, f.coefficients, f.kernel, f.shift, fam, i) for i, f in enumerate(fits))


@dataclass(frozen=True)
class WeightedSum:
    """Fitted function f(x) = sum_l weights_l * parts_l(x), summed in part order.

    Parts are any fitted functions, weighted sums included, and each part is
    evaluated whole: w * (pooled + debias) is never expanded into
    w * pooled + w * debias. A part with weight 0 is not evaluated and a
    weight of 1 multiplies nothing, so the sum of two parts with unit weights
    is exactly parts_0(x) + parts_1(x).
    """

    parts: tuple
    weights: NDArray[np.float64]

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=np.float64)
        if w.shape != (len(self.parts),):
            raise ValueError(f"{len(self.parts)} parts but weights of shape {w.shape}")
        object.__setattr__(self, "parts", tuple(self.parts))
        object.__setattr__(self, "weights", w)

    def __call__(self, x: NDArray) -> NDArray[np.float64]:
        out = None
        for w, f in zip(self.weights, self.parts):
            if w == 0.0:
                continue
            term = f(x) if w == 1.0 else w * f(x)
            out = term if out is None else out + term
        return np.zeros(_as_matrix(x).shape[0]) if out is None else out


def _scaled_rows(cfg: KernelConfig, x: NDArray, centre: NDArray):
    # The rows u = (x - centre) / sqrt(bandwidth), padded with _PAD - 1 zero
    # rows, as C-ordered groups of at most _DOT_COLS columns, and -||u||^2.
    u = np.zeros((x.shape[0] + _PAD - 1, x.shape[1]))
    np.divide(x - centre, np.sqrt(cfg.bandwidth), out=u[: x.shape[0]])
    groups = [np.ascontiguousarray(u[:, k : k + _DOT_COLS]) for k in range(0, u.shape[1], _DOT_COLS)]
    return groups, -(u * u).sum(axis=1)


def _kernel_block(a, rows: slice, b, cols: slice, out=None) -> NDArray[np.float64]:
    # K for a's rows against b's cols, both _scaled_rows of one centre:
    # exp(min(0, -||u_i||^2 - ||u_j||^2 + 2 u_i.u_j)). The norms are summed
    # first, so (i, j) and (j, i) add the same two numbers; dgemm then adds
    # the cross term in place, in the block's F-ordered transpose.
    (groups_a, norms_a), (groups_b, norms_b) = a, b
    j0, n_cols = cols.start, cols.stop - cols.start
    padded = slice(j0, j0 + -(-n_cols // _PAD) * _PAD)
    t = np.add.outer(norms_a[rows], norms_b[padded])
    for ga, gb in zip(groups_a, groups_b):
        ua, ub = ga[rows], gb[padded].T
        step = max(1, _DGEMM_MACS // ub.size)
        for i in range(0, len(t), step):
            blas.dgemm(2.0, ub, ua[i : i + step].T, beta=1.0, c=t[i : i + step].T, trans_a=1, overwrite_c=1)
    np.minimum(t, 0.0, out=t)
    return np.exp(t[:, :n_cols], out=out)


def _gemv(k: NDArray, v: NDArray, left: bool = False) -> NDArray[np.float64]:
    # k @ v, or v @ k if left, for a C-ordered k: bit for bit NumPy's @, but
    # in SciPy's OpenBLAS, so NumPy's BLAS threads never wake to spin beside
    # a factorization. SciPy gets k.T, an F-ordered view, so nothing is
    # copied. As in @, an empty product is zeros and a single output entry
    # is a dot product.
    n_out = k.shape[1] if left else k.shape[0]
    if k.size == 0:
        return np.zeros(n_out)
    if n_out == 1:
        return np.array([blas.ddot(k.ravel(), v)])
    return blas.dgemv(1.0, k.T, v, trans=0 if left else 1)


def _gemm(k: NDArray, c: NDArray) -> NDArray[np.float64]:
    # c @ k.T for C-ordered k (rows x anchors) and c (expansions x anchors),
    # C-ordered: row i holds expansion i's values at k's rows. One SciPy
    # dgemm on F-ordered views, as in _gemv, so nothing is copied.
    return blas.dgemm(1.0, k.T, c.T, trans_a=1).T


def gram_matrix(cfg: KernelConfig, x: NDArray, x2: NDArray | None = None) -> NDArray[np.float64]:
    """Assemble the kernel matrix K[i, j] = K(x_i, x2_j).

    Rows are centred on the mean of x2 (the anchors) and scaled by
    1/sqrt(bandwidth), and each squared distance is expanded into norms and
    a dot product; an entry is within 4(d + 2) eps (1 + ||u_i||^2 +
    ||u_j||^2) of exp(-||x_i - x2_j||^2 / bandwidth) for the scaled rows u.
    An entry's bits depend only on its two rows and the centre, not on how
    many rows were asked for. With x2 omitted (or the same array as x) the
    result is exactly symmetric with an exact unit diagonal.
    """
    xm = _as_matrix(x)
    square = x2 is None or x2 is x
    x2m = xm if square else _as_matrix(x2)
    if xm.shape[1] != x2m.shape[1]:
        raise ValueError(
            f"covariate dimensions differ: {xm.shape[1]} vs {x2m.shape[1]}"
        )
    k = np.empty((xm.shape[0], x2m.shape[0]))
    if k.size == 0:
        return k
    centre = x2m.mean(axis=0)
    a = _scaled_rows(cfg, xm, centre)
    b = a if square else _scaled_rows(cfg, x2m, centre)
    n, cols = xm.shape[0], slice(0, x2m.shape[0])
    for i in range(0, n, _BLOCK_ROWS):
        _kernel_block(a, slice(i, min(i + _BLOCK_ROWS, n)), b, cols, k[i : i + _BLOCK_ROWS])
    if square:
        np.fill_diagonal(k, 1.0)
    return k


def _packed_order(system: NDArray) -> int:
    # The order n of a packed system, whose Fortran shape is
    # (n + 1 - n % 2) x ceil(n / 2).
    # LAPACK must see the array itself, or it would factor a copy.
    rows, cols = system.shape
    if rows not in (2 * cols - 1, 2 * cols + 1) or not (
        system.flags.f_contiguous and system.dtype == np.float64
    ):
        raise ValueError(f"not a packed float64 system: {system.dtype} {system.shape}")
    return rows if rows < 2 * cols else rows - 1


def _diagonal(system: NDArray) -> tuple[NDArray, NDArray]:
    # The diagonal of a packed system as two writable views, in order:
    # entries 0..ceil(n/2)-1, then the trailing triangle's.
    rows = system.shape[0]
    o = rows - _packed_order(system)
    flat = system.reshape(-1, order="F")
    return flat[o :: rows + 1], flat[o - 1 + (1 - o) * (rows + 1) :: rows + 1]


def ridge_system(
    cfg: KernelConfig, x: NDArray, shift: float, out: NDArray | None = None
) -> NDArray[np.float64]:
    """K(x, x) + shift * I in rectangular full packed format, the one system format.

    The result is lapack.dtrttf(K + shift * I, transr='N', uplo='L') bit
    for bit, in its Fortran shape (n + 1 - n % 2) x ceil(n / 2): 4n(n+1)
    bytes, every entry written, into a new array or into out. Rows are
    built 64 at a time; each kernel entry is computed once, apart from one
    64 x 64 square per row block.
    """
    xm = _as_matrix(x)
    n = xm.shape[0]
    t, o = (n + 1) // 2, 1 - n % 2
    a = np.empty((n + o, t), order="F") if out is None else out
    u = _scaled_rows(cfg, xm, xm.mean(axis=0)) if n else None
    # In the C-ordered view, row j holds K(x_j, x_i) at column o + i for
    # i >= j and, before it, the trailing triangle's row t - 1 + o + j:
    # K(x_{t-1+o+j}, x_{t+c}) at column c < o + j.
    rows = a.T
    for j0 in range(0, t, _BLOCK_ROWS):
        j1 = min(j0 + _BLOCK_ROWS, t)
        _kernel_block(u, slice(j0, j1), u, slice(j0, n), rows[j0:j1, o + j0 :])
        if o + j1 > 1:
            tail = _kernel_block(u, slice(t - 1 + o + j0, t - 1 + o + j1), u, slice(t, t - 1 + o + j1))
            rows[j0:j1, : o + j0] = tail[:, : o + j0]
            # Below the diagonal of the block's own square, the trailing rows win.
            b = j1 - j0
            np.copyto(rows[j0:j1, o + j0 : o + j1 - 1], tail[:, o + j0 :], where=_BELOW[:b, : b - 1])
    for run in _diagonal(a):
        run.fill(1.0 + shift)
    return a


def _gram_panels(rows) -> list:
    # K(x, x) for rows = _scaled_rows of x, as row panels of _BLOCK_ROWS
    # rows: panel j holds rows j0 = 64 j .. j1 - 1 against columns 0 .. j1 - 1,
    # F-ordered, so the whole panel and its block left of the diagonal
    # (its leading j0 columns) are each a contiguous Fortran array that
    # SciPy's BLAS reads in place. n(n + 64)/2 entries in all, each written
    # once: K is symmetric, so a panel is the transpose of the block of
    # rows 0 .. j1 - 1 against its columns, assembled into its own buffer.
    # The diagonal is exactly 1.
    n = rows[1].shape[0] - _PAD + 1
    panels = []
    for j0 in range(0, n, _BLOCK_ROWS):
        j1 = min(j0 + _BLOCK_ROWS, n)
        block = _kernel_block(rows, slice(0, j1), rows, slice(j0, j1), np.empty((j1, j1 - j0)))
        np.fill_diagonal(block[j0:], 1.0)
        panels.append(block.T)
    return panels


def _panels_times(panels: list, v: NDArray, sizes: NDArray) -> NDArray[np.float64]:
    # K_k v_k for each column v_k of v (n x c, C-ordered), K_k the leading
    # sizes[k] rows and columns of the panels' K. The sizes do not increase
    # and each v_k is zero past sizes[k], as is its product. A panel
    # multiplies only the columns whose rows reach it: panels that multiply
    # the same columns share one contiguous copy of them, and two dgemm
    # calls per panel (its rows, then its left block's transpose for the
    # rows above) read it in place.
    n, width = v.shape
    out = np.zeros(v.shape)
    reach = np.searchsorted(-sizes, -np.arange(0, n, _BLOCK_ROWS))
    for c in np.unique(reach[reach > 0])[::-1]:
        group = np.flatnonzero(reach == c)
        rows = panels[group[-1]].shape[1]
        vc, oc = (v[:rows], out[:rows]) if c == width else (np.ascontiguousarray(v[:rows, :c]), np.zeros((rows, c)))
        for j in group:
            j0, j1 = j * _BLOCK_ROWS, panels[j].shape[1]
            blas.dgemm(1.0, vc[:j1].T, panels[j], trans_b=1, beta=1.0, c=oc[j0:j1].T, overwrite_c=1)
            if j0:
                blas.dgemm(1.0, vc[j0:j1].T, panels[j][:, :j0], beta=1.0, c=oc[:j0].T, overwrite_c=1)
        if c < width:
            out[:rows, :c] += oc
    for col, size in zip(out.T, sizes):
        col[size:] = 0.0
    return out


def _pivots(rows, max_rank: int, tol: float):
    # The greedy pivoted Cholesky (Harbrecht, Peters and Schneider 2012) of
    # K(x, x), for rows = _scaled_rows of x: each step pivots on the largest
    # residual diagonal and takes that row of K, gram_matrix's bit for bit.
    # At max_rank pivots, or once no residual diagonal exceeds tol, it
    # returns G' (r x n, C-ordered) and the diagonal of the positive
    # semi-definite E = K - G G'. G' is a view of rows allocated in blocks
    # as the pivots grow, each touched only once a pivot fills it.
    n = rows[1].shape[0] - _PAD + 1
    resid, gt = np.ones(n), np.empty((0, n))
    for k in range(max_rank + 1):
        p = int(resid.argmax())
        if k == max_rank or resid[p] <= tol:
            return gt[:k], resid
        if k == gt.shape[0]:
            grown = np.empty((k + min(max(k, _PAD), max_rank - k), n))
            grown[:k] = gt
            gt = grown
        # Row p of K, written into row k of G', less the earlier pivots' part.
        row = _kernel_block(rows, slice(p, p + 1), rows, slice(0, n), gt[k : k + 1])[0]
        row -= _gemv(gt[:k], gt[:k, p], left=True)
        row /= np.sqrt(resid[p])
        resid -= row * row
        resid[p] = 0.0


def cho_factor(system: NDArray) -> None:
    """Overwrite a packed system with its Cholesky factor (LAPACK dpftrf).

    Raises LinAlgError if the system is not numerically positive definite;
    the system is then partly overwritten.
    """
    n = _packed_order(system)
    _, info = lapack.dpftrf(n, system.reshape(-1, order="F"), transr="N", uplo="L", overwrite_a=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"leading minor of order {info} is not positive definite")


def _jitter(system: NDArray) -> float:
    # The diagonal shift spd_solve adds to a refilled system before its retry.
    return _JITTER_REL * float(np.concatenate(_diagonal(system)).sum()) / _packed_order(system)


def spd_solve(system: NDArray, b: NDArray, refill=None) -> NDArray[np.float64]:
    """Solve A z = b for a packed symmetric positive definite A, factoring it in place.

    The system, as ridge_system builds it, is overwritten by its Cholesky
    factor (cho_factor) and z comes from LAPACK dpftrs; b is not modified.
    If the factorization fails (duplicate anchor rows at a tiny ridge can
    push the matrix to numerical semi-definiteness), refill(system) writes
    the system again, 1e-10 * trace(A)/n is added to its diagonal and the
    factorization is retried once; a second failure raises SpdSolveError
    carrying the attempted jitter. With no refill a failure raises
    SpdSolveError at once.
    """
    n = _packed_order(system)
    bv = np.asarray(b, dtype=np.float64)
    if bv.shape[0] != n:
        raise ValueError(f"shape mismatch: A has order {n}, b has {bv.shape[0]} rows")
    try:
        cho_factor(system)
    except np.linalg.LinAlgError as exc:
        if refill is None:
            raise SpdSolveError("factorization failed and there is no refill", jitter=0.0) from exc
        refill(system)
        jitter = _jitter(system)
        for run in _diagonal(system):
            run += jitter
        try:
            cho_factor(system)
        except np.linalg.LinAlgError as exc:
            raise SpdSolveError(
                f"matrix not positive definite even with jitter {jitter:.3e}",
                jitter=jitter,
            ) from exc
    z, _ = lapack.dpftrs(n, system.reshape(-1, order="F"), bv.reshape(n, -1), transr="N", uplo="L")
    return z.reshape(bv.shape)


def rkhs_norm_sq(f: RepresenterFunction) -> float:
    """Squared RKHS norm b' K b of a representer-form function, evaluated as (b' K) b."""
    b = f.coefficients
    return float(_gemv(gram_matrix(f.kernel, f.anchors), b, left=True) @ b)


def rkhs_norm_diff(
    f: RepresenterFunction,
    g: RepresenterFunction,
    g_sq: float | None = None,
    f_sq: float | None = None,
) -> float:
    """RKHS norm ||f - g||_K of two representer-form functions.

    Expands to the Gram quadratic form
    b_f' K_ff b_f - 2 b_f' K_fg b_g + b_g' K_gg b_g, clamped at zero before
    the square root since roundoff can leave a tiny negative residue. Each
    term is evaluated as (b' K) b. g_sq and f_sq, if given, stand for
    rkhs_norm_sq(g) and rkhs_norm_sq(f), so a caller that knows them (a
    ridge fit's from its own system, for one) assembles only K_fg.
    """
    if f.kernel != g.kernel:
        raise ValueError(f"kernel configs differ: {f.kernel} vs {g.kernel}")
    if f.anchors.shape[1] != g.anchors.shape[1]:
        raise ValueError(
            f"anchor dimensions differ: {f.anchors.shape[1]} vs {g.anchors.shape[1]}"
        )
    bf, bg = f.coefficients, g.coefficients
    q = (
        (rkhs_norm_sq(f) if f_sq is None else f_sq)
        - 2.0 * float(_gemv(gram_matrix(f.kernel, f.anchors, g.anchors), bf, left=True) @ bg)
        + (rkhs_norm_sq(g) if g_sq is None else g_sq)
    )
    return float(np.sqrt(max(q, 0.0)))
