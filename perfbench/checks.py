"""Correctness checks for every workload, made apart from the program.

The reference here is plain NumPy: an explicit Gaussian Gram matrix and a
dense LU solve (`np.linalg.solve`) in place of tkrr's `cdist` + Cholesky,
the ridge schedules written out from their rate formulas, and the data of a
cell regenerated from its seed with the documented Philox streams. Nothing
is compared with stored output of an earlier run. Each check raises
`CheckError`; `selftest.py` shows that each one fails when a result row is
dropped or a test error is perturbed.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

REL_TOL = 1e-6  # reference fits vs the sweep's rows
POOL_TOL = 1e-9  # pool vs serial: BLAS threading may change the last bits
# Negative sources draw shifts from U(s, 0.4) and genuine ones from U(0, s),
# so the two ranges touch at s and a correct ranking swaps near-equal pairs
# (about 3% of cells at s = 0.25). A pair whose shifts differ by at least
# this margin must be ranked in shift order.
RANK_MARGIN = 0.25

_MASK64 = (1 << 64) - 1
_TEST_STREAM = 1 << 62
_H_FLOOR = 1e-3
_SD_FLOOR = 1e-12
# example -> (covariate dim, noise sd, negative sources)
_DESIGNS = {"ex1": (1, 0.4, 0), "ex2mod": (3, 0.3, 3)}


class CheckError(AssertionError):
    pass


class Row(NamedTuple):
    method: str
    value: float
    replication: int
    seed: int
    test_error: float  # nan for a failed fit
    wall_ms: float


def _fail(msg: str) -> None:
    raise CheckError(msg)


# -- reference numerics ----------------------------------------------------


def derive_seed(*parts: int) -> int:
    h = hashlib.blake2b(digest_size=8)
    for p in parts:
        h.update((int(p) & _MASK64).to_bytes(8, "little"))
    return int.from_bytes(h.digest(), "little")


def lam_source(n: int, sch: dict) -> float:
    return sch["scale"] * float(n) ** (-1.0 / (2.0 * sch["r"] + sch["alpha"]))


def lam_debias(n0: int, h: float, sch: dict) -> float:
    e = 1.0 / (1.0 + sch["alpha"])
    return sch["scale"] * max(h, _H_FLOOR) ** (-2.0 * e) * float(n0) ** (-e)


def gram(a: np.ndarray, b: np.ndarray, bw: float) -> np.ndarray:
    d2 = np.zeros((a.shape[0], b.shape[0]))
    for j in range(a.shape[1]):
        d2 += (a[:, j, None] - b[None, :, j]) ** 2
    return np.exp(-d2 / bw)


class Expansion(NamedTuple):
    """f(x) = sum_i coef_i exp(-||x - anchor_i||^2 / bw)."""

    anchors: np.ndarray
    coef: np.ndarray
    bw: float

    def __call__(self, x):
        return gram(x, self.anchors, self.bw) @ self.coef


def krr(x, y, lam, bw) -> Expansion:
    k = gram(x, x, bw)
    k[np.diag_indices_from(k)] += x.shape[0] * lam
    return Expansion(x, np.linalg.solve(k, y), bw)


def two_step(x0, y0, picked, lam1, lam2, bw, debias=True) -> list[Expansion]:
    """Pooled KRR on target + picked sources, then KRR on target residuals."""
    xp = np.concatenate([x0] + [s[0] for s in picked])
    yp = np.concatenate([y0] + [s[1] for s in picked])
    pooled = krr(xp, yp, lam1, bw)
    if not debias:
        return [pooled]
    return [pooled, krr(x0, y0 - pooled(x0), lam2, bw)]


def predict(parts: Sequence[Expansion], x) -> np.ndarray:
    out = parts[0](x)
    for p in parts[1:]:
        out = out + p(x)
    return out


def mse(a, b) -> float:
    d = np.asarray(a) - np.asarray(b)
    return float(np.mean(d * d))


def split_rows(n: int, n_first: int, seed: int):
    perm = np.random.default_rng(seed).permutation(n)
    return np.sort(perm[:n_first]), np.sort(perm[n_first:])


def halve(x, y, seed):
    n1 = min(max(int(math.floor(0.5 * x.shape[0] + 0.5)), 1), x.shape[0] - 1)
    a, b = split_rows(x.shape[0], n1, seed)
    return (x[a], y[a]), (x[b], y[b])


# -- synthetic data, regenerated from the cell seed --------------------------


def _philox(seed: int, stream: int) -> np.random.Generator:
    key = np.array([seed & _MASK64, stream & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def true_fn(example: str, shift: float):
    if example == "ex1":
        return lambda x: 3.0 * np.sin(3.0 * np.pi * x[:, 0]) - 1.5 * np.exp(
            np.abs(x[:, 0] - shift - 0.5))
    return lambda x: (np.sin(3.0 * np.pi * x[:, 0]) + 3.0 * np.abs(x[:, 0] - shift - 0.5)
                      - np.exp(x[:, 1] ** 2 - x[:, 2] ** 2))


def synthetic_cell(scenario: dict, s: float, m: int, cell_seed: int):
    """Target, sources, source shifts and test set of one synthetic cell."""
    ex = scenario["example"]
    d, sigma, negatives = _DESIGNS[ex]

    def study(rng, n, shift):
        x = rng.random((n, d))
        return x, true_fn(ex, shift)(x) + rng.normal(0.0, sigma, n)

    target = study(_philox(cell_seed, 0), scenario["n0"], 0.0)
    sources, shifts = [], []
    for k in range(1, m + negatives + 1):
        rng = _philox(cell_seed, k)
        shift = float(rng.uniform(0.0, s) if k <= m else rng.uniform(s, 0.4))
        sources.append(study(rng, scenario["n_k"], shift))
        shifts.append(shift)
    x_te = _philox(cell_seed, _TEST_STREAM).random((scenario["n_te"], d))
    return target, sources, shifts, (x_te, true_fn(ex, 0.0)(x_te))


# -- result rows -------------------------------------------------------------


def index_rows(wl, rows: Sequence[Row]) -> dict[tuple, Row]:
    """Rows keyed by (method, value index, replication); the grid must be whole."""
    want = {
        (m, vi, rep)
        for m in wl.methods
        for vi in range(len(wl.values))
        for rep in range(wl.replications)
    }
    pos = {float(v): i for i, v in enumerate(wl.values)}
    got: dict[tuple, Row] = {}
    for r in rows:
        key = (r.method, pos.get(float(r.value), -1), r.replication)
        if key in got:
            _fail(f"duplicate row {key}")
        got[key] = r
    if set(got) != want:
        missing = sorted(want - set(got))[:3]
        extra = sorted(set(got) - want)[:3]
        _fail(f"result grid incomplete: missing {missing}, unexpected {extra}")
    for (m, vi, rep), r in got.items():
        if r.seed != derive_seed(wl.seed, vi, rep):
            _fail(f"{m} cell ({vi}, {rep}) has seed {r.seed}, want the derived cell seed")
        if not r.wall_ms > 0:
            _fail(f"{m} cell ({vi}, {rep}) has wall_ms {r.wall_ms}")
    return got


def _close(what: str, got: float, want: float, tol: float) -> None:
    if not (math.isfinite(got) and abs(got - want) <= tol * abs(want)):
        _fail(f"{what}: sweep {got!r} vs reference {want!r} (rel tol {tol})")


def check_same_rows(wl, a: Sequence[Row], b: Sequence[Row], tol: float = 0.0,
                    what: str = "rounds") -> None:
    """Two runs of the same cells agree on every test error (wall_ms aside)."""
    ia, ib = index_rows(wl, a), index_rows(wl, b)
    for key, ra in ia.items():
        ea, eb = ra.test_error, ib[key].test_error
        if tol == 0.0:
            same = ea == eb or (math.isnan(ea) and math.isnan(eb))
        else:
            same = abs(ea - eb) <= tol * abs(eb)
        if not same:
            _fail(f"{what} differ at {key}: {ea!r} vs {eb!r}")


def check_emitted(wl, rows: Sequence[Row], res_dir: Path) -> None:
    """results.csv holds the rows and summary.csv their independent summary."""
    index_rows(wl, rows)
    with open(res_dir / "results.csv", newline="") as fh:
        table = list(csv.reader(fh))
    if table[0] != ["method", "sweep_value", "replication", "seed", "test_error", "wall_ms"]:
        _fail(f"results.csv header {table[0]}")
    if len(table) - 1 != len(rows):
        _fail(f"results.csv has {len(table) - 1} rows, the sweep returned {len(rows)}")
    for rec, r in zip(table[1:], rows):
        err = float(rec[4]) if rec[4] else float("nan")
        same_err = err == r.test_error or (math.isnan(err) and math.isnan(r.test_error))
        if (rec[0], float(rec[1]), int(rec[2]), int(rec[3])) != (
            r.method, float(r.value), r.replication, r.seed
        ) or not same_err or float(rec[5]) != r.wall_ms:
            _fail(f"results.csv row {rec} does not match {r}")
    groups: dict[tuple, list[float]] = {}
    for r in rows:
        groups.setdefault((r.method, float(r.value)), []).append(r.test_error)
    with open(res_dir / "summary.csv", newline="") as fh:
        summary = list(csv.DictReader(fh))
    if len(summary) != len(groups):
        _fail(f"summary.csv has {len(summary)} rows for {len(groups)} groups")
    for rec in summary:
        errs = np.array(groups.get((rec["method"], float(rec["sweep_value"])), []))
        ok = errs[~np.isnan(errs)]
        if int(rec["n_ok"]) != ok.size or int(rec["n_failed"]) != errs.size - ok.size:
            _fail(f"summary counts {rec} vs {ok.size} ok of {errs.size}")
        mean = float(np.mean(ok))
        sd = float(np.std(ok, ddof=1)) if ok.size > 1 else 0.0
        _close(f"summary mean {rec['method']}", float(rec["mean_error"]), mean, 1e-12)
        if abs(float(rec["std_error"]) - sd) > 1e-12 * max(sd, 1e-300):
            _fail(f"summary sd {rec['method']}: {rec['std_error']} vs {sd!r}")


def _means(wl, idx) -> dict[tuple, float]:
    return {
        (m, vi): float(np.mean([idx[(m, vi, rep)].test_error for rep in range(wl.replications)]))
        for m in wl.methods
        for vi in range(len(wl.values))
    }


# -- known transferable set (known-ex1, pool-ex1) ----------------------------


def check_known_reference(wl, rows: Sequence[Row]) -> None:
    """KRR, AhTKRR and AhTKRR_WD of replication 0 at every shift, recomputed."""
    idx = index_rows(wl, rows)
    cfg, sch = wl.config, wl.config["schedules"]
    scen, bw = cfg["scenario"], cfg["kernel"]["bandwidth"]
    for vi, s in enumerate(wl.values):
        (x0, y0), sources, _, (x_te, ref) = synthetic_cell(
            scen, float(s), scen["m"], derive_seed(wl.seed, vi, 0))
        n0, n_pool = x0.shape[0], x0.shape[0] + sum(x.shape[0] for x, _ in sources)
        fits = {
            "KRR": [krr(x0, y0, lam_source(n0, sch), bw)],
            "AhTKRR": two_step(x0, y0, sources, lam_source(n_pool, sch),
                               lam_debias(n0, 1.0, sch), bw),
            "AhTKRR_WD": two_step(x0, y0, sources, lam_source(n_pool, sch), 0.0, bw,
                                  debias=False),
        }
        for method, parts in fits.items():
            _close(f"{method} at s={s} rep 0", idx[(method, vi, 0)].test_error,
                   mse(predict(parts, x_te), ref), REL_TOL)


def check_known_orderings(wl, rows: Sequence[Row]) -> None:
    """AhTKRR beats KRR at every shift; AhTKRR_WD worsens with the shift bound."""
    mean = _means(wl, index_rows(wl, rows))
    for vi, s in enumerate(wl.values):
        if not mean[("AhTKRR", vi)] < mean[("KRR", vi)]:
            _fail(f"AhTKRR {mean[('AhTKRR', vi)]:.4g} does not beat KRR "
                  f"{mean[('KRR', vi)]:.4g} at s={s}")
    lo, hi = mean[("AhTKRR_WD", 0)], mean[("AhTKRR_WD", len(wl.values) - 1)]
    if not hi > lo:
        _fail(f"AhTKRR_WD error {lo:.4g} at s={wl.values[0]} not below {hi:.4g} "
              f"at s={wl.values[-1]}")


# -- unknown transferable set (unknown-ex2mod) --------------------------------


def contrasts(t1, sources, sch, bw) -> np.ndarray:
    f0 = krr(t1[0], t1[1], lam_source(t1[0].shape[0], sch), bw)
    k00 = f0.coef @ gram(f0.anchors, f0.anchors, bw) @ f0.coef
    norms = []
    for x, y in sources:
        fk = krr(x, y, lam_source(x.shape[0], sch), bw)
        q = (fk.coef @ gram(x, x, bw) @ fk.coef
             - 2.0 * (fk.coef @ gram(x, f0.anchors, bw) @ f0.coef) + k00)
        norms.append(math.sqrt(max(q, 0.0)))
    return np.array(norms)


def ranks_of(norms: np.ndarray) -> list[int]:
    ranks = np.empty(norms.shape[0], dtype=np.int64)
    ranks[np.argsort(norms, kind="stable")] = np.arange(1, norms.shape[0] + 1)
    return ranks.tolist()


def _candidate(l, order, norms, x0, y0, sources, sch, bw):
    """Candidate l: target-only KRR (l = 0) or the two-step fit on the l best sources."""
    n0 = x0.shape[0]
    if l == 0:
        return [krr(x0, y0, lam_source(n0, sch), bw)]
    subset = order[:l]
    picked = [sources[k] for k in subset]
    n_pool = n0 + sum(x.shape[0] for x, _ in picked)
    h = max(norms[k] for k in subset)
    return two_step(x0, y0, picked, lam_source(n_pool, sch), lam_debias(n0, h, sch), bw)


def _hyper_sparse(cands, t2, c, seed):
    (x21, y21), (x22, y22) = halve(t2[0], t2[1], seed)
    p21 = [predict(f, x21) for f in cands]
    risks = [mse(y21, p) for p in p21]
    best = int(np.argmin(risks))
    phi = math.sqrt(math.log(len(cands) + 1) / x21.shape[0])
    surv = [l for l, p in enumerate(p21)
            if risks[l] <= risks[best] + c * max(phi * math.sqrt(mse(p21[best], p)), phi * phi)]
    if len(surv) == 1:
        return surv[0], surv[0], 1.0
    p22 = {l: predict(cands[l], x22) for l in surv}
    choice, best_risk = None, math.inf
    for i, a in enumerate(surv):
        for b in surv[i + 1:]:
            diff = p22[a] - p22[b]
            denom = float(diff @ diff)
            t = 1.0 if denom == 0.0 else min(max(float((y22 - p22[b]) @ diff) / denom, 0.0), 1.0)
            risk = mse(y22, t * p22[a] + (1.0 - t) * p22[b])
            if risk < best_risk:
                choice, best_risk = (a, b, t), risk
    return choice


def unknown_reference(wl, vi: int = 0, rep: int = 0) -> dict:
    """KRR, Pooled_TKRR and SA_TKRR test errors of one cell, recomputed.

    SA follows the paper's pipeline: halve the target, rank sources by RKHS
    contrast on the first half, fit the m+1 nested candidates, choose a
    convex pair on the second half, refit the pair on the whole target.
    """
    cfg, sch = wl.config, wl.config["schedules"]
    scen, bw = cfg["scenario"], cfg["kernel"]["bandwidth"]
    agg = {"c": 1.0, "split_seed": 0, **cfg.get("aggregation", {})}
    cell_seed = derive_seed(wl.seed, vi, rep)
    (x0, y0), sources, shifts, (x_te, ref) = synthetic_cell(
        scen, scen["s"], int(wl.values[vi]), cell_seed)
    n0, m = x0.shape[0], len(sources)
    n_all = n0 + sum(x.shape[0] for x, _ in sources)
    out = {"shifts": shifts, "KRR": mse(krr(x0, y0, lam_source(n0, sch), bw)(x_te), ref)}
    pooled = two_step(x0, y0, sources, lam_source(n_all, sch), lam_debias(n0, 1.0, sch), bw)
    out["Pooled_TKRR"] = mse(predict(pooled, x_te), ref)

    split_seed = derive_seed(agg["split_seed"], cell_seed)
    t1, t2 = halve(x0, y0, split_seed)
    norms = contrasts(t1, sources, sch, bw)
    ranks = ranks_of(norms)
    order = [k for _, k in sorted(zip(ranks, range(m)))]
    cands = [_candidate(l, order, norms, t1[0], t1[1], sources, sch, bw) for l in range(m + 1)]
    a, b, w = _hyper_sparse(cands, t2, agg["c"], split_seed)
    fa = _candidate(a, order, norms, x0, y0, sources, sch, bw)
    fb = fa if b == a else _candidate(b, order, norms, x0, y0, sources, sch, bw)
    out["SA_TKRR"] = mse(w * predict(fa, x_te) + (1.0 - w) * predict(fb, x_te), ref)
    out.update(ranks=ranks, pair=(a, b, w))
    return out


def check_unknown_reference(wl, rows: Sequence[Row], ref: dict, vi: int = 0,
                            rep: int = 0) -> None:
    idx = index_rows(wl, rows)
    for method in ("KRR", "Pooled_TKRR", "SA_TKRR"):
        what = f"{method} cell ({vi}, {rep})"
        if method == "SA_TKRR":
            what += f" on pair {ref['pair'][:2]} weight {ref['pair'][2]:.4g}"
        _close(what, idx[(method, vi, rep)].test_error, ref[method], REL_TOL)


def check_unknown_orderings(wl, rows: Sequence[Row]) -> None:
    """Sparse aggregation is no worse than pooling every source, negatives included."""
    mean = _means(wl, index_rows(wl, rows))
    for vi, v in enumerate(wl.values):
        sa, pooled = mean[("SA_TKRR", vi)], mean[("Pooled_TKRR", vi)]
        if not sa <= pooled:
            _fail(f"SA_TKRR {sa:.4g} worse than Pooled_TKRR {pooled:.4g} at m={v}")


def check_ranking(ranks: Sequence[int], shifts: Sequence[float], where: str) -> None:
    """Sources whose shifts differ by RANK_MARGIN or more are ranked in shift order.

    Every negative source has a larger shift than every genuine one; this
    asks the ranking to respect that wherever the gap is wide.
    """
    if sorted(ranks) != list(range(1, len(shifts) + 1)):
        _fail(f"{where}: ranks {list(ranks)} are not a permutation")
    for i, si in enumerate(shifts):
        for j, sj in enumerate(shifts):
            if sj - si >= RANK_MARGIN and ranks[j] < ranks[i]:
                _fail(f"{where}: source {j + 1} (shift {sj:.3f}) ranked {ranks[j]} "
                      f"ahead of source {i + 1} (shift {si:.3f}) ranked {ranks[i]}")


# -- CSV studies (csv-studies) -----------------------------------------------


def encoded(study, levels: Sequence[str]) -> np.ndarray:
    onehot = np.array([[1.0 if g == lv else 0.0 for lv in levels] for g in study.grades])
    return np.hstack([study.x_num, onehot.reshape(len(study.grades), len(levels))])


def check_loading(wl, loaded) -> None:
    """The program's loader returns exactly the rows written, bad rows dropped."""
    target, sources = loaded
    levels = sorted({g for s in wl.studies for g in s.grades})
    for study, ds in zip(wl.studies, (target,) + tuple(sources)):
        x = encoded(study, levels)
        if ds.x.shape != x.shape or ds.y.shape != study.y.shape:
            _fail(f"{study.label}: loaded {ds.x.shape[0]} rows x {ds.x.shape[1]} columns, "
                  f"wrote {x.shape[0]} good rows (+{study.bad_rows} bad) x {x.shape[1]}")
        if not (np.array_equal(ds.x, x) and np.array_equal(ds.y, study.y)):
            _fail(f"{study.label}: loaded values differ from the values written")
    if len(sources) != len(wl.studies) - 1:
        _fail(f"loaded {len(sources)} sources, wrote {len(wl.studies) - 1}")


def _standardized(x, y, x_fit, y_fit):
    mx, sx = x_fit.mean(axis=0), x_fit.std(axis=0)
    sx = np.where(sx < _SD_FLOOR, 1.0, sx)
    sy = float(y_fit.std())
    sy = 1.0 if sy < _SD_FLOOR else sy
    return (x - mx) / sx, (y - float(y_fit.mean())) / sy


def check_csv_reference(wl, rows: Sequence[Row]) -> None:
    """KRR and Pooled_TKRR of replication 0 at every n_ah, from the written arrays."""
    idx = index_rows(wl, rows)
    cfg, sch = wl.config, wl.config["schedules"]
    bw, n0 = cfg["kernel"]["bandwidth"], int(cfg["fixed"]["n0"])
    levels = sorted({g for s in wl.studies for g in s.grades})
    data = [(encoded(s, levels), s.y) for s in wl.studies]
    for vi, n_ah in enumerate(wl.values):
        cell_seed = derive_seed(wl.seed, vi, 0)
        (xt, yt) = data[0]
        tr, te = split_rows(xt.shape[0], n0, derive_seed(cell_seed, 0))
        x0, y0 = _standardized(xt[tr], yt[tr], xt[tr], yt[tr])
        x_te, y_te = _standardized(xt[te], yt[te], xt[tr], yt[tr])
        picked = []
        for k, (xs, ys) in enumerate(data[1:], start=1):
            take, _ = split_rows(xs.shape[0], min(int(n_ah), xs.shape[0]), derive_seed(cell_seed, k))
            picked.append(_standardized(xs[take], ys[take], xs[take], ys[take]))
        n_pool = n0 + sum(x.shape[0] for x, _ in picked)
        fits = {
            "KRR": [krr(x0, y0, lam_source(n0, sch), bw)],
            "Pooled_TKRR": two_step(x0, y0, picked, lam_source(n_pool, sch),
                                    lam_debias(n0, 1.0, sch), bw),
        }
        for method, parts in fits.items():
            _close(f"{method} at n_ah={n_ah} rep 0", idx[(method, vi, 0)].test_error,
                   mse(predict(parts, x_te), y_te), REL_TOL)
