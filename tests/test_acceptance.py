"""Acceptance gate: one test per release criterion, each printing one line.

Every test prints "criterion N: PASS/FAIL/SKIP — detail" and then asserts,
so `pytest -v` shows one verdict per criterion. Criteria 2-5 rerun the
shipped figure configs at their full 50 replications; stated budgets
assume an 8-core machine and are scaled by the core deficit of the host.
Criterion 2's third clause compares the KRR-vs-transfer gap at s=0.05 and
s=0.45 on common cells: each source draws its own shift from U(0, s) with a
single uniform draw, so one seed gives the same target, the same KRR fit
and the same source covariates and noise at both shifts. The clause holds
by only about one paired SE, because AhTKRR is nearly flat in s; the
suspected cause is the known-set debias ridge, fixed at offset h=1. See
README, Known limitations.
"""

import dataclasses
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from tkrr.aggregate import (
    hyper_sparse_aggregate,
    rank_contrasts,
    split_uniform,
)
from tkrr.harness import config_from_json, emit_csv, run_sweep, summarize
from tkrr.kernels import Dataset, KernelConfig, RepresenterFunction, rkhs_norm_diff
from tkrr.krr import LambdaSchedule, fit_krr
from tkrr.rng import derive_seed
from tkrr.synthetic import SimSpec, gen_scenario

pytestmark = pytest.mark.acceptance

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

# Budgets are stated per criterion for 8 cores; a smaller host gets
# proportionally more wall time.
SCALE = max(1.0, 8.0 / (os.cpu_count() or 1))


def report(num: int, verdict: str, detail: str) -> None:
    print(f"criterion {num}: {verdict} — {detail}", flush=True)


def budget_note(seconds: float, budget_s: float) -> str:
    return f"{seconds:.0f}s of {budget_s:.0f}s x{SCALE:.0f} budget"


def check_budget(num: int, seconds: float, budget_s: float) -> None:
    assert seconds < budget_s * SCALE, (
        f"criterion {num} runtime {seconds:.0f}s exceeds {budget_s:.0f}s x{SCALE:.0f}"
    )


def pooled_se(sd_a: float, sd_b: float, reps: int) -> float:
    return math.sqrt((sd_a**2 + sd_b**2) / reps)


def run_config(name: str, **overrides):
    cfg = config_from_json(CONFIGS / name)
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)
    rows = run_sweep(cfg, threads=1)
    return cfg, {(s.method, s.sweep_value): s for s in summarize(rows)}


class TestCriterion1:
    def test_criterion_1_oracle_equivalence(self):
        t0 = time.perf_counter()
        cfg = KernelConfig(bandwidth=1.0)

        # KRR coefficients on 1-, 2-, and 3-point fixtures vs direct solves.
        fixtures = [
            (np.array([[0.0]]), np.array([2.0]), 0.5),
            (np.array([[0.0], [1.0]]), np.array([1.0, -1.0]), 0.25),
            (np.array([[0.0], [0.5], [1.2]]), np.array([0.3, -0.7, 1.1]), 0.1),
        ]
        worst_coef = 0.0
        for x, y, lam in fixtures:
            d2 = (x[:, None, :] - x[None, :, :]) ** 2
            gram = np.exp(-d2.sum(axis=-1))
            oracle = np.linalg.solve(gram + x.shape[0] * lam * np.eye(x.shape[0]), y)
            got = fit_krr(Dataset(x=x, y=y), lam, cfg).coefficients
            worst_coef = max(worst_coef, float(np.max(np.abs(got - oracle))))
        ok_coef = worst_coef < 1e-8

        # RKHS distance vs the stacked Gram quadratic form, 100 random pairs.
        rng = np.random.default_rng(20260815)
        worst_norm = 0.0
        for _ in range(100):
            na, nb, d = rng.integers(1, 8), rng.integers(1, 8), rng.integers(1, 4)
            fa = RepresenterFunction(rng.normal(size=(na, d)), rng.normal(size=na), cfg)
            fb = RepresenterFunction(rng.normal(size=(nb, d)), rng.normal(size=nb), cfg)
            anchors = np.vstack([fa.anchors, fb.anchors])
            coef = np.concatenate([fa.coefficients, -fb.coefficients])
            d2 = ((anchors[:, None, :] - anchors[None, :, :]) ** 2).sum(axis=-1)
            quad = float(coef @ np.exp(-d2) @ coef)
            oracle = math.sqrt(max(quad, 0.0))
            worst_norm = max(worst_norm, abs(rkhs_norm_diff(fa, fb) - oracle))
        ok_norm = worst_norm < 1e-10

        # Mixing weight vs a 1e-6-step grid search, compared in held-out risk.
        grid = np.arange(0.0, 1.0 + 1e-6, 1e-6)
        worst_risk = 0.0
        for case in range(50):
            n = int(rng.integers(40, 200))
            x = rng.uniform(0, 1, (n, 1))
            m = int(rng.integers(2, 7))
            funcs = []
            for _ in range(m):
                a, b, w = rng.normal(0, 1), rng.normal(0, 0.3), rng.uniform(1, 9)
                funcs.append(lambda x, a=a, b=b, w=w: a * np.sin(w * np.asarray(x)[:, 0]) + b)
            y = funcs[0](x) + rng.normal(0, 0.5, n)
            t2 = Dataset(x=x, y=y)
            agg = hyper_sparse_aggregate(funcs, t2, case, np.array([f(t2.x) for f in funcs]))
            _, t22 = split_uniform(t2, case)
            fa = agg.candidates[agg.idx_a](t22.x)
            fb = agg.candidates[agg.idx_b](t22.x)
            u, v = fa - fb, fb - t22.y
            mu, muv, mvv = float(u @ u), float(u @ v), float(v @ v)

            def risk(t):
                return (t * t * mu + 2.0 * t * muv + mvv) / t22.n

            worst_risk = max(worst_risk, abs(risk(agg.weight) - np.min(risk(grid))))
        ok_risk = worst_risk < 1e-6

        dt = time.perf_counter() - t0
        ok = ok_coef and ok_norm and ok_risk and dt < 5.0
        report(
            1,
            "PASS" if ok else "FAIL",
            f"coef dev {worst_coef:.1e} (<1e-8), norm dev {worst_norm:.1e} (<1e-10), "
            f"risk dev {worst_risk:.1e} (<1e-6), {dt:.1f}s of 5s",
        )
        assert ok_coef and ok_norm and ok_risk
        assert dt < 5.0


class TestCriterion2:
    def test_criterion_2_shift_sweep_orderings(self):
        t0 = time.perf_counter()
        cfg = config_from_json(CONFIGS / "fig3.json")
        reps = cfg.replications
        # One one-value sweep per shift: both use value index 0 and hence
        # the same cell seeds, so the two shifts are compared on the same
        # replications instead of on two unrelated seed sets.
        rows = {
            s: run_sweep(dataclasses.replace(cfg, sweep_values=(s,)), threads=1)
            for s in (0.05, 0.45)
        }
        summ = {(r.method, r.sweep_value): r for r in summarize(rows[0.05] + rows[0.45])}

        def per_rep(s: float, method: str) -> np.ndarray:
            return np.array([r.test_error for r in rows[s] if r.method == method])

        k05, a05 = summ[("KRR", 0.05)], summ[("AhTKRR", 0.05)]
        w05 = summ[("AhTKRR_WD", 0.05)]
        k45, a45 = summ[("KRR", 0.45)], summ[("AhTKRR", 0.45)]
        # KRR sees only the target, which does not depend on s: identical
        # per-replication errors confirm that the cells are paired.
        paired = np.array_equal(per_rep(0.05, "KRR"), per_rep(0.45, "KRR"), equal_nan=True)
        diff = per_rep(0.45, "AhTKRR") - per_rep(0.05, "AhTKRR")
        diff_mean = float(np.mean(diff))
        diff_se = float(np.std(diff, ddof=1)) / math.sqrt(diff.size)
        dt = time.perf_counter() - t0

        m_a = (k05.mean_error - a05.mean_error) / pooled_se(
            k05.std_error, a05.std_error, reps
        )
        m_b = (w05.mean_error - a05.mean_error) / pooled_se(
            w05.std_error, a05.std_error, reps
        )
        gap05 = k05.mean_error - a05.mean_error
        gap45 = k45.mean_error - a45.mean_error
        ok_a, ok_b, ok_c = m_a >= 2.0, m_b >= 1.0, gap45 < gap05
        verdict = "PASS" if (paired and ok_a and ok_b and ok_c) else "FAIL"
        report(
            2,
            verdict,
            f"(a) transfer under KRR by {m_a:.1f} SE (need >=2): "
            f"{'PASS' if ok_a else 'FAIL'}; "
            f"(b) under no-debias by {m_b:.1f} SE (need >=1): "
            f"{'PASS' if ok_b else 'FAIL'}; "
            f"(c) gap s=0.45 {gap45:.4f} < gap s=0.05 {gap05:.4f} on paired cells "
            f"(KRR identical: {paired}; AhTKRR s=0.45 minus s=0.05 "
            f"{diff_mean:.6f} +- {diff_se:.6f}, {diff_mean / diff_se:.1f} paired SE): "
            f"{'PASS' if ok_c else 'FAIL'}; "
            f"{budget_note(dt, 600)}",
        )
        check_budget(2, dt, 600)
        assert paired, "KRR errors differ between s=0.05 and s=0.45: cells are not paired"
        assert ok_a, f"transfer beat KRR by only {m_a:.2f} pooled SE"
        assert ok_b, f"debiasing helped by only {m_b:.2f} pooled SE"
        if not ok_c:
            pytest.fail(
                f"gap at s=0.45 ({gap45:.4f}) not below gap at s=0.05 ({gap05:.4f}) "
                f"on paired cells; AhTKRR changed by {diff_mean:.6f} +- {diff_se:.6f} "
                "from s=0.05 to s=0.45. Source shifts are drawn from U(0, s), yet "
                "AhTKRR is nearly flat in s (known limitation, see README)",
                pytrace=False,
            )


class TestCriterion3:
    def test_criterion_3_transferable_count_sweep(self):
        t0 = time.perf_counter()
        cfg, summ = run_config("fig4.json")
        reps = cfg.replications
        values = list(cfg.sweep_values)
        means = [summ[("AhTKRR", v)].mean_error for v in values]
        sds = [summ[("AhTKRR", v)].std_error for v in values]
        dt = time.perf_counter() - t0

        margin = (means[0] - means[-1]) / pooled_se(sds[0], sds[-1], reps)
        ok_drop = margin >= 2.0
        slack_ok = all(
            means[i + 1] <= means[i] + pooled_se(sds[i], sds[i + 1], reps)
            for i in range(len(values) - 1)
        )
        ok = ok_drop and slack_ok
        report(
            3,
            "PASS" if ok else "FAIL",
            f"full-set error under empty-set by {margin:.1f} SE (need >=2), "
            f"nonincreasing within 1 SE slack: {slack_ok}; {budget_note(dt, 900)}",
        )
        check_budget(3, dt, 900)
        assert ok_drop, f"error dropped by only {margin:.2f} pooled SE"
        assert slack_ok, f"means not nonincreasing within slack: {means}"


class TestCriterion4:
    def test_criterion_4_target_size_sweep(self):
        t0 = time.perf_counter()
        _, summ = run_config("fig5.json")
        gaps = {}
        for n0 in (200, 1000, 3000):
            k, a = summ[("KRR", n0)], summ[("AhTKRR", n0)]
            gaps[n0] = (k.mean_error - a.mean_error) / k.mean_error
        dt = time.perf_counter() - t0
        ok = gaps[200] > gaps[3000]
        report(
            4,
            "PASS" if ok else "FAIL",
            f"relative gap n0=200 {gaps[200]:.3f} > n0=3000 {gaps[3000]:.3f} "
            f"(n0=1000: {gaps[1000]:.3f}); {budget_note(dt, 1200)}",
        )
        check_budget(4, dt, 1200)
        assert ok, f"relative gaps {gaps} not larger at the small target size"


class TestCriterion5:
    def test_criterion_5_negative_source_sweep(self):
        t0 = time.perf_counter()
        cfg, summ = run_config("fig6.json")
        reps = cfg.replications
        values = list(cfg.sweep_values)
        sa_vs_pooled = {
            v: (summ[("SA_TKRR", v)].mean_error, summ[("Pooled_TKRR", v)].mean_error)
            for v in values
        }
        ok_pooled = all(sa <= po for sa, po in sa_vs_pooled.values())
        sa10, k10 = summ[("SA_TKRR", 10)], summ[("KRR", 10)]
        se10 = pooled_se(sa10.std_error, k10.std_error, reps)
        ok_krr = sa10.mean_error <= k10.mean_error + se10
        dt = time.perf_counter() - t0
        ok = ok_pooled and ok_krr
        pairs = ", ".join(
            f"m={v}: {sa:.3f}<={po:.3f}" for v, (sa, po) in sa_vs_pooled.items()
        )
        report(
            5,
            "PASS" if ok else "FAIL",
            f"aggregation under pooling at every m ({pairs}): {ok_pooled}; "
            f"at m=10 within 1 SE of KRR ({sa10.mean_error:.3f} <= "
            f"{k10.mean_error:.3f}+{se10:.3f}): {ok_krr}; {budget_note(dt, 1800)}",
        )
        check_budget(5, dt, 1800)
        assert ok_pooled, f"aggregation lost to pooling somewhere: {sa_vs_pooled}"
        assert ok_krr, f"aggregation worse than KRR + 1 SE at m=10"


class TestCriterion6:
    def test_criterion_6_ranking_consistency(self):
        t0 = time.perf_counter()
        sched = LambdaSchedule(scale=0.1)
        cfg = KernelConfig(bandwidth=0.05)
        shifts = (0.05, 0.15, 0.27, 0.39)
        rates = []
        for n_k in (200, 500, 2000):
            spec = SimSpec(
                example="ex1", s=0.39, m=4, n0=1000, n_k=n_k, fixed_shifts=shifts
            )
            hits = 0
            for rep in range(100):
                target, sources, _, _ = gen_scenario(spec, seed=derive_seed(99, n_k, rep))
                ranked = rank_contrasts(target, sources, sched, cfg)
                hits += list(ranked.ranks) == [1, 2, 3, 4]
            rates.append(hits / 100)
        dt = time.perf_counter() - t0
        ok_final = rates[-1] >= 0.95
        ok_mono = all(rates[i] <= rates[i + 1] for i in range(len(rates) - 1))
        ok = ok_final and ok_mono
        report(
            6,
            "PASS" if ok else "FAIL",
            f"exact-order recovery over n_k in (200, 500, 2000): "
            f"{rates[0]:.2f}/{rates[1]:.2f}/{rates[2]:.2f} "
            f"(final >=0.95, nondecreasing); {budget_note(dt, 300)}",
        )
        check_budget(6, dt, 300)
        assert ok_final, f"recovery {rates[-1]:.2f} below 0.95 at n_k=2000"
        assert ok_mono, f"recovery rates {rates} not nondecreasing"


class TestCriterion7:
    BRANDS = ("audi", "bmw", "ford", "hyundi", "merc", "skoda", "toyota", "vauxhall", "vw")

    def test_criterion_7_used_car_spot_check(self):
        missing = [
            b for b in self.BRANDS if not (ROOT / "data" / "usedcar" / f"{b}.csv").is_file()
        ]
        if missing:
            report(
                7,
                "SKIP",
                f"used-car CSVs not present ({', '.join(missing)}); "
                "see README for the download recipe",
            )
            pytest.skip("used-car CSVs not downloaded")
        t0 = time.perf_counter()
        wins = 0
        merc_mean = None
        for brand in self.BRANDS:
            _, summ = run_config(
                f"usedcar_{brand}.json",
                replications=100,
                methods=("KRR", "SA_TKRR"),
            )
            value = next(v for m, v in summ if m == "SA_TKRR")
            sa = summ[("SA_TKRR", value)].mean_error
            krr = summ[("KRR", value)].mean_error
            wins += sa <= krr
            if brand == "merc":
                merc_mean = sa
        dt = time.perf_counter() - t0
        ok_wins = wins >= 7
        ok_merc = 0.35 <= merc_mean <= 0.65
        ok = ok_wins and ok_merc
        report(
            7,
            "PASS" if ok else "FAIL",
            f"aggregation at or under KRR on {wins}/9 brands (need >=7); "
            f"merc mean {merc_mean:.4f} in [0.35, 0.65]; {dt:.0f}s",
        )
        assert ok_wins and ok_merc


class TestCriterion8:
    def test_criterion_8_property_suites(self):
        t0 = time.perf_counter()
        files = sorted(
            p.name
            for p in Path(__file__).parent.glob("test_*.py")
            if p.name != "test_acceptance.py"
        )
        # The child runs from tests/, so an inherited relative PYTHONPATH
        # (such as PYTHONPATH=src) would no longer reach the package.
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *files],
            cwd=Path(__file__).parent,
            env=env,
            capture_output=True,
            text=True,
        )
        dt = time.perf_counter() - t0
        tail = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "no output"
        ok = proc.returncode == 0 and dt < 180.0
        report(
            8,
            "PASS" if ok else "FAIL",
            f"module suites over {len(files)} files: {tail}; {dt:.0f}s of 180s",
        )
        assert proc.returncode == 0, f"module suites failed:\n{proc.stdout}\n{proc.stderr}"
        assert dt < 180.0


class TestCriterion9:
    @staticmethod
    def drop_timing(path: Path) -> str:
        # wall_ms is measured time, the one intentionally run-dependent
        # column; every value-bearing column must be byte-identical.
        lines = path.read_text().splitlines()
        return "\n".join(ln.rsplit(",", 1)[0] for ln in lines)

    def test_criterion_9_determinism_across_runs_and_threads(self, tmp_path):
        t0 = time.perf_counter()
        base = config_from_json(CONFIGS / "fig3.json")
        cfg = dataclasses.replace(base, replications=4)
        outputs = {}
        for tag, threads in (("run1", 1), ("run2", 1), ("threaded", 2)):
            rows = run_sweep(cfg, threads=threads)
            res = emit_csv(rows, tmp_path / tag / "results.csv")
            summ = emit_csv(summarize(rows), tmp_path / tag / "summary.csv")
            outputs[tag] = (self.drop_timing(Path(res)), Path(summ).read_bytes())
        dt = time.perf_counter() - t0
        same_rerun = outputs["run1"] == outputs["run2"]
        same_threads = outputs["run1"] == outputs["threaded"]
        ok = same_rerun and same_threads
        report(
            9,
            "PASS" if ok else "FAIL",
            f"fig3 config at 4 replications: rerun identical {same_rerun}, "
            f"1 vs 2 workers identical {same_threads} "
            f"(timing column excluded, summaries byte-equal); {dt:.0f}s",
        )
        assert same_rerun, "same seed, same thread count produced different CSVs"
        assert same_threads, "thread count changed the result CSVs"
