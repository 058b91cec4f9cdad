import dataclasses
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from tkrr import aggregate, harness, transfer
from tkrr.aggregate import AggregateModel
from tkrr.datasets import StudyConfig, load_studies
from tkrr.harness import (
    METHODS,
    ExperimentConfig,
    ResultRow,
    SummaryRow,
    config_from_json,
    config_to_dict,
    emit_csv,
    prediction_error,
    run_sweep,
    summarize,
)
from tkrr.kernels import Dataset, KernelConfig, RepresenterFunction
from tkrr.krr import (
    LambdaSchedule,
    fit_krr_nested,
    schedule_lambda_debias,
    schedule_lambda_source,
)
from tkrr.rng import derive_seed
from tkrr.synthetic import SimSpec, gen_scenario, scenario_to_csv
from tkrr.transfer import SourceCollection, fit_ah_tkrr, fit_pooled

N_CASES = 100

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
# sha256 of json.dumps(config_to_dict(config_from_json(path)), indent=2), the
# config.json that `tkrr simulate` archives, for every shipped config.
ARCHIVED_CONFIG_SHA256 = {
    "fig3.json": "15a634df7a149ddffdfd3f2e2eff5dded86a31cb4210dfc396f82b04b1efe1dc",
    "fig4.json": "b1161c2be18eb1680e5199f933aa8cd3ccc28878a9256387f1b28e97d64fdba8",
    "fig5.json": "3f14e9d642710ee0f33f170c53d50a477ea81bd00a7973da5594d8718ea027b3",
    "fig6.json": "104c963b05aed0ad70f697131afd58155b77855803ef31f3547c245e4b427d50",
    "usedcar_audi.json": "c268b18911897c547db2f0f6f04fa1df5cf2c0f396911eed90464fd0baed26b0",
    "usedcar_bmw.json": "a63ab3b582185251f2f632325a05073fd80f3850522d6ea338e89aeb3334667e",
    "usedcar_ford.json": "c5607fbc551b36ce2f8f672b74b1af57541c1081765bdb21ec1895e24ee6782f",
    "usedcar_hyundi.json": "a0e54534094cc054ea33d863b4da25b59c6cf1faa83ac9df5ece766214efc14a",
    "usedcar_merc.json": "76a2ce676779b8bbd567811d3f52b09b2b591df2729657645121eb11c758e231",
    "usedcar_skoda.json": "d25f07a450bbed9eeb9b0d8124dad9f702af4ce5787cd52ecad730cd3e57ac63",
    "usedcar_toyota.json": "f7dcac10006a3b3434c138d3105b9e9eb46a3a29126b6fb5b9d8eb91878d6ed8",
    "usedcar_vauxhall.json": "f6b8ee82009919258ee000a9c876996bf47aef867c142fabaf1eed86792e3334",
    "usedcar_vw.json": "3f409fb40b12668fc42ad82d31b763e63bb644d5ec400c6045f215a3ada99224",
    "wine_n100.json": "7e83290ec9a71b4f238538ad5dfe77a037861269896eb407e4f121a0c786655b",
    "wine_n200.json": "5eab4c8c9d28c5b53016e04ce4a8eb1ac3e7a6e26326a26be0c78e6d1591b379",
    "wine_n300.json": "b80f30c54ff02a494aaffa38bde4cca8f24ca334adaf58825cd7b076871fe4a0",
}


def tiny_config(**kw):
    base = dict(
        scenario=SimSpec(example="ex1", s=0.1, m=3, n0=24, n_k=16, n_te=40),
        methods=("KRR", "AhTKRR"),
        sweep_name="s",
        sweep_values=(0.05, 0.25),
        replications=2,
        seed=5,
        schedules=LambdaSchedule(scale=0.1),
        kernel=KernelConfig(bandwidth=0.05),
    )
    base.update(kw)
    return ExperimentConfig(**base)


class TestPredictionError:
    def test_constant_zero_vs_two(self):
        zero = RepresenterFunction(
            np.zeros((1, 1)), np.zeros(1), KernelConfig()
        )
        x = np.random.default_rng(0).random((11, 1))
        assert prediction_error(zero, x, np.full(11, 2.0)) == 4.0

    def test_matches_summation(self):
        rng = np.random.default_rng(700)
        cfg = KernelConfig(bandwidth=0.8)
        for _ in range(N_CASES):
            n = int(rng.integers(1, 8))
            f = RepresenterFunction(rng.random((n, 2)), rng.normal(size=n), cfg)
            x = rng.random((int(rng.integers(2, 20)), 2))
            ref = rng.normal(size=x.shape[0])
            manual = sum((p - r) ** 2 for p, r in zip(f(x), ref)) / len(ref)
            assert prediction_error(f, x, ref) == pytest.approx(manual, abs=1e-12)

    def test_length_mismatch(self):
        f = RepresenterFunction(np.zeros((1, 1)), np.zeros(1), KernelConfig())
        with pytest.raises(ValueError):
            prediction_error(f, np.zeros((3, 1)), np.zeros(2))


class TestDeriveSeed:
    def test_deterministic_and_distinct(self):
        seen = set()
        for vi in range(10):
            for rep in range(10):
                s = derive_seed(42, vi, rep)
                assert s == derive_seed(42, vi, rep)
                seen.add(s)
        assert len(seen) == 100

    def test_base_seed_matters(self):
        assert derive_seed(1, 0, 0) != derive_seed(2, 0, 0)


class TestRunSweep:
    def test_row_count_and_sorting(self):
        cfg = tiny_config()
        rows = run_sweep(cfg, threads=1)
        assert len(rows) == 2 * 2 * 2  # methods * values * replications
        keys = [(r.method, cfg.sweep_values.index(r.sweep_value), r.replication) for r in rows]
        assert keys == sorted(keys)

    def test_single_cell(self):
        cfg = tiny_config(methods=("KRR",), sweep_values=(0.1,), replications=1)
        rows = run_sweep(cfg, threads=1)
        assert len(rows) == 1
        assert rows[0].method == "KRR"
        assert rows[0].test_error >= 0

    def test_rerun_is_identical(self):
        cfg = tiny_config()
        a = run_sweep(cfg, threads=1)
        b = run_sweep(cfg, threads=1)
        for ra, rb in zip(a, b):
            assert (ra.method, ra.sweep_value, ra.replication, ra.seed) == (
                rb.method, rb.sweep_value, rb.replication, rb.seed
            )
            assert ra.test_error == rb.test_error

    def test_thread_count_does_not_change_results(self):
        cfg = tiny_config(replications=3)
        serial = run_sweep(cfg, threads=1)
        parallel = run_sweep(cfg, threads=2)
        assert [r.test_error for r in serial] == [r.test_error for r in parallel]
        assert [r.seed for r in serial] == [r.seed for r in parallel]

    def test_fit_failure_flags_row_and_continues(self):
        # SA needs 4 target rows; n0=3 forces a per-cell failure for it only
        cfg = tiny_config(
            scenario=SimSpec(example="ex1", s=0.1, m=2, n0=3, n_k=10, n_te=20),
            methods=("SA_TKRR", "KRR"),
            sweep_values=(0.1,),
            replications=2,
        )
        rows = run_sweep(cfg, threads=1)
        assert len(rows) == 4
        by_method = {}
        for r in rows:
            by_method.setdefault(r.method, []).append(r)
        assert all(math.isnan(r.test_error) for r in by_method["SA_TKRR"])
        assert all(not math.isnan(r.test_error) for r in by_method["KRR"])

    def test_programming_error_raises(self, monkeypatch):
        # Only numerical failures and too little data become failed fits; a
        # prediction of the wrong length is a bug and stops the sweep.
        def wrong_length(*args):
            return lambda x: np.zeros(len(x) + 1)

        monkeypatch.setattr(harness, "fit_krr", wrong_length)
        with pytest.raises(ValueError, match="length mismatch"):
            run_sweep(tiny_config(methods=("KRR",)), threads=1)

    def test_a_h_sweep_controls_transferable_set(self):
        cfg = tiny_config(
            methods=("AhTKRR",), sweep_name="a_h", sweep_values=(0, 3), replications=1
        )
        rows = run_sweep(cfg, threads=1)
        assert len(rows) == 2

    def test_pooled_uses_all_sources(self):
        # On an unmodified design Pooled and AhTKRR with full A_h are the
        # same estimator. AhTKRR pools in index order and Pooled_TKRR in
        # T1-rank order (the candidate ladder's top rung), so their errors
        # agree within fit_krr_nested's 1e-12 relative bound, not bit for bit.
        cfg = tiny_config(methods=("AhTKRR", "Pooled_TKRR"), sweep_values=(0.1,))
        rows = run_sweep(cfg, threads=1)
        ah = np.array([r.test_error for r in rows if r.method == "AhTKRR"])
        pooled = np.array([r.test_error for r in rows if r.method == "Pooled_TKRR"])
        assert ah.shape == pooled.shape == (2,)
        assert np.all(np.abs(pooled - ah) <= 1e-12 * ah)


def _errors_by_method(cfg, methods):
    rows = run_sweep(dataclasses.replace(cfg, methods=methods), threads=1)
    out = {m: [r.test_error for r in rows if r.method == m] for m in methods}
    assert not any(math.isnan(e) for errs in out.values() for e in errs)
    return out


class TestSharedStages:
    """Stages shared within a cell are fitted once and change no result."""

    def _assert_order_free(self, cfg, methods):
        together = _errors_by_method(cfg, methods)
        backwards = _errors_by_method(cfg, methods[::-1])
        for m in methods:
            alone = _errors_by_method(cfg, (m,))[m]
            assert together[m] == alone == backwards[m], m

    def test_sharing_changes_no_result_synthetic(self):
        cfg = tiny_config(sweep_values=(0.1, 0.3), fixed=(("a_h", 2),))
        self._assert_order_free(cfg, METHODS)

    def test_sharing_changes_no_result_csv(self, tmp_path):
        spec = SimSpec(example="ex1", s=0.2, m=3, n0=60, n_k=40)
        target, sources, _, _ = gen_scenario(spec, seed=17)
        paths = scenario_to_csv(target, sources, tmp_path)
        studies = tuple(
            StudyConfig(
                path=str(path), feature_columns=("x1",), response_column="y",
                role="target" if k == 0 else "source",
            )
            for k, path in enumerate(paths)
        )
        cfg = ExperimentConfig(
            scenario=studies,
            methods=("KRR",),
            sweep_name="n_ah",
            sweep_values=(20, 40),
            replications=2,
            seed=8,
            schedules=LambdaSchedule(scale=0.1),
            kernel=KernelConfig(bandwidth=0.5),
            fixed=(("n0", 30),),
        )
        self._assert_order_free(cfg, ("SA_TKRR", "AEW_TKRR"))

    def test_each_shared_stage_fits_once(self, monkeypatch):
        pooled_sets, prepared, chosen = [], [], []

        def recording(log, fn, arg=None):
            def wrapped(*args, **kwargs):
                out = fn(*args, **kwargs)
                log.append(out if arg is None else args[arg].transferable)
                return out
            return wrapped

        # The harness's store fits A_h's pooled step; SA's partial-set
        # refits fit theirs in transfer.fit_ah_tkrr.
        for module in (harness, transfer):
            monkeypatch.setattr(module, "fit_pooled", recording(pooled_sets, module.fit_pooled, 1))
        monkeypatch.setattr(
            harness, "prepare_candidates", recording(prepared, harness.prepare_candidates)
        )
        monkeypatch.setattr(harness, "sa_tkrr", recording(chosen, harness.sa_tkrr))
        cfg = tiny_config(
            methods=METHODS, sweep_values=(0.1,), replications=1, fixed=(("a_h", 2),)
        )
        run_sweep(cfg, threads=1)
        # One candidate set, whose top rung is the all-sources pooled fit.
        # One index-order pooled fit per other source set the cell needs:
        # A_h = (1, 2), and each partial set SA refits with weight > 0.
        assert len(prepared) == 1
        (_, cs), (agg,) = prepared[0], chosen
        weighted = ((agg.idx_a, agg.weight), (agg.idx_b, 1.0 - agg.weight))
        needed = [(1, 2)] + [
            tuple(sorted(cs.nested_sets[i])) for i, w in weighted if 0 < i < cs.m and w != 0.0
        ]
        assert len(needed) > 1
        assert sorted(pooled_sets) == sorted(needed)

    @pytest.mark.parametrize("sa_first", [False, True])
    def test_sa_refit_of_all_sources_is_the_pooled_fit(self, monkeypatch, sa_first):
        cfg = tiny_config(methods=("Pooled_TKRR", "SA_TKRR"))
        cell_seed, target, sources, transferable, _, _ = harness.build_cell(cfg, 0, 0)
        m = len(sources)

        def all_sources(candidates, t2, split_seed, values):
            return AggregateModel(idx_a=m, idx_b=0, weight=0.5, candidates=tuple(candidates))

        monkeypatch.setattr(aggregate, "hyper_sparse_aggregate", all_sources)
        shared = {}
        order = ("SA_TKRR", "Pooled_TKRR") if sa_first else ("Pooled_TKRR", "SA_TKRR")
        fit = {
            meth: harness._fit_method(meth, target, sources, transferable, cfg, cell_seed, shared)
            for meth in order
        }
        pooled = fit["Pooled_TKRR"].parts[0]
        assert fit["SA_TKRR"].candidates[m].parts[0] is pooled
        # It is the top rung of SA's candidate ladder: a standalone ladder on
        # T1, the sources in T1-rank order, then T2 gives it bit for bit.
        t1, t2 = aggregate.split_uniform(target, harness._sa_split_seed(cell_seed))
        cs = shared["candidates"][1]
        rows = [t1] + [sources[k - 1] for k in cs.nested_sets[-1]] + [t2]
        data = Dataset(np.concatenate([d.x for d in rows]), np.concatenate([d.y for d in rows]))
        sizes = list(t1.n + np.cumsum([d.n for d in rows[1:-1]])) + [data.n]
        lam = [schedule_lambda_source(int(n), cfg.schedules) for n in sizes]
        top = fit_krr_nested(data, sizes, lam, cfg.kernel)[-1]
        assert np.array_equal(pooled.coefficients, top.coefficients)
        assert np.array_equal(pooled.anchors, top.anchors)
        # And it predicts as the index-order pooled fit does, within
        # fit_krr_nested's 1e-12 relative bound.
        coll = SourceCollection(sources=sources, transferable=tuple(range(1, m + 1)))
        own = fit_pooled(target, coll, lam[-1], cfg.kernel)
        x_test = np.linspace(0.0, 1.0, 50)[:, None]
        want = own(x_test)
        assert np.max(np.abs(pooled(x_test) - want)) <= 1e-12 * np.max(np.abs(want))

    def test_sweep_sa_is_the_library_sa(self, monkeypatch):
        # The sweep's SA_TKRR, on the cell's shared candidate set, and the
        # library's sa_tkrr on the same arguments are one estimator: with the
        # all-sources candidate weighted, their refits pool alike.
        cfg = tiny_config(methods=("SA_TKRR",))
        cell_seed, target, sources, transferable, x_test, _ = harness.build_cell(cfg, 0, 0)
        m = len(sources)

        def all_sources(candidates, t2, split_seed, values):
            return AggregateModel(idx_a=m, idx_b=0, weight=0.5, candidates=tuple(candidates))

        monkeypatch.setattr(aggregate, "hyper_sparse_aggregate", all_sources)
        shared = {}
        sweep = harness._fit_method("SA_TKRR", target, sources, transferable, cfg, cell_seed, shared)
        library = aggregate.sa_tkrr(
            target, sources, harness._sa_split_seed(cell_seed), cfg.schedules, cfg.kernel
        )
        assert np.array_equal(sweep(x_test), library(x_test))

    def test_fit_without_store_is_the_sweep(self):
        # `tkrr fit` fits one method with no per-cell store; every method's
        # test_error equals the sweep's row for the same cell bit for bit.
        cfg = tiny_config(methods=METHODS, sweep_values=(0.1,), replications=1, fixed=(("a_h", 2),))
        rows = {r.method: r.test_error for r in run_sweep(cfg, threads=1)}
        cell_seed, target, sources, transferable, x_test, reference = harness.build_cell(cfg, 0, 0)
        for method in METHODS:
            model = harness._fit_method(method, target, sources, transferable, cfg, cell_seed)
            assert prediction_error(model, x_test, reference) == rows[method], method

    def test_shared_pooled_values_are_kept_per_array(self, monkeypatch):
        # A shared pooled fit is evaluated once on each array it is called
        # on, matched by identity: the cell's target rows (by AhTKRR's debias
        # step), its test grid, or any other array. The kept values are
        # read-only and bit for bit a fresh evaluation; an equal copy of an
        # array is another array.
        cfg = tiny_config(fixed=(("a_h", 2),))
        cell_seed, target, sources, transferable, x_test, _ = harness.build_cell(cfg, 0, 0)
        shared = {}
        fit = [
            harness._fit_method(m, target, sources, transferable, cfg, cell_seed, shared)
            for m in ("AhTKRR", "AhTKRR_WD")
        ]
        pooled = fit[1]
        assert pooled is fit[0].parts[0]
        plain = RepresenterFunction(pooled.anchors, pooled.coefficients, pooled.kernel)
        want = {id(x): plain(x) for x in (target.x, x_test)}
        evaluated = []
        real = RepresenterFunction.__call__
        monkeypatch.setattr(
            RepresenterFunction, "__call__", lambda f, x: evaluated.append(len(x)) or real(f, x)
        )
        for x in (target.x, x_test, x_test):
            kept = pooled(x)
            assert pooled(x) is kept and not kept.flags.writeable
            assert np.array_equal(kept, want[id(x)])
        assert evaluated == [len(x_test)]
        copy = x_test.copy()
        assert np.array_equal(pooled(copy), want[id(x_test)])
        assert pooled(copy) is pooled(copy)
        assert evaluated == [len(x_test)] * 2

    def test_no_debias_row_is_the_pooled_fit(self):
        cfg = tiny_config(fixed=(("a_h", 2),))
        cell_seed, target, sources, transferable, x_test, _ = harness.build_cell(cfg, 0, 0)
        shared = {}
        fit = [
            harness._fit_method(m, target, sources, transferable, cfg, cell_seed, shared)
            for m in ("AhTKRR", "AhTKRR_WD")
        ]
        assert fit[1] is fit[0].parts[0]
        alone = harness._fit_method("AhTKRR_WD", target, sources, transferable, cfg, cell_seed)
        coll = SourceCollection(sources=sources, transferable=transferable)
        lam1 = schedule_lambda_source(coll.n_transferable + target.n, cfg.schedules)
        own = fit_pooled(target, coll, lam1, cfg.kernel)
        assert np.array_equal(alone(x_test), own(x_test))


class TestPooledFallback:
    @pytest.mark.parametrize("size", [{"n0": 1}, {"m": 0}])
    def test_index_order_where_sa_split_cannot_run(self, size):
        # A 1-row target cannot be split, and a cell with no sources has no
        # ladder: there Pooled_TKRR pools in index order with fit_pooled, as
        # before the ladder served it, and no fit fails.
        spec = dataclasses.replace(tiny_config().scenario, **size)
        cfg = tiny_config(scenario=spec, methods=("Pooled_TKRR",))
        rows = run_sweep(cfg, threads=1)
        assert len(rows) == 4
        for r in rows:
            vi = cfg.sweep_values.index(r.sweep_value)
            _, target, sources, _, x_test, reference = harness.build_cell(cfg, vi, r.replication)
            coll = SourceCollection(sources=sources, transferable=tuple(range(1, len(sources) + 1)))
            lam1 = schedule_lambda_source(coll.n_transferable + target.n, cfg.schedules)
            lam2 = schedule_lambda_debias(target.n, 1.0, cfg.schedules)
            want = fit_ah_tkrr(target, coll, lam1, lam2, cfg.kernel)
            assert r.test_error == prediction_error(want, x_test, reference)


class TestRealDataSweep:
    def test_runs_and_uses_y_reference(self, tmp_path):
        from tkrr.datasets import StudyConfig

        tpath = tmp_path / "t.csv"
        spath = tmp_path / "s.csv"
        rng = np.random.default_rng(31)
        for path, shift in ((tpath, 0.0), (spath, 0.3)):
            x = rng.random(50)
            y = np.sin(3 * x) + shift + rng.normal(0, 0.1, 50)
            path.write_text(
                "u,y\n" + "\n".join(f"{float(a)!r},{float(b)!r}" for a, b in zip(x, y)) + "\n"
            )
        cfg = ExperimentConfig(
            scenario=(
                StudyConfig(path=str(tpath), feature_columns=("u",), response_column="y", role="target"),
                StudyConfig(path=str(spath), feature_columns=("u",), response_column="y"),
            ),
            methods=("KRR", "AhTKRR", "SA_TKRR"),
            sweep_name="n0",
            sweep_values=(20, 30),
            replications=2,
            seed=3,
            schedules=LambdaSchedule(scale=0.3),
            kernel=KernelConfig(bandwidth=0.5),
        )
        rows = run_sweep(cfg, threads=1)
        assert len(rows) == 12
        assert all(r.test_error >= 0 for r in rows)

    def test_no_test_rows_raises_before_any_fit(self, tmp_path, monkeypatch):
        # n0 equal to the target's 30 rows leaves no test rows: a bad input
        # that raises, not a sweep of failed fits.
        spec = SimSpec(example="ex1", s=0.2, m=1, n0=30, n_k=20)
        target, sources, _, _ = gen_scenario(spec, seed=6)
        studies = tuple(
            StudyConfig(path=str(path), feature_columns=("x1",), response_column="y",
                        role="target" if k == 0 else "source")
            for k, path in enumerate(scenario_to_csv(target, sources, tmp_path))
        )
        cfg = ExperimentConfig(
            scenario=studies, methods=("KRR", "SA_TKRR"), sweep_name="n0", sweep_values=(20, 30),
            replications=2,
        )
        fits = []
        zero = lambda x: np.zeros(len(x))  # noqa: E731
        monkeypatch.setattr(harness, "_fit_method", lambda *a: fits.append(a) or zero)
        with pytest.raises(ValueError, match="n0=30 leaves no test rows of the target's 30"):
            harness.build_cell(cfg, 1, 0)
        with pytest.raises(ValueError, match="n0=30"):
            run_sweep(cfg, threads=1)
        assert len(fits) == len(cfg.methods) * cfg.replications  # the n0 = 20 cells only

    def test_build_cell_uses_given_studies_and_drops_empty_sources(self, tmp_path):
        spec = SimSpec(example="ex1", s=0.2, m=2, n0=40, n_k=30)
        target, sources, _, _ = gen_scenario(spec, seed=4)
        studies = tuple(
            StudyConfig(path=str(path), feature_columns=("x1",), response_column="y",
                        role="target" if k == 0 else "source")
            for k, path in enumerate(scenario_to_csv(target, sources, tmp_path))
        )
        cfg = ExperimentConfig(
            scenario=studies, methods=("KRR",), sweep_name="n_ah", sweep_values=(0, 10),
            fixed=(("n0", 20),),
        )
        loaded = load_studies(studies)
        for vi in (0, 1):
            given = harness.build_cell(cfg, vi, 1, loaded)
            own = harness.build_cell(cfg, vi, 1)
            assert given[0] == own[0] == derive_seed(cfg.seed, vi, 1)
            assert np.array_equal(given[1].x, own[1].x) and given[1].n == 20
            # n_ah = 0 leaves both sources empty, so the cell drops them.
            assert [s.n for s in given[2]] == [s.n for s in own[2]] == [[], [10, 10]][vi]
            assert given[3] == own[3] == [(), (1, 2)][vi]
            assert np.array_equal(given[4], own[4]) and np.array_equal(given[5], own[5])

    def test_synthetic_sweeps_rejected_for_real_data(self, tmp_path):
        from tkrr.datasets import StudyConfig

        p = tmp_path / "t.csv"
        p.write_text("u,y\n" + "\n".join(f"0.{i},{i}" for i in range(20)) + "\n")
        with pytest.raises(ValueError, match="synthetic"):
            ExperimentConfig(
                scenario=(
                    StudyConfig(path=str(p), feature_columns=("u",), response_column="y", role="target"),
                    StudyConfig(path=str(p), feature_columns=("u",), response_column="y"),
                ),
                methods=("KRR",),
                sweep_name="s",
                sweep_values=(0.1,),
                replications=1,
            )


class TestSummarize:
    def test_mean_and_sample_sd(self):
        rows = [
            ResultRow("KRR", 0.1, rep, 0, err, 1.0)
            for rep, err in enumerate((1.0, 2.0, 3.0))
        ]
        (s,) = summarize(rows)
        assert s.mean_error == 2.0
        assert s.std_error == pytest.approx(1.0)
        assert (s.n_ok, s.n_failed) == (3, 0)

    def test_failed_rows_counted_not_averaged(self):
        rows = [
            ResultRow("KRR", 0.1, 0, 0, 1.0, 1.0),
            ResultRow("KRR", 0.1, 1, 0, float("nan"), 1.0),
        ]
        (s,) = summarize(rows)
        assert s.mean_error == 1.0
        assert (s.n_ok, s.n_failed) == (1, 1)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])


class TestCsvEmission:
    def test_result_csv_layout(self, tmp_path):
        rows = [ResultRow("KRR", 0.1, 0, 7, 0.5, 1.25)]
        path = emit_csv(rows, tmp_path / "r.csv")
        text = path.read_text().splitlines()
        assert text[0] == "method,sweep_value,replication,seed,test_error,wall_ms"
        assert text[1] == "KRR,0.1,0,7,0.5,1.25"

    def test_nan_becomes_empty_field(self, tmp_path):
        rows = [ResultRow("KRR", 0.1, 0, 7, float("nan"), 1.0)]
        text = emit_csv(rows, tmp_path / "r.csv").read_text().splitlines()
        assert text[1] == "KRR,0.1,0,7,,1.0"

    def test_summary_csv_layout(self, tmp_path):
        rows = [SummaryRow("KRR", 0.1, 0.5, 0.01, 50, 0)]
        text = emit_csv(rows, tmp_path / "s.csv").read_text().splitlines()
        assert text[0] == "method,sweep_value,mean_error,std_error,n_ok,n_failed"

    def test_full_precision_round_trip(self, tmp_path):
        err = 1.0 / 3.0
        rows = [ResultRow("KRR", 0.1, 0, 7, err, 1.0)]
        text = emit_csv(rows, tmp_path / "r.csv").read_text().splitlines()
        assert float(text[1].split(",")[4]) == err

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_csv([], tmp_path / "r.csv")


class TestConfigPlumbing:
    def test_json_round_trip(self):
        cfg = tiny_config(fixed=(("a_h", 2),))
        doc = config_to_dict(cfg)
        back = config_from_json(json.loads(json.dumps(doc)))
        assert back == cfg

    def test_real_scenario_round_trip(self, tmp_path):
        from tkrr.datasets import StudyConfig

        cfg = ExperimentConfig(
            scenario=(
                StudyConfig(path="t.csv", feature_columns=("a", "b"), response_column="y", role="target"),
            ),
            methods=("KRR",),
            sweep_name="n0",
            sweep_values=(10,),
        )
        assert config_from_json(config_to_dict(cfg)) == cfg

    @pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.json")))
    def test_shipped_config_archives_unchanged(self, name):
        text = json.dumps(config_to_dict(config_from_json(CONFIGS / name)), indent=2)
        assert hashlib.sha256(text.encode()).hexdigest() == ARCHIVED_CONFIG_SHA256[name]
        assert config_from_json(json.loads(text)) == config_from_json(CONFIGS / name)

    def test_scenario_seed_rejected(self):
        # Cells draw from the config seed; a scenario seed would be ignored.
        doc = config_to_dict(tiny_config())
        assert "seed" not in doc["scenario"]
        doc["scenario"]["seed"] = 4
        with pytest.raises(TypeError, match="seed"):
            config_from_json(doc)

    def test_unknown_top_level_key_rejected(self):
        doc = json.loads((CONFIGS / "fig3.json").read_text())
        doc["replication"] = 2
        with pytest.raises(TypeError, match="'replication'"):
            config_from_json(doc)

    def test_removed_keys_rejected(self):
        # SA's margin, phi, split seed and refit, the kernel family and the
        # per-study standardize switch are fixed; a config that sets one fails.
        doc = json.loads((CONFIGS / "fig6.json").read_text())
        doc["aggregation"] = {"c": 1.0, "phi": "auto", "split_seed": 0, "retrain": True}
        with pytest.raises(TypeError, match="'aggregation'"):
            config_from_json(doc)
        doc = json.loads((CONFIGS / "fig6.json").read_text())
        doc["kernel"]["family"] = "gaussian"
        with pytest.raises(TypeError, match="'family'"):
            config_from_json(doc)
        doc = json.loads((CONFIGS / "wine_n100.json").read_text())
        doc["scenario"][1]["standardize"] = True
        with pytest.raises(TypeError, match="'standardize'"):
            config_from_json(doc)

    def test_readme_config_schema_loads(self):
        readme = (CONFIGS.parent / "README.md").read_text()
        section = readme.split("### Config schema", 1)[1]
        block = section.split("```json\n", 1)[1].split("```", 1)[0]
        # Raises if the documented example has drifted from the schema.
        config_from_json(json.loads(block))

    def test_sweep_and_example_names_are_exact(self):
        for name in ("|A_h|", "N0", "n_{A_h}"):
            with pytest.raises(ValueError, match="sweep parameter"):
                tiny_config(sweep_name=name, sweep_values=(5,))
        with pytest.raises(ValueError, match="sweep parameter"):
            tiny_config(fixed=(("A_h", 2),))
        with pytest.raises(ValueError, match="example"):
            SimSpec("EX1")

    def test_validation(self):
        with pytest.raises(ValueError):
            tiny_config(methods=())
        with pytest.raises(ValueError):
            tiny_config(methods=("KRR", "KRR"))
        with pytest.raises(ValueError):
            tiny_config(methods=("Krr",))
        with pytest.raises(ValueError):
            tiny_config(sweep_values=())
        for values in ((0.1, 0.1), (10, 20, 10.0)):
            with pytest.raises(ValueError, match="duplicate sweep values"):
                tiny_config(sweep_values=values)
        with pytest.raises(ValueError):
            tiny_config(replications=0)
        with pytest.raises(ValueError):
            tiny_config(sweep_name="bandwidth")

    def test_fixed_key_a_synthetic_cell_never_reads_rejected(self):
        doc = json.loads((CONFIGS / "fig3.json").read_text())
        doc["fixed"] = {"n0": 500}
        with pytest.raises(ValueError, match="fixed 'n0' is never read"):
            config_from_json(doc)
        for name in ("s", "n_ah", "m"):
            with pytest.raises(ValueError, match=f"fixed '{name}' is never read"):
                tiny_config(sweep_name="n0", sweep_values=(20,), fixed=((name, 2),))

    def test_fixed_key_a_csv_cell_never_reads_rejected(self):
        studies = (
            StudyConfig(path="t.csv", feature_columns=("a",), response_column="y", role="target"),
        )
        for name in ("a_h", "s", "m"):
            with pytest.raises(ValueError, match=f"fixed '{name}' is never read"):
                ExperimentConfig(
                    scenario=studies, methods=("KRR",), sweep_name="n0", sweep_values=(10,),
                    fixed=((name, 2),),
                )

    def test_fixed_key_that_is_swept_rejected(self):
        with pytest.raises(ValueError, match="fixed 'a_h' is never read"):
            tiny_config(sweep_name="a_h", sweep_values=(1, 2), fixed=(("a_h", 2),))
        doc = json.loads((CONFIGS / "wine_n100.json").read_text())
        doc["fixed"]["n_ah"] = 50
        with pytest.raises(ValueError, match="fixed 'n_ah' is never read"):
            config_from_json(doc)

    def test_a_h_range_checked_when_fixed_or_swept(self):
        # tiny_config's ex1 design has m = 3 sources and no negative ones.
        for fixed in (4, -1):
            with pytest.raises(ValueError, match=r"\|A_h\|=.* outside 0..3"):
                tiny_config(fixed=(("a_h", fixed),))
        with pytest.raises(ValueError, match=r"\|A_h\|=4 outside 0..3"):
            tiny_config(sweep_name="a_h", sweep_values=(0, 4))
        with pytest.raises(ValueError, match=r"\|A_h\|=3 outside 0..2"):
            tiny_config(sweep_name="m", sweep_values=(2, 5), fixed=(("a_h", 3),))
        tiny_config(fixed=(("a_h", 3),))
        tiny_config(sweep_name="m", sweep_values=(2, 5), fixed=(("a_h", 2),))


class TestThreads:
    """run_sweep starts a process pool only when asked for more than one worker."""

    @pytest.fixture
    def pools(self, monkeypatch):
        # A ProcessPoolExecutor that runs the cells in this process and
        # records the worker count of each pool started.
        started = []

        class Pool:
            def __init__(self, max_workers, **kwargs):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", Pool)
        return started

    def test_argument_when_no_env(self, pools):
        cfg = tiny_config(methods=("KRR",))
        serial = [r.test_error for r in run_sweep(cfg, threads=1)]
        assert pools == []
        assert [r.test_error for r in run_sweep(cfg, threads=2)] == serial
        assert pools == [2]

    def test_default_is_one_worker(self, monkeypatch, pools):
        # Whatever the host offers: 64 CPUs, all of them usable, still one worker.
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 64)
        monkeypatch.setattr(
            harness.os, "sched_getaffinity", lambda pid: set(range(64)), raising=False
        )
        cfg = tiny_config(methods=("KRR",))
        for threads in (None, 0):
            run_sweep(cfg, threads=threads)
        assert pools == []
        run_sweep(cfg, threads=2)
        assert pools == [2]
