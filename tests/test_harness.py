import dataclasses
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from tkrr import aggregate, harness
from tkrr.aggregate import AggregateModel, AggregationParams
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
    resolve_threads,
    run_sweep,
    summarize,
)
from tkrr.kernels import KernelConfig, RepresenterFunction
from tkrr.krr import LambdaSchedule, schedule_lambda_source
from tkrr.rng import derive_seed
from tkrr.synthetic import SimSpec, gen_scenario, scenario_to_csv
from tkrr.transfer import SourceCollection, fit_pooled

N_CASES = 100

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
# sha256 of json.dumps(config_to_dict(config_from_json(path)), indent=2), the
# config.json that `tkrr simulate` archives, for every shipped config.
ARCHIVED_CONFIG_SHA256 = {
    "fig3.json": "50384fd90347e3205a9620f33858d0b27cea9d66ead628c4e80edf9acc52b359",
    "fig4.json": "0e7cb2927a8248aa9b465ad95ea6cc167d34851d28c687194c936a316afb14bf",
    "fig5.json": "b6de8379b16e07213418a2d79c11810215689d2273cbcf05cfab2f595599ab5d",
    "fig6.json": "ab059062f40d06169981626b47b12148b2046158860528cddba550beaeefa4f9",
    "usedcar_audi.json": "967e2df5886941a75a486f7b526575569f97071400e5c10bad383dc27ac3afba",
    "usedcar_bmw.json": "39aa58c255a954e659ce3d1162616eb1a6340869f243eb6e9b9c417b686f2b51",
    "usedcar_ford.json": "58a8c92426859ba0935e17a269c2630850fe950c716297c5c85ed56301fa127a",
    "usedcar_hyundi.json": "a4099d4ad023f1e5d795ee568a0e69488dbb598a591dcfae2334ca501c007c9c",
    "usedcar_merc.json": "3cf7fd2a43e3aea5c2c4e82da1f7cd07e4806e5d5ddd2ad3eb5a090cbce72f5d",
    "usedcar_skoda.json": "a608a3f197db4adad6706f8e91d80629df695e9437ca387b9e0e97c32cf59bef",
    "usedcar_toyota.json": "fe08e06bfd38393dcc1e814213cbc5d11eac58ceeccafe84851b42f2632be448",
    "usedcar_vauxhall.json": "482fef5e8fea5ec734e9fcd38e94877cb3081c498bc3ad7c22e3966d41dee127",
    "usedcar_vw.json": "a0ab8dfd21c01831e6dc0906cc88f9955caeb42d6755ad680e89a7baed8111ff",
    "wine_n100.json": "753e5adb8c52692b30d64a22b7be3430b1d3be63a1e99fe44634fc7c78a8eda0",
    "wine_n200.json": "f8c08fa5d0c3eccdfb2b61f30ebfb22ca5b489eb3ecaf53fab8ede7944e2728f",
    "wine_n300.json": "4a6dcd1274435a3971c8bf1b2683fce8325dc140546903c9c295bde29b1d468c",
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
        # on an unmodified design Pooled and AhTKRR with full A_h coincide
        cfg = tiny_config(methods=("AhTKRR", "Pooled_TKRR"), sweep_values=(0.1,))
        rows = run_sweep(cfg, threads=1)
        ah = [r.test_error for r in rows if r.method == "AhTKRR"]
        pooled = [r.test_error for r in rows if r.method == "Pooled_TKRR"]
        assert ah == pooled


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

        monkeypatch.setattr(harness, "fit_pooled", recording(pooled_sets, harness.fit_pooled, 1))
        monkeypatch.setattr(
            harness, "prepare_candidates", recording(prepared, harness.prepare_candidates)
        )
        monkeypatch.setattr(harness, "sa_tkrr", recording(chosen, harness.sa_tkrr))
        cfg = tiny_config(
            methods=METHODS, sweep_values=(0.1,), replications=1, fixed=(("a_h", 2),)
        )
        run_sweep(cfg, threads=1)
        # One candidate set. One pooled fit per source set the cell needs:
        # A_h = (1, 2), all sources, and each set SA refits with weight > 0.
        assert len(prepared) == 1
        (_, cs), (agg,) = prepared[0], chosen
        weighted = ((agg.idx_a, agg.weight), (agg.idx_b, 1.0 - agg.weight))
        needed = {(1, 2), (1, 2, 3)} | {
            tuple(sorted(cs.nested_sets[i])) for i, w in weighted if i > 0 and w != 0.0
        }
        assert sorted(pooled_sets) == sorted(needed)

    @pytest.mark.parametrize("sa_first", [False, True])
    def test_sa_refit_of_all_sources_is_the_pooled_fit(self, monkeypatch, sa_first):
        cfg = tiny_config(methods=("Pooled_TKRR", "SA_TKRR"))
        cell_seed, target, sources, transferable, _, _ = harness.build_cell(cfg, 0, 0)
        m = len(sources)

        def all_sources(candidates, t2, params):
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
        coll = SourceCollection(sources=sources, transferable=tuple(range(1, m + 1)))
        lam1 = schedule_lambda_source(coll.n_transferable + target.n, cfg.schedules)
        own = fit_pooled(target, coll, lam1, cfg.kernel)
        assert np.array_equal(pooled.coefficients, own.coefficients)
        assert np.array_equal(pooled.anchors, own.anchors)

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
        cfg = tiny_config(
            aggregation=AggregationParams(c=2.0, phi=0.3, split_seed=9, retrain=False),
            fixed=(("a_h", 2),),
        )
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
    def test_argument_when_no_env(self):
        assert resolve_threads(2) == 2
        assert resolve_threads(0) == 1
        assert resolve_threads() >= 1

    def test_default_is_the_cpus_this_process_may_use(self, monkeypatch):
        # Not the host's CPU count: a process pinned to 3 of 64 CPUs gets 3 workers.
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 64)
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 5, 9}, raising=False)
        assert resolve_threads() == 3
        assert resolve_threads(2) == 2
