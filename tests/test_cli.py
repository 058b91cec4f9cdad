"""End-to-end checks of the tkrr command line in a temp working directory."""

import csv
import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from tkrr import harness
from tkrr.cli import main
from tkrr.rng import derive_seed
from tkrr.synthetic import SimSpec, gen_scenario, scenario_to_csv


def write_config(tmp_path, **overrides):
    doc = {
        "scenario": {"example": "ex1", "s": 0.1, "m": 3, "n0": 40, "n_k": 30, "n_te": 50},
        "methods": ["KRR", "AhTKRR"],
        "sweep": {"name": "s", "values": [0.05, 0.3]},
        "replications": 2,
        "seed": 11,
        "schedules": {"scale": 0.1},
        "kernel": {"bandwidth": 0.05},
        "output_dir": str(tmp_path / "results"),
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def strip_wall(path):
    lines = Path(path).read_text().splitlines()
    return ["\t".join(ln.split(",")[:-1]) for ln in lines]


class TestSimulate:
    def test_writes_results_summary_and_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["simulate", "--config", str(cfg), "--threads", "1"]) == 0
        out = tmp_path / "results"
        rows = read_rows(out / "results.csv")
        assert len(rows) == 2 * 2 * 2  # methods x values x replications
        assert set(r["method"] for r in rows) == {"KRR", "AhTKRR"}
        summary = read_rows(out / "summary.csv")
        assert len(summary) == 4
        archived = json.loads((out / "config.json").read_text())
        assert archived["sweep"]["values"] == [0.05, 0.3]
        assert "results.csv" in capsys.readouterr().out

    def test_warning_counts_failed_fits(self, tmp_path, capsys):
        # SA_TKRR needs 4 target rows, so it fails in each of the 4 cells
        # while KRR fits: 4 fits fail, not 4 cells.
        cfg = write_config(
            tmp_path, methods=["KRR", "SA_TKRR"],
            scenario={"example": "ex1", "s": 0.1, "m": 3, "n0": 3, "n_k": 30, "n_te": 50},
        )
        assert main(["simulate", "--config", str(cfg), "--threads", "1"]) == 0
        assert "warning: 4 fits failed and were excluded from summary" in capsys.readouterr().out

    def test_out_flag_overrides_output_dir(self, tmp_path):
        cfg = write_config(tmp_path)
        dest = tmp_path / "elsewhere"
        main(["simulate", "--config", str(cfg), "--threads", "1", "--out", str(dest)])
        assert (dest / "results.csv").is_file()
        assert not (tmp_path / "results" / "results.csv").exists()

    def test_dump_data_writes_scenario_csvs(self, tmp_path):
        cfg = write_config(tmp_path)
        main(["simulate", "--config", str(cfg), "--threads", "1", "--dump-data"])
        data = tmp_path / "results" / "data"
        assert (data / "target.csv").is_file()
        assert (data / "source_03.csv").is_file()
        header = (data / "target.csv").read_text().splitlines()[0]
        assert header == "x1,y"

    def test_dump_data_writes_the_first_cell(self, tmp_path):
        # The first sweep value (m=1) is below the spec's m=3.
        cfg = write_config(tmp_path, sweep={"name": "m", "values": [1, 2]})
        main(["simulate", "--config", str(cfg), "--threads", "1", "--dump-data"])
        data = tmp_path / "results" / "data"
        spec = SimSpec(example="ex1", s=0.1, m=1, n0=40, n_k=30, n_te=50)
        target, sources, _, _ = gen_scenario(spec, seed=derive_seed(11, 0, 0))
        assert sorted(p.name for p in data.glob("source_*.csv")) == ["source_01.csv"]
        for name, ds in (("target.csv", target), ("source_01.csv", sources[0])):
            dumped = np.loadtxt(data / name, delimiter=",", skiprows=1, ndmin=2)
            assert np.array_equal(dumped[:, :-1], ds.x)
            assert np.array_equal(dumped[:, -1], ds.y)

    def test_seed_flag_changes_draws(self, tmp_path):
        cfg = write_config(tmp_path)
        main(["simulate", "--config", str(cfg), "--threads", "1", "--out", str(tmp_path / "a")])
        main(
            ["simulate", "--config", str(cfg), "--threads", "1", "--seed", "99",
             "--out", str(tmp_path / "b")]
        )
        a = strip_wall(tmp_path / "a" / "results.csv")
        b = strip_wall(tmp_path / "b" / "results.csv")
        assert a != b

    def test_same_seed_reproduces_results(self, tmp_path):
        cfg = write_config(tmp_path)
        main(["simulate", "--config", str(cfg), "--threads", "1", "--out", str(tmp_path / "a")])
        main(["simulate", "--config", str(cfg), "--threads", "1", "--out", str(tmp_path / "b")])
        assert strip_wall(tmp_path / "a" / "results.csv") == strip_wall(
            tmp_path / "b" / "results.csv"
        )
        assert (tmp_path / "a" / "summary.csv").read_bytes() == (
            tmp_path / "b" / "summary.csv"
        ).read_bytes()


def write_csv_studies(tmp_path):
    """Generated studies with a categorical column, one semicolon file and bad rows."""
    spec = SimSpec(example="ex1", s=0.2, m=3, n0=60, n_k=40)
    target, sources, _, _ = gen_scenario(spec, seed=23)
    paths = scenario_to_csv(target, sources, tmp_path / "studies")
    for k, path in enumerate(paths):
        header, *rows = path.read_text().splitlines()
        rows = [f"{r},{('lo', 'mid', 'hi')[i % 3]}" for i, r in enumerate(rows)]
        # a feature that does not parse, an empty category, a row cut short
        rows += ["NA,0.5,lo", "0.5,1.0,", "0.25"]
        text = "\n".join([header + ",g"] + rows) + "\n"
        path.write_text(text.replace(",", ";") if k == 2 else text)
    return paths


def write_real_config(tmp_path, paths, n_ah=(0, 25)):
    cfg = tmp_path / "real.json"
    cfg.write_text(json.dumps({
        "scenario": [
            {"path": str(p), "feature_columns": ["x1", "categorical:g"],
             "response_column": "y", "role": "target" if k == 0 else "source"}
            for k, p in enumerate(paths)
        ],
        "methods": list(harness.METHODS),
        "sweep": {"name": "n_ah", "values": list(n_ah)},
        "replications": 2,
        "seed": 13,
        "fixed": {"n0": 30},
        "schedules": {"scale": 0.1},
        "kernel": {"bandwidth": 0.5},
    }))
    return cfg


class TestRealDataEndToEnd:
    def test_simulate_is_deterministic_and_loads_once(self, tmp_path, monkeypatch):
        paths = write_csv_studies(tmp_path)
        assert ";" in paths[2].read_text().splitlines()[0]
        cfg = write_real_config(tmp_path, paths)
        # Three bad rows per study are dropped; g expands to three indicators.
        target, sources = harness.load_studies(harness.config_from_json(cfg).scenario)
        assert target.x.shape == (60, 4) and [s.x.shape for s in sources] == [(40, 4)] * 3
        loads = []
        real_load = harness.load_studies
        monkeypatch.setattr(
            harness, "load_studies", lambda configs: loads.append(1) or real_load(configs)
        )
        outs = []
        for run, threads in enumerate(("1", "1", "2")):
            out = tmp_path / f"run{run}"
            main(["simulate", "--config", str(cfg), "--threads", threads, "--out", str(out)])
            assert len(loads) == run + 1  # one load per sweep, not per cell
            outs.append(out)
        results = [strip_wall(o / "results.csv") for o in outs]
        summaries = [(o / "summary.csv").read_bytes() for o in outs]
        assert results[0] == results[1] == results[2]
        assert summaries[0] == summaries[1] == summaries[2]

        rows = read_rows(outs[0] / "results.csv")
        errors = {(r["method"], r["sweep_value"], r["replication"]): r["test_error"]
                  for r in rows}
        assert len(errors) == len(harness.METHODS) * 2 * 2
        for rep in ("0", "1"):
            # With n_ah = 0 every source is dropped: the pooled fit is KRR,
            # and SA's only candidate is target-only KRR, refit on all rows.
            assert errors[("AhTKRR_WD", "0", rep)] == errors[("KRR", "0", rep)] != ""
            assert errors[("SA_TKRR", "0", rep)] == errors[("KRR", "0", rep)]
            assert all(errors[(m, v, rep)] != "" for m in harness.METHODS for v in ("0", "25"))
        assert all(r["n_failed"] == "0" for r in read_rows(outs[0] / "summary.csv"))


class TestFit:
    def test_writes_prediction_csv(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "pred.csv"
        assert main(["fit", "--config", str(cfg), "--method", "KRR", "--out", str(out)]) == 0
        rows = read_rows(out)
        assert len(rows) == 50
        assert set(rows[0]) == {"prediction", "reference"}
        assert all(math.isfinite(float(r["prediction"])) for r in rows)
        assert "test_error=" in capsys.readouterr().out

    def test_transfer_beats_target_only_here(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        errs = {}
        for method in ("KRR", "AhTKRR"):
            main(
                ["fit", "--config", str(cfg), "--method", method,
                 "--out", str(tmp_path / f"{method}.csv")]
            )
            line = capsys.readouterr().out
            errs[method] = float(line.split("test_error=")[1].split()[0])
        assert errs["AhTKRR"] < errs["KRR"]

    def test_evaluates_the_model_once(self, tmp_path, capsys, monkeypatch):
        # The test grid is evaluated once; the printed error is that of the
        # written predictions, as prediction_error would give it.
        cfg = write_config(tmp_path)
        fit_method, calls, models = harness._fit_method, [], []

        def counted(*args, **kwargs):
            model = fit_method(*args, **kwargs)
            models.append(model)
            return lambda x: calls.append(len(x)) or model(x)

        monkeypatch.setattr(harness, "_fit_method", counted)
        out = tmp_path / "pred.csv"
        assert main(["fit", "--config", str(cfg), "--method", "AhTKRR", "--out", str(out)]) == 0
        assert calls == [50]
        config = harness.config_from_json(str(cfg))
        *_, x_test, reference = harness.build_cell(config, 0, 0)
        err = harness.prediction_error(models[0], x_test, reference)
        printed = capsys.readouterr().out
        assert printed == f"AhTKRR: test_error={err!r} n_test=50 -> {out}\n"
        pred = [float(r["prediction"]) for r in read_rows(out)]
        assert np.array_equal(pred, models[0](x_test))

    def test_unknown_method_exits(self, tmp_path):
        cfg = write_config(tmp_path)
        with pytest.raises(SystemExit, match="unknown method"):
            main(["fit", "--config", str(cfg), "--method", "Oracle"])

    def test_synthetic_sweep_on_csv_studies_rejected(self, tmp_path):
        cfg = write_real_config(tmp_path, write_csv_studies(tmp_path))
        doc = json.loads(cfg.read_text())
        doc["sweep"] = {"name": "s", "values": [0.1]}
        cfg.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="synthetic"):
            main(["fit", "--config", str(cfg), "--method", "KRR"])


class TestRank:
    def test_prints_one_line_per_source(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["rank", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert "contrast" in out[0] and "rank" in out[0]
        assert len(out) == 1 + 3
        ranks = sorted(int(ln.split()[-1]) for ln in out[1:])
        assert ranks == [1, 2, 3]

    def test_prints_the_ranking_sa_uses(self, tmp_path, capsys):
        # The ranks SA_TKRR fits its candidates with: on the first half of
        # the first cell's target, split with the sweep's seed.
        cfg = write_config(tmp_path, methods=["SA_TKRR"])
        assert main(["rank", "--config", str(cfg)]) == 0
        printed = [int(ln.split()[-1]) for ln in capsys.readouterr().out.strip().splitlines()[1:]]
        config = harness.config_from_json(str(cfg))
        cell_seed, target, sources, transferable, _, _ = harness.build_cell(config, 0, 0)
        shared = {}
        harness._fit_method("SA_TKRR", target, sources, transferable, config, cell_seed, shared)
        assert printed == shared["candidates"][1].ranks.tolist()

    def test_cell_without_sources_prints_one_line(self, tmp_path, capsys):
        cfg = write_real_config(tmp_path, write_csv_studies(tmp_path), n_ah=(0,))
        assert main(["rank", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 1 and "no sources" in out[0]


class TestPlot:
    def test_renders_summary_to_svg(self, tmp_path):
        cfg = write_config(tmp_path)
        main(["simulate", "--config", str(cfg), "--threads", "1"])
        svg = tmp_path / "chart.svg"
        assert main(["plot", "--config", str(cfg), "--out", str(svg), "--title", "demo"]) == 0
        root = ET.fromstring(svg.read_text())
        assert root.tag.endswith("}svg")
        assert "demo" in svg.read_text()

    def test_no_error_bars_flag_thins_chart(self, tmp_path):
        cfg = write_config(tmp_path)
        main(["simulate", "--config", str(cfg), "--threads", "1"])
        main(["plot", "--config", str(cfg), "--out", str(tmp_path / "bars.svg")])
        main(
            ["plot", "--config", str(cfg), "--out", str(tmp_path / "plain.svg"),
             "--no-error-bars"]
        )
        n_bars = (tmp_path / "bars.svg").read_text().count("<line")
        n_plain = (tmp_path / "plain.svg").read_text().count("<line")
        assert n_bars > n_plain

    def test_missing_summary_exits(self, tmp_path):
        cfg = write_config(tmp_path)
        with pytest.raises(SystemExit, match="run simulate first"):
            main(["plot", "--config", str(cfg)])


def run_python(code):
    """Run code in a fresh interpreter that imports tkrr from this tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(harness.__file__).parents[1]), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return proc.stdout.strip()


class TestImport:
    def test_does_not_load_scipy_spatial(self):
        # scipy.spatial brings scipy.special and scipy.sparse with it, about
        # 9 MB resident in every process, pool workers included.
        code = "import sys, tkrr, tkrr.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.spatial')))"
        assert run_python(code) == "[]"

    def test_loads_only_scipy_linalg_wrapper_modules(self):
        # scipy.linalg's __init__ brings numpy.f2py, numpy.testing and
        # numpy.ma through its array-API layer: about 0.3 s and 16 MB.
        # numpy.random, which it also brought and every cell draws from,
        # still loads at import, not in the first cell.
        code = "import sys, json, tkrr, tkrr.cli; print(json.dumps(sorted(sys.modules)))"
        loaded = json.loads(run_python(code))
        assert "scipy.linalg._fblas" in loaded and "scipy.linalg._flapack" in loaded
        assert "numpy.random" in loaded
        assert "scipy.linalg" not in loaded
        unwanted = ("scipy._lib.array_api_compat", "numpy.f2py", "numpy.testing", "numpy.ma")
        assert [m for m in loaded if m in unwanted or m.startswith(tuple(u + "." for u in unwanted))] == []

    @pytest.mark.parametrize("tkrr_first", [True, False])
    def test_scipy_linalg_shares_the_wrappers(self, tkrr_first):
        # Whichever is imported first, scipy.linalg and tkrr hold the same
        # f2py routines, never a second copy of the extension modules.
        first, second = ("tkrr.kernels", "scipy.linalg")[:: 1 if tkrr_first else -1]
        code = f"""
import {first}, {second}
import numpy as np
from tkrr import kernels
chol = scipy.linalg.cholesky(np.array([[4.0, 2.0], [2.0, 3.0]]), lower=True)
print(scipy.linalg.blas.dgemm is kernels.blas.dgemm,
      scipy.linalg.lapack.dpftrf is kernels.lapack.dpftrf,
      np.allclose(chol, [[2.0, 0.0], [1.0, np.sqrt(2.0)]]))
"""
        assert run_python(code) == "True True True"

    def test_missing_wrapper_raises_naming_it(self):
        # No fallback: a failed load names the module and imports no
        # scipy.linalg package in its place.
        code = """
import sys
from tkrr import kernels
try:
    kernels._load_scipy_linalg_extension("_fnosuch")
except ImportError as err:
    print(err.name, "scipy.linalg._fnosuch" in str(err), sorted(m for m in sys.modules if m.startswith("scipy.linalg")))
"""
        assert run_python(code) == "scipy.linalg._fnosuch True ['scipy.linalg._fblas', 'scipy.linalg._flapack']"
