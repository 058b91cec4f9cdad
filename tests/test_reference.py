"""Every method's sweep result against tests/reference.py, a textbook reference.

The program's Cholesky-free packed systems, candidate ladder, batched and
kept values and residuals read from solved systems must give each method's
test_error within 1e-10 relative of the plain definitions, and SA_TKRR the
same pair with its weight within 1e-8, on small ex2mod cells, on an ex1
cell whose fits take the low-rank route, and on one CSV-studies cell.
"""

import numpy as np
import pytest
import reference

from tkrr import harness, krr
from tkrr.datasets import StudyConfig
from tkrr.harness import METHODS, ExperimentConfig, run_sweep
from tkrr.kernels import KernelConfig
from tkrr.krr import LambdaSchedule
from tkrr.synthetic import SimSpec

REL_TOL, WEIGHT_TOL = 1e-10, 1e-8


def _check(cfg, monkeypatch):
    pairs = {}
    real = harness.sa_tkrr

    def recording(target, sources, split_seed, *args):
        model = real(target, sources, split_seed, *args)
        pairs[split_seed] = (model.idx_a, model.idx_b, model.weight)
        return model

    monkeypatch.setattr(harness, "sa_tkrr", recording)
    rows = run_sweep(cfg, threads=1)
    assert len(rows) == len(cfg.methods) * len(cfg.sweep_values) * cfg.replications
    for vi in range(len(cfg.sweep_values)):
        for rep in range(cfg.replications):
            cell_seed, target, sources, transferable, x_test, ref = harness.build_cell(cfg, vi, rep)
            split_seed = harness._sa_split_seed(cell_seed)
            want = reference.methods(target, sources, transferable, split_seed, cfg.schedules, cfg.kernel.bandwidth)
            want["SA_TKRR"], pair = want["SA_TKRR"]
            a, b, w = pairs[split_seed]
            assert (a, b) == pair[:2], (vi, rep)
            assert abs(w - pair[2]) <= WEIGHT_TOL, (vi, rep)
            got = {r.method: r.test_error for r in rows if (r.sweep_value, r.replication) == (cfg.sweep_values[vi], rep)}
            for method in cfg.methods:
                err = float(np.mean((want[method](x_test) - ref) ** 2))
                assert abs(got[method] - err) <= REL_TOL * err, (method, vi, rep, got[method], err)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_ex2mod_cells(seed, monkeypatch):
    cfg = ExperimentConfig(
        scenario=SimSpec(example="ex2mod", s=0.25, m=5, n0=60, n_k=40, n_te=100),
        methods=METHODS,
        sweep_name="m",
        sweep_values=(3, 5),
        replications=2,
        seed=seed,
        schedules=LambdaSchedule(scale=0.1),
        kernel=KernelConfig(bandwidth=0.1),
        fixed=(("a_h", 2),),
    )
    _check(cfg, monkeypatch)


def test_ex1_low_rank_cell(monkeypatch):
    # A known-set ex1 cell from 768 rows up: the target (800 rows), the
    # known pooled fit (1100) and SA's refits take the ladder's certified
    # exit, which must match the dense oracle as closely as the dense route
    # does.
    cfg = ExperimentConfig(
        scenario=SimSpec(example="ex1", s=0.1, m=3, n0=800, n_k=150, n_te=200),
        methods=METHODS,
        sweep_name="n0",
        sweep_values=(800,),
        replications=1,
        seed=4,
        schedules=LambdaSchedule(scale=0.1),
        kernel=KernelConfig(bandwidth=0.05),
        fixed=(("a_h", 2),),
    )
    certified = []
    real = krr._ladder

    def ladder(cfg, x, y, sizes, shifts):
        beta, solved, steps, r = real(cfg, x, y, sizes, shifts)
        certified.extend(k for k, ok, n in zip(sizes, solved, steps) if ok and n == 0)
        return beta, solved, steps, r

    monkeypatch.setattr(krr, "_ladder", ladder)
    _check(cfg, monkeypatch)
    assert {800, 1100} <= set(certified)


def test_csv_studies_cell(tmp_path, monkeypatch):
    # A target and three sources with two numeric columns and a categorical
    # one, standardized per study, as the csv-studies benchmark builds them.
    rng = np.random.default_rng(21)
    studies = []
    for k, (n, shift) in enumerate(((160, 0.0), (90, 0.1), (80, 0.3), (70, 0.6))):
        x = rng.random((n, 2))
        grade = rng.choice(["a", "b", "c"], size=n)
        y = np.sin(3 * x[:, 0]) + x[:, 1] ** 2 * (1 + shift) + (grade == "b") * 0.3 + rng.normal(0, 0.1, n)
        path = tmp_path / f"study{k}.csv"
        path.write_text("x1,x2,grade,y\n" + "".join(
            f"{a!r},{b!r},{g},{v!r}\n" for (a, b), g, v in zip(x.tolist(), grade, y.tolist())
        ))
        studies.append(StudyConfig(
            path=str(path), feature_columns=("x1", "x2", "categorical:grade"), response_column="y",
            role="target" if k == 0 else "source",
        ))
    cfg = ExperimentConfig(
        scenario=tuple(studies),
        methods=METHODS,
        sweep_name="n_ah",
        sweep_values=(60,),
        replications=1,
        seed=5,
        schedules=LambdaSchedule(scale=0.1),
        kernel=KernelConfig(bandwidth=4.0),
        fixed=(("n0", 60),),
    )
    _check(cfg, monkeypatch)
