"""Self-test of the benchmark on tiny sizes: every check passes, then fails when broken.

    python3 perfbench/selftest.py

For each workload it runs a tiny sweep in this process, runs the checks the
benchmark runs (run.run_checks), and then shows that each check fails when
one result row is dropped or one test error is perturbed (for the ranking
and loading checks: when one rank is swapped or one loaded row dropped or
changed). It also runs one traced sweep and checks BENCHMARK.json against
the metrics run.py prints. Takes seconds; exits 1 on any surprise.
"""

from __future__ import annotations

import json
import math
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 1


def _rows(result_rows):
    import checks

    return [checks.Row(r.method, r.sweep_value, r.replication, r.seed, r.test_error,
                       r.wall_ms) for r in result_rows]


def _sweep(wl, res_dir: Path, threads: int):
    from tkrr import harness

    rows = harness.run_sweep(harness.config_from_json(wl.config_path), threads=threads)
    harness.emit_csv(rows, res_dir / "results.csv")
    harness.emit_csv(harness.summarize(rows), res_dir / "summary.csv")
    return _rows(rows)


def _drop(rows):
    i = len(rows) // 2
    return rows[:i] + rows[i + 1:]


def _set(wl, rows, key, fn):
    """Rows with the test error of (method, value index, replication) replaced by fn(err)."""
    method, vi, rep = key
    hit = lambda r: (r.method, r.value, r.replication) == (method, wl.values[vi], rep)  # noqa: E731
    return [r._replace(test_error=fn(r.test_error)) if hit(r) else r for r in rows]


def expect_failures(label: str, cases: dict, report: list) -> None:
    """Each case is a callable that must raise CheckError."""
    import checks

    for name, fn in cases.items():
        try:
            fn()
        except checks.CheckError:
            report.append((label, name, "fails as it should"))
        else:
            report.append((label, name, "DID NOT FAIL"))


def selftest_workload(name: str, work: Path, report: list) -> None:
    import checks
    import run
    import workloads

    wl = workloads.build(name, SEED, work / name, size="tiny")
    res = work / name / "round-0"
    res.mkdir(parents=True, exist_ok=True)
    rows = _sweep(wl, res, wl.threads)
    serial, traced = [], []
    if wl.threads > 1:
        sres = work / name / "serial-0"
        sres.mkdir(parents=True, exist_ok=True)
        serial = [{"wl": wl, "rows": _sweep(wl, sres, 1), "res_dir": sres}]
    plain = [{"wl": wl, "rows": rows, "res_dir": res}]
    failures = run.run_checks(plain, serial, traced, [])
    report.append((name, "all checks on the unbroken sweep",
                   "pass" if not failures else f"FAILED: {failures}"))

    def emitted(rs):
        return lambda: checks.check_emitted(wl, rs, res)

    small = lambda e: e * (1.0 + 1e-5)  # noqa: E731 - above every tolerance
    huge = lambda e: 10.0  # noqa: E731 - breaks any ordering of errors
    cases = {
        "emitted tables, row dropped": emitted(_drop(rows)),
        "emitted tables, error perturbed": emitted(_set(wl, rows, ("KRR", 0, 0), small)),
    }
    if name in ("known-ex1", "pool-ex1"):
        cases.update({
            "reference fits, row dropped": lambda: checks.check_known_reference(wl, _drop(rows)),
            "reference fits, error perturbed": lambda: checks.check_known_reference(
                wl, _set(wl, rows, ("AhTKRR", len(wl.values) - 1, 0), small)),
            "transfer and debias, row dropped": lambda: checks.check_known_orderings(
                wl, _drop(rows)),
            "transfer and debias, AhTKRR error perturbed": lambda: checks.check_known_orderings(
                wl, _set(wl, rows, ("AhTKRR", 0, 1), huge)),
            "transfer and debias, AhTKRR_WD error perturbed": lambda: checks.check_known_orderings(
                wl, _set(wl, rows, ("AhTKRR_WD", 0, 0), huge)),
        })
    if name == "pool-ex1":
        srows = serial[0]["rows"]
        cases.update({
            "pool equals serial, row dropped": lambda: checks.check_same_rows(
                wl, _drop(rows), srows, checks.POOL_TOL),
            "pool equals serial, error perturbed": lambda: checks.check_same_rows(
                wl, _set(wl, rows, ("AhTKRR_WD", 1, 1), lambda e: e * (1.0 + 1e-8)), srows,
                checks.POOL_TOL),
        })
    if name == "unknown-ex2mod":
        ref = checks.unknown_reference(wl)
        ranks, shifts = list(ref["ranks"]), ref["shifts"]
        worst = max(range(len(ranks)), key=lambda k: ranks[k])  # a negative source
        best = min(range(len(ranks)), key=lambda k: ranks[k])
        swapped = list(ranks)
        swapped[worst], swapped[best] = swapped[best], swapped[worst]
        cases.update({
            "reference fits, row dropped": lambda: checks.check_unknown_reference(
                wl, _drop(rows), ref),
            "reference fits, SA error perturbed": lambda: checks.check_unknown_reference(
                wl, _set(wl, rows, ("SA_TKRR", 0, 0), small), ref),
            "aggregation, row dropped": lambda: checks.check_unknown_orderings(wl, _drop(rows)),
            "aggregation, SA error perturbed": lambda: checks.check_unknown_orderings(
                wl, _set(wl, rows, ("SA_TKRR", 0, 0), huge)),
            "ranking, best and worst source swapped": lambda: checks.check_ranking(
                swapped, shifts, "swapped"),
        })
    if name == "csv-studies":
        import numpy as np
        from tkrr.datasets import load_studies
        from tkrr.harness import config_from_json

        target, sources = load_studies(config_from_json(wl.config_path).scenario)
        dropped = type(target)(x=target.x[1:], y=target.y[1:])
        y = sources[0].y.copy()
        y[5] = np.nextafter(y[5], math.inf)
        nudged = type(target)(x=sources[0].x, y=y)
        cases.update({
            "reference fits, row dropped": lambda: checks.check_csv_reference(wl, _drop(rows)),
            "reference fits, error perturbed": lambda: checks.check_csv_reference(
                wl, _set(wl, rows, ("Pooled_TKRR", 0, 0), small)),
            "loading, loaded row dropped": lambda: checks.check_loading(
                wl, (dropped, sources)),
            "loading, loaded value off by one ulp": lambda: checks.check_loading(
                wl, (target, (nudged,) + tuple(sources[1:]))),
        })
    expect_failures(name, cases, report)


def selftest_tracer(work: Path, report: list) -> None:
    import checks
    import run
    import workloads
    from tracer import Tracer

    wl = workloads.build("csv-studies", SEED, work / "traced", size="tiny")
    res = work / "traced" / "round-0"
    res.mkdir(parents=True, exist_ok=True)
    untraced = _sweep(wl, res, 1)
    with Tracer() as tracer:
        traced = _sweep(wl, res, 1)
    try:
        checks.check_same_rows(wl, untraced, traced, 0.0, "traced and untraced rows")
        layers = tracer.metrics()
        computed_in_run = {"blas.threads_main", "blas.threads_worker", "trace.overhead_s",
                           "harness.first_cell_excess_ms"}
        computed_in_run |= {k for k in run.PER_LAYER if k.startswith("harness.fit_ms.")}
        missing = set(run.PER_LAYER) - set(layers) - computed_in_run
        zero = [k for k in ("kernels.gram_matrix.calls", "kernels.spd_solve.calls",
                            "datasets.files_read", "aggregate.candidates_built") if not layers[k]]
        if missing or zero:
            raise checks.CheckError(f"missing layer metrics {sorted(missing)}, zero {zero}")
        from tkrr import harness, kernels

        if getattr(kernels.gram_matrix, "__wrapped__", None) or getattr(
                harness.run_sweep, "__wrapped__", None):
            raise checks.CheckError("tracer left wrappers installed")
        report.append(("tracer", "traced sweep equals untraced, all layers present", "pass"))
    except checks.CheckError as exc:
        report.append(("tracer", "traced sweep", f"FAILED: {exc}"))


def selftest_manifest(report: list) -> None:
    import run
    import workloads

    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    e2e = {m["name"]: m["unit"] for m in doc["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in doc["per_layer"]}
    if e2e != run.END_TO_END:
        problems.append(f"end_to_end {e2e} vs run.py {run.END_TO_END}")
    if layer != run.PER_LAYER:
        problems.append(f"per_layer differs from run.py: "
                        f"{sorted(set(layer.items()) ^ set(run.PER_LAYER.items()))}")
    unknown = [w["name"] for w in doc["workloads"] if w["name"] not in workloads.WORKLOADS]
    if unknown:
        problems.append(f"workloads run.py does not know: {unknown}")
    report.append(("BENCHMARK.json", "metrics and workloads match run.py",
                   "pass" if not problems else f"FAILED: {problems}"))


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    work = ROOT / ".perfbench_out" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    report: list = []
    for name in workloads.WORKLOADS:
        selftest_workload(name, work, report)
    selftest_tracer(work, report)
    selftest_manifest(report)
    bad = [r for r in report if r[2] not in ("pass", "fails as it should")]
    for label, case, verdict in report:
        print(f"{label:15s} {case:50s} {verdict}")
    print(f"selftest: {len(report) - len(bad)} of {len(report)} as expected")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
