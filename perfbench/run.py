"""tkrr benchmark: seeded sweep workloads, measured end to end or traced by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a tkrr checkout. Each round is one `tkrr simulate`-style
sweep (run_sweep, emit_csv, summarize, emit_csv) in a fresh interpreter, with
its own config seed (see workloads.round_seed); rounds repeat until the next
one would end after --seconds. With --trace 0
the last line of stdout is a JSON object with the end-to-end metrics; with
--trace 1 each round group is an untraced round as the workload runs it, an
untraced serial round (pool workloads only) and a traced serial round, and
the JSON holds the per-layer metrics. Every run checks the sweep's outputs
(see checks.py) and reports fits attempted and failed. README.md has the
workloads, the metrics and what each layer metric should move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

METHODS = ("KRR", "AhTKRR", "AhTKRR_WD", "Pooled_TKRR", "SA_TKRR", "AEW_TKRR")

END_TO_END = {"sweep_s": "s", "cell_s_p50": "s", "peak_rss_mb": "MB", "setup_s": "s"}

PER_LAYER = {
    "kernels.gram_matrix.self_ms": "ms",
    "kernels.gram_matrix.calls": "count",
    "kernels.gram_matrix.entries": "count",
    "kernels.gram_matrix.repeat_entries": "count",
    "kernels.spd_solve.self_ms": "ms",
    "kernels.spd_solve.calls": "count",
    "kernels.spd_solve.flops": "flop",
    "kernels.spd_solve.max_n": "rows",
    "kernels.spd_solve.repeat_calls": "count",
    "kernels.spd_solve.jitter_retries": "count",
    "kernels.rkhs_norm_diff.self_ms": "ms",
    "kernels.rkhs_norm_diff.calls": "count",
    "krr.fit_krr.self_ms": "ms",
    "krr.fit_krr.calls": "count",
    "krr.fit_krr.rows": "rows",
    "krr.predict.self_ms": "ms",
    "aggregate.model_predict.self_ms": "ms",
    "harness.prediction_error.self_ms": "ms",
    "transfer.fit_pooled.self_ms": "ms",
    "transfer.fit_pooled.rows": "rows",
    "transfer.fit_debias.self_ms": "ms",
    "aggregate.rank_contrasts.ms": "ms",
    "aggregate.build_candidates.ms": "ms",
    "aggregate.hyper_sparse_aggregate.ms": "ms",
    "aggregate.aew_aggregate.ms": "ms",
    "aggregate.sa_tkrr.refit_ms": "ms",
    "aggregate.candidates_built": "count",
    "aggregate.candidate_yield": "ratio",
    "synthetic.gen_scenario.ms": "ms",
    "synthetic.gen_test.ms": "ms",
    "datasets.load_studies.ms": "ms",
    "datasets.load_studies.calls": "count",
    "datasets.files_read": "count",
    "datasets.rows_parsed": "rows",
    "datasets.subsample_split.ms": "ms",
    "datasets.standardize.ms": "ms",
    **{f"harness.fit_ms.{m}": "ms" for m in METHODS},
    "harness.glue_ms": "ms",
    "harness.first_cell_excess_ms": "ms",
    "harness.summarize.ms": "ms",
    "harness.emit_csv.ms": "ms",
    "blas.threads_main": "count",
    "blas.threads_worker": "count",
    "trace.overhead_s": "s",
}

MIN_SETUPS = 5  # set-up samples per run; rounds give some, set-up-only spawns the rest
ROUND_TIMEOUT_S = 150
# glibc raises its mmap threshold each time a large block is freed, after
# which freed Gram-sized blocks stay on the heap; how many stay depends on
# timing, and moved peak RSS between 319 and 389 MB on one unknown-ex2mod
# round. Holding the threshold at glibc's 128 KiB default returns every large
# block at free, so the memory round's peak is the sweep's own live peak.
MEMORY_ENV = {"MALLOC_MMAP_THRESHOLD_": "131072"}


def spawn(wl, work: Path, tag: str, threads: int, trace: bool = False,
          setup_only: bool = False, extra_env: dict | None = None) -> dict:
    """Run child.py once and return what it measured, plus setup_s and wall_s."""
    out = work / f"{tag}.json"
    cmd = [sys.executable, str(HERE / "child.py"), "--config", str(wl.config_path),
           "--threads", str(threads), "--results", str(work / tag), "--out", str(out)]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
    # TKRR_THREADS would override the workload's thread count.
    env = {k: v for k, v in os.environ.items() if k != "TKRR_THREADS"}
    env.update(extra_env or {})
    t0 = time.monotonic()
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=ROUND_TIMEOUT_S)
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"round {tag} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    res = json.loads(out.read_text())
    res.update(setup_s=res["ready"] - t0, wall_s=wall, res_dir=work / tag)
    if "rows" in res:
        res["rows"] = [checks.Row(m, v, rep, seed, math.nan if e is None else e, w)
                       for m, v, rep, seed, e, w in res["rows"]]
    return res


def cell_sums_ms(wl, rows) -> list[float]:
    """Summed wall_ms per cell, in the order run_sweep submits cells."""
    pos = {float(v): i for i, v in enumerate(wl.values)}
    sums: dict[tuple, float] = {}
    for r in rows:
        key = (pos[float(r.value)], r.replication)
        sums[key] = sums.get(key, 0.0) + r.wall_ms
    return [sums[k] for k in sorted(sums)]


def first_cell_excess_ms(wl, rows, threads: int) -> float:
    """Mean summed wall_ms of each worker's first cell minus the median of the others."""
    sums = cell_sums_ms(wl, rows)
    if len(sums) < 2:
        return 0.0
    k = max(1, min(threads, len(sums) - 1))
    return statistics.fmean(sums[:k]) - statistics.median(sums[k:])


def run_checks(plain, serial, traced, memory) -> list[str]:
    """Reference and property checks on round 0; table checks on every round."""
    failures: list[str] = []

    def attempt(name, fn, *args):
        try:
            return fn(*args)
        except Exception as exc:  # a failed check, or a fault the check ran into
            kind = "" if isinstance(exc, checks.CheckError) else f"{type(exc).__name__}: "
            failures.append(f"{name}: {kind}{exc}")

    for r in plain + serial + traced + memory:
        attempt("emitted tables", checks.check_emitted, r["wl"], r["rows"], r["res_dir"])
    wl, rows0 = plain[0]["wl"], plain[0]["rows"]
    for r in memory:
        attempt("memory round agrees", checks.check_same_rows, wl, rows0, r["rows"], 0.0,
                "memory-round and round-0 rows")
    serial_rows = serial[0]["rows"] if serial else None
    if wl.name == "pool-ex1":
        if serial_rows is None:
            from tkrr.harness import config_from_json, run_sweep

            serial_rows = [checks.Row(r.method, r.sweep_value, r.replication, r.seed,
                                      r.test_error, r.wall_ms)
                           for r in run_sweep(config_from_json(wl.config_path), threads=1)]
        attempt("pool equals serial", checks.check_same_rows, wl, rows0, serial_rows,
                checks.POOL_TOL, "pool and serial rows")
    for i, r in enumerate(traced):
        untraced = (serial or plain)[i]
        attempt("tracing changes no result", checks.check_same_rows, r["wl"],
                untraced["rows"], r["rows"], 0.0, "traced and untraced rows")

    if wl.name in ("known-ex1", "pool-ex1"):
        attempt("reference fits", checks.check_known_reference, wl, rows0)
        attempt("transfer and debias", checks.check_known_orderings, wl, rows0)
    elif wl.name == "unknown-ex2mod":
        ref = attempt("SA reference", checks.unknown_reference, wl)
        if ref is not None:
            attempt("reference fits", checks.check_unknown_reference, wl, rows0, ref)
            attempt("ranking", checks.check_ranking, ref["ranks"], ref["shifts"],
                    "reference cell (0, 0)")
        attempt("aggregation", checks.check_unknown_orderings, wl, rows0)
        scen = wl.config["scenario"]
        for r in traced:
            for (vi, rep), ranks in r["ranks"]:
                _, _, shifts, _ = checks.synthetic_cell(
                    scen, scen["s"], int(wl.values[vi]),
                    checks.derive_seed(r["wl"].seed, vi, rep))
                attempt("ranking", checks.check_ranking, ranks, shifts,
                        f"traced cell ({vi}, {rep}) of seed {r['wl'].seed}")
            if ref is None or r["wl"].seed != wl.seed:
                continue
            for (vi, rep), (a, b, w) in r["sa_choices"]:
                if (vi, rep) == (0, 0) and (
                        (a, b) != tuple(ref["pair"][:2]) or abs(w - ref["pair"][2]) > 1e-6):
                    failures.append(f"SA choice: traced ({a}, {b}, {w}) vs reference "
                                    f"{tuple(ref['pair'])}")
    else:
        from tkrr.datasets import load_studies
        from tkrr.harness import config_from_json

        loaded = attempt("loading", load_studies, config_from_json(wl.config_path).scenario)
        if loaded is not None:
            attempt("loading", checks.check_loading, wl, loaded)
        attempt("reference fits", checks.check_csv_reference, wl, rows0)
    return failures


def measure(wl, work: Path, deadline: float, trace: bool) -> dict:
    """Spawn round groups until the next would end after `deadline`; at least one."""
    modes = [("plain", wl.threads, False)]
    if trace:
        if wl.threads > 1:
            modes.append(("serial", 1, False))
        modes.append(("traced", 1, True))
    rounds: dict[str, list] = {name: [] for name, _, _ in modes}
    k = 0
    while True:
        group_wall = 0.0
        wl_k = wl.for_round(k)
        # Alternate which of a traced/untraced pair runs first, so the
        # overhead estimate does not carry an order effect.
        for name, threads, traced in modes if k % 2 == 0 else modes[::-1]:
            r = spawn(wl_k, work, f"{name}-{k}", threads, traced)
            r["wl"] = wl_k
            rounds[name].append(r)
            group_wall += r["wall_s"]
        k += 1
        if time.monotonic() + group_wall > deadline:
            break
    return rounds


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "tkrr" / "__init__.py").is_file():
        print(f"error: no tkrr sources under {ROOT / 'src'}; run from a tkrr checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}, want one of "
              f"{workloads.WORKLOADS}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench_out" / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    wl = workloads.build(args.workload, args.seed, work)

    deadline = time.monotonic() + args.seconds
    memory = []
    if not args.trace:
        memory.append(spawn(wl, work, "memory-0", wl.threads, extra_env=MEMORY_ENV))
        memory[0]["wl"] = wl
    rounds = measure(wl, work, deadline, bool(args.trace))
    plain, serial, traced = rounds["plain"], rounds.get("serial", []), rounds.get("traced", [])
    setups = [r["setup_s"] for r in plain + serial + traced]
    while len(setups) < MIN_SETUPS:
        setups.append(spawn(wl, work, f"setup-{len(setups)}", 1, setup_only=True)["setup_s"])

    failures = run_checks(plain, serial, traced, memory)
    all_rows = [row for r in plain + serial + traced + memory for row in r["rows"]]
    failed = sum(math.isnan(row.test_error) for row in all_rows)

    if args.trace:
        # Times are medians over the traced rounds; counts come from round 0,
        # whose cells depend on --seed alone, so they repeat exactly.
        values = {
            name: statistics.median(r["layers"][name] for r in traced)
            if PER_LAYER.get(name) in ("ms", "s") else traced[0]["layers"][name]
            for name in traced[0]["layers"]
        }
        for m in METHODS:
            walls = [row.wall_ms for r in plain for row in r["rows"] if row.method == m]
            values[f"harness.fit_ms.{m}"] = statistics.median(walls) if walls else 0.0
        values["harness.first_cell_excess_ms"] = statistics.median(
            first_cell_excess_ms(wl, r["rows"], wl.threads) for r in plain)
        values["trace.overhead_s"] = statistics.median(
            t["sweep_s"] - u["sweep_s"] for t, u in zip(traced, serial or plain))
        units = PER_LAYER
    else:
        values = {
            "sweep_s": statistics.median(r["sweep_s"] for r in plain),
            "cell_s_p50": statistics.median(
                c for r in plain for c in cell_sums_ms(wl, r["rows"])) / 1000.0,
            "peak_rss_mb": max(memory[0]["rss_self_mb"], memory[0]["rss_workers_mb"]),
            "setup_s": statistics.median(setups),
        }
        units = END_TO_END
    missing = sorted(set(units) - set(values))
    if missing:
        failures.append(f"metrics not measured: {missing}")

    for f in failures:
        print(f"CHECK FAILED {f}", file=sys.stderr)
    print(f"{wl.name} seed {wl.seed}: {len(plain)} rounds of {wl.fits_per_round} fits"
          f" (+{len(serial) + len(traced) + len(memory)} serial/traced/memory rounds),"
          f" {len(all_rows)} fits"
          f" attempted, {failed} failed, checks {'passed' if not failures else 'FAILED'}",
          file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": len(all_rows),
        "failed": failed,
        "metrics": {k: {"value": float(values.get(k, 0.0)), "unit": u}
                    for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
