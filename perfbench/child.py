"""One sweep round in a fresh interpreter, the way `tkrr simulate` runs one.

    python3 perfbench/child.py --config CONFIG --threads N --results DIR --out JSON
                               [--trace] [--setup-only]

The interpreter imports tkrr and parses the workload's config, then stamps
the monotonic clock; the parent subtracts its spawn time from the stamp to
get the set-up time. Unless --setup-only is given it then runs `run_sweep`,
`emit_csv` of the rows, `summarize` and `emit_csv` of the summary, in the
order the simulate command runs them, and writes rows, timings and peak
resident sets to --out. With --trace the round runs under `tracer.Tracer`.

Pool workers re-import this file, so its top level imports only the
standard library: a worker must load tkrr and NumPy the way it would
under `tkrr simulate`, by unpickling the pool initializer.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def run_round(harness, config, threads: int, trace: bool, res_dir: Path) -> dict:
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
    with tracer or contextlib.nullcontext():
        t0 = time.perf_counter()
        rows = harness.run_sweep(config, threads=threads)
        harness.emit_csv(rows, res_dir / "results.csv")
        summary = harness.summarize(rows)
        harness.emit_csv(summary, res_dir / "summary.csv")
        t1 = time.perf_counter()
    out = {
        "sweep_s": t1 - t0,
        "rows": [
            [r.method, r.sweep_value, r.replication, r.seed,
             None if math.isnan(r.test_error) else r.test_error, r.wall_ms]
            for r in rows
        ],
        "rss_self_mb": _rss_mb(resource.RUSAGE_SELF),
        "rss_workers_mb": _rss_mb(resource.RUSAGE_CHILDREN),
    }
    if tracer is not None:
        import hostfacts

        tracer.write_spans(res_dir / "spans.csv")
        out["layers"] = tracer.metrics()
        out["layers"]["blas.threads_main"] = float(hostfacts.blas_threads_in_cell())
        out["layers"]["blas.threads_worker"] = float(hostfacts.blas_threads_in_worker())
        out["ranks"] = [[list(cell), r] for cell, rs in tracer.ranks.items() for r in rs]
        out["sa_choices"] = [[list(cell), c] for cell, cs in tracer.sa_choices.items() for c in cs]
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--config", required=True)
    p.add_argument("--threads", type=int, required=True)
    p.add_argument("--results", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    from tkrr import harness

    config = harness.config_from_json(args.config)
    out = {"ready": time.monotonic()}
    if not args.setup_only:
        res_dir = Path(args.results)
        res_dir.mkdir(parents=True, exist_ok=True)
        out.update(run_round(harness, config, args.threads, args.trace, res_dir))
    Path(args.out).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
