"""Command line entry point.

Subcommands:
    simulate   run a sweep from a JSON config, write results/summary CSVs
    fit        fit one method on the config's first cell, dump predictions
    rank       print per-source contrast norms and ranks
    plot       render a summary CSV to an SVG line chart
    fixtures   emit the frozen oracle fixtures as JSON

Flag precedence: TKRR_THREADS env > --threads; --seed and --out override
the config's seed and output_dir.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import math
import sys
from pathlib import Path

from . import harness
from .aggregate import model_predict, rank_contrasts
from .charts import ChartSpec, emit_svg_lines
from .csvio import write_csv
from .harness import (
    METHODS,
    ExperimentConfig,
    SummaryRow,
    config_from_json,
    config_to_dict,
)
from .synthetic import scenario_to_csv

log = logging.getLogger(__name__)


def _load_config(args, out_is_dir: bool = False) -> ExperimentConfig:
    # --out means the output directory for simulate but a file path for
    # fit/plot, where it must not touch the config.
    config = config_from_json(args.config)
    if getattr(args, "seed", None) is not None:
        config = dataclasses.replace(config, seed=args.seed)
    if out_is_dir and getattr(args, "out", None) is not None:
        config = dataclasses.replace(config, output_dir=str(args.out))
    return config


def _cmd_simulate(args) -> int:
    config = _load_config(args, out_is_dir=True)
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    if args.dump_data:
        _, target, sources, _, _, _ = harness.build_cell(config, 0, 0)
        scenario_to_csv(target, sources, out / "data")
        print(f"wrote scenario CSVs to {out / 'data'}")
    rows = harness.run_sweep(config, threads=args.threads)
    results = harness.emit_csv(rows, out / "results.csv")
    summary_rows = harness.summarize(rows)
    summary = harness.emit_csv(summary_rows, out / "summary.csv")
    (out / "config.json").write_text(json.dumps(config_to_dict(config), indent=2) + "\n")
    n_failed = sum(s.n_failed for s in summary_rows)
    print(f"wrote {results} ({len(rows)} rows) and {summary}")
    if n_failed:
        print(f"warning: {n_failed} cells failed to fit and were excluded from summary")
    return 0


def _cmd_fit(args) -> int:
    config = _load_config(args)
    if args.method not in METHODS:
        raise SystemExit(f"unknown method {args.method!r}, want one of {METHODS}")
    cell_seed, target, sources, transferable, x_test, reference = harness.build_cell(config, 0, 0)
    model = harness._fit_method(
        args.method, target, sources, transferable, config, cell_seed
    )
    err = harness.prediction_error(model, x_test, reference)
    out = Path(args.out or Path(config.output_dir) / "predictions.csv")
    pred = model_predict(model, x_test)
    write_csv(out, ["prediction", "reference"], list(zip(pred, reference)))
    print(f"{args.method}: test_error={err!r} n_test={len(pred)} -> {out}")
    return 0


def _cmd_rank(args) -> int:
    config = _load_config(args)
    _, target, sources, _, _, _ = harness.build_cell(config, 0, 0)
    if not sources:
        print("no sources to rank: the first cell has none")
        return 0
    ranked = rank_contrasts(target, sources, config.schedules, config.kernel)
    print(f"{'source':>6}  {'n':>6}  {'contrast':>12}  {'rank':>4}")
    for k, src in enumerate(sources, start=1):
        print(
            f"{k:>6}  {src.n:>6}  {ranked.contrast_norms[k - 1]:>12.6f}"
            f"  {int(ranked.ranks[k - 1]):>4}"
        )
    return 0


def _read_summary(path: Path) -> list[SummaryRow]:
    rows = []
    with open(path, newline="") as fh:
        for rec in csv.DictReader(fh):
            rows.append(
                SummaryRow(
                    method=rec["method"],
                    sweep_value=float(rec["sweep_value"]),
                    mean_error=float(rec["mean_error"]) if rec["mean_error"] else math.nan,
                    std_error=float(rec["std_error"]) if rec["std_error"] else 0.0,
                    n_ok=int(rec["n_ok"]),
                    n_failed=int(rec["n_failed"]),
                )
            )
    return rows


def _cmd_plot(args) -> int:
    config = _load_config(args)
    summary_path = Path(config.output_dir) / "summary.csv"
    if not summary_path.is_file():
        raise SystemExit(f"no summary at {summary_path}; run simulate first")
    rows = _read_summary(summary_path)
    out = Path(args.out or Path(config.output_dir) / "chart.svg")
    chart = ChartSpec(
        title=args.title or f"{config.sweep_name} sweep",
        x_label=config.sweep_name,
        y_label="prediction error",
        error_bars=not args.no_error_bars,
    )
    emit_svg_lines(rows, chart, out)
    print(f"wrote {out}")
    return 0


def _cmd_fixtures(args) -> int:
    import numpy as np

    e1 = float(np.exp(-1.0))
    det = 4.0 - e1 * e1
    fixtures = {
        "kernel_eval": {
            "bandwidth": 1.0,
            "a": [0.0],
            "b": [1.0],
            "expected": e1,
        },
        "spd_solve": {
            "a": [[2.0, e1], [e1, 2.0]],
            "b": [1.0, 0.0],
            "expected": [2.0 / det, -e1 / det],
        },
        "krr_one_point": {
            "x": [[0.0]],
            "y": [2.0],
            "ridge": 0.5,
            "bandwidth": 1.0,
            "expected_coefficient": 4.0 / 3.0,
        },
        "schedule_lambda_source": {
            "n": 1000,
            "r": 1.0,
            "alpha": 1.0,
            "scale": 1.0,
            "expected": 1000.0 ** (-1.0 / 3.0),
        },
        "schedule_lambda_debias": {
            "n0": 100,
            "h_hat": 1.0,
            "alpha": 1.0,
            "scale": 1.0,
            "expected": 0.1,
        },
        "prediction_error_const": {
            "prediction": 0.0,
            "reference": 2.0,
            "expected": 4.0,
        },
    }
    out = Path(args.out or "fixtures.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(fixtures, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tkrr",
        description="Transfer learning for kernel ridge regression: benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config=True):
        if config:
            p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", default=None, help="override output location")

    p = sub.add_parser("simulate", help="run a sweep and write result CSVs")
    common(p)
    p.add_argument("--threads", type=int, default=None, help="worker processes")
    p.add_argument(
        "--dump-data", action="store_true", help="also dump first-cell scenario CSVs"
    )
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("fit", help="fit one method on the first sweep cell")
    common(p)
    p.add_argument("--method", required=True, help=f"one of {', '.join(METHODS)}")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("rank", help="print contrast norms and source ranks")
    common(p)
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("plot", help="render summary.csv to an SVG chart")
    common(p)
    p.add_argument("--title", default=None)
    p.add_argument("--no-error-bars", action="store_true")
    p.set_defaults(func=_cmd_plot)

    p = sub.add_parser("fixtures", help="emit frozen oracle fixtures as JSON")
    common(p, config=False)
    p.set_defaults(func=_cmd_fixtures)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
