"""The benchmark's workloads: tkrr sweep configs and CSV studies made from a seed.

Each workload is one `ExperimentConfig` document (the JSON that `tkrr simulate`
reads) plus the thread count it is run with. `csv-studies` also writes its
own CSV studies; the arrays behind them are kept so the loading check can
compare what the program read with what was written.

Two size classes exist: "full" is what the benchmark measures, "tiny" is what
the self-test uses to exercise every check in a few seconds.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("known-ex1", "unknown-ex2mod", "csv-studies", "pool-ex1")

SCHEDULES = {"r": 1.0, "alpha": 1.0, "scale": 0.1}

# Known transferable set, fig3 design: pooled n = 200 + 10 * 150 = 1700.
KNOWN = {
    "full": {"n0": 200, "n_k": 150, "n_te": 500, "replications": 3},
    "tiny": {"n0": 60, "n_k": 40, "n_te": 200, "replications": 2},
}
# Unknown transferable set, fig6 design at m = 10: ten genuine and three
# negative sources. fig6 itself has n0 = 600 and 300 rows per source; at two
# thirds of that (pooled n = 400 + 13 * 200 = 3000) a cell takes about 2 s,
# so a run holds enough rounds for a steady median on a noisy 2-core host.
UNKNOWN = {
    "full": {"n0": 400, "n_k": 200, "n_te": 500, "replications": 2},
    "tiny": {"n0": 160, "n_k": 60, "n_te": 200, "replications": 1},
}
# Real-data path on generated studies: a target and four larger sources. One
# sweep value, so every cell has the same size and cell_s_p50 means one thing.
CSV = {
    "full": {"target_rows": 500, "source_rows": 2500, "n0": 150,
             "n_ah": 300, "replications": 3},
    "tiny": {"target_rows": 160, "source_rows": 300, "n0": 60,
             "n_ah": 60, "replications": 1},
}

KNOWN_SHIFTS = (0.05, 0.45)
UNKNOWN_S = 0.25

# Generated studies: the response depends on x1, "x2 (unit)" and the grade
# level; `shift` moves a source's x2 curvature away from the target's.
CSV_LEVELS = ("alpha", "beta", "gamma")
CSV_EXTRA_LEVEL = "delta"  # only source 3 has it, so the shared layout matters
CSV_SOURCE_SHIFTS = (0.05, 0.15, 0.9, 1.4)
CSV_SEMICOLON_SOURCE = 2
CSV_BAD_ROWS = {"target": 6, "source": 8}
CSV_HEADER = ("id", "x1", "x2 (unit)", "grade", "response")
CSV_FEATURES = ("x1", "x2 (unit)", "categorical:grade")


def round_seed(seed: int, k: int) -> int:
    """Config seed of round k: the run's seed in round 0, a hash of (seed, k) after.

    Every round runs the same fits on other cells, so a run's medians and
    peaks cover more of the data than one set of cells would.
    """
    if k == 0:
        return seed
    h = hashlib.blake2b(f"{seed}:{k}".encode(), digest_size=8)
    return int.from_bytes(h.digest(), "little") >> 1


def nproc() -> int:
    """CPUs this process may run on, as `nproc` reports them."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - not Linux
        return os.cpu_count() or 1


@dataclass
class Study:
    """One generated CSV study and the clean arrays behind it."""

    path: str
    role: str
    label: str
    grades: list[str]
    x_num: np.ndarray  # good rows only: x1, x2
    y: np.ndarray
    bad_rows: int


@dataclass
class Workload:
    name: str
    base_seed: int  # the run's --seed
    seed: int  # the config seed of this round
    threads: int
    config: dict
    config_path: Path
    studies: list[Study] = field(default_factory=list)

    @property
    def methods(self) -> tuple[str, ...]:
        return tuple(self.config["methods"])

    @property
    def values(self) -> tuple:
        return tuple(self.config["sweep"]["values"])

    @property
    def replications(self) -> int:
        return int(self.config["replications"])

    @property
    def fits_per_round(self) -> int:
        return len(self.methods) * len(self.values) * self.replications

    def for_round(self, k: int) -> "Workload":
        """The same workload with round k's config seed, its config written."""
        seed = round_seed(self.base_seed, k)
        config = dict(self.config, seed=seed)
        path = self.config_path.parent / f"config-{k}.json"
        path.write_text(json.dumps(config, indent=2) + "\n")
        return dataclasses.replace(self, seed=seed, config=config, config_path=path)


def build(name: str, seed: int, work: Path, size: str = "full") -> Workload:
    """Write the workload's inputs under `work` and return its description."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}, want one of {WORKLOADS}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    work.mkdir(parents=True, exist_ok=True)
    studies: list[Study] = []
    if name in ("known-ex1", "pool-ex1"):
        k = KNOWN[size]
        config = {
            "scenario": {"example": "ex1", "s": KNOWN_SHIFTS[0], "m": 10,
                         "n0": k["n0"], "n_k": k["n_k"], "n_te": k["n_te"]},
            "methods": ["KRR", "AhTKRR", "AhTKRR_WD"],
            "sweep": {"name": "s", "values": list(KNOWN_SHIFTS)},
            "replications": k["replications"],
            "kernel": {"bandwidth": 0.05},
        }
    elif name == "unknown-ex2mod":
        u = UNKNOWN[size]
        config = {
            "scenario": {"example": "ex2mod", "s": UNKNOWN_S, "m": 10,
                         "n0": u["n0"], "n_k": u["n_k"], "n_te": u["n_te"]},
            "methods": ["KRR", "Pooled_TKRR", "SA_TKRR"],
            "sweep": {"name": "m", "values": [10]},
            "replications": u["replications"],
            "kernel": {"bandwidth": 0.1},
        }
    else:
        c = CSV[size]
        studies = write_studies(seed, work / "studies", c["target_rows"], c["source_rows"])
        config = {
            "scenario": [
                {"path": s.path, "feature_columns": list(CSV_FEATURES),
                 "response_column": "response", "role": s.role, "label": s.label}
                for s in studies
            ],
            "methods": ["KRR", "Pooled_TKRR", "SA_TKRR", "AEW_TKRR"],
            "sweep": {"name": "n_ah", "values": [c["n_ah"]]},
            "replications": c["replications"],
            "fixed": {"n0": c["n0"]},
            "kernel": {"bandwidth": 4.0},
        }
    config.update(schedules=dict(SCHEDULES), output_dir=str(work / "results"))
    threads = nproc() if name == "pool-ex1" else 1
    base = Workload(name, seed, seed, threads, config, work / "config.json", studies)
    return base.for_round(0)


def _csv_response(x_num, grades, shift, rng):
    effect = {"alpha": 0.0, "beta": 0.6, "gamma": -0.5, "delta": 1.0}
    x1, x2 = x_num[:, 0], x_num[:, 1]
    g = np.array([effect[v] for v in grades])
    return (np.sin(2.0 * np.pi * x1) + 1.5 * (x2 - 0.5 - shift) ** 2 + g
            + rng.normal(0.0, 0.3, x1.shape[0]))


def _bad_row(kind: int, x_num, grade, y):
    row = ["?", repr(float(x_num[0])), repr(float(x_num[1])), grade, repr(float(y))]
    if kind == 0:
        row[1] = "NA"  # numeric feature does not parse
    elif kind == 1:
        row[3] = ""  # empty category
    elif kind == 2:
        row = row[:4]  # truncated line: the response field is missing
    else:
        row[4] = "n/a"  # response does not parse
    return row


def write_studies(seed: int, out: Path, target_rows: int, source_rows: int) -> list[Study]:
    """Write a target and four sources as CSV, with injected unparseable rows.

    Source 2 is semicolon-delimited and source 3 carries a grade level the
    others lack. Bad rows sit at seeded positions; numbers are written with
    repr, so the good rows read back bit for bit.
    """
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, 0x5EED])
    plan = [("target", "target", 0.0, target_rows)] + [
        ("source", f"source{k}", shift, source_rows)
        for k, shift in enumerate(CSV_SOURCE_SHIFTS, start=1)
    ]
    studies = []
    for role, label, shift, n in plan:
        k = 0 if role == "target" else int(label[len("source"):])
        levels = CSV_LEVELS + ((CSV_EXTRA_LEVEL,) if k == 3 else ())
        x_num = rng.random((n, 2))
        grades = [levels[i] for i in rng.integers(0, len(levels), n)]
        y = _csv_response(x_num, grades, shift, rng)
        n_bad = CSV_BAD_ROWS[role]
        bad_at = set(rng.choice(n + n_bad, size=n_bad, replace=False).tolist())
        delim = ";" if k == CSV_SEMICOLON_SOURCE else ","
        path = out / f"{label}.csv"
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh, delimiter=delim, lineterminator="\n")
            w.writerow(CSV_HEADER)
            good = 0
            for line in range(n + n_bad):
                if line in bad_at:
                    j = int(rng.integers(0, n))
                    w.writerow(_bad_row(line % 4, x_num[j], grades[j], y[j]))
                else:
                    w.writerow([str(line), repr(float(x_num[good, 0])),
                                repr(float(x_num[good, 1])), grades[good],
                                repr(float(y[good]))])
                    good += 1
        studies.append(Study(str(path), role, label, grades, x_num, y, n_bad))
    return studies
