"""CSV-backed multi-study data: loading, encoding, splitting, standardizing.

Studies arrive as one CSV per study. Numeric feature columns are used as
is; a "categorical:" prefix requests one-hot encoding, with the category
universe scanned across all studies of an experiment so every study gets
the same design matrix layout. Rows with unparseable, non-finite or
missing values are dropped and the count logged. Standardization is
deliberately separate from loading: statistics come from a study's
training rows only, so it runs after train/test splitting.
"""

from __future__ import annotations

import csv
import io
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from .kernels import Dataset

__all__ = [
    "StudyConfig",
    "Standardizer",
    "load_csv",
    "load_studies",
    "subsample_split",
    "fit_standardizer",
    "apply_standardizer",
]

log = logging.getLogger(__name__)

CATEGORICAL_PREFIX = "categorical:"
# Below this, a feature is treated as constant and left unscaled.
_SD_FLOOR = 1e-12


@dataclass(frozen=True)
class StudyConfig:
    """Where one study lives and how to read it; a sweep cell standardizes every study."""

    path: str
    feature_columns: tuple[str, ...]
    response_column: str
    role: str = "source"
    label: str = ""

    def __post_init__(self) -> None:
        if self.role not in ("target", "source"):
            raise ValueError(f"role must be 'target' or 'source', got {self.role!r}")
        if not self.feature_columns:
            raise ValueError("need at least one feature column")
        object.__setattr__(self, "feature_columns", tuple(self.feature_columns))


def _sniff_delimiter(header_line: str) -> str:
    return ";" if header_line.count(";") > header_line.count(",") else ","


def _read_text(path: str | Path) -> str:
    with open(path, newline="") as fh:
        return fh.read()


def _read_table(path: str | Path, text: str | None = None) -> tuple[list[str], list[list[str]]]:
    # text, when given, is the contents of path, already read.
    lines = io.StringIO(_read_text(path) if text is None else text, newline="")
    first = lines.readline()
    if not first:
        raise ValueError(f"{path}: empty file")
    lines.seek(0)
    reader = csv.reader(lines, delimiter=_sniff_delimiter(first))
    header = [h.strip() for h in next(reader)]
    return header, [r for r in reader if r]


def _column_index(header: list[str], name: str, path) -> int:
    try:
        return header.index(name)
    except ValueError:
        raise ValueError(f"{path}: no column {name!r}, header is {header}") from None


def _categorical(cfg: StudyConfig) -> list[str]:
    return [
        c[len(CATEGORICAL_PREFIX) :]
        for c in cfg.feature_columns
        if c.startswith(CATEGORICAL_PREFIX)
    ]


def _levels(tables) -> dict[str, tuple[str, ...]]:
    # The sorted level universe of every categorical column over
    # (config, header, rows) tables that are already read.
    levels: dict[str, set[str]] = {}
    for cfg, header, rows in tables:
        for c in _categorical(cfg):
            i = _column_index(header, c, cfg.path)
            bucket = levels.setdefault(c, set())
            for r in rows:
                # A row cut short before this column is dropped by load_csv.
                v = r[i].strip() if i < len(r) else ""
                if v:
                    bucket.add(v)
    return {c: tuple(sorted(s)) for c, s in levels.items()}


def load_csv(
    cfg: StudyConfig,
    categories: dict[str, tuple[str, ...]] | None = None,
    text: str | None = None,
) -> Dataset:
    """Read one study into a Dataset.

    Delimiter is auto-detected between comma and semicolon. Numeric columns
    parse with float(); categorical columns expand to one indicator per
    level in sorted order (pass a shared categories map so several studies
    agree on layout; a level outside the map encodes as all zeros; without
    one, the study's own levels are used). Rows that fail to parse, or hold
    a non-finite number (nan, inf, 1e999), are dropped and the count
    logged. text is the contents of cfg.path if it has been read already,
    so the file is not opened again.
    """
    header, raw = _read_table(cfg.path, text)
    categories = categories or _levels([(cfg, header, raw)])
    resp_idx = _column_index(header, cfg.response_column, cfg.path)

    plan: list[tuple[int, tuple[str, ...] | None]] = []
    for col in cfg.feature_columns:
        if col.startswith(CATEGORICAL_PREFIX):
            name = col[len(CATEGORICAL_PREFIX) :]
            plan.append((_column_index(header, name, cfg.path), categories.get(name, ())))
        else:
            plan.append((_column_index(header, col, cfg.path), None))

    xs: list[list[float]] = []
    ys: list[float] = []
    dropped = 0
    for r in raw:
        try:
            feats: list[float] = []
            for idx, levels in plan:
                v = r[idx].strip()
                if levels is None:
                    feats.append(float(v))
                else:
                    if not v:
                        raise ValueError("empty category")
                    feats.extend(1.0 if v == lv else 0.0 for lv in levels)
            y = float(r[resp_idx].strip())
        except (ValueError, IndexError):
            dropped += 1
            continue
        xs.append(feats)
        ys.append(y)
    x = np.asarray(xs, dtype=np.float64)
    y = np.asarray(ys, dtype=np.float64)
    # float() also parses nan, inf and overflowing literals such as 1e999.
    keep = np.isfinite(y) & np.isfinite(x).all(axis=-1)
    kept = int(np.count_nonzero(keep))
    dropped += len(ys) - kept
    if dropped:
        log.info("%s: dropped %d unparseable rows (%d kept)", cfg.path, dropped, kept)
    if not kept:
        raise ValueError(f"{cfg.path}: no usable rows")
    return Dataset(x=x[keep], y=y[keep])


def load_studies(
    configs: Sequence[StudyConfig],
) -> tuple[Dataset, tuple[Dataset, ...]]:
    """Load all studies of an experiment with one shared categorical layout.

    Exactly one config must have the target role; sources keep config order.
    Each file is opened once and its text parsed twice: once for the shared
    categorical levels (only a study with a categorical feature) and once
    for the rows.
    """
    targets = [c for c in configs if c.role == "target"]
    if len(targets) != 1:
        raise ValueError(f"need exactly one target study, got {len(targets)}")
    texts = [(c, _read_text(c.path)) for c in configs]
    categories = _levels((c, *_read_table(c.path, text)) for c, text in texts if _categorical(c))
    loaded = [(c.role, load_csv(c, categories, text)) for c, text in texts]
    target = next(ds for role, ds in loaded if role == "target")
    return target, tuple(ds for role, ds in loaded if role == "source")


def subsample_split(data: Dataset, n_train: int, seed: int) -> tuple[Dataset, Dataset]:
    """Seeded split into n_train rows and the remainder, both in row order."""
    if not 0 <= n_train <= data.n:
        raise ValueError(f"n_train must lie in [0, {data.n}], got {n_train}")
    return data.split(n_train, seed)


@dataclass(frozen=True)
class Standardizer:
    """Per-column affine transform fitted on one study's training rows."""

    x_mean: NDArray[np.float64]
    x_scale: NDArray[np.float64]
    y_mean: float
    y_scale: float


def fit_standardizer(train: Dataset) -> Standardizer:
    """Mean/sd statistics from training rows; near-constant columns keep scale 1.

    The response is standardized too, so test errors across studies with
    wildly different response scales are comparable.
    """
    if train.n < 1:
        raise ValueError("cannot standardize an empty dataset")
    x_mean = train.x.mean(axis=0)
    x_scale = train.x.std(axis=0, ddof=0)
    x_scale = np.where(x_scale < _SD_FLOOR, 1.0, x_scale)
    y_scale = float(train.y.std(ddof=0))
    if y_scale < _SD_FLOOR:
        y_scale = 1.0
    return Standardizer(
        x_mean=x_mean, x_scale=x_scale, y_mean=float(train.y.mean()), y_scale=y_scale
    )


def apply_standardizer(std: Standardizer, data: Dataset) -> Dataset:
    """Apply a fitted transform; safe on empty datasets."""
    if data.n == 0:
        return data
    return Dataset(
        x=(data.x - std.x_mean) / std.x_scale,
        y=(data.y - std.y_mean) / std.y_scale,
    )
