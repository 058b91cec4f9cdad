"""Spans and counters around calls into tkrr, installed from outside the program.

`Tracer.install` wraps every public function of the traced tkrr modules in
every tkrr module that holds a reference to it, so calls made inside the
package are traced as well as calls made by the benchmark. Each span knows
its parent; a function's self time is its span minus its child spans.
Counters are taken at the same boundaries: Gram entries, Cholesky flops,
repeated work within a cell, candidates built and used, files read.

Three names outside the public API are wrapped as well, each for a reason
the public functions cannot give: `harness._run_cell` marks cell
boundaries, `kernels.cho_factor` counts jitter retries inside `spd_solve`,
and `open` in the `datasets` namespace counts files read.
"""

from __future__ import annotations

import builtins
import csv
import functools
import hashlib
import importlib
import inspect
import logging
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("kernels", "krr", "transfer", "aggregate", "synthetic", "datasets", "harness")

def _digest(a) -> tuple:
    a = np.ascontiguousarray(a)
    return a.shape, hashlib.blake2b(a.tobytes(), digest_size=16).digest()


def _system_digest(a, b) -> tuple:
    # A full hash of every n x n system would cost more than the solve's
    # Gram; shape, diagonal, first row, a strided sample and the right-hand
    # side tell distinct systems in a cell apart.
    a = np.asarray(a)
    parts = (np.diagonal(a), a[0], a.ravel()[::4099], np.asarray(b))
    h = hashlib.blake2b(digest_size=16)
    for p in parts:
        h.update(np.ascontiguousarray(p).tobytes())
    return a.shape, h.digest()


class _DropCounter(logging.Handler):
    """Adds up the dropped-row counts that `datasets.load_csv` logs."""

    def __init__(self, tracer: "Tracer"):
        super().__init__(logging.INFO)
        self.tracer = tracer

    def emit(self, record: logging.LogRecord) -> None:
        args = record.args
        if "dropped" in str(record.msg) and isinstance(args, tuple) and len(args) == 3:
            self.tracer.counts["datasets.rows_dropped"] += int(args[1])


class Tracer:
    def __init__(self):
        self._stack: list[list] = []  # open spans: [name, start, child seconds]
        self.spans: list[tuple] = []  # (cell, depth, name, parent, start, dur, self)
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # name -> calls, incl s, self s
        self.counts = defaultdict(float)
        self.cell: tuple | None = None
        self.ranks: dict[tuple, list] = defaultdict(list)  # cell -> rank_contrasts ranks
        self.sa_choices: dict[tuple, list] = defaultdict(list)  # cell -> (a, b, weight)
        self._seen_gram: set = set()
        self._seen_solve: set = set()
        self._factor_calls = 0
        self._patches: list[tuple] = []
        self._log_state = None
        self._t0 = time.perf_counter()

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        mods = {name: importlib.import_module(f"tkrr.{name}") for name in LAYERS}
        targets = {}
        for layer, mod in mods.items():
            for fname in getattr(mod, "__all__", ()):
                fn = getattr(mod, fname, None)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    targets[fn] = self._wrap(f"{layer}.{fname}", fn)
        harness = mods["harness"]
        targets[harness._run_cell] = self._wrap("harness._run_cell", harness._run_cell)
        kernels = mods["kernels"]
        targets[kernels.cho_factor] = self._count_factor(kernels.cho_factor)
        by_id = {id(fn): (fn, wrapper) for fn, wrapper in targets.items()}
        holders = [m for n, m in sys.modules.items() if n == "tkrr" or n.startswith("tkrr.")]
        for mod in holders:
            for attr, val in list(vars(mod).items()):
                fn, wrapper = by_id.get(id(val), (None, None))
                if fn is not None and fn is val:
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, wrapper)
        datasets = mods["datasets"]
        datasets.open = self._count_open
        self._patches.append((datasets, "open", None))
        logger = logging.getLogger(datasets.__name__)
        handler = _DropCounter(self)
        self._log_state = (logger, logger.level, handler)
        logger.setLevel(logging.INFO)
        logger.addHandler(handler)

    def uninstall(self) -> None:
        for mod, attr, val in reversed(self._patches):
            if val is None:
                delattr(mod, attr)
            else:
                setattr(mod, attr, val)
        self._patches.clear()
        if self._log_state is not None:
            logger, level, handler = self._log_state
            logger.removeHandler(handler)
            logger.setLevel(level)
            self._log_state = None

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- spans --------------------------------------------------------------

    def _wrap(self, name: str, fn):
        after = getattr(self, "_after_" + name.replace(".", "_"), None)
        stack, stats, spans = self._stack, self.stats, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if name == "harness._run_cell":
                self._enter_cell(args)
            factor_before = self._factor_calls
            frame = [name, time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - frame[1]
                stack.pop()
                own = dur - frame[2]
                parent = stack[-1][0] if stack else ""
                if stack:
                    stack[-1][2] += dur
                st = stats[name]
                st[0] += 1
                st[1] += dur
                st[2] += own
                spans.append((self.cell, len(stack), name, parent,
                              frame[1] - self._t0, dur, own))
            if after is not None:
                after(args, kwargs, result, dur, parent, factor_before)
            return result

        return traced

    def _enter_cell(self, args) -> None:
        self.cell = (int(args[1]), int(args[2]))  # (value index, replication)
        self._seen_gram.clear()
        self._seen_solve.clear()

    def _count_factor(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self._factor_calls += 1
            return fn(*args, **kwargs)

        return counted

    def _count_open(self, *args, **kwargs):
        self.counts["datasets.files_read"] += 1
        return builtins.open(*args, **kwargs)

    # -- counters at span boundaries ----------------------------------------

    def _after_kernels_gram_matrix(self, args, kwargs, result, dur, parent, _):
        x = args[1]
        x2 = kwargs.get("x2", args[2] if len(args) > 2 else None)
        entries = int(result.size)
        self.counts["kernels.gram_matrix.entries"] += entries
        key = (args[0], _digest(x), _digest(x if x2 is None else x2))
        if key in self._seen_gram:
            self.counts["kernels.gram_matrix.repeat_entries"] += entries
        else:
            self._seen_gram.add(key)

    def _after_kernels_spd_solve(self, args, kwargs, result, dur, parent, factor_before):
        a, b = args[0], args[1]
        n = int(np.shape(a)[0])
        self.counts["kernels.spd_solve.flops"] += n**3 / 3.0
        self.counts["kernels.spd_solve.max_n"] = max(self.counts["kernels.spd_solve.max_n"], n)
        self.counts["kernels.spd_solve.jitter_retries"] += max(
            0, self._factor_calls - factor_before - 1
        )
        key = _system_digest(a, b)
        if key in self._seen_solve:
            self.counts["kernels.spd_solve.repeat_calls"] += 1
        else:
            self._seen_solve.add(key)

    def _after_krr_fit_krr(self, args, kwargs, result, dur, parent, _):
        self.counts["krr.fit_krr.rows"] += args[0].n
        # A fit whose parent span is sa_tkrr is a refit of the chosen pair.
        if parent == "aggregate.sa_tkrr":
            self.counts["aggregate.sa_tkrr.refit_s"] += dur

    def _after_transfer_fit_ah_tkrr(self, args, kwargs, result, dur, parent, _):
        if parent == "aggregate.sa_tkrr":
            self.counts["aggregate.sa_tkrr.refit_s"] += dur

    def _after_transfer_fit_pooled(self, args, kwargs, result, dur, parent, _):
        self.counts["transfer.fit_pooled.rows"] += args[0].n + args[1].n_transferable

    def _after_aggregate_rank_contrasts(self, args, kwargs, result, dur, parent, _):
        ranks = getattr(result, "ranks", None)
        if ranks is not None:
            self.ranks[self.cell].append([int(r) for r in ranks])

    def _after_aggregate_build_candidates(self, args, kwargs, result, dur, parent, _):
        self.counts["aggregate.candidates_built"] += len(getattr(result, "candidates", ()))

    def _after_aggregate_sa_tkrr(self, args, kwargs, result, dur, parent, _):
        if not all(hasattr(result, a) for a in ("idx_a", "idx_b", "weight")):
            return
        used = set()
        if result.weight > 0.0:
            used.add(result.idx_a)
        if result.weight < 1.0:
            used.add(result.idx_b)
        self.counts["aggregate.candidates_used"] += len(used)
        self.sa_choices[self.cell].append((result.idx_a, result.idx_b, result.weight))

    def _after_aggregate_aew_aggregate(self, args, kwargs, result, dur, parent, _):
        weights = getattr(result, "weights", None)
        if weights is not None:
            self.counts["aggregate.candidates_used"] += int(np.count_nonzero(weights > 0.0))

    def _after_datasets_load_csv(self, args, kwargs, result, dur, parent, _):
        self.counts["datasets.rows_kept"] += getattr(result, "n", 0)

    # -- results ------------------------------------------------------------

    def self_ms(self, name: str) -> float:
        return self.stats[name][2] * 1000.0 if name in self.stats else 0.0

    def total_ms(self, name: str) -> float:
        return self.stats[name][1] * 1000.0 if name in self.stats else 0.0

    def calls(self, name: str) -> int:
        return self.stats[name][0] if name in self.stats else 0

    def metrics(self) -> dict[str, float]:
        """Per-layer figures for everything traced so far (one sweep round)."""
        c = self.counts
        built = c["aggregate.candidates_built"]
        m = {
            "kernels.gram_matrix.self_ms": self.self_ms("kernels.gram_matrix"),
            "kernels.gram_matrix.calls": self.calls("kernels.gram_matrix"),
            "kernels.gram_matrix.entries": c["kernels.gram_matrix.entries"],
            "kernels.gram_matrix.repeat_entries": c["kernels.gram_matrix.repeat_entries"],
            "kernels.spd_solve.self_ms": self.self_ms("kernels.spd_solve"),
            "kernels.spd_solve.calls": self.calls("kernels.spd_solve"),
            "kernels.spd_solve.flops": c["kernels.spd_solve.flops"],
            "kernels.spd_solve.max_n": c["kernels.spd_solve.max_n"],
            "kernels.spd_solve.repeat_calls": c["kernels.spd_solve.repeat_calls"],
            "kernels.spd_solve.jitter_retries": c["kernels.spd_solve.jitter_retries"],
            "kernels.rkhs_norm_diff.self_ms": self.self_ms("kernels.rkhs_norm_diff"),
            "kernels.rkhs_norm_diff.calls": self.calls("kernels.rkhs_norm_diff"),
            "krr.fit_krr.self_ms": self.self_ms("krr.fit_krr"),
            "krr.fit_krr.calls": self.calls("krr.fit_krr"),
            "krr.fit_krr.rows": c["krr.fit_krr.rows"],
            "krr.predict.self_ms": self.self_ms("krr.predict"),
            "aggregate.model_predict.self_ms": self.self_ms("aggregate.model_predict"),
            "harness.prediction_error.self_ms": self.self_ms("harness.prediction_error"),
            "transfer.fit_pooled.self_ms": self.self_ms("transfer.fit_pooled"),
            "transfer.fit_pooled.rows": c["transfer.fit_pooled.rows"],
            "transfer.fit_debias.self_ms": self.self_ms("transfer.fit_debias"),
            "aggregate.rank_contrasts.ms": self.total_ms("aggregate.rank_contrasts"),
            "aggregate.build_candidates.ms": self.total_ms("aggregate.build_candidates"),
            "aggregate.hyper_sparse_aggregate.ms": self.total_ms("aggregate.hyper_sparse_aggregate"),
            "aggregate.aew_aggregate.ms": self.total_ms("aggregate.aew_aggregate"),
            "aggregate.sa_tkrr.refit_ms": c["aggregate.sa_tkrr.refit_s"] * 1000.0,
            "aggregate.candidates_built": built,
            "aggregate.candidate_yield": c["aggregate.candidates_used"] / built if built else 0.0,
            "synthetic.gen_scenario.ms": self.total_ms("synthetic.gen_scenario"),
            "synthetic.gen_test.ms": self.total_ms("synthetic.gen_test"),
            "datasets.load_studies.ms": self.total_ms("datasets.load_studies"),
            "datasets.load_studies.calls": self.calls("datasets.load_studies"),
            "datasets.files_read": c["datasets.files_read"],
            "datasets.rows_parsed": c["datasets.rows_kept"] + c["datasets.rows_dropped"],
            "datasets.subsample_split.ms": self.total_ms("datasets.subsample_split"),
            "datasets.standardize.ms": self.total_ms("datasets.fit_standardizer")
            + self.total_ms("datasets.apply_standardizer"),
            "harness.glue_ms": self.self_ms("harness.run_sweep") + self.self_ms("harness._run_cell"),
            "harness.summarize.ms": self.total_ms("harness.summarize"),
            "harness.emit_csv.ms": self.total_ms("harness.emit_csv"),
        }
        return {k: float(v) for k, v in m.items()}

    def write_spans(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["value_index", "replication", "depth", "name", "parent",
                        "start_ms", "dur_ms", "self_ms"])
            for cell, depth, name, parent, start, dur, own in self.spans:
                vi, rep = cell if cell is not None else ("", "")
                w.writerow([vi, rep, depth, name, parent, f"{start * 1e3:.3f}",
                            f"{dur * 1e3:.3f}", f"{own * 1e3:.3f}"])
