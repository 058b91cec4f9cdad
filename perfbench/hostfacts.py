"""Host facts: cores, library versions, and the BLAS threads actually in use.

`threadpoolctl` may be missing, so the OpenBLAS thread count is read from
the loaded libraries themselves through ctypes. NumPy and SciPy wheels each
bundle their own OpenBLAS; both are reported. Importing this module loads
nothing but the standard library, because pool workers import it.
"""

from __future__ import annotations

import ctypes
import os
import platform
import sys

_GET_THREADS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)
_GET_CONFIG = (
    "scipy_openblas_get_config64_",
    "scipy_openblas_get_config",
    "openblas_get_config64_",
    "openblas_get_config",
)


def _openblas_paths() -> list[str]:
    paths: list[str] = []
    try:
        with open("/proc/self/maps") as fh:
            for line in fh:
                p = line.split()[-1]
                if "openblas" in os.path.basename(p).lower() and p not in paths:
                    paths.append(p)
    except OSError:  # pragma: no cover - not Linux
        pass
    return paths


def _call(lib, names, restype):
    for name in names:
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.restype = restype
            return fn()
    return None


def openblas() -> dict[str, dict]:
    """Per loaded OpenBLAS library: its build string and current thread count."""
    out = {}
    for path in _openblas_paths():
        lib = ctypes.CDLL(path)
        cfg = _call(lib, _GET_CONFIG, ctypes.c_char_p)
        out[os.path.basename(path)] = {
            "config": cfg.decode() if cfg else None,
            "threads": _call(lib, _GET_THREADS, ctypes.c_int),
        }
    return out


def blas_threads_in_cell() -> int:
    """Largest BLAS thread count a sweep cell runs with in this process.

    Enters `harness._limit_blas()`, the context `_run_cell` wraps a cell in,
    so the figure is what a cell sees whatever pinning the harness applies.
    """
    from tkrr import harness

    with harness._limit_blas():
        counts = [v["threads"] for v in openblas().values() if v["threads"]]
    return max(counts, default=0)


def blas_threads_in_worker() -> int:
    """`blas_threads_in_cell` inside a pool worker started as `run_sweep` starts one."""
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    from tkrr import harness

    with ProcessPoolExecutor(
        max_workers=1,
        mp_context=get_context("spawn"),
        initializer=harness._pin_blas_env,
    ) as pool:
        return pool.submit(blas_threads_in_cell).result(timeout=120)


def facts() -> dict:
    """Everything the README's host section records."""
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401 - loads SciPy's own OpenBLAS

    try:
        import threadpoolctl  # noqa: F401

        has_tpc = True
    except ImportError:
        has_tpc = False
    from workloads import nproc

    return {
        "cores": nproc(),
        "machine": platform.machine(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threadpoolctl_importable": has_tpc,
        "openblas": openblas(),
        "blas_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "blas_threads_in_cell": blas_threads_in_cell(),
        "blas_threads_in_worker": blas_threads_in_worker(),
    }


if __name__ == "__main__":
    import json
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    print(json.dumps(facts(), indent=2))
