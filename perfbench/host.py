"""Thread pinning and the host fingerprint every benchmark result carries.

:func:`pin_threads` must run before numpy is first imported: OpenBLAS
(and the other BLAS builds numpy may link) read their thread-count
variables once, when the library loads.
"""

from __future__ import annotations

import os
import platform
import sys
from typing import Dict

# One BLAS/FFT thread: the host has 2 vCPUs, the serving workload runs an
# event loop next to its executor thread, and other tenants share the
# machine, so a single compute thread gives the steadiest timings.
BLAS_THREADS = 1

_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def nproc() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        return os.cpu_count() or 1


def pin_threads() -> int:
    """Pin BLAS/OpenMP threads to ``min(BLAS_THREADS, nproc)`` and force
    the numpy array backend; returns the pinned count."""
    n = max(1, min(BLAS_THREADS, nproc()))
    for var in _THREAD_VARS:
        os.environ[var] = str(n)
    os.environ["REPRO_BACKEND"] = "numpy"
    return n


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def fingerprint() -> Dict[str, object]:
    """nproc, CPU model, interpreter, numpy/scipy/BLAS versions and the
    thread environment of this process."""
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_id = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (KeyError, TypeError, ValueError):
        blas_id = "unknown"
    return {
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "machine": platform.machine(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_id,
        "threads": {
            var: os.environ.get(var)
            for var in _THREAD_VARS + ("REPRO_BACKEND",)
        },
    }
