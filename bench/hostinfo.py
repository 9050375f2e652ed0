"""Environment fingerprint and a fixed host-speed reference loop.

The reference loop is timed at the start and the end of every run. It is
never used to normalise a metric; it only makes host drift visible next
to the numbers.
"""

from __future__ import annotations

import os
import platform
import statistics
import sys
import time
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
REFERENCE_REPEATS = 5  # the reference loop reports the median of this many timings


def fix_blas_threads() -> None:
    """One BLAS thread; must run before numpy is first imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas_info() -> dict:
    import numpy as np

    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": cfg.get("name"), "version": cfg.get("version")}
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        return {"name": "unknown", "version": "unknown"}


def source_lines(src: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(src.glob("*.py")))


def fingerprint(src: Path) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "blas": blas_info(),
        "blas_threads": {k: os.environ.get(k) for k in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "src_lines": source_lines(src),
    }


def reference_loop_ms() -> float:
    """Median wall time of a fixed Python-plus-small-matvec loop."""
    import numpy as np

    a = (np.arange(64 * 64, dtype=np.float32).reshape(64, 64) % 7) / 7
    times = []
    for _ in range(REFERENCE_REPEATS):
        t = time.perf_counter()
        acc = 0
        for i in range(20000):
            acc += i * i
        v = np.ones(64, dtype=np.float32)
        for _ in range(500):
            v = a @ v
            v /= v.max()
        times.append(time.perf_counter() - t)
    return statistics.median(times) * 1e3
