"""Host and BLAS description, and the isolated kernel-apply timings.

OpenBLAS is reached through ctypes in the libraries this process has
loaded (numpy and scipy each bundle one), so the thread count can be read
and, for the single-thread baseline, changed without extra packages.
"""

from __future__ import annotations

import ctypes
import os
import statistics
import time
from pathlib import Path

import numpy as np
import scipy

_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _openblas_libs() -> list[tuple[str, ctypes.CDLL, str]]:
    """(path, library, thread-count getter) of each OpenBLAS loaded here."""
    paths = []
    with open("/proc/self/maps") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" in Path(path).name and path not in paths:
                paths.append(path)
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        getter = next((name for name in _GETTERS if hasattr(lib, name)), None)
        if getter is not None:
            found.append((path, lib, getter))
    return found


def _threads(lib, getter: str) -> int:
    return int(getattr(lib, getter)())


def _set_threads(lib, getter: str, count: int) -> None:
    getattr(lib, getter.replace("_get_", "_set_"))(ctypes.c_int(count))


def _llc_bytes() -> int:
    best_level, size = 0, 0
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            text = (index / "size").read_text().strip()
        except OSError:
            continue
        scale = {"K": 1024, "M": 1024**2}.get(text[-1], 1)
        if level > best_level:
            best_level, size = level, int(text.rstrip("KM")) * scale
    return size


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {
            Path(path).name: _threads(lib, getter) for path, lib, getter in _openblas_libs()
        },
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "llc_bytes": _llc_bytes(),
    }


def _per_call_ms(apply, kernel, values, reps: int = 40) -> float:
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        apply(kernel, values)
        samples.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(samples)


def apply_timings(tracer) -> dict:
    """Apply of the largest kernel the pass built, outside any span: with
    the configured BLAS threads and with one thread."""
    kernel = tracer.largest_kernel
    if kernel is None:
        return {"riesz.apply_isolated.ms": 0.0, "riesz.apply_isolated.ms_1thread": 0.0}
    values = np.ones(kernel.grid.node_count)
    threaded = _per_call_ms(tracer.plain_convolve, kernel, values)
    libs = _openblas_libs()
    before = [_threads(lib, getter) for _, lib, getter in libs]
    for _, lib, getter in libs:
        _set_threads(lib, getter, 1)
    try:
        single = _per_call_ms(tracer.plain_convolve, kernel, values)
    finally:
        for (_, lib, getter), count in zip(libs, before):
            _set_threads(lib, getter, count)
    return {"riesz.apply_isolated.ms": threaded, "riesz.apply_isolated.ms_1thread": single}
