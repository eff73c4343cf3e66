"""The machine record attached to every benchmark result."""

from __future__ import annotations

import hashlib
import os
import platform
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def pin_threads():
    """Run BLAS and OpenMP single-threaded, whatever the environment says.

    Idle OpenBLAS helper threads spin on the second core of a 2-core box and
    made run-to-run times spread by tens of percent; one thread keeps the
    thread count below the core count on any machine. Must run before numpy
    is imported, which is when the libraries read these variables.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"


def cache_bytes(level):
    """Size of the unified cache of this level seen by CPU 0, or None."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for index in sorted(os.listdir(base)):
            with open(os.path.join(base, index, "level")) as handle:
                if int(handle.read()) != level:
                    continue
            with open(os.path.join(base, index, "size")) as handle:
                text = handle.read().strip()
            scale = {"K": 1024, "M": 1024**2}.get(text[-1], 1)
            return int(text.rstrip("KM")) * scale
    except (OSError, ValueError):
        pass
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas(module):
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        return "unknown"


def _git_commit(root):
    """HEAD of a git checkout, read from .git without running git; else None."""
    try:
        with open(os.path.join(root, ".git", "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(root, ".git", head[5:])) as handle:
            return handle.read().strip()
    except OSError:
        return None


def _source_digest(root):
    """sha256 over the package sources, which identifies the code measured."""
    digest = hashlib.sha256()
    package = os.path.join(root, "src", "bhcp")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(package, name), "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def record(root, seed):
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "l2_bytes": cache_bytes(2),
        "l3_bytes": cache_bytes(3),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(numpy),
        "scipy_blas": _blas(scipy),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": _git_commit(root),
        "src_sha256": _source_digest(root),
        "seed": seed,
    }
