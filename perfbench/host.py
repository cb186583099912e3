"""The ``host`` block of every benchmark report: what the numbers were
measured on.  The benchmark reads the BLAS thread settings; it never sets
them."""

from __future__ import annotations

import ctypes
import importlib.util
import os
import platform
from pathlib import Path

BLAS_ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _hostinfo(root: Path):
    """The repository's shared host probe, ``benchmarks/hostinfo.py``."""
    spec = importlib.util.spec_from_file_location(
        "hostinfo", root / "benchmarks" / "hostinfo.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _blas_threads(numpy_dir: Path) -> int | None:
    """Thread count of the OpenBLAS library numpy has loaded, asked through
    its own ``get_num_threads`` entry point (``None`` for other vendors)."""
    with open("/proc/self/maps") as maps:
        libs = {
            line.split()[-1]
            for line in maps
            if "openblas" in line and ".so" in line
        }
    # numpy's own copy (in numpy.libs) first: scipy may load a second one.
    for lib in sorted(libs, key=lambda p: not p.startswith(f"{numpy_dir}.libs")):
        handle = ctypes.CDLL(lib)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def host_block(root: Path, seed: int) -> dict:
    import numpy
    import scipy

    cores, cores_source = _hostinfo(root).schedulable_cpus()
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "schedulable_cores": cores,
        "schedulable_cores_source": cores_source,
        "blas_vendor": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(Path(numpy.__file__).parent),
        "blas_env": {k: os.environ[k] for k in BLAS_ENV_VARS if k in os.environ},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
        "commit": git_commit(root),
    }


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from ``.git`` without running git; the
    benchmark also runs from exported trees, which have no ``.git``."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (no .git in the checkout)"
