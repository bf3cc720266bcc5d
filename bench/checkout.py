"""Import simcert from the checkout's own ``src/`` and describe the machine.

A parent-versus-change comparison is only meaningful if each side measures
its own tree, so :func:`import_simcert` refuses a ``simcert`` that resolves
anywhere but ``<root>/src``.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Scratch space for CLI outputs and trace files; listed in .gitignore.
WORKDIR = ROOT / ".bench_work"


class CheckoutError(RuntimeError):
    """The checkout cannot be benchmarked (no ``src/simcert`` or a foreign one)."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_blas_threads() -> None:
    """Keep OpenBLAS/OpenMP from starting more threads than usable cores.

    Must run before numpy is imported; an explicit setting is left alone.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ.setdefault(var, str(nproc()))


def import_simcert(root: Path = ROOT):
    src = (root / "src").resolve()
    if not (src / "simcert" / "__init__.py").is_file():
        raise CheckoutError(f"no simcert package under {src}")
    sys.path.insert(0, str(src))
    import simcert

    where = Path(simcert.__file__).resolve()
    if src not in where.parents:
        raise CheckoutError(f"simcert resolved to {where}, not under {src}")
    return simcert


def _git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _src_digest(root: Path) -> str:
    """sha256 over the package sources, the tree's identity when git is absent."""
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "simcert").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas():
    """(name, version, threads) of the BLAS numpy loaded; threads None if unknown."""
    import numpy as np

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        # numpy wheels prefix the symbol; a system OpenBLAS does not
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = int(fn())
                break
        if threads is not None:
            break
    return info.get("name"), info.get("version"), threads


def provenance(simcert, workload: str, seed: int, root: Path = ROOT) -> dict:
    import numpy as np

    blas_name, blas_version, blas_threads = _blas()
    return {
        "workload": workload,
        "seed": seed,
        "git_commit": _git_commit(root),
        "src_sha256": _src_digest(root),
        "simcert_path": str(Path(simcert.__file__).resolve().parent),
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_version": blas_version,
        "blas_threads": blas_threads,
    }
