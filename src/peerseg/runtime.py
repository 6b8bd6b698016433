"""Two settings the program makes for its own process, with no option.

``one_blas_thread`` runs a block with the loaded OpenBLAS at one thread.  How
OpenBLAS splits a product across threads sets the order of its sums, so a
multi-threaded pool makes output bytes depend on the machine's core count;
on this program's small matrices one thread is also no slower.

``keep_freed_memory`` tells glibc's allocator to keep freed memory in the
process.  Every training step allocates and frees many short-lived arrays;
with glibc's defaults the larger ones are unmapped or trimmed on free, and the
next step faults fresh zeroed pages back in.

Both act on this process only: they set no environment and touch no system
setting.  Where the library or the symbol is missing, each does nothing.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
from typing import Callable, NamedTuple

import numpy  # noqa: F401  (loads OpenBLAS before the lookup reads the maps)

# (prefix, suffix) of the OpenBLAS symbols: numpy's scipy-openblas wheel, a
# 64-bit-integer build, a plain build.
_OPENBLAS_NAMES = (("scipy_openblas_", "64_"), ("openblas_", "64_"), ("openblas_", ""))
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD = 32 << 20               # glibc's largest on 64-bit systems
TRIM_THRESHOLD = 2**31 - 1


class OpenBlas(NamedTuple):
    get_num_threads: Callable
    set_num_threads: Callable
    get_corename: Callable


@functools.cache
def openblas() -> OpenBlas | None:
    """The thread and core-name functions of the OpenBLAS this process loaded,
    found through /proc/self/maps; None when there is none."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in _OPENBLAS_NAMES:
            names = [f"{prefix}{name}{suffix}"
                     for name in ("get_num_threads", "set_num_threads", "get_corename")]
            if all(hasattr(lib, name) for name in names):
                blas = OpenBlas(*(getattr(lib, name) for name in names))
                blas.get_num_threads.argtypes = []
                blas.get_num_threads.restype = ctypes.c_int
                blas.set_num_threads.argtypes = [ctypes.c_int]
                blas.set_num_threads.restype = None
                blas.get_corename.argtypes = []
                blas.get_corename.restype = ctypes.c_char_p
                return blas
    return None


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with OpenBLAS at one thread and restore the old count on
    exit; usable as a decorator, ``@one_blas_thread()``."""
    blas = openblas()
    if blas is None:
        yield
        return
    before = blas.get_num_threads()
    blas.set_num_threads(1)
    try:
        yield
    finally:
        blas.set_num_threads(before)


@functools.cache
def _mallopt():
    """The C library's ``mallopt``, or None where it has none."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return None
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    return mallopt


def keep_freed_memory() -> bool:
    """Pin glibc's mmap and trim thresholds, so freed memory stays in the
    process for the next allocation; returns whether both took effect."""
    mallopt = _mallopt()
    if mallopt is None:
        return False
    mmap_ok = mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1
    trim_ok = mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD) == 1
    return mmap_ok and trim_ok
