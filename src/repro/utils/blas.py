"""One BLAS thread per process: a pin on numpy's bundled OpenBLAS.

Threaded OpenBLAS splits a long dot product or matrix product among its
helper threads, so the bits of a dot product depend on the thread count,
and on a small host waking the helpers costs more than the arithmetic.
:func:`pin_one_thread` sets numpy's OpenBLAS to one thread for the rest of
the process.  The pin is never undone: the distributed service runs thread
workers inside one process, and a restore by one of them could let
another's sums run threaded.  A campaign gets its parallelism from its
worker pool instead.

The setter is resolved once, on the first pin, from the library that
numpy's ``_multiarray_umath`` extension links, by the names of
:data:`SETTER_NAMES`.  When none resolves (another BLAS, a renamed
symbol), nothing is pinned: the first request logs a warning and every
request counts ``blas.unpinned`` under :func:`repro.obs.metrics.enabled`.
"""

from __future__ import annotations

import ctypes
import threading

from repro.obs import metrics
from repro.obs.log import get_logger

__all__ = ["SETTER_NAMES", "pin_one_thread"]

#: OpenBLAS thread-count setters, in lookup order: numpy's bundled
#: scipy-openblas build, a 64-bit-integer OpenBLAS, a plain OpenBLAS
SETTER_NAMES = (
    "scipy_openblas_set_num_threads64_",
    "openblas_set_num_threads64_",
    "openblas_set_num_threads",
)

_log = get_logger("utils.blas")
_lock = threading.Lock()
#: whether the pin holds; None until the first request resolves the setter
_pinned: bool | None = None


def _setter():
    """numpy's OpenBLAS thread-count setter, or None if no name resolves."""
    try:
        from numpy._core import _multiarray_umath

        library = ctypes.CDLL(_multiarray_umath.__file__)
    except (ImportError, OSError):
        return None
    for name in SETTER_NAMES:
        setter = getattr(library, name, None)
        if setter is not None:
            setter.argtypes = [ctypes.c_int]
            setter.restype = None
            return setter
    return None


def pin_one_thread() -> bool:
    """Run numpy's BLAS on one thread from now on; whether it does.

    Idempotent and cheap after the first call, which resolves the setter
    and pins.  Safe to call from several threads.
    """
    global _pinned
    if _pinned is None:
        with _lock:
            if _pinned is None:
                setter = _setter()
                if setter is None:
                    _log.warning(
                        "cannot pin numpy's BLAS to one thread (none of %s "
                        "resolves): long sums of products may run threaded "
                        "and change in their last bits with the thread count",
                        ", ".join(SETTER_NAMES),
                    )
                else:
                    setter(1)
                _pinned = setter is not None
    if not _pinned:
        metrics.inc("blas.unpinned")
    return _pinned
