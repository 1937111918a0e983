"""One OpenBLAS thread for the length of a call.

NumPy and SciPy each bundle their own OpenBLAS.  The solvers switch between
the two (SciPy's for gelsy, NumPy's for everything else), and at the default
thread count each runtime's idle workers keep spinning while the other one
works, which nearly doubles a sweep on two cores.  :func:`single_blas_thread`
sets every bundled runtime to one thread on the outermost entry of a
decorated call and restores each runtime's count on the last exit, also when
the call raises.  The setting is process-wide while it holds: any other
thread of the process that calls BLAS meanwhile runs at one thread too.

An exported ``OPENBLAS_NUM_THREADS`` is the user's choice and turns the pin
off.  Without a runtime whose thread count can be set (a NumPy or SciPy not
built on a bundled OpenBLAS), the pin does nothing.
"""

from __future__ import annotations

import functools
import glob
import os
import sys
import threading

# (getter, setter) symbol pairs, tried in order: NumPy's ILP64 build, SciPy's
# build, then a plain OpenBLAS
_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)

_lock = threading.Lock()
_depth = 0
_saved: list[tuple] = []


@functools.cache
def runtimes() -> tuple[tuple[str, object, object], ...]:
    """(library path, get_num_threads, set_num_threads) of every bundled OpenBLAS, found on first use."""
    import ctypes

    found = []
    for package in ("numpy", "scipy"):
        module = sys.modules.get(package)
        if module is None:
            continue
        root = os.path.dirname(module.__file__)
        libs = (os.path.join(os.path.dirname(root), f"{package}.libs"), os.path.join(root, ".dylibs"))
        for path in sorted(p for d in libs for p in glob.glob(os.path.join(d, "*openblas*"))):
            try:
                lib = ctypes.CDLL(path)
            except OSError:
                continue
            for get_name, set_name in _SYMBOLS:
                get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
                if get is not None and set_ is not None:
                    found.append((path, get, set_))
                    break
    return tuple(found)


def single_blas_thread(fn):
    """Decorate ``fn`` to run with every bundled OpenBLAS runtime at one thread."""

    @functools.wraps(fn)
    def pinned(*args, **kwargs):
        global _depth
        with _lock:
            if _depth == 0 and "OPENBLAS_NUM_THREADS" not in os.environ:
                for _, get, set_ in runtimes():
                    _saved.append((set_, get()))
                    set_(1)
            _depth += 1
        try:
            return fn(*args, **kwargs)
        finally:
            with _lock:
                _depth -= 1
                if _depth == 0:
                    while _saved:
                        set_, count = _saved.pop()
                        set_(count)

    return pinned
