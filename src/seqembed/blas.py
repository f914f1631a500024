"""OpenBLAS's thread count, read and set through ``ctypes``.

numpy's bundled OpenBLAS exports ``scipy_openblas_get_num_threads64_`` and
``scipy_openblas_set_num_threads64_``, but numpy does not wrap them.  The
library is found among this process's mappings, so only one that is already
loaded is ever touched.  Where no loaded library exports both, ``one_thread``
does nothing.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools
import os
from pathlib import Path

from .data import read_input
from .errors import DataError

_GET, _SET = "scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"


@functools.cache
def _openblas():
    """(get, set) of the loaded OpenBLAS's thread count, or None.  Looked up
    once per process: a ``ctypes.CDLL`` makes a class of its own, which a
    reference cycle holds until the next cyclic collection."""
    try:
        maps = read_input(Path("/proc/self/maps"), "memory map")
    except DataError:
        return None
    paths = sorted({os.fsdecode(line.split(maxsplit=5)[-1]) for line in maps.splitlines()
                    if b"openblas" in line.lower()})
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        get, set_ = getattr(lib, _GET, None), getattr(lib, _SET, None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


@contextlib.contextmanager
def one_thread():
    """Hold OpenBLAS at one thread, and restore the count it had on exit,
    also when the body raises."""
    functions = _openblas()
    if functions is None:
        yield
        return
    get, set_ = functions
    count = get()
    set_(1)
    try:
        yield
    finally:
        set_(count)
