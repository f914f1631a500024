"""OpenBLAS's thread count, read and set through ``ctypes``.

numpy's bundled OpenBLAS exports ``scipy_openblas_get_num_threads64_`` and
``scipy_openblas_set_num_threads64_``, but numpy does not wrap them.  They
are looked up through the handle of numpy's ``_multiarray_umath``, the
extension that runs its products, so only the library numpy already loaded
is ever touched.  Where the module, the library or a symbol is missing,
``one_thread`` does nothing.
"""
from __future__ import annotations

import contextlib
import ctypes
import functools

import numpy as np


@functools.cache
def _openblas():
    """(get, set) of numpy's OpenBLAS thread count, or None.  Looked up
    once per process: a ``ctypes.CDLL`` makes a class of its own, which a
    reference cycle holds until the next cyclic collection."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (AttributeError, OSError):  # no such module, library or symbol
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


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
