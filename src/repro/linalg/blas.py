"""Run a block of code with every loaded OpenBLAS on one thread.

The HnD Arnoldi solve (:func:`repro.linalg.spectral.dominant_eigenpair`)
orthogonalizes an ``n x 8`` Krylov basis with BLAS level-2 calls on every
step.  At ``n = 100k`` those calls are too small to gain from threads, yet
OpenBLAS wakes one worker per core for each of them -- and numpy and scipy
each ship their own OpenBLAS, so a 2-core process runs two such pools
against the solve thread and anything else the process does.  One thread
is faster for the solve alone and far faster next to other work; a server
gets its parallelism from running solves side by side instead.

:func:`single_threaded_blas` sets every OpenBLAS mapped into the process
to one thread and restores the previous counts afterwards.  OpenBLAS's
thread count is process-wide in pthreads builds, so the pin is
reference-counted: the first holder saves the counts and sets them to 1,
the last one to leave restores them, and concurrent holders never see a
restore under their feet.  Without a bindable OpenBLAS (MKL, BLIS, a
platform without ``/proc/self/maps``, or OpenBLAS before 0.3.27, which
lacks ``openblas_set_num_threads_local``) the pin does nothing.

Because a pinned solve always runs its BLAS on one thread, its bits no
longer depend on the ``OPENBLAS_NUM_THREADS`` the process started with.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import threading
from typing import Callable, Iterator, List, Optional, Tuple

_MAPS = "/proc/self/maps"

# Module state on purpose: it mirrors OpenBLAS's own process-wide count.
_lock = threading.Lock()
_setters: Optional[List[Tuple[str, Callable[[int], int]]]] = None
_holders = 0
_saved: List[int] = []


def _reset_in_child() -> None:
    """A forked child starts with a free lock and no holders."""
    global _lock, _holders
    _lock = threading.Lock()
    _holders = 0


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_in_child)


def _discover() -> List[Tuple[str, Callable[[int], int]]]:
    """``(path, openblas_set_num_threads_local)`` of each mapped OpenBLAS."""
    paths: List[str] = []
    try:
        with open(_MAPS) as maps:
            for line in maps:
                fields = line.split(None, 5)
                if len(fields) < 6:
                    continue
                path = fields[5].strip()
                name = path.rsplit("/", 1)[-1].lower()
                if "openblas" in name and path not in paths:
                    paths.append(path)
    except OSError:
        return []
    setters = []
    for path in paths:
        try:
            setter = ctypes.CDLL(path).openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        setter.argtypes = [ctypes.c_int]
        setter.restype = ctypes.c_int
        setters.append((path, setter))
    return setters


def _bound() -> List[Tuple[str, Callable[[int], int]]]:
    """The bound setters, discovered on first use.  Call under ``_lock``."""
    global _setters
    if _setters is None:
        _setters = _discover()
    return _setters


def blas_libraries() -> Tuple[str, ...]:
    """Paths of the OpenBLAS libraries the pin binds (empty: a no-op pin)."""
    with _lock:
        return tuple(path for path, _ in _bound())


@contextlib.contextmanager
def single_threaded_blas() -> Iterator[Optional[int]]:
    """Hold every bound OpenBLAS at one thread for the ``with`` block.

    Yields ``1`` when the pin took effect and ``None`` when no library was
    bound.  Safe to enter from several threads at once.
    """
    global _holders, _saved
    with _lock:
        setters = _bound()
        if _holders == 0:
            _saved = [setter(1) for _, setter in setters]
        _holders += 1
    try:
        yield 1 if setters else None
    finally:
        with _lock:
            _holders -= 1
            if _holders == 0:
                for (_, setter), count in zip(setters, _saved):
                    setter(count)
