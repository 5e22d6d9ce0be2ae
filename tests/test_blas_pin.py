"""The one-thread BLAS pin around the HnD Arnoldi solve.

Four contracts:

* **Pinned inside, restored after**: while
  :func:`~repro.linalg.spectral.dominant_eigenpair` runs, every bound
  OpenBLAS reports one thread; the previous counts come back after a
  normal exit, a budget-exhausted solve, an ``ArpackError`` and a raising
  matvec, and after 8 threads solving at once.
* **A no-op without OpenBLAS**: with discovery finding nothing, the solve
  returns the same bits and reports ``blas_threads=None``.
* **Bits independent of ``OPENBLAS_NUM_THREADS``**: one crowd large enough
  for OpenBLAS to thread, ranked in subprocesses at 1 and 4 threads, gives
  identical score bytes and matvec counts.
* **Provenance**: HnD rankings report ``diagnostics["blas_threads"]``, and
  a snapshot round trip keeps it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from repro.core.hitsndiffs import HNDPower
from repro.core.response import ResponseMatrix
from repro.linalg import blas, spectral
from repro.linalg.spectral import dominant_eigenpair
from repro.store import decode_snapshot, encode_snapshot

SRC = str(Path(__file__).resolve().parents[1] / "src")

needs_openblas = pytest.mark.skipif(
    not blas.blas_libraries(), reason="no bindable OpenBLAS in this process"
)


def _thread_counts():
    """Each bound library's current thread count (read by set-and-restore)."""
    with blas._lock:
        counts = []
        for _, setter in blas._bound():
            count = setter(1)
            setter(count)
            counts.append(count)
        return counts


@pytest.fixture
def known_counts():
    """Set every library to 2 threads, and put the old counts back after."""
    with blas._lock:
        old = [setter(2) for _, setter in blas._bound()]
    yield _thread_counts()
    with blas._lock:
        for (_, setter), count in zip(blas._bound(), old):
            setter(count)


def _operator(size=200, seed=0):
    matrix = np.random.default_rng(seed).random((size, size))
    return lambda x: matrix @ x


def _solve(matvec=None, size=200, **kwargs):
    kwargs.setdefault("tolerance", 1e-10)
    kwargs.setdefault("max_iterations", 500)
    start = np.random.default_rng(1).random(size)
    return dominant_eigenpair(matvec or _operator(size), start, **kwargs)


@needs_openblas
class TestPin:
    def test_every_library_runs_one_thread_inside_a_solve(self, known_counts):
        assert set(known_counts) == {2}
        seen = []
        operator = _operator()

        def matvec(x):
            seen.append(_thread_counts())
            return operator(x)

        result = _solve(matvec)
        assert result.converged and result.blas_threads == 1
        assert seen and all(set(counts) == {1} for counts in seen)
        assert _thread_counts() == known_counts

    def test_counts_restored_after_budget_exhausted_solve(self, known_counts):
        result = _solve(max_iterations=3)
        assert not result.converged and result.iterations == 3
        assert _thread_counts() == known_counts

    def test_counts_restored_after_arpack_error(self, known_counts,
                                                monkeypatch):
        def give_up(*args, **kwargs):
            raise spla.ArpackError(-9)

        monkeypatch.setattr(spectral.spla, "eigs", give_up)
        result = _solve()
        assert result.blas_threads == 1 and result.iterations == 1
        assert _thread_counts() == known_counts

    def test_counts_restored_after_a_raising_matvec(self, known_counts):
        def broken(x):
            raise RuntimeError("matvec failed")

        with pytest.raises(RuntimeError, match="matvec failed"):
            _solve(broken)
        assert _thread_counts() == known_counts

    def test_concurrent_solves_leave_counts_where_they_started(
            self, known_counts):
        """8 solves inside the pin at once: no early restore, no leak."""
        workers = 8
        barrier = threading.Barrier(workers, timeout=60)
        operator = _operator()
        seen, errors = [], []

        def solve():
            entered = [False]

            def matvec(x):
                if not entered[0]:
                    entered[0] = True
                    barrier.wait()  # every solve now holds the pin
                seen.append(_thread_counts())
                return operator(x)

            try:
                assert _solve(matvec).blas_threads == 1
            except BaseException as err:  # reported on the main thread
                errors.append(err)

        threads = [threading.Thread(target=solve) for _ in range(workers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert all(set(counts) == {1} for counts in seen)
        assert _thread_counts() == known_counts


def test_no_openblas_is_a_no_op_with_the_same_bits(monkeypatch):
    pinned = _solve()
    monkeypatch.setattr(blas, "_MAPS", "/nonexistent/maps")
    monkeypatch.setattr(blas, "_setters", None)
    assert blas.blas_libraries() == ()
    bare = _solve()
    assert bare.blas_threads is None
    assert bare.vector.tobytes() == pinned.vector.tobytes()
    assert bare.iterations == pinned.iterations


_RANK_SCRIPT = r"""
import hashlib, json, sys
sys.path.insert(0, %(src)r)
import numpy as np
from repro.core.hitsndiffs import HNDPower
from repro.core.response import ResponseMatrix

rng = np.random.default_rng(7)
num_users, num_items, num_options = 20000, 300, 4
truth = rng.integers(0, num_options, size=num_items)
ability = rng.uniform(0.4, 0.95, size=num_users)
users, items = np.nonzero(rng.random((num_users, num_items)) < 0.02)
correct = rng.random(users.size) < ability[users]
wrong = (truth[items] + rng.integers(1, num_options, size=users.size)) %% num_options
matrix = ResponseMatrix.from_triples(
    users, items, np.where(correct, truth[items], wrong),
    shape=(num_users, num_items), num_options=num_options)
ranking = HNDPower(random_state=0, tolerance=1e-8).rank(matrix)
print(json.dumps({"md5": hashlib.md5(ranking.scores.tobytes()).hexdigest(),
                  "iterations": ranking.diagnostics["iterations"]}))
"""


def test_hnd_bits_do_not_depend_on_openblas_threads():
    """20k users: big enough that OpenBLAS would thread the basis updates."""
    results = []
    for threads in ("1", "4"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-c", _RANK_SCRIPT % {"src": SRC}],
            capture_output=True, text=True, timeout=300, env=env, check=True,
        )
        results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    assert results[0] == results[1]


def test_hnd_ranking_reports_and_snapshots_blas_threads(rng):
    users = np.repeat(np.arange(60), 5)
    items = rng.integers(0, 40, size=users.size)
    keep = np.unique(users * 40 + items, return_index=True)[1]
    matrix = ResponseMatrix.from_triples(
        users[keep], items[keep], rng.integers(0, 3, size=keep.size),
        shape=(60, 40), num_options=3,
    )
    ranking = HNDPower(random_state=0).rank(matrix)
    expected = 1 if blas.blas_libraries() else None
    assert ranking.diagnostics["blas_threads"] == expected
    for value in (1, None):
        ranking.diagnostics["blas_threads"] = value
        record = decode_snapshot(encode_snapshot(
            ranking, content_hash=matrix.content_hash(),
            fingerprint=("mod", "HNDPower", (("random_state", ("int", 0)),)),
        ))
        assert record.to_ranking().diagnostics["blas_threads"] == value
