"""Process-backed shard execution: a ``ProcessPoolExecutor`` over shard slices.

The thread backend's kernels (:mod:`repro.engine.kernels`) dispatch
closures over shared in-process buffers — neither survives a process
boundary.  :class:`ProcessEngine` keeps the same determinism model with a
different data plane:

* **shard slices live in the workers.**  The canonical triple arrays (and
  the derived binary-column ids) are shipped to every worker exactly once,
  at pool start-up, through the pool initializer — per-call task messages
  are a handful of integers.  Any worker can therefore run any shard,
  which is what lets ``workers < shards`` configurations drain the queue.
* **hot vectors travel through shared memory.**  The per-iteration inputs
  (user-score vectors, option weights, EM posteriors) and the per-answer
  gather buffers are named :class:`multiprocessing.shared_memory.SharedMemory`
  blocks; the parent writes inputs, workers write their disjoint output
  slices, and nothing ``O(nnz)`` is ever pickled in the hot loop.
* **reductions happen in the parent, in canonical answer order.**  Workers
  only *gather* per-answer contributions (or finish per-user row blocks,
  which concatenate without any floating-point arithmetic); the parent
  performs the single sequential ``np.bincount`` scatter over the
  canonical order — the same accumulation order SciPy's CSR/CSC loops and
  the thread backend use.  Scores are therefore **bit-identical to the
  fused single-process kernels at any shard and worker count**, pinned by
  ``tests/test_process_backend.py``.

:class:`ProcessEngine` implements the
:class:`~repro.engine.rankers.ShardKernels` interface, so the runners
(``rank_hnd_power``, ``rank_dawid_skene``, ``rank_majority_vote``) execute
over it unchanged — including **warm starts**: a
:class:`~repro.core.solver_state.SolverState` only changes the initial
vector/posterior table the runner's solve loop starts from, which lives in
the parent, so the worker protocol (shard slices shipped once, shared-memory
vectors per call) and the bit-identity guarantee are untouched.  Entry
point::

    from repro.api import ExecutionPolicy, rank
    rank(matrix, "HnD", execution=ExecutionPolicy(backend="processes", shards=8))
"""

from __future__ import annotations

import os
import secrets
import weakref
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import get_context, shared_memory
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.engine.rankers import ShardKernels
from repro.exceptions import EngineError, WorkerTimeoutError, WorkerUnavailableError
from repro.engine.sharding import ShardedResponse
from repro.linalg.operators import apply_cumulative_into, apply_difference
from repro.linalg.power_iteration import PowerIterationResult
from repro.linalg.spectral import dominant_eigenpair
from repro.truth_discovery.majority import agreement_counts

#: A buffer reference a worker can resolve: (shared-memory name, shape).
BufferRef = Tuple[str, Tuple[int, ...]]

# ----------------------------------------------------------------------- #
# Worker side: module-level state + picklable task functions
# ----------------------------------------------------------------------- #
#: Engine token -> worker-resident shard state (set by the pool initializer).
_WORKER_STATE: Dict[str, Dict[str, object]] = {}

#: Shared-memory name -> open attachment (cached for the worker's lifetime).
_WORKER_BUFFERS: Dict[str, np.ndarray] = {}
_WORKER_SEGMENTS: Dict[str, shared_memory.SharedMemory] = {}


def _worker_init(token: str, payload: Dict[str, np.ndarray]) -> None:
    """Pool initializer: install the shard slices in this worker process."""
    state = dict(payload)
    # Binary-column id of every answer, derived once per worker from the
    # same integers the parent uses (identical values by construction).
    state["columns"] = (
        np.asarray(state["column_starts"])[state["items"]] + state["options"]
    )
    state["blocks"] = {}
    _WORKER_STATE[token] = state


def _worker_block(state: Dict[str, object], index: int) -> sp.csr_matrix:
    """Shard ``index``'s one-hot CSR row block, built once per worker.

    The same block :attr:`ShardedResponse.shard_blocks` caches parent-side:
    row ``u`` holds ones at the binary columns of user ``start + u``'s
    answers, in canonical answer order, so a SciPy CSR matvec over it
    accumulates each user row exactly like the fused kernel.
    """
    blocks: Dict[int, sp.csr_matrix] = state["blocks"]
    block = blocks.get(index)
    if block is None:
        lo, hi, start, stop = _shard_slice(state, index)
        num_columns = int(state["num_columns"])
        local_users = state["users"][lo:hi] - start
        counts = np.bincount(local_users, minlength=stop - start)
        indptr = np.zeros(stop - start + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        block = sp.csr_matrix((stop - start, num_columns))
        block.data = np.ones(hi - lo, dtype=np.float64)
        block.indices = np.ascontiguousarray(state["columns"][lo:hi])
        block.indptr = indptr
        blocks[index] = block
    return block


def _worker_diff_step(state: Dict[str, object]):
    """The fused HnD difference step over a worker-local full replica.

    Built lazily from the triples every worker already holds (the pool
    initializer ships them once) plus the per-item option counts, so the
    replica's binary-column layout — and therefore every accumulation
    order — matches the parent's ``CompiledResponse`` exactly: a solve here
    is bit-identical to the same solve on the fused kernel.
    """
    step = state.get("diff_step")
    if step is None:
        from repro.core.avghits import hnd_difference_step
        from repro.core.response import ResponseMatrix

        matrix = ResponseMatrix.from_triples(
            state["users"], state["items"], state["options"],
            shape=(int(state["boundaries"][-1]), len(state["column_starts"])),
            num_options=state["num_options"],
        )
        step = hnd_difference_step(matrix)
        state["diff_step"] = step
    return step


def _worker_view(ref: BufferRef) -> np.ndarray:
    """A float64 view of a shared-memory block (attachments are cached)."""
    name, shape = ref
    view = _WORKER_BUFFERS.get(name)
    if view is None or view.shape != tuple(shape):
        segment = _WORKER_SEGMENTS.get(name)
        if segment is None:
            segment = shared_memory.SharedMemory(name=name)
            _WORKER_SEGMENTS[name] = segment
        view = np.ndarray(tuple(shape), dtype=np.float64, buffer=segment.buf)
        _WORKER_BUFFERS[name] = view
    return view


def _shard_slice(state: Dict[str, object], index: int) -> Tuple[int, int, int, int]:
    """(answer lo, answer hi, user start, user stop) of shard ``index``."""
    cuts = state["cuts"]
    boundaries = state["boundaries"]
    return (
        int(cuts[index]), int(cuts[index + 1]),
        int(boundaries[index]), int(boundaries[index + 1]),
    )


def _task_gather_user(token: str, index: int, vec_ref: BufferRef,
                      scratch_ref: BufferRef) -> None:
    """scratch[answers of shard] = user_vector[user of each answer]."""
    state = _WORKER_STATE[token]
    lo, hi, _, _ = _shard_slice(state, index)
    scratch = _worker_view(scratch_ref)
    np.take(_worker_view(vec_ref), state["users"][lo:hi], out=scratch[lo:hi])


def _task_user_sums(token: str, index: int, vec_ref: BufferRef,
                    out_ref: BufferRef) -> None:
    """out[shard's user rows] = per-user sums of the picked option values.

    One fused SciPy CSR matvec over the worker-cached shard block — the
    same per-row accumulation order as the old gather + ``np.bincount``
    pair, without its extra ``O(nnz)`` pass.
    """
    state = _WORKER_STATE[token]
    lo, hi, start, stop = _shard_slice(state, index)
    if stop == start:
        return
    out = _worker_view(out_ref)
    out[start:stop] = _worker_block(state, index) @ _worker_view(vec_ref)


def _task_histogram(token: str, index: int, num_items: int, k: int) -> np.ndarray:
    """Shard's per-item option histogram (integer; returned by value)."""
    state = _WORKER_STATE[token]
    lo, hi, _, _ = _shard_slice(state, index)
    return np.bincount(
        state["items"][lo:hi] * k + state["options"][lo:hi],
        minlength=num_items * k,
    )


def _task_agreements(token: str, index: int, majority: np.ndarray) -> np.ndarray:
    """Shard's per-user majority-agreement counts (integer row block)."""
    state = _WORKER_STATE[token]
    lo, hi, start, stop = _shard_slice(state, index)
    return agreement_counts(
        state["users"][lo:hi], state["items"][lo:hi], state["options"][lo:hi],
        majority, stop - start, user_offset=start,
    )


def _task_ds_counts(token: str, index: int, num_classes: int,
                    post_ref: BufferRef, out_ref: BufferRef) -> None:
    """Shard's block of the (m*k, k) confusion-count matrix (M-step)."""
    state = _WORKER_STATE[token]
    lo, hi, start, stop = _shard_slice(state, index)
    if stop == start:
        return
    posteriors = _worker_view(post_ref)
    keys = (state["users"][lo:hi] - start) * num_classes + state["options"][lo:hi]
    items = state["items"][lo:hi]
    minlength = (stop - start) * num_classes
    block = np.stack(
        [
            np.bincount(keys, weights=posteriors[items, label], minlength=minlength)
            for label in range(num_classes)
        ],
        axis=1,
    )
    out = _worker_view(out_ref)
    out[start * num_classes:stop * num_classes, :] = block


def _task_ds_gather(token: str, index: int, num_classes: int,
                    logconf_ref: BufferRef, gathered_ref: BufferRef) -> None:
    """gathered[answers of shard] = log-confusion rows of each answer (E-step)."""
    state = _WORKER_STATE[token]
    lo, hi, _, _ = _shard_slice(state, index)
    keys = state["users"][lo:hi] * num_classes + state["options"][lo:hi]
    gathered = _worker_view(gathered_ref)
    gathered[lo:hi, :] = _worker_view(logconf_ref)[keys]


def _task_hnd_solve(token: str, start: np.ndarray, tolerance: float,
                    max_iterations: int) -> PowerIterationResult:
    """The whole HnD eigensolve from ``start`` on the worker's full replica.

    A pure function of its arguments (see :func:`_worker_diff_step`):
    rerunning it after a worker death or timeout re-produces the same
    result, so failover simply re-submits.
    """
    return dominant_eigenpair(_worker_diff_step(_WORKER_STATE[token]), start,
                              tolerance=tolerance,
                              max_iterations=max_iterations)


# ----------------------------------------------------------------------- #
# Parent side
# ----------------------------------------------------------------------- #
class ProcessEngine(ShardKernels):
    """Shard kernels dispatched over a persistent process pool.

    Parameters
    ----------
    sharded:
        The sharding to execute over.  Its thread-pool configuration is
        ignored — dispatch happens through this engine's process pool.
    max_workers:
        Worker processes; ``None`` defaults to ``min(num_shards,
        cpu_count)``.  Fewer workers than shards is legal (tasks queue);
        the worker count never changes results.
    start_method:
        Multiprocessing start method; ``None`` uses the platform default
        (``fork`` on Linux — cheap start-up; ``spawn`` elsewhere — the
        workers re-import this module, which is why the task functions are
        module-level).
    task_timeout:
        Seconds a single shard task may take before the engine gives up,
        aborts the pool, and raises
        :class:`~repro.exceptions.WorkerTimeoutError`.  ``None`` disables
        the deadline.  The default is generous — shard tasks are
        sub-second even at the committed 200k x 5k scale — and exists so a
        wedged worker (e.g. stuck in a kernel call after memory pressure)
        can never hang the solve forever.

    Notes
    -----
    The engine owns OS resources (worker processes, shared-memory
    segments).  Use it as a context manager, or call :meth:`close`; a
    finalizer reclaims everything if the engine is garbage collected while
    open.
    """

    backend = "processes"

    def __init__(
        self,
        sharded: ShardedResponse,
        max_workers: Optional[int] = None,
        *,
        start_method: Optional[str] = None,
        task_timeout: Optional[float] = 120.0,
        iteration_batch: int = 1,
    ) -> None:
        self.sharded = sharded
        if task_timeout is not None and task_timeout <= 0:
            raise ValueError("task_timeout must be positive or None, got %r"
                             % task_timeout)
        self.task_timeout = task_timeout
        if int(iteration_batch) < 1:
            raise ValueError("iteration_batch must be >= 1, got %r"
                             % iteration_batch)
        self.iteration_batch = int(iteration_batch)
        if max_workers is None:
            max_workers = min(sharded.num_shards, os.cpu_count() or 1)
        self.num_workers = max(1, min(int(max_workers), sharded.num_shards))
        # Kept short: shared-memory segment names derive from this token
        # and macOS caps shm names at 31 characters (PSHM_NAME_MAX).
        self._token = "rpr%s" % secrets.token_hex(5)
        self._segment_counter = 0

        users, items, options = sharded.source.triples
        payload = {
            "users": users,
            "items": items,
            "options": options,
            "boundaries": np.asarray(sharded.boundaries),
            "cuts": np.asarray(sharded.answer_cuts),
            "column_starts": np.asarray(sharded.column_offsets[:-1]),
            "num_columns": int(sharded.num_columns),
            "num_options": np.asarray(sharded.source.num_options),
        }
        context = get_context(start_method) if start_method else get_context()
        self._pool: Optional[ProcessPoolExecutor] = ProcessPoolExecutor(
            max_workers=self.num_workers,
            mp_context=context,
            initializer=_worker_init,
            initargs=(self._token, payload),
        )
        self._segments: Dict[str, Tuple[shared_memory.SharedMemory, np.ndarray]] = {}
        self._finalizer = weakref.finalize(self, _release, self._pool, [])

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Shut the worker pool down and release the shared-memory blocks."""
        self._finalizer.detach()
        pool, self._pool = self._pool, None
        segments, self._segments = self._segments, {}
        _release(pool, [segment for segment, _ in segments.values()])

    def __enter__(self) -> "ProcessEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Shared state and plumbing
    # ------------------------------------------------------------------ #
    @property
    def source(self):
        return self.sharded.source

    @property
    def num_shards(self) -> int:
        return self.sharded.num_shards

    def diagnostics(self) -> Dict[str, object]:
        info = super().diagnostics()
        info["num_workers"] = self.num_workers
        return info

    def _buffer(self, role: str, shape: Tuple[int, ...]) -> Tuple[np.ndarray, BufferRef]:
        """A (cached) named shared-memory float64 buffer for ``role``.

        The cache key includes the shape, so a repeated request with a
        different geometry (e.g. Dawid–Skene rerun with another class
        count) gets a fresh segment rather than a mis-shaped view.
        """
        key = "%s-%s" % (role, "x".join(str(int(dim)) for dim in shape))
        entry = self._segments.get(key)
        if entry is None:
            nbytes = max(8, int(np.prod(shape)) * 8)
            # Segment names stay well under macOS's 31-char shm limit:
            # "rpr" + 10 hex + "-" + a small counter.
            segment = shared_memory.SharedMemory(
                create=True, size=nbytes,
                name="%s-%d" % (self._token, self._segment_counter),
            )
            self._segment_counter += 1
            view = np.ndarray(shape, dtype=np.float64, buffer=segment.buf)
            entry = (segment, view)
            self._segments[key] = entry
            # Re-arm the finalizer with the grown segment list.
            self._finalizer.detach()
            self._finalizer = weakref.finalize(
                self, _release, self._pool, [seg for seg, _ in self._segments.values()]
            )
        segment, view = entry
        return view, (segment.name, tuple(shape))

    def _abort(self) -> None:
        """Kill the pool after a timeout or worker death.

        A plain ``shutdown(wait=True)`` would block on the very task that
        just timed out (or deadlock against a dead worker's queue), so the
        abort path cancels what it can, terminates the worker processes,
        and leaves the shared-memory segments for :meth:`close`.
        """
        pool, self._pool = self._pool, None
        if pool is None:
            return
        processes = list(getattr(pool, "_processes", {}).values())
        pool.shutdown(wait=False, cancel_futures=True)
        for process in processes:
            if process.is_alive():
                process.terminate()

    def _submit(self, task: Callable, *args):
        """Submit one task to the pool (raises if the engine is closed)."""
        if self._pool is None:
            raise EngineError("ProcessEngine is closed")
        try:
            return self._pool.submit(task, self._token, *args)
        except BrokenProcessPool as err:
            # The pool may notice a dead worker before any result is read.
            raise self._worker_died() from err

    def _collect(self, futures: List) -> List[object]:
        """Await futures, converting pool failures to engine exceptions."""
        try:
            return [
                future.result(timeout=self.task_timeout)
                for future in futures
            ]
        except FutureTimeoutError as err:
            self._abort()
            raise WorkerTimeoutError(
                "a shard task did not finish within %.3gs; the worker pool "
                "was aborted and this engine is now closed"
                % self.task_timeout,
                timeout=self.task_timeout,
            ) from err
        except BrokenProcessPool as err:
            raise self._worker_died() from err

    def _worker_died(self) -> WorkerUnavailableError:
        """Abort the broken pool; the typed error for its dead worker."""
        self._abort()
        return WorkerUnavailableError(
            "a pool worker died mid-task (killed or crashed); the "
            "worker pool was aborted and this engine is now closed"
        )

    def _map(self, task: Callable, *args) -> List[object]:
        """Run ``task(token, shard_index, *args)`` for every shard; shard order."""
        if self._pool is None:
            raise EngineError("ProcessEngine is closed")
        return self._collect([
            self._submit(task, index, *args)
            for index in range(self.num_shards)
        ])

    # ------------------------------------------------------------------ #
    # Kernels (ShardKernels interface + the matvec primitives)
    # ------------------------------------------------------------------ #
    def option_histograms(self) -> np.ndarray:
        """``(n, k_max)`` per-item option histograms (exact integer reduce)."""
        partials = self._map(_task_histogram, self.num_items, self.max_options)
        total = partials[0]
        for partial in partials[1:]:
            total = total + partial
        return total.reshape(self.num_items, self.max_options)

    def majority_scores(self, *, normalize_by_answers: bool = True):
        majority = self.option_histograms().argmax(axis=1).astype(int)
        agreements = np.concatenate(self._map(_task_agreements, majority))
        if normalize_by_answers:
            scores = agreements / np.maximum(self.sharded.answers_per_user, 1)
        else:
            scores = agreements.astype(float)
        return scores, majority

    def option_sums(self, user_values: np.ndarray) -> np.ndarray:
        """``C^T v``: worker-parallel gather, sequential canonical scatter."""
        vec, vec_ref = self._buffer("user_vec", (self.num_users,))
        np.copyto(vec, user_values, casting="unsafe")
        scratch, scratch_ref = self._buffer("scratch", (self.sharded.num_answers,))
        self._map(_task_gather_user, vec_ref, scratch_ref)
        return np.bincount(
            self.sharded.columns, weights=scratch,
            minlength=self.sharded.num_columns,
        )

    def user_sums(self, option_values: np.ndarray) -> np.ndarray:
        """``C v``: workers finish disjoint user row blocks (no float reduce)."""
        vec, vec_ref = self._buffer("col_vec", (self.sharded.num_columns,))
        np.copyto(vec, option_values, casting="unsafe")
        out, out_ref = self._buffer("user_out", (self.num_users,))
        self._map(_task_user_sums, vec_ref, out_ref)
        return out.copy()

    def avghits_apply(self, scores: np.ndarray) -> np.ndarray:
        """AVGHITS update ``s -> C_row ((C_col)^T s)`` — same scalings, bitwise."""
        weights = self.option_sums(scores)
        weights *= self.sharded.inv_column_counts
        updated = self.user_sums(weights)
        updated *= self.sharded.inv_answers_per_user
        return updated

    def hnd_difference_step(self) -> Callable[[np.ndarray], np.ndarray]:
        scores = np.empty(self.num_users, dtype=float)

        def diff_step(score_diffs: np.ndarray) -> np.ndarray:
            updated = self.avghits_apply(apply_cumulative_into(score_diffs, scores))
            return apply_difference(updated)

        return diff_step

    def hnd_solve_runner(self) -> Callable[..., PowerIterationResult]:
        """Whole-solve dispatch: the HnD eigensolve as one pool task.

        The workers hold the full triples anyway (shipped once at pool
        start-up for shard execution), so the solve runs on a worker-local
        replica of the fused kernel — bit-identical to the in-process
        solve — and the per-task round-trip is paid once instead of twice
        per matvec.
        """

        def run_solve(start: np.ndarray, tolerance: float,
                      max_iterations: int) -> PowerIterationResult:
            future = self._submit(_task_hnd_solve, start, tolerance,
                                  max_iterations)
            return self._collect([future])[0]

        return run_solve

    def dawid_skene_accumulators(self, num_classes: int):
        num_items = self.num_items
        _, items, _ = self.source.triples
        posteriors_view, posteriors_ref = self._buffer(
            "ds_posteriors", (num_items, num_classes)
        )
        counts_view, counts_ref = self._buffer(
            "ds_counts", (self.num_users * num_classes, num_classes)
        )
        logconf_view, logconf_ref = self._buffer(
            "ds_logconf", (self.num_users * num_classes, num_classes)
        )
        gathered_view, gathered_ref = self._buffer(
            "ds_gathered", (self.sharded.num_answers, num_classes)
        )

        def count_accumulator(posteriors: np.ndarray) -> np.ndarray:
            np.copyto(posteriors_view, posteriors)
            self._map(_task_ds_counts, num_classes, posteriors_ref, counts_ref)
            return counts_view.copy()

        def loglik_accumulator(log_confusion_flat: np.ndarray) -> np.ndarray:
            np.copyto(logconf_view, log_confusion_flat)
            self._map(_task_ds_gather, num_classes, logconf_ref, gathered_ref)
            return np.stack(
                [
                    np.bincount(
                        items,
                        weights=np.ascontiguousarray(gathered_view[:, label]),
                        minlength=num_items,
                    )
                    for label in range(num_classes)
                ],
                axis=1,
            )

        return count_accumulator, loglik_accumulator


def _release(pool: Optional[ProcessPoolExecutor],
             segments: List[shared_memory.SharedMemory]) -> None:
    """Tear down pool and shared memory (used by close() and the finalizer)."""
    if pool is not None:
        pool.shutdown(wait=True)
    for segment in segments:
        # Unlink first: it always succeeds and removes the name, so the OS
        # reclaims the block once the last mapping goes away.  close() can
        # legitimately raise BufferError while a caller still holds a numpy
        # view of the buffer (e.g. an accumulator closure outliving the
        # engine); the mapping is then released when that view dies.
        try:
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover - already reclaimed
            pass
        try:
            segment.close()
        except BufferError:  # pragma: no cover - live external view
            pass
