"""Sharded ranking runners over a small kernel interface.

The paper's shard-friendly methods (MajorityVote, Dawid–Skene, HnD-Power)
are implemented **once** here as *runners* — ``rank_majority_vote``,
``rank_dawid_skene``, ``rank_hnd_power`` — over a small kernel interface
(:class:`ShardKernels`).  A runner owns everything that is not a sufficient
statistic (the HnD eigensolve, the EM loop, symmetry breaking), so a
sharded run walks literally the same code path and produces **the same
scores, bit for bit,** as the single-process rankers (``MajorityVoteRanker``,
``DawidSkeneRanker``, ``HNDPower``) at any shard and worker count.  The one
implementation of the interface is
:class:`~repro.engine.remote.coordinator.RemoteEngine`, which dispatches the
shard map to socket workers.

The entry point is :func:`repro.api.rank` with an
:class:`~repro.api.execution.ExecutionPolicy`::

    rank(matrix, "HnD", execution=ExecutionPolicy(
        shards=8, remote_workers=["10.0.0.1:9101", "10.0.0.2:9101"]))
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple, Union

import numpy as np

from repro.api.registry import REGISTRY
from repro.core.hitsndiffs import _trivial_diagnostics, hnd_power_solve
from repro.core.ranking import AbilityRanking
from repro.core.response import ResponseMatrix
from repro.core.solver_state import SolverState
from repro.core.symmetry import orient_scores
from repro.linalg.operators import apply_cumulative
from repro.linalg.power_iteration import (
    DEFAULT_MAX_ITERATIONS,
    DEFAULT_TOLERANCE,
)
from repro.truth_discovery.dawid_skene import dawid_skene_solve

RandomState = Optional[Union[int, np.random.Generator]]


class ShardKernels:
    """The kernel interface the runners execute against.

    A backend exposes the shard-parallel sufficient-statistic kernels plus
    the small shared state the finishing code needs.  Implemented by
    :class:`~repro.engine.remote.coordinator.RemoteEngine`.
    """

    #: Reported in result diagnostics.
    backend: str = "abstract"

    #: Above 1, a backend with a solve runner (see :meth:`hnd_solve_runner`)
    #: runs the whole HnD solve in one dispatch.  Execution-only — every
    #: value produces the same bits — so it lives on the kernel object, not
    #: in the registry param spec the rank-cache fingerprints read.
    iteration_batch: int = 1

    @property
    def source(self) -> ResponseMatrix:
        raise NotImplementedError

    @property
    def num_shards(self) -> int:
        raise NotImplementedError

    @property
    def num_users(self) -> int:
        return self.source.num_users

    @property
    def num_items(self) -> int:
        return self.source.num_items

    @property
    def max_options(self) -> int:
        return self.source.max_options

    def diagnostics(self) -> Dict[str, object]:
        return {
            "engine": "sharded",
            "backend": self.backend,
            "num_shards": self.num_shards,
        }

    # Shard-parallel kernels ------------------------------------------- #
    def majority_scores(
        self, *, normalize_by_answers: bool = True
    ) -> Tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def dawid_skene_accumulators(
        self, num_classes: int
    ) -> Tuple[Callable, Callable]:
        raise NotImplementedError

    def hnd_difference_step(self) -> Callable[[np.ndarray], np.ndarray]:
        raise NotImplementedError

    def hnd_solve_runner(self) -> Optional[Callable]:
        """Whole-solve dispatch hook: ``runner(start, tolerance, budget)``.

        A backend that pays a per-dispatch round-trip (remote) returns a
        callable that ships the start vector, tolerance and
        matvec budget once and runs
        :func:`~repro.linalg.spectral.dominant_eigenpair` on a full replica
        where the data lives, returning its
        :class:`~repro.linalg.power_iteration.PowerIterationResult` —
        instead of one task/socket round-trip per matvec.  The replica's
        matvec is bit-identical to the in-process one, so the result is
        too.  A backend that returns None runs the solve in-process, one
        dispatch per matvec.
        """
        return None


# --------------------------------------------------------------------------- #
# Runners: the shared method implementations every backend executes
# --------------------------------------------------------------------------- #
def rank_majority_vote(
    kernels: ShardKernels, *, normalize_by_answers: bool = True
) -> AbilityRanking:
    """MajorityVote over shard kernels (bit-identical to ``MajorityVoteRanker``)."""
    scores, majority = kernels.majority_scores(
        normalize_by_answers=normalize_by_answers
    )
    diagnostics: Dict[str, object] = {"discovered_truths": majority}
    diagnostics.update(kernels.diagnostics())
    return AbilityRanking(scores=scores, method="MajorityVote", diagnostics=diagnostics)


def rank_dawid_skene(
    kernels: ShardKernels,
    *,
    max_iterations: int = 100,
    tolerance: float = 1e-6,
    smoothing: float = 0.01,
    init_state: Optional[SolverState] = None,
) -> AbilityRanking:
    """Dawid–Skene over shard kernels (bit-identical to ``DawidSkeneRanker``).

    Only the two sufficient-statistic reductions are distributed; the EM
    loop itself is the shared
    :func:`~repro.truth_discovery.dawid_skene.dawid_skene_solve`, so the
    trajectory — and the final scores — match the single-process ranker,
    warm-started or not: a warm start is only a different initial posterior
    table, and given the same ``init_state`` every backend walks the same
    trajectory bit for bit.
    """
    num_classes = kernels.max_options
    _, items, options = kernels.source.triples
    count_accumulator, loglik_accumulator = kernels.dawid_skene_accumulators(
        num_classes
    )
    result, state, warm_mode = dawid_skene_solve(
        count_accumulator=count_accumulator,
        loglik_accumulator=loglik_accumulator,
        item_index=items,
        option_index=options,
        num_items=kernels.num_items,
        num_users=kernels.num_users,
        num_classes=num_classes,
        max_iterations=max_iterations,
        tolerance=tolerance,
        smoothing=smoothing,
        init_state=init_state,
    )
    diagnostics: Dict[str, object] = {
        "iterations": result.iterations,
        "converged": result.converged,
        "discovered_truths": result.posteriors.argmax(axis=1),
        "class_priors": result.priors,
        "warm_start": warm_mode,
    }
    diagnostics.update(kernels.diagnostics())
    return AbilityRanking(
        scores=result.accuracies, method="Dawid-Skene",
        diagnostics=diagnostics, state=state,
    )


def rank_hnd_power(
    kernels: ShardKernels,
    *,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    break_symmetry: bool = True,
    check_connectivity: bool = False,
    random_state: RandomState = None,
    init_state: Optional[SolverState] = None,
    acceleration: Optional[str] = None,
) -> AbilityRanking:
    """HnD-Power (Algorithm 1) over shard kernels (bit-identical to ``HNDPower``).

    The eigensolve (shared :func:`~repro.core.hitsndiffs.hnd_power_solve`,
    including the warm-start adaptation and cold-fallback guard),
    cumulative/difference wrappers, and the decile-entropy symmetry
    breaking are the single-process code; each AVGHITS matvec is the
    shard-parallel sum of per-shard partial products (gather in shards,
    canonical-order scatter reduce).  A warm start is only a different
    start vector, so the bit-identity guarantee across backends holds for
    warm solves too.

    When the backend offers a solve runner and ``kernels.iteration_batch``
    exceeds 1, the whole solve runs in one dispatch on a worker's replica
    instead of one round-trip per matvec — same bits, one sync point.
    """
    matrix = kernels.source
    if check_connectivity:
        matrix.require_connected()
    m = kernels.num_users
    if m < 2:
        return AbilityRanking(scores=np.zeros(m), method="HnD",
                              diagnostics=_trivial_diagnostics(init_state))
    iteration_batch = int(getattr(kernels, "iteration_batch", 1) or 1)
    run_solve = kernels.hnd_solve_runner() if iteration_batch > 1 else None
    diff_step = kernels.hnd_difference_step()
    result, state, warm_mode = hnd_power_solve(
        diff_step,
        m,
        tolerance=tolerance,
        max_iterations=max_iterations,
        random_state=random_state,
        init_state=init_state,
        acceleration=acceleration,
        run_solve=run_solve,
    )
    scores = apply_cumulative(result.vector)
    diagnostics: Dict[str, object] = {
        "iterations": result.iterations,
        "converged": result.converged,
        "residual": result.residual,
        "eigenvalue": result.eigenvalue,
        "diff_vector_variance": float(np.var(result.vector)),
        "warm_start": warm_mode,
        "solver": "arnoldi",
        "blas_threads": result.blas_threads,
        "iteration_batch": iteration_batch,
    }
    diagnostics.update(kernels.diagnostics())
    if break_symmetry:
        scores, symmetry_diag = orient_scores(matrix, scores)
        diagnostics.update(symmetry_diag)
    return AbilityRanking(scores=scores, method="HnD",
                          diagnostics=diagnostics, state=state)


# The registry entries of the shard-capable methods gain their kernel
# runner here (the ranker classes registered the specs at import time).
REGISTRY.attach_sharded("MajorityVote", rank_majority_vote)
REGISTRY.attach_sharded("Dawid-Skene", rank_dawid_skene)
REGISTRY.attach_sharded("HnD", rank_hnd_power)
