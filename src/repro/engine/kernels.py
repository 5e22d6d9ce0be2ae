"""Shard-parallel sufficient-statistic kernels (map over shards + reduce).

Every kernel here is **bit-identical** to its single-process counterpart in
:class:`~repro.core.response.CompiledResponse` /
:mod:`repro.truth_discovery` for any shard count and either dispatch mode,
by the determinism model of :mod:`repro.engine.sharding`:

* per-user outputs — shards own disjoint row blocks, reduce = concatenate;
* per-item integer histograms — reduce = exact integer partial sums;
* per-item float reductions — shards gather per-answer contributions in
  parallel, then one sequential ``np.bincount`` scatter over the canonical
  answer order performs the final sum.  ``np.bincount`` accumulates in input
  order exactly like SciPy's CSR/CSC matvec loops, which is what makes
  ``avghits_apply`` here match
  :meth:`CompiledResponse.avghits_apply <repro.core.response.CompiledResponse.avghits_apply>`
  bit for bit (pinned by ``tests/test_engine_sharding.py``).
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

import numpy as np

from repro.engine.sharding import ShardedResponse
from repro.linalg.operators import apply_cumulative_into, apply_difference
from repro.truth_discovery.majority import agreement_counts


# --------------------------------------------------------------------------- #
# Per-item integer statistics (exact partial-sum reduce)
# --------------------------------------------------------------------------- #
def option_histograms(sharded: ShardedResponse) -> np.ndarray:
    """``(n, k_max)`` per-item option histograms; integer partial-sum reduce.

    Matches ``ResponseMatrix._option_count_matrix()`` exactly (both are
    integer bincounts over the same answers).
    """
    num_items = sharded.num_items
    k = sharded.max_options

    def shard_histogram(index: int) -> np.ndarray:
        shard = sharded.shards[index]
        return np.bincount(
            shard.items * k + shard.options, minlength=num_items * k
        )

    partials = sharded.run(shard_histogram)
    total = partials[0]
    for partial in partials[1:]:
        total = total + partial
    return total.reshape(num_items, k)


def majority_votes(sharded: ShardedResponse) -> np.ndarray:
    """Most frequently picked option per item (ties to the lower index).

    Identical to :meth:`ResponseMatrix.majority_choices
    <repro.core.response.ResponseMatrix.majority_choices>`.
    """
    return option_histograms(sharded).argmax(axis=1).astype(int)


def majority_vote_scores(
    sharded: ShardedResponse, *, normalize_by_answers: bool = True
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-user majority-agreement scores and the majority votes.

    The agreement counts are per-user integers — each shard counts its own
    users (via the shared :func:`~repro.truth_discovery.majority.agreement_counts`
    hook) and the rows concatenate; the final division happens once,
    elementwise, exactly as in ``MajorityVoteRanker``.
    """
    majority = majority_votes(sharded)

    def shard_agreements(index: int) -> np.ndarray:
        shard = sharded.shards[index]
        return agreement_counts(
            shard.users, shard.items, shard.options, majority,
            shard.num_users, user_offset=shard.user_start,
        )

    agreements = np.concatenate(sharded.run(shard_agreements))
    if normalize_by_answers:
        scores = agreements / np.maximum(sharded.answers_per_user, 1)
    else:
        scores = agreements.astype(float)
    return scores, majority


# --------------------------------------------------------------------------- #
# Binary-matrix matvecs (parallel gather + canonical-order scatter reduce)
# --------------------------------------------------------------------------- #
def option_sums(
    sharded: ShardedResponse,
    user_values: np.ndarray,
    *,
    scratch: Optional[np.ndarray] = None,
) -> np.ndarray:
    """``C^T v``: per-column sums of ``user_values`` over the picking users.

    The canonical-order accumulation contract makes the scatter inherently
    sequential (one add per answer, in user-major answer order), so when the
    whole matrix shares the caller's address space — the serial and threads
    backends — splitting the work into a shard-parallel gather plus a
    separate scatter only *adds* an ``O(nnz)`` memory pass over the one-pass
    CSC matvec that performs the identical adds in the identical order.
    This therefore runs ``CompiledResponse.option_sums`` on the source
    matrix directly: bit-identical by the same equivalence the old gather +
    ``np.bincount`` reduce was pinned by (``tests/test_engine_sharding.py``
    still asserts exact equality), and ~2x less memory traffic.  The
    cross-process backends keep the explicit gather/scatter split in their
    own kernels — there the gather is what moves per-answer contributions
    out of the workers.

    ``scratch`` is accepted (and ignored) for signature compatibility with
    the gather-based formulation.
    """
    user_values = np.asarray(user_values, dtype=float)
    return sharded.source.compiled.option_sums(user_values)


def user_sums(
    sharded: ShardedResponse,
    option_values: np.ndarray,
    *,
    scratch: Optional[np.ndarray] = None,
) -> np.ndarray:
    """``C v``: per-user sums of ``option_values`` over each user's picks.

    Fully shard-parallel — each shard runs one fused SciPy CSR matvec over
    its cached one-hot block (:attr:`ShardedResponse.shard_blocks`) into its
    own row block of the output.  The per-row accumulation order of the CSR
    matvec is the canonical answer order, i.e. exactly the order of the
    ``CompiledResponse.user_sums`` matvec (and of the gather + ``bincount``
    formulation this replaced), so the result is bit-identical at any shard
    count.  ``scratch`` is accepted for signature compatibility with
    :func:`option_sums` but no longer needed: the fused matvec has no
    separate ``O(nnz)`` gather pass.
    """
    option_values = np.asarray(option_values, dtype=float)
    # The shards partition the user axis and every shard assigns its whole
    # row block below, so the output needs no zero-fill.
    out = np.empty(sharded.num_users, dtype=float)
    blocks = sharded.shard_blocks

    def shard_sums(index: int) -> None:
        shard = sharded.shards[index]
        if shard.num_users == 0:
            return
        out[shard.user_start:shard.user_stop] = blocks[index] @ option_values

    sharded.run(shard_sums)
    return out


def avghits_apply(
    sharded: ShardedResponse,
    scores: np.ndarray,
    *,
    scratch: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Sharded AVGHITS update ``s -> C_row ((C_col)^T s)`` in ``O(nnz)``.

    The two normalizations are the same ``O(K)``/``O(m)`` diagonal scalings
    the fused single-process kernel applies, on bitwise-equal count inverses,
    so the whole update matches ``CompiledResponse.avghits_apply`` bit for
    bit at any shard count.  ``scratch`` as in :func:`option_sums` (the two
    halves use it sequentially, so one buffer serves both).
    """
    weights = option_sums(sharded, scores, scratch=scratch)
    weights *= sharded.inv_column_counts
    updated = user_sums(sharded, weights, scratch=scratch)
    updated *= sharded.inv_answers_per_user
    return updated


def hnd_difference_step(
    sharded: ShardedResponse,
) -> Callable[[np.ndarray], np.ndarray]:
    """Sharded HND update ``s_diff -> S C_row ((C_col)^T (T s_diff))``.

    The sharded twin of :func:`repro.core.avghits.hnd_difference_step`: the
    ``O(m)`` cumulative-sum and difference wrappers are shared code, and the
    AVGHITS core is :func:`avghits_apply` above.  The ``O(m)`` score and
    ``O(nnz)`` gather buffers are hoisted into the closure — one allocation
    per ``rank()`` call instead of two per matvec — and stay
    private to it, so concurrent calls on one sharding remain safe.
    """
    scores = np.empty(sharded.num_users, dtype=float)
    scratch = np.empty(sharded.num_answers, dtype=float)

    def diff_step(score_diffs: np.ndarray) -> np.ndarray:
        updated = avghits_apply(
            sharded, apply_cumulative_into(score_diffs, scores), scratch=scratch
        )
        return apply_difference(updated)

    return diff_step


# --------------------------------------------------------------------------- #
# Dawid–Skene sufficient statistics
# --------------------------------------------------------------------------- #
def dawid_skene_accumulators(
    sharded: ShardedResponse, num_classes: int
) -> Tuple[Callable[[np.ndarray], np.ndarray], Callable[[np.ndarray], np.ndarray]]:
    """The two EM accumulators of :func:`repro.truth_discovery.dawid_skene.dawid_skene_em`.

    * ``count_accumulator`` (M-step): per-user confusion counts are disjoint
      row blocks of the ``(m*k, k)`` count matrix — each shard bincounts its
      own ``(user, option)`` keys and the blocks stack in shard order.
    * ``loglik_accumulator`` (E-step): per-item sums of per-answer
      log-confusion rows — shards gather their answers' rows in parallel,
      then ``k`` sequential bincounts over the canonical order reduce them.

    Both reproduce the sparse indicator-matrix products of
    ``DawidSkeneRanker`` bit for bit (same contributions, same accumulation
    order), so the shared EM loop walks an identical trajectory.
    """
    num_items = sharded.num_items
    cuts = sharded.answer_cuts
    _, items, _ = sharded.source.triples
    gathered = np.empty((sharded.num_answers, num_classes), dtype=float)

    def count_accumulator(posteriors: np.ndarray) -> np.ndarray:
        def shard_counts(index: int) -> np.ndarray:
            shard = sharded.shards[index]
            keys = shard.local_users * num_classes + shard.options
            minlength = shard.num_users * num_classes
            return np.stack(
                [
                    np.bincount(
                        keys,
                        weights=posteriors[shard.items, label],
                        minlength=minlength,
                    )
                    for label in range(num_classes)
                ],
                axis=1,
            )

        return np.concatenate(sharded.run(shard_counts), axis=0)

    def loglik_accumulator(log_confusion_flat: np.ndarray) -> np.ndarray:
        def gather(index: int) -> None:
            shard = sharded.shards[index]
            keys = shard.users * num_classes + shard.options
            gathered[cuts[index]:cuts[index + 1]] = log_confusion_flat[keys]

        sharded.run(gather)
        return np.stack(
            [
                np.bincount(
                    items,
                    weights=np.ascontiguousarray(gathered[:, label]),
                    minlength=num_items,
                )
                for label in range(num_classes)
            ],
            axis=1,
        )

    return count_accumulator, loglik_accumulator
