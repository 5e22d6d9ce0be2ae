"""Output checks: served scores against in-process results of the same triples.

* cold HnD and MajorityVote ranks must be bit-identical to
  ``repro.api.rank`` of the same answers;
* a warm HnD rank must be within ``ranking_inversion_gap <= 1e-5`` of a cold
  solve of the same crowd state;
* every warm-read reply must equal the first one (checked while serving).

Each mismatch is one failed operation.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.api import rank
from repro.core.response import ResponseMatrix
from repro.evaluation.metrics import ranking_inversion_gap

from served import PARAMS

GAP_BOUND = 1e-5


class Checks:
    def __init__(self) -> None:
        self.performed = 0
        self.failures: List[str] = []

    def identical(self, label: str, expected: np.ndarray,
                  actual: np.ndarray) -> bool:
        self.performed += 1
        if expected.shape == actual.shape and np.array_equal(expected, actual):
            return True
        differing = (int(np.count_nonzero(expected != actual))
                     if expected.shape == actual.shape else -1)
        self.failures.append("%s: scores are not bit-identical (%d entries "
                             "differ)" % (label, differing))
        return False

    def within_gap(self, label: str, reference: np.ndarray,
                   actual: np.ndarray) -> bool:
        self.performed += 1
        gap = ranking_inversion_gap(reference, actual)
        if gap <= GAP_BOUND:
            return True
        self.failures.append("%s: ranking_inversion_gap %.3g exceeds %g"
                             % (label, gap, GAP_BOUND))
        return False


def crowd_matrix(crowd, state: int) -> ResponseMatrix:
    """The crowd the server holds after ``state`` appended batches."""
    spec = crowd.spec
    users, items, options = crowd.triples_after(state)
    return ResponseMatrix.from_triples(
        users, items, options, shape=(spec.num_users, spec.num_items),
        num_options=spec.num_options,
    )


def check_served(run, crowd, method: str,
                 checks: Checks) -> Dict[int, np.ndarray]:
    """Check every kept served reply; returns the cold reference per state."""
    params = PARAMS[method]
    cold: Dict[int, np.ndarray] = {}

    def reference(state: int) -> np.ndarray:
        if state not in cold:
            cold[state] = rank(crowd_matrix(crowd, state), method,
                               **params).scores
        return cold[state]

    setup = [op for op in run.ops if op.phase == "setup-check"]
    for number, op in enumerate(setup):
        checks.identical("setup %d %s rank" % (number + 1, method),
                         reference(0), op.scores)
    if run.first_top_k is not None:
        users, scores = run.first_top_k
        order = np.argsort(reference(0), kind="stable")[::-1][:users.size]
        checks.performed += 1
        if not (np.array_equal(users, order)
                and np.array_equal(scores, reference(0)[order])):
            checks.failures.append("top_k reply differs from the in-process "
                                   "top users")
    for op in run.ops:
        if op.phase != "timed" or op.scores is None:
            continue
        label = "state %d %s %s rank" % (op.state, method,
                                         "warm" if op.warm else "cold")
        if op.warm:
            checks.within_gap(label, reference(op.state), op.scores)
        else:
            checks.identical(label, reference(op.state), op.scores)
    return cold


def perturb(run) -> None:
    """Nudge the first kept served score by one ulp; the checks must fail."""
    op = next(op for op in run.ops if op.scores is not None)
    op.scores = op.scores.copy()
    op.scores[0] = np.nextafter(op.scores[0], np.inf)


def check_replay(run, replayer, cold: Dict[int, np.ndarray],
                 checks: Checks) -> None:
    """The replay's scores must match the served ones under the same rules."""
    setup_scores = [op.scores for op in run.ops if op.phase == "setup-check"][-1]
    for index, op in enumerate(run.ops):
        if index not in replayer.results:
            continue
        ranking, top = replayer.results[index]
        label = "replay %s %s #%d" % (op.phase, op.op, index)
        if op.phase == "setup":
            checks.identical(label, setup_scores, ranking.scores)
        elif op.scores is not None:
            if op.warm:
                checks.within_gap(label, cold.get(op.state, op.scores),
                                  ranking.scores)
            else:
                checks.identical(label, op.scores, ranking.scores)
        elif top is not None:
            checks.identical(label, run.first_top_k[0], np.asarray(top))
        else:
            checks.identical(label, setup_scores, ranking.scores)
