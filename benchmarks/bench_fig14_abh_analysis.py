"""Figure 14: detailed analysis of ABH-power (Appendix E-B).

Two panels:

* 14a — the number of power iterations ABH-power needs grows (roughly
  linearly) with the spectral shift ``beta``;
* 14b — the number of iterations grows with the number of questions, which
  explains why ABH-power is not linear in practice even when its
  per-iteration cost matches HND-power's.  HND's count is that of
  Algorithm 1's power iteration on ``hnd_difference_step``, as in the
  paper (``HNDPower`` itself now solves with Arnoldi).
"""

from __future__ import annotations

import numpy as np

from repro.c1p.abh import ABHPower
from repro.core.avghits import hnd_difference_step
from repro.irt.generators import generate_dataset
from repro.linalg.power_iteration import power_iteration_matvec

SEED = 1400


def test_fig14a_iterations_grow_with_beta(benchmark, table_printer):
    dataset = generate_dataset("samejima", 100, 100, 3, random_state=SEED)
    base_beta = ABHPower(random_state=0).rank(dataset.response).diagnostics["beta"]
    multipliers = [1, 2, 4, 8]

    def run():
        iterations = []
        for multiplier in multipliers:
            ranking = ABHPower(beta=multiplier * base_beta, random_state=0,
                               max_iterations=200_000).rank(dataset.response)
            iterations.append(int(ranking.diagnostics["iterations"]))
        return iterations

    iterations = benchmark.pedantic(run, rounds=1, iterations=1)
    table_printer("Figure 14a: ABH-power iterations vs beta",
                  ("beta multiplier", "iterations", "iterations / smallest"),
                  [(multiplier, count, count / max(iterations[0], 1))
                   for multiplier, count in zip(multipliers, iterations)])
    # Iterations increase with beta (the paper reports a roughly linear trend).
    assert iterations[-1] > iterations[0]
    assert all(later >= earlier for earlier, later in zip(iterations, iterations[1:]))


def test_fig14b_iterations_vs_question_count(benchmark, table_printer):
    question_counts = [100, 200, 400, 800]

    def run():
        abh_iterations = []
        hnd_iterations = []
        for num_questions in question_counts:
            dataset = generate_dataset("samejima", 100, num_questions, 3,
                                       random_state=SEED + num_questions)
            abh = ABHPower(random_state=1, max_iterations=200_000).rank(dataset.response)
            hnd = power_iteration_matvec(
                hnd_difference_step(dataset.response),
                dataset.response.num_users - 1, random_state=1,
            )
            abh_iterations.append(int(abh.diagnostics["iterations"]))
            hnd_iterations.append(int(hnd.iterations))
        return abh_iterations, hnd_iterations

    abh_iterations, hnd_iterations = benchmark.pedantic(run, rounds=1, iterations=1)
    table_printer("Figure 14b: power-iteration counts vs #questions",
                  ("questions", "ABH-power iterations", "HnD-power iterations"),
                  list(zip(question_counts, abh_iterations, hnd_iterations)))
    # ABH-power needs far more iterations than HND-power throughout, which is
    # the paper's explanation for its super-linear wall-clock behaviour.
    assert np.mean(abh_iterations) > 2 * np.mean(hnd_iterations)
