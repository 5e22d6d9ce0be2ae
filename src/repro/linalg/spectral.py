"""Direct eigen-solvers and graph-spectral helpers.

These wrap :mod:`scipy.sparse.linalg` (Arnoldi / Lanczos) for the *direct*
variants of HND and ABH from the paper:

* ``HND-direct`` needs the eigenvector of the 2nd largest eigenvalue of the
  asymmetric AVGHITS matrix ``U`` (Arnoldi, :func:`second_largest_eigenvector`).
* ``ABH-direct`` needs the Fiedler vector, i.e. the eigenvector of the 2nd
  smallest eigenvalue of the Laplacian of ``C C^T`` (Lanczos,
  :func:`fiedler_vector`).
* ``HND-power`` needs the dominant eigenpair of the implicit difference
  operator ``U_diff`` (implicitly restarted Arnoldi on a ``matvec``,
  :func:`dominant_eigenpair`).

Small matrices fall back to dense :func:`numpy.linalg.eig` because ARPACK
requires ``k < n - 1`` and is unreliable for tiny problems.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Union

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.linalg.blas import single_threaded_blas
from repro.linalg.normalize import l2_normalize
from repro.linalg.power_iteration import PowerIterationResult

MatrixLike = Union[np.ndarray, sp.spmatrix]

_DENSE_FALLBACK_SIZE = 16

#: Krylov basis size of :func:`dominant_eigenpair`.  Fixed, not a knob: on
#: the 100k-user planted crowd 8 vectors solve as fast as ARPACK's default
#: of 20 while holding 6 MB of basis instead of 16 MB.
ARNOLDI_NCV = 8

#: Seed of ARPACK's internal restart draws (taken only when a Krylov space
#: turns invariant), fixed so a solve is a pure function of its start.
_ARNOLDI_RESTART_SEED = 0


class _BudgetExhausted(Exception):
    """Raised inside the counted matvec once the matvec budget is spent."""


def _to_dense(matrix: MatrixLike) -> np.ndarray:
    if sp.issparse(matrix):
        return np.asarray(matrix.todense(), dtype=float)
    return np.asarray(matrix, dtype=float)


def second_largest_eigenvector(matrix: MatrixLike) -> np.ndarray:
    """Return a real eigenvector for the 2nd largest (by real part) eigenvalue.

    Used by HND-direct on the row-stochastic update matrix ``U`` whose
    spectrum is real in the ideal case; for general inputs we keep the real
    part of the Arnoldi vector, which preserves the ordering information the
    ranking needs.
    """
    size = matrix.shape[0]
    if size < 2:
        raise ValueError("need at least a 2x2 matrix")
    if size <= _DENSE_FALLBACK_SIZE:
        dense = _to_dense(matrix)
        values, vectors = np.linalg.eig(dense)
        order = np.argsort(-values.real)
        return np.real(vectors[:, order[1]]).astype(float)
    operator = matrix if sp.issparse(matrix) else np.asarray(matrix, dtype=float)
    values, vectors = spla.eigs(operator, k=2, which="LR")
    order = np.argsort(-values.real)
    return np.real(vectors[:, order[1]]).astype(float)


def dominant_eigenpair(
    matvec: Callable[[np.ndarray], np.ndarray],
    start: np.ndarray,
    *,
    tolerance: float,
    max_iterations: int,
) -> PowerIterationResult:
    """Dominant eigenpair of a real operator given only as a ``matvec``.

    Implicitly restarted Arnoldi (ARPACK ``eigs``, ``k=1``, ``which="LM"``,
    :data:`ARNOLDI_NCV` basis vectors) from ``start``; operators of at most
    16 rows are materialized column by column and solved densely, because
    ARPACK needs ``ncv < size``.  The whole solve runs with every OpenBLAS
    on one thread (:func:`~repro.linalg.blas.single_threaded_blas`), so it
    is a pure function of the operator and ``start``: the same inputs give
    the same bits in any process, whatever its ``OPENBLAS_NUM_THREADS``.
    The result's ``blas_threads`` is ``1`` when that pin took effect and
    ``None`` when no OpenBLAS could be bound.

    ``max_iterations`` bounds the number of ``matvec`` calls, including the
    final one that measures the true residual ``||A x - lambda x||``
    (``lambda`` the Rayleigh quotient of the unit vector ``x``).  A solve
    that exhausts the budget, or that ARPACK abandons, returns the
    normalized ``start``, converged only if its own residual meets the
    tolerance (as on the zero operator).  A ``start`` with non-finite
    entries returns at once with a NaN residual so callers can fall back
    to another start.
    """
    with single_threaded_blas() as blas_threads:
        result = _arnoldi(matvec, start, tolerance=tolerance,
                          max_iterations=max_iterations)
    return dataclasses.replace(result, blas_threads=blas_threads)


def _arnoldi(
    matvec: Callable[[np.ndarray], np.ndarray],
    start: np.ndarray,
    *,
    tolerance: float,
    max_iterations: int,
) -> PowerIterationResult:
    """:func:`dominant_eigenpair` without the BLAS thread pin."""
    start = np.asarray(start, dtype=float)
    size = start.shape[0]
    if not np.all(np.isfinite(start)):
        return PowerIterationResult(start, float("nan"), 0, False, float("nan"))
    vector = l2_normalize(start)
    if not np.any(vector):
        vector = l2_normalize(np.ones(size))
    calls = [0]
    budget = int(max_iterations) - 1

    def counted(x: np.ndarray) -> np.ndarray:
        if calls[0] >= budget:
            raise _BudgetExhausted
        calls[0] += 1
        return matvec(x)

    solved = False
    try:
        if size <= _DENSE_FALLBACK_SIZE:
            dense = np.column_stack([counted(column) for column in np.eye(size)])
            values, vectors = np.linalg.eig(dense)
        else:
            operator = spla.LinearOperator((size, size), matvec=counted,
                                           dtype=float)
            values, vectors = spla.eigs(
                operator, k=1, which="LM", v0=vector, ncv=ARNOLDI_NCV,
                tol=tolerance, maxiter=max(int(max_iterations), 1),
                rng=_ARNOLDI_RESTART_SEED,
            )
        found = np.real(vectors[:, np.argmax(np.abs(values))])
        # Eigenvectors are defined up to sign; keep the start's orientation.
        vector = l2_normalize(found if np.dot(found, start) >= 0 else -found)
        solved = True
    except (_BudgetExhausted, spla.ArpackError):
        # Out of budget, or ARPACK gave up (e.g. error -9 on the zero
        # operator of a unanimous crowd, where every vector is an
        # eigenvector): keep the start, judged by its true residual below.
        pass
    product = np.asarray(matvec(vector), dtype=float)
    eigenvalue = float(np.dot(vector, product))
    residual = float(np.linalg.norm(product - eigenvalue * vector))
    converged = solved or residual <= tolerance * abs(eigenvalue)
    return PowerIterationResult(vector, eigenvalue, calls[0] + 1, converged,
                                residual)


def laplacian(matrix: MatrixLike) -> MatrixLike:
    """Return the combinatorial Laplacian ``L = D - A`` of a symmetric matrix.

    ``D`` is the diagonal matrix of row sums of ``A``.  For ABH, ``A`` is the
    user-similarity matrix ``C C^T``.
    """
    if sp.issparse(matrix):
        matrix = matrix.tocsr().astype(float)
        degrees = np.asarray(matrix.sum(axis=1)).ravel()
        return sp.diags(degrees) - matrix
    matrix = np.asarray(matrix, dtype=float)
    degrees = matrix.sum(axis=1)
    return np.diag(degrees) - matrix


def fiedler_vector(laplacian_matrix: MatrixLike) -> np.ndarray:
    """Return the Fiedler vector (2nd smallest eigenvector) of a Laplacian.

    Uses Lanczos (``eigsh`` with ``which="SM"`` via shift-invert fallback) for
    large matrices and a dense symmetric solver for small ones.
    """
    size = laplacian_matrix.shape[0]
    if size < 2:
        raise ValueError("need at least a 2x2 Laplacian")
    if size <= _DENSE_FALLBACK_SIZE or not sp.issparse(laplacian_matrix):
        dense = _to_dense(laplacian_matrix)
        values, vectors = np.linalg.eigh(dense)
        return vectors[:, 1].astype(float)
    try:
        values, vectors = spla.eigsh(laplacian_matrix.tocsc(), k=2, sigma=0, which="LM")
    except (RuntimeError, spla.ArpackNoConvergence, ValueError):
        values, vectors = spla.eigsh(laplacian_matrix, k=2, which="SM")
    order = np.argsort(values)
    return vectors[:, order[1]].astype(float)


def eigenvector_ordering(vector: np.ndarray) -> np.ndarray:
    """Return the permutation that sorts ``vector`` ascending (stable).

    "The eigenvector ordering" in the paper means the ranking of entries by
    value; ties are broken by index so the result is deterministic.
    """
    vector = np.asarray(vector, dtype=float)
    return np.argsort(vector, kind="stable")


def orderings_equivalent(order_a: np.ndarray, order_b: np.ndarray) -> bool:
    """True when two orderings are identical or exact reverses of each other.

    The paper treats an ordering and its reverse as the same (footnote 4);
    symmetry breaking is handled separately by the decile-entropy heuristic.
    """
    order_a = np.asarray(order_a)
    order_b = np.asarray(order_b)
    if order_a.shape != order_b.shape:
        return False
    return bool(np.array_equal(order_a, order_b) or np.array_equal(order_a, order_b[::-1]))
