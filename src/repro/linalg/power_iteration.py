"""Power iteration with convergence tracking.

ABH-power (Algorithm 2), the deflation variant and the figure benchmarks
run power iterations whose matrix-vector product is expressed as a
sequence of cheap sparse products rather than a materialized matrix.  The
generic driver here accepts either an explicit matrix or an arbitrary
``matvec`` callable, uses the L2 norm of the iterate change as its
convergence criterion (the paper uses a tolerance of ``1e-5``), and reports
the number of iterations — the quantity analysed in Figure 14b of the
paper.  HND-power solves the same eigenproblem with implicitly restarted
Arnoldi instead (:func:`repro.linalg.spectral.dominant_eigenpair`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np
import scipy.sparse as sp

from repro.exceptions import ConvergenceError
from repro.linalg.normalize import l2_normalize

DEFAULT_TOLERANCE = 1e-5
DEFAULT_MAX_ITERATIONS = 10_000

@dataclass(frozen=True)
class PowerIterationResult:
    """Outcome of a power iteration run.

    Attributes
    ----------
    vector:
        The converged (unit-norm) dominant eigenvector estimate.
    eigenvalue:
        Rayleigh-quotient estimate of the dominant eigenvalue.
    iterations:
        Number of iterations actually performed.
    converged:
        Whether the change between successive iterates fell below the
        tolerance before the iteration budget ran out.
    residual:
        L2 norm of the final change between iterates (for the Arnoldi
        solve: the true eigen-residual ``||A x - lambda x||``).
    acceleration:
        Always ``"none"``; kept so existing readers of the field still work.
    blas_threads:
        BLAS thread count the solve was pinned to: ``1`` for an Arnoldi
        solve under :func:`~repro.linalg.blas.single_threaded_blas`,
        ``None`` when no pin was taken.
    """

    vector: np.ndarray
    eigenvalue: float
    iterations: int
    converged: bool
    residual: float
    acceleration: str = "none"
    blas_threads: Optional[int] = None


def _as_matvec(
    operator: Union[np.ndarray, sp.spmatrix, Callable[[np.ndarray], np.ndarray]],
) -> Callable[[np.ndarray], np.ndarray]:
    """Wrap a matrix (dense or sparse) or callable into a matvec callable."""
    if callable(operator) and not sp.issparse(operator) and not isinstance(operator, np.ndarray):
        return operator
    matrix = operator

    def matvec(vector: np.ndarray) -> np.ndarray:
        return np.asarray(matrix @ vector).ravel()

    return matvec


class PowerIterationDriver:
    """The power-iteration loop: advance in steps, then read the result.

    :func:`power_iteration_matvec` is a thin wrapper that constructs one of
    these and runs it to completion.  Parameters match that function.
    """

    def __init__(
        self,
        matvec: Callable[[np.ndarray], np.ndarray],
        size: int,
        *,
        initial: Optional[np.ndarray] = None,
        tolerance: float = DEFAULT_TOLERANCE,
        max_iterations: int = DEFAULT_MAX_ITERATIONS,
        random_state: Optional[Union[int, np.random.Generator]] = None,
    ) -> None:
        if size < 1:
            raise ValueError("power iteration needs size >= 1")
        self.matvec = matvec
        self.size = int(size)
        self.tolerance = float(tolerance)
        self.max_iterations = int(max_iterations)
        self._rng = np.random.default_rng(random_state)
        if initial is None:
            vector = self._rng.standard_normal(size)
        else:
            vector = np.asarray(initial, dtype=float).copy()
            if vector.shape != (size,):
                raise ValueError(
                    "initial vector has shape %s, expected (%d,)"
                    % (vector.shape, size)
                )
        vector = l2_normalize(vector)
        if not np.any(vector):
            vector = l2_normalize(np.ones(size))
        self.vector = vector
        self.eigenvalue = 0.0
        self.residual = np.inf
        self.iterations = 0
        self.converged = False
        self._blown_up = False
        # Fixed buffer set reused across iterations: the matvec output is
        # copied into an internal double buffer immediately, so the driver
        # never holds a reference to matvec-owned memory across iterations
        # (a matvec may reuse a retained buffer, or return a read-only
        # view) and all normalization / sign alignment runs in place with
        # no per-iteration allocations.  The matvec must not mutate its
        # input vector — the Rayleigh quotient needs the pre-update iterate.
        self._scratch = np.empty(self.size, dtype=float)
        self._buffers = (
            np.empty(self.size, dtype=float),
            np.empty(self.size, dtype=float),
        )

    @property
    def finished(self) -> bool:
        """True once converged, blown up, or out of iteration budget."""
        return (
            self.converged
            or self._blown_up
            or self.iterations >= self.max_iterations
        )

    def advance(self, steps: Optional[int] = None) -> bool:
        """Run up to ``steps`` more iterations (the whole budget if None).

        Returns :attr:`finished`.
        """
        remaining = self.max_iterations - self.iterations
        if steps is not None:
            remaining = min(remaining, int(steps))
        for _ in range(max(remaining, 0)):
            self._step()
            if self.converged or self._blown_up:
                break
        return self.finished

    def _step(self) -> None:
        self.iterations += 1
        raw = np.asarray(self.matvec(self.vector), dtype=float).ravel()
        product = self._buffers[self.iterations % 2]
        np.copyto(product, raw)
        self.eigenvalue = float(np.dot(self.vector, product))
        norm = float(np.linalg.norm(product))
        if norm == 0.0:
            # The operator annihilated the iterate; restart from a fresh
            # random direction rather than silently returning zeros.
            np.copyto(product, l2_normalize(self._rng.standard_normal(self.size)))
        else:
            product /= norm
        # Eigenvectors are defined up to sign; align before measuring change.
        if np.dot(product, self.vector) < 0:
            np.negative(product, out=product)
        np.subtract(product, self.vector, out=self._scratch)
        residual = float(np.linalg.norm(self._scratch))
        self.vector = product
        self.residual = residual
        if residual < self.tolerance:
            self.converged = True
        elif not np.isfinite(residual):
            # Residual blow-up: the iterate left the representable range
            # (e.g. a poisoned initial vector).  Burning the rest of the
            # budget cannot recover, so stop immediately.
            self._blown_up = True

    def result(self) -> PowerIterationResult:
        return PowerIterationResult(
            vector=self.vector,
            eigenvalue=self.eigenvalue,
            iterations=self.iterations,
            converged=self.converged,
            residual=self.residual,
        )


def power_iteration_matvec(
    matvec: Callable[[np.ndarray], np.ndarray],
    size: int,
    *,
    initial: Optional[np.ndarray] = None,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    raise_on_failure: bool = False,
    random_state: Optional[Union[int, np.random.Generator]] = None,
) -> PowerIterationResult:
    """Run the power method on an operator given only as a ``matvec``.

    Parameters
    ----------
    matvec:
        Callable computing ``A @ v`` for the implicit operator ``A``.
    size:
        Dimension of the vectors ``A`` acts on.
    initial:
        Starting vector.  A random vector is drawn when omitted.
    tolerance:
        Convergence threshold on the L2 norm of the iterate change
        (the paper's criterion, default ``1e-5``).
    max_iterations:
        Iteration budget.
    raise_on_failure:
        When True, raise :class:`ConvergenceError` instead of returning a
        non-converged result.
    random_state:
        Seed or generator for the random initial vector.

    Returns
    -------
    PowerIterationResult
    """
    driver = PowerIterationDriver(
        matvec,
        size,
        initial=initial,
        tolerance=tolerance,
        max_iterations=max_iterations,
        random_state=random_state,
    )
    driver.advance()
    result = driver.result()
    if not result.converged and raise_on_failure:
        raise ConvergenceError(
            "power iteration did not converge in %d iterations (residual %.3g)"
            % (max_iterations, result.residual),
            iterations=result.iterations,
            residual=result.residual,
        )
    return result


def power_iteration(
    matrix: Union[np.ndarray, sp.spmatrix],
    *,
    initial: Optional[np.ndarray] = None,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    raise_on_failure: bool = False,
    random_state: Optional[Union[int, np.random.Generator]] = None,
) -> PowerIterationResult:
    """Run the power method on an explicit (dense or sparse) square matrix."""
    shape = matrix.shape
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValueError("power_iteration expects a square matrix, got shape %s" % (shape,))
    return power_iteration_matvec(
        _as_matvec(matrix),
        shape[0],
        initial=initial,
        tolerance=tolerance,
        max_iterations=max_iterations,
        raise_on_failure=raise_on_failure,
        random_state=random_state,
    )
