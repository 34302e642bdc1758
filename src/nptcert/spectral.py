"""Hermitian eigendecomposition and NPT classification of partially transposed states.

The eigensolver is LAPACK's Hermitian driver (``numpy.linalg.eigh``).  Its
output is put in a canonical form so that reports are reproducible: a stable
descending sort of the eigenvalues, and a phase on each eigenvector that
makes its largest-magnitude component real and positive.

``pt_spectrum`` is the spectral half of the one certify pass: a single
partial transpose and a single eigensolve per (state, bipartition) pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, ParameterOutOfRange, UnnormalizedState
from .hermitian import Bipartition, HermitianOperator, partial_transpose

VIOLATION_TOL = 1e-10
TRACE_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Eigenvalues (descending) with orthonormal eigenvectors as matching columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def vector(self, index: int) -> np.ndarray:
        return self.eigenvectors[:, index].copy()


@dataclass(frozen=True)
class NptVerdict:
    is_npt: bool
    min_eigenvalue: float


def require_state_like(rho: HermitianOperator) -> None:
    """Raise UnnormalizedState unless rho has unit trace within TRACE_TOL."""
    tr = rho.trace()
    if abs(tr - 1.0) > TRACE_TOL:
        raise UnnormalizedState(f"trace {tr!r} differs from 1 beyond {TRACE_TOL}")


def eig_hermitian(op: HermitianOperator) -> Spectrum:
    """Diagonalize a HermitianOperator with LAPACK.

    Eigenvalues are sorted descending (stable, so ties keep LAPACK's order)
    and each eigenvector's largest-magnitude component is made real and
    positive.  Raises ConvergenceFailure when LAPACK does not converge.
    """
    try:
        w, v = np.linalg.eigh(op.matrix)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigh failed on dim {op.dim}: {exc}") from exc
    order = np.argsort(-w, kind="stable")
    w, v = w[order], v[:, order]
    cols = np.arange(v.shape[1])
    pivot = np.argmax(np.abs(v), axis=0)
    top = v[pivot, cols]
    v = v * (np.abs(top) / top)
    v[pivot, cols] = np.abs(top)  # exactly real, whatever the rounding of the product
    return Spectrum(w, v)


def pt_spectrum(rho: HermitianOperator, bip: Bipartition, tol: float = VIOLATION_TOL):
    """One partial transpose and one eigensolve: (rho^PT, Spectrum, NptVerdict); raises
    ParameterOutOfRange below total dimension 2, UnnormalizedState unless Tr rho = 1 (1e-9)."""
    if rho.dim < 2:
        raise ParameterOutOfRange(f"total dimension {rho.dim} must be >= 2")
    require_state_like(rho)
    rho_pt = partial_transpose(rho, bip)
    spectrum = eig_hermitian(rho_pt)
    min_eig = float(spectrum.eigenvalues[-1])
    return rho_pt, spectrum, NptVerdict(min_eig < -tol, min_eig)
