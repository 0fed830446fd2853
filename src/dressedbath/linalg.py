"""Small fixed-dimension complex matrix algebra for two-qubit states.

Everything here is specialised to dimension 2 and 4.  The two-qubit basis
orders are frozen once and for all:

  computational: |0,0>, |0,1>, |1,0>, |1,1>   (|qubit1, qubit2>)
  dressed:       the four coupled-qubit eigenstates ordered by energy
                 (ground, antisymmetric, symmetric, top)

States carry their basis tag explicitly so that basis mistakes fail loudly
instead of producing silently wrong metrics.  Hermitian spectra come from
LAPACK (``numpy.linalg.eigh``) behind a Hermiticity check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

COMPUTATIONAL = "computational"
DRESSED = "dressed"

# construction tolerances
HERM_TOL = 1e-12
TRACE_TOL = 1e-10
PSD_TOL = 1e-9

# looser tolerances applied to numerically evolved snapshots
EVOLVED_HERM_TOL = 1e-10
EVOLVED_TRACE_TOL = 1e-8
EVOLVED_PSD_TOL = 1e-7


class StateValidationError(Exception):
    """A density-matrix invariant failed; ``violation`` is its magnitude."""

    def __init__(self, message, violation=0.0):
        super().__init__(message)
        self.violation = violation


class NotHermitian(StateValidationError):
    pass


class TraceNotOne(StateValidationError):
    pass


class NotPSD(StateValidationError):
    pass


class WrongBasis(Exception):
    pass


@dataclass(frozen=True)
class DensityMatrix:
    """Validated 4x4 two-qubit density matrix with an explicit basis tag."""

    matrix: np.ndarray
    basis: str = COMPUTATIONAL

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


def validate_density(matrix, basis=COMPUTATIONAL, *, herm_tol=HERM_TOL,
                     trace_tol=TRACE_TOL, psd_tol=PSD_TOL) -> DensityMatrix:
    """Check Hermiticity, unit trace and positivity; return the tagged state.

    Raises the first failed check (NotHermitian, then TraceNotOne, then
    NotPSD); the exception message lists every violation found so a broken
    matrix is diagnosed in one pass.
    """
    m = np.asarray(matrix, dtype=complex)
    if m.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
    if not (np.all(np.isfinite(m.real)) and np.all(np.isfinite(m.imag))):
        raise ValueError("matrix contains non-finite entries")

    failures = []
    herm = np.abs(m - m.conj().T).max()
    if herm > herm_tol:
        failures.append((NotHermitian, "hermiticity", herm))
    tr = abs(np.trace(m).real - 1.0) + abs(np.trace(m).imag)
    if tr > trace_tol:
        failures.append((TraceNotOne, "trace", tr))
    evals, _ = hermitian_eigs(0.5 * (m + m.conj().T))
    if evals[0] < -psd_tol:
        failures.append((NotPSD, "positivity", -evals[0]))

    if failures:
        detail = ", ".join(f"{name} off by {v:.3e}" for _, name, v in failures)
        cls, _, violation = failures[0]
        raise cls(f"invalid density matrix: {detail}", violation)
    return DensityMatrix(m, basis)


def partial_trace_q2(rho: DensityMatrix) -> np.ndarray:
    """Reduced 2x2 state of qubit 1 (computational basis required)."""
    if rho.basis != COMPUTATIONAL:
        raise WrongBasis("partial trace over qubit 2 needs the computational basis")
    m = rho.matrix
    return np.array([[m[0, 0] + m[1, 1], m[0, 2] + m[1, 3]],
                     [m[2, 0] + m[3, 1], m[2, 2] + m[3, 3]]])


def change_basis(rho: DensityMatrix, frame, target: str) -> DensityMatrix:
    """Rotate between the computational and dressed bases.

    ``frame.unitary`` has the dressed states, in computational coordinates,
    as its columns (see ``model.DressedFrame``).
    """
    if target not in (COMPUTATIONAL, DRESSED):
        raise ValueError(f"unknown basis tag {target!r}")
    if rho.basis == target:
        return rho
    u = frame.unitary
    if rho.basis == DRESSED:
        out = u @ rho.matrix @ u.conj().T
    else:
        out = u.conj().T @ rho.matrix @ u
    return DensityMatrix(out, target)


def hermitian_eigs(matrix, herm_tol=1e-10):
    """Eigenvalues (ascending) and eigenvectors of a Hermitian matrix.

    Checks Hermiticity, then hands the Hermitian part to LAPACK's ``eigh``.
    """
    m = np.asarray(matrix, dtype=complex)
    n = m.shape[0]
    if m.shape != (n, n):
        raise ValueError("matrix must be square")
    herm = np.abs(m - m.conj().T).max()
    if herm > herm_tol:
        raise NotHermitian(f"matrix is not Hermitian (off by {herm:.3e})", herm)
    return np.linalg.eigh(0.5 * (m + m.conj().T))
