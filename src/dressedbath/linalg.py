"""Small fixed-dimension complex matrix algebra for two-qubit states.

Everything here is specialised to dimension 2 and 4.  The two-qubit basis
orders are frozen once and for all:

  computational: |0,0>, |0,1>, |1,0>, |1,1>   (|qubit1, qubit2>)
  dressed:       the four coupled-qubit eigenstates ordered by energy
                 (ground, antisymmetric, symmetric, top)

States carry their basis tag explicitly so that basis mistakes fail loudly
instead of producing silently wrong metrics.  Hermitian spectra come from
LAPACK (``numpy.linalg.eigh``) behind a Hermiticity check.  Validation works
on a whole ``(n, 4, 4)`` stack of snapshots in one pass (``validate_batch``);
a single matrix is a stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

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


class NotFinite(StateValidationError, ValueError):
    """NaN or infinite entries.  Also a ``ValueError``, so a bad input
    matrix still reads as a bad value where one is parsed."""


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


class Margins(NamedTuple):
    """Worst value of each invariant over a validated stack: the largest
    Hermiticity and trace deviations and the largest negativity (minus the
    smallest eigenvalue).  Each is at most its tolerance."""

    hermiticity: float
    trace: float
    positivity: float


def validate_batch(stack, *, herm_tol=HERM_TOL, trace_tol=TRACE_TOL,
                   psd_tol=PSD_TOL) -> Margins:
    """Check Hermiticity, unit trace and positivity of every matrix in an
    ``(n, 4, 4)`` stack; return the worst margins.

    The first failing matrix decides: non-finite entries raise NotFinite,
    otherwise the first failed check (NotHermitian, then TraceNotOne, then
    NotPSD) is raised, with a message listing every violation of that
    matrix so a broken state is diagnosed in one pass.
    """
    m = np.asarray(stack, dtype=complex)
    if m.ndim != 3 or m.shape[1:] != (4, 4) or len(m) == 0:
        raise ValueError(f"expected a non-empty (n, 4, 4) stack, got shape {m.shape}")
    finite = np.isfinite(m.real).all(axis=(1, 2)) & np.isfinite(m.imag).all(axis=(1, 2))
    first_nonfinite = len(m) if finite.all() else int(np.argmin(finite))
    checked = m[:first_nonfinite]

    mh = np.conj(np.swapaxes(checked, 1, 2))
    herm = np.abs(checked - mh).max(axis=(1, 2))
    tr = np.trace(checked, axis1=1, axis2=2)
    tr = np.abs(tr.real - 1.0) + np.abs(tr.imag)
    neg = -np.linalg.eigvalsh(0.5 * (checked + mh))[:, 0]
    failing = (herm > herm_tol) | (tr > trace_tol) | (neg > psd_tol)
    if failing.any():
        i = int(np.argmax(failing))
        failures = [(cls, name, v[i]) for cls, name, v, tol in (
            (NotHermitian, "hermiticity", herm, herm_tol),
            (TraceNotOne, "trace", tr, trace_tol),
            (NotPSD, "positivity", neg, psd_tol)) if v[i] > tol]
        detail = ", ".join(f"{name} off by {v:.3e}" for _, name, v in failures)
        cls, _, violation = failures[0]
        raise cls(f"invalid density matrix: {detail}", violation)
    if first_nonfinite < len(m):
        raise NotFinite("matrix contains non-finite entries")
    return Margins(float(herm.max()), float(tr.max()), float(neg.max()))


def validate_density(matrix, basis=COMPUTATIONAL, *, herm_tol=HERM_TOL,
                     trace_tol=TRACE_TOL, psd_tol=PSD_TOL) -> DensityMatrix:
    """Validate one 4x4 matrix (see ``validate_batch``); return the tagged state."""
    m = np.asarray(matrix, dtype=complex)
    if m.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
    validate_batch(m[None], herm_tol=herm_tol, trace_tol=trace_tol, psd_tol=psd_tol)
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
