"""Small fixed-dimension complex matrix algebra for two-qubit states.

Everything here is specialised to dimension 2 and 4.  The two-qubit basis
orders are frozen once and for all:

  computational: |0,0>, |0,1>, |1,0>, |1,1>   (|qubit1, qubit2>)
  dressed:       the four coupled-qubit eigenstates ordered by energy
                 (ground, antisymmetric, symmetric, top)

``model.DressedFrame`` rotates states between the two.  Hermitian spectra
come from LAPACK (``numpy.linalg.eigh``) behind a per-matrix Hermiticity
check, for one matrix or a stack.  Validation works on a whole
``(n, 4, 4)`` stack of snapshots in one pass (``validate_batch``); a single
matrix is a stack of one.  Its positivity check reads the smallest
eigenvalue of an X-shaped snapshot (every off-X entry exactly zero, as both
master equations keep an X-shaped start) in closed form from its two 2x2
blocks, and sends only the other snapshots to LAPACK.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

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


class Margins(NamedTuple):
    """Worst value of each invariant over a validated stack: the largest
    Hermiticity and trace deviations and the largest negativity (minus the
    smallest eigenvalue).  Each is at most its tolerance."""

    hermiticity: float
    trace: float
    positivity: float


# the entries outside the diagonal and the antidiagonal of a 4x4 matrix
_OFF_X = ([0, 0, 1, 1, 2, 2, 3, 3], [1, 2, 0, 3, 0, 3, 1, 2])

# the columns of an (n, 16) stack (row-major) and of an (n, 8) X stack
ENTRIES = tuple(divmod(k, 4) for k in range(16))
X_ENTRIES = ((0, 0), (1, 1), (2, 2), (3, 3), (0, 3), (3, 0), (1, 2), (2, 1))


def trace_of(cols, entries) -> np.ndarray:
    """Trace of each matrix of an ``(n, k)`` stack of ``entries``."""
    d = [cols[:, entries.index((i, i))] for i in range(4)]
    return d[0] + d[1] + d[2] + d[3]


def as_matrices(stack) -> np.ndarray:
    """An ``(n, 4, 4)`` stack itself, or the matrices of an ``(n, 8)`` X
    stack, with +0 outside the X entries."""
    if stack.ndim == 3:
        return stack
    out = np.zeros((len(stack), 4, 4), dtype=complex)
    out.reshape(-1, 16)[:, [4 * i + j for i, j in X_ENTRIES]] = stack
    return out


def _smallest_eigenvalues(h, entries) -> np.ndarray:
    """Smallest eigenvalue of each Hermitian matrix of an ``(n, k)`` stack.

    A matrix whose off-X entries are all exactly zero is the direct sum of
    its {00,11} and {01,10} blocks; each block [[a, z], [z*, b]] has the
    smallest eigenvalue (a+b)/2 - hypot((a-b)/2, |z|).  The rest go to LAPACK.
    """
    x = ~h[:, [k for k, e in enumerate(entries) if e not in X_ENTRIES]].any(axis=1)
    low = np.empty(len(h))
    blocks = h[x][:, [entries.index(e) for e in X_ENTRIES]]   # X_ENTRIES order
    a = blocks[:, [0, 1]].real
    b = blocks[:, [3, 2]].real
    z = np.abs(blocks[:, [4, 6]])
    low[x] = (0.5 * (a + b) - np.hypot(0.5 * (a - b), z)).min(axis=1)
    if not x.all():
        low[~x] = np.linalg.eigvalsh(h[~x].reshape(-1, 4, 4))[:, 0]
    return low


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
    return _validate(m.reshape(len(m), 16), ENTRIES, herm_tol, trace_tol, psd_tol)


def validate_x(cols, *, herm_tol=HERM_TOL, trace_tol=TRACE_TOL,
               psd_tol=PSD_TOL) -> Margins:
    """``validate_batch`` of the matrices of an ``(n, 8)`` X stack, without
    building them: the same margins, or the same exception and message."""
    return _validate(np.asarray(cols, complex), X_ENTRIES, herm_tol, trace_tol, psd_tol)


def _validate(cols, entries, herm_tol, trace_tol, psd_tol) -> Margins:
    finite = np.isfinite(cols.real).all(axis=1) & np.isfinite(cols.imag).all(axis=1)
    first_nonfinite = len(cols) if finite.all() else int(np.argmin(finite))
    checked = cols[:first_nonfinite]

    mh = np.conj(checked[:, [entries.index((j, i)) for i, j in entries]])
    herm = np.abs(checked - mh).max(axis=1)
    tr = trace_of(checked, entries)
    tr = np.abs(tr.real - 1.0) + np.abs(tr.imag)
    neg = -_smallest_eigenvalues(0.5 * (checked + mh), entries)
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
    if first_nonfinite < len(cols):
        raise NotFinite("matrix contains non-finite entries")
    return Margins(float(herm.max()), float(tr.max()), float(neg.max()))


def validate_density(matrix, *, herm_tol=HERM_TOL, trace_tol=TRACE_TOL,
                     psd_tol=PSD_TOL) -> np.ndarray:
    """Validate one 4x4 matrix (see ``validate_batch``); return it as a
    read-only complex array."""
    m = np.array(matrix, dtype=complex)
    if m.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
    validate_batch(m[None], herm_tol=herm_tol, trace_tol=trace_tol, psd_tol=psd_tol)
    m.setflags(write=False)
    return m


def partial_trace_q2(rho) -> np.ndarray:
    """Reduced 2x2 state of qubit 1, for a computational-basis matrix or
    each matrix of a ``(..., 4, 4)`` stack."""
    m = np.asarray(rho)
    # [i, j] = m[2i, 2j] + m[2i+1, 2j+1]
    return m[..., ::2, ::2] + m[..., 1::2, 1::2]


def hermitian_eigs(matrix, herm_tol=1e-10):
    """Eigenvalues (ascending) and eigenvectors of a Hermitian matrix or of
    each matrix in a ``(..., n, n)`` stack.

    Checks each matrix's Hermiticity (the first one off by more than
    ``herm_tol`` raises NotHermitian), then hands the Hermitian parts to
    LAPACK's ``eigh``.
    """
    m = np.asarray(matrix, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError("matrix must be square")
    mh = np.conj(np.swapaxes(m, -1, -2))
    herm = np.abs(m - mh).max(axis=(-2, -1)).ravel()
    bad = np.flatnonzero(herm > herm_tol)
    if bad.size:
        off = herm[bad[0]]
        raise NotHermitian(f"matrix is not Hermitian (off by {off:.3e})", off)
    return np.linalg.eigh(0.5 * (m + mh))
