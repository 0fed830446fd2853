"""Small fixed-dimension complex matrix algebra for two-qubit states.

Everything here is specialised to dimension 2 and 4.  The two-qubit basis
orders are frozen once and for all:

  computational: |0,0>, |0,1>, |1,0>, |1,1>   (|qubit1, qubit2>)
  dressed:       the four coupled-qubit eigenstates ordered by energy
                 (ground, antisymmetric, symmetric, top)

``model.DressedFrame`` rotates states between the two.  Hermitian spectra
come from LAPACK (``numpy.linalg.eigh``) behind a per-matrix Hermiticity
check, for one matrix or a stack.  A trajectory is an ``(n, k)`` stack of
columns in the one order ``ENTRIES``: the eight X entries first, then the
eight others, so a stack's width is its layout.  ``width`` picks it: 8
columns carry matrices whose off-X entries are all exactly zero, 16 any
other.  ``validate_eigs`` checks such a stack in one pass (a single matrix
is a stack of one) and decides each snapshot's metric route: it reads the
smallest eigenvalue of an exactly X-shaped snapshot in closed form and
returns LAPACK's eigenpairs of the others, for the general concurrence.
"""

from __future__ import annotations

import functools
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
THERMAL_TOL = 1e-10   # a stationary state this close to the Gibbs state is thermal
# a residual computed from numbers of size s is rounding when it is at most
# ROUNDING_TOL * s
ROUNDING_TOL = 16 * np.finfo(float).eps


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


# the entries of a stack's columns: the diagonal, the antidiagonal, then the
# off-X entries row by row; an (n, 8) stack holds the first eight
ENTRIES = ((0, 0), (1, 1), (2, 2), (3, 3), (0, 3), (3, 0), (1, 2), (2, 1),
           (0, 1), (0, 2), (1, 0), (1, 3), (2, 0), (2, 3), (3, 1), (3, 2))
VEC = [4 * i + j for i, j in ENTRIES]   # each column's row-major index
COLUMN = {e: n for n, e in enumerate(ENTRIES)}
MIRROR = [COLUMN[j, i] for i, j in ENTRIES]   # the column of each transpose
# the entries above the diagonal of a 4x4 matrix, row by row
UPPER = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def columns(m) -> np.ndarray:
    """The ``(..., 16)`` columns of ``(..., 4, 4)`` matrices."""
    m = np.asarray(m)
    return m.reshape(m.shape[:-2] + (16,))[..., VEC]


def width(m) -> int:
    """The columns that carry the ``(..., 4, 4)`` matrices (or masks) ``m``:
    8 when every off-X entry of each is exactly zero, else 16."""
    return 16 if columns(m)[..., 8:].any() else 8


def trace_of(cols) -> np.ndarray:
    """Trace of each matrix of an ``(n, k)`` stack."""
    return cols[:, 0] + cols[:, 1] + cols[:, 2] + cols[:, 3]


def as_matrices(cols) -> np.ndarray:
    """The ``(n, 4, 4)`` matrices of an ``(n, k)`` stack, with +0 at every
    entry it does not carry."""
    out = np.zeros((len(cols), 4, 4), dtype=complex)
    out.reshape(-1, 16)[:, VEC[:cols.shape[1]]] = cols
    return out


def validate_eigs(cols, *, herm_tol=HERM_TOL, trace_tol=TRACE_TOL, psd_tol=PSD_TOL):
    """Check Hermiticity, unit trace and positivity of every matrix of an
    ``(n, 8)`` or ``(n, 16)`` stack; return the worst margins, the ``general``
    mask of the matrices whose Hermitian part is not exactly X-shaped, and
    ``np.linalg.eigh`` of those Hermitian parts, from one LAPACK call.

    The mask is each snapshot's metric route: an X-shaped one is read in
    closed form, a general one through its eigenpairs.  The first failing
    matrix decides: non-finite entries raise NotFinite, otherwise the first
    failed check (NotHermitian, then TraceNotOne, then NotPSD) is raised,
    with a message listing every violation of that matrix so a broken state
    is diagnosed in one pass.
    """
    cols = np.asarray(cols, dtype=complex)
    if cols.ndim != 2 or cols.shape[1] not in (8, 16) or len(cols) == 0:
        raise ValueError("expected a non-empty (n, 8) or (n, 16) stack, "
                         f"got shape {cols.shape}")
    first_nonfinite = (len(cols) if np.isfinite(cols).all()
                       else int(np.argmin(np.isfinite(cols).all(axis=1))))
    checked = cols[:first_nonfinite]

    # the columns above the diagonal: (0, 3) and (1, 2), then the off-X ones
    above = [n for n, (i, j) in enumerate(ENTRIES[:cols.shape[1]]) if i < j]
    a = checked[:, above]
    b = np.conj(checked[:, [MIRROR[n] for n in above]])
    # |a - conj(b)| = |b - conj(a)| to the bit, so the entries above the
    # diagonal suffice, and |d - conj(d)| is |Im d + Im d|; column by column,
    # as numpy reduces a short row axis slowly
    diag = [checked[:, i] for i in range(4)]
    herm = functools.reduce(np.maximum, [*np.abs(a - b).T,
                                         *(np.abs(d.imag + d.imag) for d in diag)])
    tr = trace_of(checked)
    tr = np.abs(tr.real - 1.0) + np.abs(tr.imag)
    # where the off-X entries of h = (M + M^H)/2 are all exactly zero, h is the
    # direct sum of its {00,11} and {01,10} blocks, and the smallest
    # eigenvalue of a block [[p, z], [z*, q]] is (p+q)/2 - hypot((p-q)/2, |z|);
    # h is formed in full only for the matrices that go to LAPACK.  Each term
    # is halved in place before the sum, which then cannot overflow
    h = np.multiply(a, 0.5, out=a)
    h += np.multiply(b, 0.5, out=b)
    general = functools.reduce(np.logical_or, [h[:, k] != 0 for k in range(2, len(above))],
                               np.zeros(len(h), bool))
    # a mask copies each column it picks: the slice of an all-X stack validates
    # 2,000 X rows in about 180 us against 215 us (x86-64, numpy 2.4.6)
    rows = ~general if general.any() else slice(None)
    low = []
    for k, (i, j) in enumerate(((0, 3), (1, 2))):
        p, q = diag[i][rows].real, diag[j][rows].real   # Re h_ii = Re d_ii
        z = np.abs(h[rows, k])
        low.append(0.5 * (p + q) - np.hypot(0.5 * (p - q), z))
    neg = np.empty(len(h))
    neg[rows] = -np.minimum(*low)
    eigs = np.empty((0, 4)), np.empty((0, 4, 4), complex)
    if general.any():   # only a 16-wide stack has general rows
        h = 0.5 * checked[general]
        h += np.conj(h[:, MIRROR])
        eigs = np.linalg.eigh(as_matrices(h))
        neg[general] = -eigs[0][:, 0]
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
    return Margins(float(herm.max()), float(tr.max()), float(neg.max())), general, eigs


def validate_density(matrix) -> np.ndarray:
    """Validate one 4x4 matrix at the construction tolerances (see
    ``validate_eigs``); return it as a read-only complex array."""
    m = np.array(matrix, dtype=complex)
    if m.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
    validate_eigs(columns(m[None]))
    m.setflags(write=False)
    return m


def partial_trace_q2(rho) -> np.ndarray:
    """Reduced 2x2 state of qubit 1, for a computational-basis matrix or
    each matrix of a ``(..., 4, 4)`` stack."""
    m = np.asarray(rho)
    # [i, j] = m[2i, 2j] + m[2i+1, 2j+1]
    return m[..., ::2, ::2] + m[..., 1::2, 1::2]


def hermitian_eigs(matrix):
    """Eigenvalues (ascending) and eigenvectors of a Hermitian matrix or of
    each matrix in a ``(..., n, n)`` stack.

    Checks each matrix's Hermiticity (the first one off by more than
    ``EVOLVED_HERM_TOL`` raises NotHermitian), then hands the Hermitian
    parts to LAPACK's ``eigh``.
    """
    m = np.asarray(matrix, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError("matrix must be square")
    mh = np.conj(np.swapaxes(m, -1, -2))
    herm = np.abs(m - mh).max(axis=(-2, -1)).ravel()
    bad = np.flatnonzero(herm > EVOLVED_HERM_TOL)
    if bad.size:
        off = herm[bad[0]]
        raise NotHermitian(f"matrix is not Hermitian (off by {off:.3e})", off)
    return np.linalg.eigh(0.5 * (m + mh))
