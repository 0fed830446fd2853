"""Small fixed-dimension complex matrix algebra for two-qubit states.

Everything here is specialised to dimension 2 and 4.  The two-qubit basis
orders are frozen once and for all:

  computational: |0,0>, |0,1>, |1,0>, |1,1>   (|qubit1, qubit2>)
  dressed:       the four coupled-qubit eigenstates ordered by energy
                 (ground, antisymmetric, symmetric, top)

``model.DressedFrame`` rotates states between the two.  A trajectory is an
``(n, k)`` stack of the real coordinates ``MAP`` defines, X sector first, so
a stack is Hermitian by construction and its width is its layout: ``width``
gives 8 when every off-X coordinate is exactly zero, 16 otherwise.
``validate_eigs`` checks such a stack in one pass (a single matrix is a
stack of one), and its width is its metric route: it reads the smallest
eigenvalue of each snapshot of a stack that ``width`` gives 8 in closed form
and returns LAPACK's eigenpairs of every snapshot of any other stack, for the
general concurrence.
Hermiticity is checked where a matrix enters from outside the program
(``validate_density``).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

# construction tolerances
HERM_TOL = 1e-12
TRACE_TOL = 1e-10
PSD_TOL = 1e-9

# looser tolerances applied to numerically evolved snapshots
EVOLVED_HERM_TOL = 1e-10   # hermitian_eigs' bound
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
    """Worst value of each invariant over a validated stack, each at most its
    tolerance: the largest trace deviation and negativity (-eigenvalue)."""

    trace: float
    positivity: float


# the entries above the diagonal of a 4x4 matrix: the X pair first, then the
# off-X entries row by row
UPPER = ((0, 3), (1, 2), (0, 1), (0, 2), (1, 3), (2, 3))
_DIAG = [5 * i for i in range(4)]           # row-major index of each population
_ABOVE = [4 * i + j for i, j in UPPER]      # ... of each entry above the diagonal
_BELOW = [4 * j + i for i, j in UPPER]      # ... and of its mirror

# the layout of a stack: the coordinates of a Hermitian 4x4 matrix are
# ``MAP @ vec``, all real: the populations, then Re z = (z + z*) / 2 and
# Im z = (z - z*) / 2i of each entry z of UPPER, so (n, 8) is the X sector
MAP = np.zeros((16, 16), dtype=complex)
MAP[range(4), _DIAG] = 1.0
MAP[range(4, 16, 2), _ABOVE] = MAP[range(4, 16, 2), _BELOW] = 0.5
MAP[range(5, 16, 2), _ABOVE], MAP[range(5, 16, 2), _BELOW] = -0.5j, 0.5j
MAP.setflags(write=False)


def columns(m) -> np.ndarray:
    """The ``(..., 16)`` coordinates of Hermitian ``(..., 4, 4)`` matrices:
    ``(MAP @ vec).real``, read off the diagonal and the entries above it."""
    v = np.asarray(m, dtype=complex).reshape(np.shape(m)[:-2] + (16,))
    return np.concatenate([v[..., _DIAG].real, v.take(_ABOVE, axis=-1).view(float)], axis=-1)


def as_matrices(cols) -> np.ndarray:
    """The ``(n, 4, 4)`` Hermitian matrices of an ``(n, k)`` stack, the
    inverse of ``columns``: +0 at every entry it does not carry, and
    ``0.0 - Im`` below the diagonal (+0, not -0, where Im is 0)."""
    out = np.zeros((len(cols), 16), dtype=complex)
    n = (cols.shape[1] - 4) // 2
    out.real[:, _DIAG] = cols[:, :4]
    out[:, _ABOVE[:n]] = np.ascontiguousarray(cols[:, 4:]).view(complex)
    out.real[:, _BELOW[:n]], out.imag[:, _BELOW[:n]] = cols[:, 4::2], 0.0 - cols[:, 5::2]
    return out.reshape(-1, 4, 4)


def width(cols) -> int:
    """8 when every off-X coordinate of ``cols`` (or a mask) is exactly 0, else 16."""
    return 16 if np.any(cols[..., 8:]) else 8


def trace_of(cols) -> np.ndarray:
    """Trace of each matrix of an ``(n, k)`` stack."""
    return cols[:, 0] + cols[:, 1] + cols[:, 2] + cols[:, 3]


def _raise_first_failure(checks):
    """Raise the first failed ``(class, name, value, tolerance)`` check, listing every one."""
    failures = [(cls, name, v) for cls, name, v, tol in checks if v > tol]
    if failures:
        detail = ", ".join(f"{name} off by {v:.3e}" for _, name, v in failures)
        cls, _, violation = failures[0]
        raise cls(f"invalid density matrix: {detail}", violation)


def validate_eigs(cols, *, trace_tol=TRACE_TOL, psd_tol=PSD_TOL):
    """Check unit trace and positivity of every matrix of an ``(n, 8)`` or
    ``(n, 16)`` stack; return the worst margins and the stack's eigenpairs.
    The stack's width is its metric route: where ``width`` gives 8, each
    smallest eigenvalue is read in closed form and the eigenpairs are None;
    otherwise they are ``np.linalg.eigh`` of every matrix, from one LAPACK
    call.  The first failing matrix decides: non-finite entries raise
    NotFinite, otherwise its first failed check (TraceNotOne, then NotPSD),
    with a message listing every violation of that matrix, so a broken state
    is diagnosed in one pass.
    """
    cols = np.asarray(cols, dtype=float)
    if cols.ndim != 2 or cols.shape[1] not in (8, 16) or len(cols) == 0:
        raise ValueError("expected a non-empty (n, 8) or (n, 16) stack, "
                         f"got shape {cols.shape}")
    first_nonfinite = (len(cols) if np.isfinite(cols).all()
                       else int(np.argmin(np.isfinite(cols).all(axis=1))))
    checked = cols[:first_nonfinite]
    tr = np.abs(trace_of(checked) - 1.0)
    eigs = None
    if width(checked) == 8:
        # an X-shaped matrix is the direct sum of its {00,11} and {01,10}
        # blocks, and the smallest eigenvalue of a block [[p, z], [z*, q]] is
        # (p+q)/2 - hypot((p-q)/2, |z|)
        low = []
        for k, (i, j) in enumerate(UPPER[:2]):
            p, q = checked[:, i], checked[:, j]
            z = np.hypot(checked[:, 4 + 2 * k], checked[:, 5 + 2 * k])
            low.append(0.5 * (p + q) - np.hypot(0.5 * (p - q), z))
        neg = -np.minimum(*low)
    else:
        eigs = np.linalg.eigh(as_matrices(checked))
        neg = -eigs[0][:, 0]
    failing = (tr > trace_tol) | (neg > psd_tol)
    if failing.any():
        i = int(np.argmax(failing))
        _raise_first_failure([(TraceNotOne, "trace", tr[i], trace_tol),
                              (NotPSD, "positivity", neg[i], psd_tol)])
    if first_nonfinite < len(cols):
        raise NotFinite("matrix contains non-finite entries")
    return Margins(float(tr.max()), float(neg.max())), eigs


def validate_density(matrix) -> np.ndarray:
    """Validate one 4x4 matrix from outside the program at the construction
    tolerances: its Hermiticity and trace, and the positivity of its
    Hermitian part; return it as a read-only complex array."""
    m = np.array(matrix, dtype=complex)
    if m.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise NotFinite("matrix contains non-finite entries")
    h = 0.5 * m + (0.5 * m).conj().T   # exactly Hermitian
    tr = np.trace(m)
    _raise_first_failure([
        (NotHermitian, "hermiticity", np.abs(m - m.conj().T).max(), HERM_TOL),
        (TraceNotOne, "trace", abs(tr.real - 1.0) + abs(tr.imag), TRACE_TOL),
        (NotPSD, "positivity", validate_eigs(columns(h[None]), trace_tol=np.inf,
                                             psd_tol=np.inf)[0].positivity, PSD_TOL)])
    m.setflags(write=False)
    return m


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
