"""Exact propagation of linear master equations.

Both master equations here are linear and time independent, so
``vec(rho(t)) = exp(t L) vec(rho(0))``.  ``propagate`` evaluates that
exponential through one eigendecomposition of the generator, with no time
step, into the ``(n, k)`` real coordinates of ``linalg.MAP`` at the width
of the entries it reaches, one block of rows at a time, so its working set
beyond that result does not grow with the grid.
"""

from __future__ import annotations

import numpy as np

from .linalg import EVOLVED_TRACE_TOL, MAP, ROUNDING_TOL, NotFinite, trace_of, width

_BLOCK_WORK = 32768   # rows x L^2 of a propagation block: 512 rows at L = 8


class TraceDrift(Exception):
    pass


def superoperator_from_rhs(rhs) -> np.ndarray:
    """16x16 matrix of a linear map on 4x4 matrices; ``rhs`` maps each matrix
    of a stack, and is called once, on the stack of the 16 basis matrices."""
    basis = np.eye(16, dtype=complex).reshape(16, 4, 4)
    return np.asarray(rhs(basis), dtype=complex).reshape(16, 16).T


def _kron(a, b):
    """``np.kron`` of two 4x4 matrices, or of each pair of two broadcast
    ``(..., 4, 4)`` stacks: the same products, in one multiply."""
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (16, 16))


def lindblad(h: np.ndarray, channels) -> np.ndarray:
    """16x16 generator (row-major vec) of -i[h, rho] plus one Lindblad
    dissipator per ``(rate, jump operator)`` channel; zero rates are skipped.
    The dissipators are one stacked expression, added in channel order.
    """
    eye = np.eye(4)
    gen = -1j * (_kron(h, eye) - _kron(eye, h.T))
    rates = np.array([rate for rate, _ in channels if rate != 0.0])
    op = np.array([jump for rate, jump in channels if rate != 0.0]).reshape(-1, 4, 4)
    norm = op.conj().swapaxes(-1, -2) @ op
    # an overflowing rate makes inf and nan entries, which propagation
    # reports (NotFinite)
    with np.errstate(over="ignore", invalid="ignore"):
        terms = rates[:, None, None] * (
            _kron(op, op.conj())
            - 0.5 * (_kron(norm, eye) + _kron(eye, norm.swapaxes(-1, -2))))
        for term in terms:
            gen += term
    return gen


def propagate(generator: np.ndarray, rho0: np.ndarray, times) -> np.ndarray:
    """Trajectory ``exp((t - times[0]) L) vec(rho0)`` on a strictly increasing
    output grid, uniform or not; the first snapshot is ``rho0`` itself.

    Only the vec entries that the generator can reach from the nonzero
    entries of ``rho0`` are propagated; the others stay exactly zero, so an
    X-shaped start stays exactly X-shaped.  On those entries the generator
    is diagonalised once.  A trace-preserving generator has an exact zero
    eigenvalue, which rounding moves off 0 by about eps times its norm and
    which would then make the trace drift linearly in t; the eigenvalue
    nearest 0 is therefore set to 0 when it is rounding at ||L||_1
    (``linalg.ROUNDING_TOL``).  Raises NotFinite for a generator with inf or
    nan entries, and TraceDrift if the trace drifts by more than
    ``linalg.EVOLVED_TRACE_TOL`` anywhere on the grid, naming the first such
    grid point.  The result is the ``(n, k)`` coordinates of the propagated
    vec's Hermitian part, ``(MAP @ vec).real``, ``k = linalg.width`` of the
    coordinates reached.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) < 1:
        raise ValueError("need a 1-d, non-empty time grid")
    if np.any(np.diff(times) <= 0):
        raise ValueError("time grid must be strictly increasing")
    if not np.isfinite(generator).all():
        raise NotFinite("matrix contains non-finite entries")

    v = np.asarray(rho0, dtype=complex).reshape(-1)
    live = v != 0   # grown to its fixed point: what the generator reaches
    while (grown := live | (generator[:, live] != 0).any(axis=1)).sum() > live.sum():
        live = grown
    reached = MAP[:, live]   # each coordinate on the reached entries
    fed = reached.any(axis=1)
    n_cols = width(fed)
    sub = generator[np.ix_(live, live)]
    lam, vecs = np.linalg.eig(sub)
    k = np.argmin(np.abs(lam))
    if abs(lam[k]) <= ROUNDING_TOL * np.linalg.norm(sub, 1):
        lam[k] = 0.0
    coef = np.linalg.solve(vecs, v[live])
    # each eigenvector's coordinates, only those the reached entries feed, so
    # the product's shape (and its rounding on any BLAS kernel) does not
    # depend on the width; a prefix of them is written through a faster slice
    coords = np.flatnonzero(fed)
    coords = slice(len(coords)) if coords[-1] < len(coords) else coords
    w = vecs.T @ reached[coords].T
    out = np.zeros((len(times), n_cols))
    out[0] = (MAP[:n_cols] @ v).real
    # blocks of rows x L^2 under OpenBLAS's threading threshold, so no temporary
    # grows with the grid and the matmul runs on one thread; a one-row last
    # block would take numpy's matrix-vector product, which rounds differently
    rows, last = _BLOCK_WORK // len(lam) ** 2, max(len(times) - 1, 1)
    for start in range(0, last, rows):
        stop = start + rows if start + rows < last else len(times)
        lo = max(start, 1)   # the first snapshot is rho0 itself
        # huge finite rates can overflow exp; validation reports it (NotFinite)
        with np.errstate(over="ignore", invalid="ignore"):
            e = np.exp(np.multiply.outer(times[lo:stop] - times[0], lam))
            e *= coef
            out[lo:stop, coords] = (e @ w).real
        drift = np.abs(trace_of(out[lo:stop]) - 1.0)
        over = np.flatnonzero(drift > EVOLVED_TRACE_TOL)
        if len(over):
            raise TraceDrift(f"trace drifted by {drift[over[0]]:.3e} "
                             f"at t={times[lo + over[0]]:.6e}")
    return out
