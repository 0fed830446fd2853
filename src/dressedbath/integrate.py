"""Exact propagation of linear master equations.

Both master equations here are linear and time independent, so
``vec(rho(t)) = exp(t L) vec(rho(0))``.  ``propagate`` evaluates that
exponential through one eigendecomposition of the generator, for every
output time in one array pass, with no time step.
"""

from __future__ import annotations

import numpy as np

from .linalg import NotFinite

TRACE_DRIFT_TOL = 1e-8


class TraceDrift(Exception):
    pass


def superoperator_from_rhs(rhs) -> np.ndarray:
    """16x16 matrix of a linear map on 4x4 matrices, built column by column."""
    cols = []
    for k in range(16):
        basis = np.zeros((4, 4), dtype=complex)
        basis[divmod(k, 4)] = 1.0
        cols.append(np.asarray(rhs(basis), dtype=complex).reshape(-1))
    return np.array(cols).T


def lindblad(h: np.ndarray, channels) -> np.ndarray:
    """16x16 generator (row-major vec) of -i[h, rho] plus one Lindblad
    dissipator per ``(rate, jump operator)`` channel; zero rates are skipped.
    """
    eye = np.eye(4)
    gen = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for rate, op in channels:
        if rate == 0.0:
            continue
        opd = op.conj().T
        norm = opd @ op
        # an overflowing rate makes inf and nan entries, which propagation
        # reports (NotFinite)
        with np.errstate(over="ignore", invalid="ignore"):
            gen += rate * (np.kron(op, opd.T)
                           - 0.5 * (np.kron(norm, eye) + np.kron(eye, norm.T)))
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
    nearest 0 is therefore set to 0 when it lies within 16 eps ||L||_1 of
    it.  Raises NotFinite for a generator with inf or nan entries, and
    TraceDrift if the trace of the result is off by more than 1e-8 anywhere
    on the grid, naming the first such grid point.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) < 1:
        raise ValueError("need a 1-d, non-empty time grid")
    if np.any(np.diff(times) <= 0):
        raise ValueError("time grid must be strictly increasing")
    if not np.isfinite(generator).all():
        raise NotFinite("matrix contains non-finite entries")

    v = np.asarray(rho0, dtype=complex).reshape(-1)
    live = v != 0
    for _ in range(len(v)):
        live = live | (generator[:, live] != 0).any(axis=1)
    sub = generator[np.ix_(live, live)]
    lam, vecs = np.linalg.eig(sub)
    k = np.argmin(np.abs(lam))
    if abs(lam[k]) <= 16 * np.finfo(float).eps * np.linalg.norm(sub, 1):
        lam[k] = 0.0
    coef = np.linalg.solve(vecs, v[live])
    out = np.zeros((len(times), len(v)), dtype=complex)
    out[0] = v
    # huge finite rates can overflow exp; validation of the evolved states
    # reports the non-finite snapshots (NotFinite)
    with np.errstate(over="ignore", invalid="ignore"):
        out[1:, live] = (np.exp(np.outer(times[1:] - times[0], lam)) * coef) @ vecs.T
    out = out.reshape(-1, 4, 4)

    s = out[1:]
    drift = np.abs((s[:, 0, 0] + s[:, 1, 1] + s[:, 2, 2] + s[:, 3, 3]).real - 1.0)
    over = np.flatnonzero(drift > TRACE_DRIFT_TOL)
    if len(over):
        i = over[0] + 1
        raise TraceDrift(
            f"trace drifted by {drift[i - 1]:.3e} at t={times[i]:.6e}")
    # evolved states stay Hermitian to fp accuracy; fold the rounding noise
    return 0.5 * (out + np.conj(np.swapaxes(out, 1, 2)))
