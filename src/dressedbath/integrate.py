"""Fixed-step propagation of linear master equations.

Both master equations here are linear and time independent, so one
fourth-order Runge-Kutta step with step h is exactly the degree-4 Taylor
polynomial of the generator applied to the state.  We build that step
matrix once and raise it to the number of sub-steps per output interval,
which reproduces the classic RK4 trajectory at a fraction of the cost.
"""

from __future__ import annotations

import numpy as np

# extra margin below the nominal step bound; keeps accumulated phase error
# of long runs orders of magnitude under the cross-validation tolerance
STEP_SAFETY = 4

TRACE_DRIFT_TOL = 1e-8


class StepTooLarge(Exception):
    pass


def step_bound(max_rate: float, max_frequency: float) -> float:
    """Largest admissible RK4 step: 1e-2 over the fastest system scale."""
    scale = max(max_rate, max_frequency, 1.0)
    return 1e-2 / scale


def rk4_step_matrix(generator: np.ndarray, h: float) -> np.ndarray:
    n = generator.shape[0]
    p = np.eye(n, dtype=complex)
    term = np.eye(n, dtype=complex)
    hg = h * generator
    for k in range(1, 5):
        term = term @ hg / k
        p = p + term
    return p


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
        # an overflowing rate makes inf and nan entries, which the
        # validation of the evolved states reports (NotFinite)
        with np.errstate(over="ignore", invalid="ignore"):
            gen += rate * (np.kron(op, opd.T)
                           - 0.5 * (np.kron(norm, eye) + np.kron(eye, norm.T)))
    return gen


def _interval_step(generator, dt, h_limit):
    m = max(1, int(np.ceil(dt / h_limit - 1e-12)))
    return np.linalg.matrix_power(rk4_step_matrix(generator, dt / m), m)


def propagate(generator: np.ndarray, rho0: np.ndarray, times, h_max: float) -> np.ndarray:
    """RK4 trajectory of vec(rho) on the given output grid.

    The grid may be uniform or not; each interval is covered by enough
    equal sub-steps of size <= h_max / STEP_SAFETY.  Raises StepTooLarge
    if the trace drifts by more than 1e-8 anywhere on the grid, naming the
    first such grid point; the drift is checked once, after the loop.
    """
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) < 1:
        raise ValueError("need a 1-d, non-empty time grid")
    diffs = np.diff(times)
    if np.any(diffs <= 0):
        raise ValueError("time grid must be strictly increasing")

    limit = h_max / STEP_SAFETY
    out = np.empty((len(times), 16), dtype=complex)
    v = out[0] = np.asarray(rho0, dtype=complex).reshape(-1)

    uniform = len(diffs) > 0 and np.allclose(diffs, diffs[0], rtol=1e-9, atol=0.0)
    step = _interval_step(generator, float(diffs[0]), limit) if uniform else None
    for i in range(1, len(times)):
        if not uniform:
            step = _interval_step(generator, float(diffs[i - 1]), limit)
        v = out[i] = step @ v
    out = out.reshape(-1, 4, 4)
    drift = np.abs(np.trace(out[1:], axis1=1, axis2=2).real - 1.0)
    over = np.flatnonzero(drift > TRACE_DRIFT_TOL)
    if len(over):
        i = over[0] + 1
        raise StepTooLarge(
            f"trace drifted by {drift[i - 1]:.3e} at t={times[i]:.6e}; "
            "reduce the step bound")
    # evolved states stay Hermitian to fp accuracy; fold the rounding noise
    return 0.5 * (out + np.conj(np.swapaxes(out, 1, 2)))
