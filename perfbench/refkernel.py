"""Reference kernel: fixed CPU-bound work that calls nothing in dressedbath.

The benchmark times this kernel just before and just after every timed
operation (one timing between two operations serves both) and scales the
operation's wall time by NOMINAL_S divided by the mean of the two timings,
so a machine that runs slower for a while (CPU frequency, a busy
neighbour) does not read as a slower program.

The work mixes the three kinds of work a CLI operation does, in about the
same proportions, all written here:
- cyclic complex Jacobi diagonalisations of a fixed 4x4 Hermitian matrix,
  numpy slices driven from Python, like the per-snapshot validation;
- a basis change and a Hermiticity reduction over a (2000, 4, 4) stack,
  like the whole-trajectory array work;
- 17-digit float formatting into CSV lines, like the trajectory writer.
"""

import time

import numpy as np

# Time of one timing() on a shared 2-core x86-64 virtual machine (Python
# 3.11, numpy 2.4) in its faster state.  Only the ratio to it matters:
# corrected times are in seconds of that nominal machine.
NOMINAL_S = 0.040
SOLVES = 40
STACK_PASSES = 4
CSV_PASSES = 3

_RNG = np.random.default_rng(20240817)
_A = _RNG.normal(size=(4, 4)) + 1j * _RNG.normal(size=(4, 4))
MATRIX = _A + _A.conj().T
STACK = _RNG.normal(size=(2000, 4, 4)) + 1j * _RNG.normal(size=(2000, 4, 4))
UNITARY = np.linalg.qr(MATRIX)[0]
ROWS = _RNG.normal(size=(400, 3)).tolist()


def _jacobi_eigenvalues(m):
    a = m.copy()
    for _ in range(10):
        off = 0.0
        for p in range(3):
            for q in range(p + 1, 4):
                apq = a[p, q]
                r = abs(apq)
                off = max(off, r)
                if r < 1e-14:
                    continue
                phase = apq / r
                theta = 0.5 * np.arctan2(2 * r, (a[p, p] - a[q, q]).real)
                c, s = np.cos(theta), np.sin(theta)
                col_p = c * a[:, p] + s * np.conj(phase) * a[:, q]
                col_q = -s * phase * a[:, p] + c * a[:, q]
                a[:, p], a[:, q] = col_p, col_q
                row_p = c * a[p, :] + s * phase * a[q, :]
                row_q = -s * np.conj(phase) * a[p, :] + c * a[q, :]
                a[p, :], a[q, :] = row_p, row_q
                a[p, q] = a[q, p] = 0.0
        if off < 1e-14:
            break
    return np.sort(np.diag(a).real)


def _stack_work():
    c = np.einsum("ij,tjk,lk->til", UNITARY, STACK, UNITARY.conj())
    herm = 0.5 * (c + np.conj(np.swapaxes(c, 1, 2)))
    return float(np.abs(herm - c).max(axis=(1, 2)).sum())


def _csv_work():
    return "\n".join(",".join(f"{x:.17g}" for x in row) for row in ROWS)


def timing() -> float:
    """Wall time of one fixed stretch of the mixed work, in seconds.

    One stretch rather than the best of short ones: the machine switches
    between a fast and a slow state many times a second, and the mean speed
    over the stretch tracks the mix of the two that an operation meets."""
    start = time.perf_counter()
    for _ in range(SOLVES):
        _jacobi_eigenvalues(MATRIX)
    for _ in range(STACK_PASSES):
        _stack_work()
    for _ in range(CSV_PASSES):
        _csv_work()
    return time.perf_counter() - start


def correct(wall_s: float, before_s: float, after_s: float) -> float:
    """Wall time rescaled to the nominal machine speed."""
    return wall_s * NOMINAL_S / (0.5 * (before_s + after_s))
