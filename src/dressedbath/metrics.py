"""Entanglement and correlation measures for the two-qubit states.

Concurrence comes in two routes: the general form valid for any state,
Wootters' lambda_i as the singular values of his tau matrix after one
eigendecomposition (``concurrence_from_eigs``, which a run feeds with its
validation's; the spin-flip and 40-digit mpmath oracles are in
``tests/conftest.py``), and the short form for X-shaped states (only
diagonal and antidiagonal entries populated), which is what both master
equations produce from the |1,0> start.  Quantum discord is measured on
qubit 2 and evaluated through the closed-form two-qubit approximation (Ali,
Rau & Alber, PRA 81, 042105 (2010)); the tests hold it to a brute-force grid
minimisation over projective measurements.

The X-state extraction and the X-form metrics work element-wise on arrays:
a whole trajectory of snapshots is one call, and a single state is a call
on scalars.  ``x_elements_from_columns`` reads them off the first eight
coordinates of an X-shaped run (``scenarios._trajectory_metrics``) and of the
closed-form stationary states (``scenarios.stationary_metrics``), after
``linalg.validate_eigs`` has checked them and found the stack X-shaped;
``x_elements_from_matrix`` is its form for computational matrices.
``x_elements_from_dressed`` reads the same elements off a dressed-basis
micro state and serves as its cross-check.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .linalg import PSD_TOL, TRACE_TOL, NotPSD, columns, hermitian_eigs, partial_trace_q2
from .model import DressedFrame

log = logging.getLogger(__name__)

# the dressed oracle's X test: an off-X entry at most X_TOL counts as zero, and
# a coherence may exceed its population bound by _BOUND_TOL
X_TOL = 1e-10
_BOUND_TOL = 1e-9


class AssumptionViolated(Exception):
    pass


def _plog2(x) -> np.ndarray:
    # 0 log 0 := 0; clamp fp dust; the entries at x <= 0 are discarded, and
    # so are their warnings
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(x <= 0.0, 0.0, -x * np.log2(np.minimum(x, 1.0)))


def binary_entropy(x) -> np.ndarray:
    x = np.clip(x, 0.0, 1.0)
    return _plog2(x) + _plog2(1.0 - x)


@dataclass(frozen=True)
class XStateElements:
    """The six entries of an X-shaped computational-basis density matrix.

    Populations p00..p11 follow the |qubit1,qubit2> labels; ``outer`` is the
    |0,0><1,1| coherence and ``inner`` the |0,1><1,0| one.  Each field is a
    scalar for one state or an array with one entry per snapshot.
    """

    p00: float
    p01: float
    p10: float
    p11: float
    outer: complex
    inner: complex

    def valid(self) -> np.ndarray:
        """Per snapshot: populations sum to 1 and each coherence stays
        within its population bound (an overflow fails them, silently)."""
        total = self.p00 + self.p01 + self.p10 + self.p11
        with np.errstate(over="ignore", invalid="ignore"):
            return ~((np.abs(total - 1.0) > TRACE_TOL)
                     | (np.abs(self.outer) ** 2 > self.p00 * self.p11 + _BOUND_TOL)
                     | (np.abs(self.inner) ** 2 > self.p01 * self.p10 + _BOUND_TOL))

    def matrix(self) -> np.ndarray:
        """The 4x4 matrix of a single state."""
        m = np.zeros((4, 4), dtype=complex)
        m[0, 0], m[1, 1], m[2, 2], m[3, 3] = self.p00, self.p01, self.p10, self.p11
        m[0, 3], m[3, 0] = self.outer, np.conj(self.outer)
        m[1, 2], m[2, 1] = self.inner, np.conj(self.inner)
        return m


def x_elements_from_dressed(rho_dressed: np.ndarray, frame: DressedFrame):
    """Computational X elements straight from dressed populations and the
    antisym-sym coherence, for a ``(..., 4, 4)`` stack of dressed states:
    the closed-form oracle of ``x_elements_from_columns`` on micro states.

    Returns the elements and a mask of the snapshots where they hold: the
    closed form is valid only while the ground-top dressed coherence
    vanishes (otherwise it would leak into the populations and the outer
    coherence) and the elements pass ``XStateElements.valid``.
    """
    r = np.asarray(rho_dressed)
    pa, pb, pc, pd = (r[..., i, i].real for i in range(4))
    bc = r[..., 1, 2]
    inner = np.array(0.5 * (pc - pb), dtype=complex)
    inner.imag = -bc.imag
    ap, am = frame.mix_plus, frame.mix_minus
    x = XStateElements(
        p00=ap ** 2 * pa + am ** 2 * pd,
        p01=0.5 * (pb + pc) - bc.real,
        p10=0.5 * (pb + pc) + bc.real,
        p11=am ** 2 * pa + ap ** 2 * pd,
        outer=ap * am * (pd - pa),
        inner=inner,
    )
    return x, ~(np.abs(r[..., 0, 3]) > X_TOL) & x.valid()


def x_elements_from_columns(cols) -> XStateElements:
    """The X elements of a ``(..., k)`` stack of computational-basis
    coordinates, each coherence a complex view of its two; whether a snapshot
    is X-shaped, and a state at all, is ``linalg.validate_eigs``' to decide."""
    c = np.asarray(cols, dtype=float)
    return XStateElements(p00=c[..., 0], p01=c[..., 1], p10=c[..., 2], p11=c[..., 3],
                          outer=c[..., 4:6].view(complex)[..., 0],
                          inner=c[..., 6:8].view(complex)[..., 0])


def x_elements_from_matrix(rho: np.ndarray) -> XStateElements:
    """``x_elements_from_columns`` of a computational-basis matrix or of
    each matrix of a ``(..., 4, 4)`` stack."""
    return x_elements_from_columns(columns(rho))


def concurrence_x(x: XStateElements) -> np.ndarray:
    outer_branch = np.abs(x.outer) - np.sqrt(np.maximum(x.p01 * x.p10, 0.0))
    inner_branch = np.abs(x.inner) - np.sqrt(np.maximum(x.p00 * x.p11, 0.0))
    # neither branch can be -0: |z| is never -0, and |z| - (+-0) is +0 at 0
    return 2.0 * np.maximum(np.maximum(outer_branch, inner_branch), 0.0)


def concurrence_general(rho):
    """Wootters concurrence (``concurrence_from_eigs``) of one state or of each
    state of a ``(..., 4, 4)`` stack; the first state that is not Hermitian
    raises NotHermitian."""
    m = np.asarray(rho, dtype=complex)
    return concurrence_from_eigs(*hermitian_eigs(m.reshape(-1, 4, 4))).reshape(
        m.shape[:-2])[()]


def concurrence_from_eigs(evals, vecs) -> np.ndarray:
    """Wootters concurrence of each state of a stack, from the ``(n, 4)``
    eigenvalues and ``(n, 4, 4)`` eigenvectors of its Hermitian parts.

    With rho = W W^dagger, W = V sqrt(lambda), Wootters' lambda_i are the
    singular values of the complex-symmetric tau = W^T (sy x sy) W
    (Wootters, PRL 80, 2245 (1998); Uhlmann, PRA 62, 032307 (2000)).  The
    first state with an eigenvalue below ``-PSD_TOL`` raises NotPSD, for the
    callers of ``concurrence_general``; in a run it cannot, as validation has
    held the same eigenvalues to the same bound.
    """
    negative = np.flatnonzero(evals[:, 0] < -PSD_TOL)
    if negative.size:
        i = negative[0]
        raise NotPSD(f"state eigenvalue {evals[i, 0]:.3e} below tolerance",
                     -evals[i, 0])
    w = vecs * np.sqrt(np.clip(evals, 0.0, None))[:, None, :]
    # W^T (sy x sy) is W^T with its columns reversed and the outer two negated
    flipped = w.swapaxes(-1, -2)[..., ::-1] * np.array([-1.0, 1.0, 1.0, -1.0])
    s = np.linalg.svd(flipped @ w, compute_uv=False)
    c = s[:, 0] - s[:, 1] - s[:, 2] - s[:, 3]
    # np.maximum picks either zero on a tie depending on the numpy build, so
    # clamp by sign: a -0 difference becomes +0
    return np.where(c > 0.0, c, 0.0)


def von_neumann_entropy(matrix: np.ndarray) -> float:
    """Base-2 entropy of a density matrix (any small dimension)."""
    evals, _ = hermitian_eigs(np.asarray(matrix, dtype=complex))
    if evals[0] < -PSD_TOL:
        raise NotPSD(f"entropy of a non-positive matrix ({evals[0]:.3e})", -evals[0])
    return float(_plog2(np.clip(evals, 0.0, 1.0)).sum())


def _x_spectrum(x: XStateElements):
    # the two 2x2 blocks of an X matrix diagonalise independently
    r_outer = np.sqrt((x.p00 - x.p11) ** 2 + 4.0 * np.abs(x.outer) ** 2)
    r_inner = np.sqrt((x.p01 - x.p10) ** 2 + 4.0 * np.abs(x.inner) ** 2)
    return (0.5 * (x.p00 + x.p11 + r_outer), 0.5 * (x.p00 + x.p11 - r_outer),
            0.5 * (x.p01 + x.p10 + r_inner), 0.5 * (x.p01 + x.p10 - r_inner))


def _ratio_term(a, b) -> np.ndarray:
    # -a log2(a / (a + b)), 0 where a <= 0; a negative b is floating-point
    # dust, as in _plog2, which discards the same way
    a = np.asarray(a, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(a <= 0.0, 0.0, -a * np.log2(a / (a + np.maximum(b, 0.0))))


def discord_approx_q2(x: XStateElements) -> np.ndarray:
    """Closed-form approximation of the qubit-2-measured quantum discord.

    Slightly negative outputs are possible for an approximation; they are
    clamped to zero, and clamps beyond 1e-9 are logged (once per call, with
    their count and the most negative value), never silently produced.
    """
    s_q2 = _plog2(x.p00 + x.p10) + _plog2(x.p01 + x.p11)
    s_full = sum(_plog2(v) for v in _x_spectrum(x))
    y = 0.5 * (1.0 + np.sqrt((x.p00 - x.p11 + x.p01 - x.p10) ** 2
                             + 4.0 * (np.abs(x.outer) + np.abs(x.inner)) ** 2))
    n1 = binary_entropy(y)
    n2 = (_ratio_term(x.p00, x.p10) + _ratio_term(x.p01, x.p11)
          + _ratio_term(x.p10, x.p00) + _ratio_term(x.p11, x.p01))
    value = s_q2 - s_full + np.minimum(n1, n2)
    negative = value < 0.0
    if negative.any():
        clamped = value[value < -1e-9]
        if clamped.size:
            log.warning("approximate discord clamped to 0 at %d snapshot(s), "
                        "most negative %.3e", clamped.size, clamped.min())
        value = np.where(negative, 0.0, value)
    return value


def linear_entropy_q1(state):
    """Mixedness of qubit 1: 1 - Tr(rho_q1^2), in [0, 1/2].

    Both routes evaluate it as 2 det rho_q1, which equals it at unit trace
    and gives one value for a snapshot whose trace is off by rounding.  For
    X elements (one state or an array of snapshots) that is 2 P0 P1, with
    P0 and P1 the qubit-1 populations; for full states (one
    computational-basis matrix or a ``(..., 4, 4)`` stack of them) it is
    2 (Re r00 Re r11 - |r01|^2) of the partial trace r.
    """
    if isinstance(state, XStateElements):
        return 2.0 * (state.p00 + state.p01) * (state.p10 + state.p11)
    r = partial_trace_q2(state)
    return (2.0 * (r[..., 0, 0].real * r[..., 1, 1].real - np.abs(r[..., 0, 1]) ** 2))[()]
