"""Entanglement and correlation measures for the two-qubit states.

Concurrence comes in two routes: the general spin-flip construction valid
for any state, and the short form for X-shaped states (only diagonal and
antidiagonal entries populated), which is what both master equations
produce from the |1,0> start.  Quantum discord is measured on qubit 2 and
evaluated through the closed-form two-qubit approximation (Ali, Rau &
Alber, PRA 81, 042105 (2010)); a brute-force grid minimisation over
projective measurements backs it in the tests.

The X-state extraction and the X-form metrics work element-wise on arrays:
a whole trajectory of snapshots is one call, and a single state is a call
on scalars.  Both models' trajectories reach them through
``x_elements_from_matrix``; ``x_elements_from_dressed`` reads the same
elements off a dressed-basis micro state and serves as its cross-check.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .linalg import NotPSD, hermitian_eigs, partial_trace_q2
from .model import DressedFrame

log = logging.getLogger(__name__)

X_TOL = 1e-10


class AssumptionViolated(Exception):
    pass


def _plog2(x) -> np.ndarray:
    # 0 log 0 := 0; clamp fp dust
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape)
    pos = ~(x <= 0.0)
    xp = x[pos]
    out[pos] = -xp * np.log2(np.minimum(xp, 1.0))
    return out


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

    def valid(self, tol=1e-9, trace_tol=1e-10) -> np.ndarray:
        """Per snapshot: populations sum to 1 and each coherence stays
        within its population bound."""
        total = self.p00 + self.p01 + self.p10 + self.p11
        return ~((np.abs(total - 1.0) > trace_tol)
                 | (np.abs(self.outer) ** 2 > self.p00 * self.p11 + tol)
                 | (np.abs(self.inner) ** 2 > self.p01 * self.p10 + tol))

    def take(self, index) -> XStateElements:
        """The snapshots picked by an index or boolean mask."""
        return XStateElements(self.p00[index], self.p01[index], self.p10[index],
                              self.p11[index], self.outer[index], self.inner[index])

    def matrix(self) -> np.ndarray:
        """The 4x4 matrix of a single state."""
        m = np.zeros((4, 4), dtype=complex)
        m[0, 0], m[1, 1], m[2, 2], m[3, 3] = self.p00, self.p01, self.p10, self.p11
        m[0, 3], m[3, 0] = self.outer, np.conj(self.outer)
        m[1, 2], m[2, 1] = self.inner, np.conj(self.inner)
        return m


def x_elements_from_dressed(rho_dressed: np.ndarray, frame: DressedFrame,
                            tol: float = X_TOL):
    """Computational X elements straight from dressed populations and the
    antisym-sym coherence, for a ``(..., 4, 4)`` stack of dressed states:
    the closed-form oracle of ``x_elements_from_matrix`` on micro states.

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
    return x, ~(np.abs(r[..., 0, 3]) > tol) & x.valid()


def x_elements_from_matrix(rho: np.ndarray, tol: float = X_TOL,
                           trace_tol: float = 1e-10):
    """Read the X elements off a ``(..., 4, 4)`` stack of computational-basis
    matrices; the mask marks the snapshots whose remaining entries really
    vanish and whose elements pass ``XStateElements.valid``."""
    r = np.asarray(rho)
    off = np.abs(r[..., [0, 0, 1, 2], [1, 2, 3, 3]]).max(axis=-1)
    x = XStateElements(
        p00=r[..., 0, 0].real, p01=r[..., 1, 1].real, p10=r[..., 2, 2].real,
        p11=r[..., 3, 3].real, outer=r[..., 0, 3], inner=r[..., 1, 2],
    )
    return x, ~(off > tol) & x.valid(trace_tol=trace_tol)


def concurrence_x(x: XStateElements) -> np.ndarray:
    outer_branch = np.abs(x.outer) - np.sqrt(np.maximum(x.p01 * x.p10, 0.0))
    inner_branch = np.abs(x.inner) - np.sqrt(np.maximum(x.p00 * x.p11, 0.0))
    # neither branch can be -0: |z| is never -0, and |z| - (+-0) is +0 at 0
    return 2.0 * np.maximum(np.maximum(outer_branch, inner_branch), 0.0)


_SYSY = np.zeros((4, 4))
_SYSY[0, 3] = _SYSY[3, 0] = -1.0
_SYSY[1, 2] = _SYSY[2, 1] = 1.0


def concurrence_general(rho):
    """Spin-flip concurrence for arbitrary two-qubit states: one state, or
    each state of a ``(..., 4, 4)`` stack (a single state is a length-1
    call).

    The non-Hermitian product rho * flipped(rho) shares its spectrum with
    sqrt(rho) flipped(rho) sqrt(rho), which is Hermitian, so everything runs
    through the Hermitian eigensolver.  Once the states themselves pass the
    Hermiticity check, the first state that fails decides the error: an
    eigenvalue below -1e-9 (NotPSD) or a spin-flip product that is not
    Hermitian (NotHermitian).
    """
    m = np.asarray(rho, dtype=complex)
    lead = m.shape[:-2]
    m = m.reshape(-1, 4, 4)
    flipped = _SYSY @ m.conj() @ _SYSY
    evals, vecs = hermitian_eigs(m)
    root = ((vecs * np.sqrt(np.clip(evals, 0.0, None))[:, None, :])
            @ vecs.conj().swapaxes(-1, -2))
    product = root @ flipped @ root
    negative = np.flatnonzero(evals[:, 0] < -1e-9)
    if negative.size:
        i = negative[0]
        hermitian_eigs(product[:i])   # an earlier state's failure comes first
        raise NotPSD(f"state eigenvalue {evals[i, 0]:.3e} below tolerance",
                     -evals[i, 0])
    xi, _ = hermitian_eigs(product)
    xi = np.sqrt(np.clip(xi[:, ::-1], 0.0, None))
    c = xi[:, 0] - xi[:, 1] - xi[:, 2] - xi[:, 3]
    # c is -0 when every xi is 0 and the first one -0; np.maximum picks
    # either zero on a tie depending on the numpy build, so clamp by sign
    return np.where(c > 0.0, c, 0.0).reshape(lead)[()]


def von_neumann_entropy(matrix: np.ndarray) -> float:
    """Base-2 entropy of a density matrix (any small dimension)."""
    evals, _ = hermitian_eigs(np.asarray(matrix, dtype=complex))
    if evals[0] < -1e-9:
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
    # dust, as in _plog2
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    out = np.zeros(a.shape)
    pos = ~(a <= 0.0)
    ap = a[pos]
    out[pos] = -ap * np.log2(ap / (ap + np.maximum(b[pos], 0.0)))
    return out


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


def _fibonacci_directions(n: int) -> np.ndarray:
    i = np.arange(n)
    z = 1.0 - (2.0 * i + 1.0) / n
    phi = i * math.pi * (3.0 - math.sqrt(5.0))
    r = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


def _entropy2(m: np.ndarray) -> np.ndarray:
    """Entropies of a ``(..., 2, 2)`` stack of qubit states."""
    tr = (m[..., 0, 0] + m[..., 1, 1]).real
    det = (m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]).real
    disc = np.sqrt(np.maximum(tr * tr - 4.0 * det, 0.0))
    return _plog2(0.5 * (tr + disc)) + _plog2(np.maximum(0.5 * (tr - disc), 0.0))


def discord_oracle_q2(rho, grid_n: int = 256) -> float:
    """Brute-force discord: minimise the conditional entropy of qubit 1 over
    a Fibonacci-sphere grid of projective measurements on qubit 2.

    Upper-bounds the true minimum; tightens as grid_n grows.
    """
    if grid_n < 64:
        raise ValueError("grid_n must be at least 64")
    m = np.asarray(rho, dtype=complex)
    rfold = m.reshape(2, 2, 2, 2)
    rho_q2 = np.einsum('aiaj->ij', rfold)
    s_q2 = von_neumann_entropy(rho_q2)
    s_full = von_neumann_entropy(m)

    nx, ny, nz = _fibonacci_directions(grid_n).T
    ndots = np.array([[nz, nx - 1j * ny], [nx + 1j * ny, -nz]]).transpose(2, 0, 1)
    cond = np.zeros(grid_n)
    for sign in (1.0, -1.0):
        proj = 0.5 * (np.eye(2) + sign * ndots)
        reduced = np.einsum('aibj,gji->gab', rfold, proj)
        p = (reduced[:, 0, 0] + reduced[:, 1, 1]).real
        kept = p >= 1e-14
        cond[kept] += p[kept] * _entropy2(reduced[kept] / p[kept, None, None])
    return s_q2 - s_full + float(cond.min())


def linear_entropy_q1(state):
    """Mixedness of qubit 1: 1 - Tr(rho_q1^2), in [0, 1/2].

    For X elements (one state or an array of snapshots) this reduces to
    2 P0 (1 - P0) with P0 the qubit-1 ground probability; for full states
    (one computational-basis matrix or a ``(..., 4, 4)`` stack of them) the
    partial trace decides.
    """
    if isinstance(state, XStateElements):
        p0 = state.p00 + state.p01
        return 2.0 * p0 * (1.0 - p0)
    reduced = partial_trace_q2(state)
    purity = np.trace(reduced @ reduced, axis1=-2, axis2=-1).real
    return (1.0 - purity)[()]
