"""Entanglement and correlation measures for the two-qubit states.

Concurrence comes in two routes: the general spin-flip construction valid
for any state, and the short form for X-shaped states (only diagonal and
antidiagonal entries populated), which is what both master equations
produce from the |1,0> start.  Quantum discord is measured on qubit 2 and
evaluated through the closed-form two-qubit approximation; a brute-force
grid minimisation over projective measurements backs it in the tests.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .linalg import (COMPUTATIONAL, DensityMatrix, NotPSD, hermitian_eigs,
                     partial_trace_q2)
from .model import DressedFrame

log = logging.getLogger(__name__)

X_TOL = 1e-10


class AssumptionViolated(Exception):
    pass


def _plog2(x: float) -> float:
    # 0 log 0 := 0; clamp fp dust
    if x <= 0.0:
        return 0.0
    return -x * math.log2(min(x, 1.0))


def binary_entropy(x: float) -> float:
    x = min(max(x, 0.0), 1.0)
    return _plog2(x) + _plog2(1.0 - x)


@dataclass(frozen=True)
class XStateElements:
    """The six entries of an X-shaped computational-basis density matrix.

    Populations p00..p11 follow the |qubit1,qubit2> labels; ``outer`` is the
    |0,0><1,1| coherence and ``inner`` the |0,1><1,0| one.
    """

    p00: float
    p01: float
    p10: float
    p11: float
    outer: complex
    inner: complex

    def validate(self, tol=1e-9, trace_tol=1e-10):
        total = self.p00 + self.p01 + self.p10 + self.p11
        if abs(total - 1.0) > trace_tol:
            raise AssumptionViolated(f"X populations sum to {total}, not 1")
        if abs(self.outer) ** 2 > self.p00 * self.p11 + tol:
            raise AssumptionViolated("outer coherence exceeds its population bound")
        if abs(self.inner) ** 2 > self.p01 * self.p10 + tol:
            raise AssumptionViolated("inner coherence exceeds its population bound")
        return self

    def matrix(self) -> np.ndarray:
        m = np.zeros((4, 4), dtype=complex)
        m[0, 0], m[1, 1], m[2, 2], m[3, 3] = self.p00, self.p01, self.p10, self.p11
        m[0, 3], m[3, 0] = self.outer, np.conj(self.outer)
        m[1, 2], m[2, 1] = self.inner, np.conj(self.inner)
        return m


def x_elements_from_dressed(rho_dressed: np.ndarray, frame: DressedFrame,
                            tol: float = X_TOL) -> XStateElements:
    """Computational X elements straight from dressed populations and the
    antisym-sym coherence.

    Valid only while the ground-top dressed coherence vanishes; otherwise it
    would leak into the populations and the outer coherence, so we refuse
    and the caller falls back to a full basis change.
    """
    r = np.asarray(rho_dressed)
    if abs(r[0, 3]) > tol:
        raise AssumptionViolated(
            f"ground-top coherence {abs(r[0, 3]):.3e} exceeds {tol:g}; "
            "use a full basis change instead")
    pa, pb, pc, pd = (r[i, i].real for i in range(4))
    bc = r[1, 2]
    ap, am = frame.mix_plus, frame.mix_minus
    return XStateElements(
        p00=ap ** 2 * pa + am ** 2 * pd,
        p01=0.5 * (pb + pc) - bc.real,
        p10=0.5 * (pb + pc) + bc.real,
        p11=am ** 2 * pa + ap ** 2 * pd,
        outer=ap * am * (pd - pa),
        inner=complex(0.5 * (pc - pb), -bc.imag),
    ).validate()


def x_elements_from_matrix(rho: np.ndarray, tol: float = X_TOL,
                           trace_tol: float = 1e-10) -> XStateElements:
    """Read the X elements off a computational-basis matrix, insisting the
    remaining entries really vanish."""
    r = np.asarray(rho)
    off = max(abs(r[0, 1]), abs(r[0, 2]), abs(r[1, 3]), abs(r[2, 3]))
    if off > tol:
        raise AssumptionViolated(f"matrix is not X-shaped (stray entry {off:.3e})")
    return XStateElements(
        p00=r[0, 0].real, p01=r[1, 1].real, p10=r[2, 2].real, p11=r[3, 3].real,
        outer=r[0, 3], inner=r[1, 2],
    ).validate(trace_tol=trace_tol)


def concurrence_x(x: XStateElements) -> float:
    outer_branch = abs(x.outer) - math.sqrt(max(x.p01 * x.p10, 0.0))
    inner_branch = abs(x.inner) - math.sqrt(max(x.p00 * x.p11, 0.0))
    return 2.0 * max(0.0, outer_branch, inner_branch)


_SYSY = np.zeros((4, 4))
_SYSY[0, 3] = _SYSY[3, 0] = -1.0
_SYSY[1, 2] = _SYSY[2, 1] = 1.0


def concurrence_general(rho: DensityMatrix | np.ndarray) -> float:
    """Spin-flip concurrence for an arbitrary two-qubit state.

    The non-Hermitian product rho * flipped(rho) shares its spectrum with
    sqrt(rho) flipped(rho) sqrt(rho), which is Hermitian, so everything runs
    through the Hermitian eigensolver.
    """
    m = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    if isinstance(rho, DensityMatrix) and rho.basis != COMPUTATIONAL:
        raise ValueError("concurrence needs the computational basis")
    flipped = _SYSY @ m.conj() @ _SYSY
    evals, vecs = hermitian_eigs(m)
    if evals[0] < -1e-9:
        raise NotPSD(f"state eigenvalue {evals[0]:.3e} below tolerance", -evals[0])
    root = (vecs * np.sqrt(np.clip(evals, 0.0, None))) @ vecs.conj().T
    xi, _ = hermitian_eigs(root @ flipped @ root)
    xi = np.sqrt(np.clip(xi[::-1], 0.0, None))
    return float(max(0.0, xi[0] - xi[1] - xi[2] - xi[3]))


def von_neumann_entropy(matrix: np.ndarray) -> float:
    """Base-2 entropy of a density matrix (any small dimension)."""
    evals, _ = hermitian_eigs(np.asarray(matrix, dtype=complex))
    if evals[0] < -1e-9:
        raise NotPSD(f"entropy of a non-positive matrix ({evals[0]:.3e})", -evals[0])
    return float(sum(_plog2(v) for v in np.clip(evals, 0.0, 1.0)))


def _x_spectrum(x: XStateElements):
    # the two 2x2 blocks of an X matrix diagonalise independently
    r_outer = math.sqrt((x.p00 - x.p11) ** 2 + 4.0 * abs(x.outer) ** 2)
    r_inner = math.sqrt((x.p01 - x.p10) ** 2 + 4.0 * abs(x.inner) ** 2)
    return (0.5 * (x.p00 + x.p11 + r_outer), 0.5 * (x.p00 + x.p11 - r_outer),
            0.5 * (x.p01 + x.p10 + r_inner), 0.5 * (x.p01 + x.p10 - r_inner))


def discord_approx_q2(x: XStateElements) -> float:
    """Closed-form approximation of the qubit-2-measured quantum discord.

    Slightly negative outputs are possible for an approximation; they are
    clamped to zero and logged, never silently produced.
    """
    s_q2 = _plog2(x.p00 + x.p10) + _plog2(x.p01 + x.p11)
    s_full = sum(_plog2(max(v, 0.0)) for v in _x_spectrum(x))
    y = 0.5 * (1.0 + math.sqrt((x.p00 - x.p11 + x.p01 - x.p10) ** 2
                               + 4.0 * (abs(x.outer) + abs(x.inner)) ** 2))
    n1 = binary_entropy(y)

    def ratio_term(a, b):
        if a <= 0.0:
            return 0.0
        # a negative b is floating-point dust, as in _plog2
        return -a * math.log2(a / (a + max(b, 0.0)))

    n2 = (ratio_term(x.p00, x.p10) + ratio_term(x.p01, x.p11)
          + ratio_term(x.p10, x.p00) + ratio_term(x.p11, x.p01))
    value = s_q2 - s_full + min(n1, n2)
    if value < 0.0:
        if value < -1e-9:
            log.warning("approximate discord clamped from %.3e to 0", value)
        value = 0.0
    return value


def _fibonacci_directions(n: int) -> np.ndarray:
    i = np.arange(n)
    z = 1.0 - (2.0 * i + 1.0) / n
    phi = i * math.pi * (3.0 - math.sqrt(5.0))
    r = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


def _entropy2(m: np.ndarray) -> float:
    tr = (m[0, 0] + m[1, 1]).real
    det = (m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]).real
    disc = math.sqrt(max(tr * tr - 4.0 * det, 0.0))
    return _plog2(0.5 * (tr + disc)) + _plog2(max(0.5 * (tr - disc), 0.0))


def discord_oracle_q2(rho: DensityMatrix | np.ndarray, grid_n: int = 256) -> float:
    """Brute-force discord: minimise the conditional entropy of qubit 1 over
    a Fibonacci-sphere grid of projective measurements on qubit 2.

    Upper-bounds the true minimum; tightens as grid_n grows.
    """
    if grid_n < 64:
        raise ValueError("grid_n must be at least 64")
    m = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    rfold = m.reshape(2, 2, 2, 2)
    rho_q2 = np.einsum('aiaj->ij', rfold)
    s_q2 = von_neumann_entropy(rho_q2)
    s_full = von_neumann_entropy(m)

    best = math.inf
    eye2 = np.eye(2, dtype=complex)
    for nx, ny, nz in _fibonacci_directions(grid_n):
        ndots = np.array([[nz, nx - 1j * ny], [nx + 1j * ny, -nz]])
        cond = 0.0
        for sign in (1.0, -1.0):
            proj = 0.5 * (eye2 + sign * ndots)
            reduced = np.einsum('aibj,ji->ab', rfold, proj)
            p = (reduced[0, 0] + reduced[1, 1]).real
            if p < 1e-14:
                continue
            cond += p * _entropy2(reduced / p)
        best = min(best, cond)
    return s_q2 - s_full + best


def linear_entropy_q1(state: DensityMatrix | XStateElements) -> float:
    """Mixedness of qubit 1: 1 - Tr(rho_q1^2), in [0, 1/2].

    For X elements this reduces to 2 P0 (1 - P0) with P0 the qubit-1
    ground probability; for a full state the partial trace decides.
    """
    if isinstance(state, XStateElements):
        p0 = state.p00 + state.p01
        return 2.0 * p0 * (1.0 - p0)
    reduced = partial_trace_q2(state)
    purity = np.trace(reduced @ reduced).real
    return float(1.0 - purity)
