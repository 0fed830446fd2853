"""The ad hoc model: local qubit-2 damping bolted onto the coupled dynamics.

Works in the computational basis throughout.  The production generator,
``liouvillian_from_ops``, is assembled from the qubit-2 lowering/raising
operators.  The right-hand side ``phenom_rhs`` is written out element by
element (populations plus the six upper-triangle coherences, lower triangle
mirrored by Hermiticity); its generator ``liouvillian`` is the independent
oracle that ``selftest`` and the tests hold the operator form to.  The
stationary state has closed-form populations and two closed-form
coherences; rotated into the dressed basis it keeps the coherences that
expose its non-thermal character.
"""

from __future__ import annotations

import math

import numpy as np

from . import integrate
from .linalg import UPPER
from .model import DressedFrame, RateSet, SystemParams, hamiltonian


def _upper_rows(r: np.ndarray, p: SystemParams, rates: RateSet) -> np.ndarray:
    # the matrix axes go first, so r[i, j] is entry (i, j) of every matrix
    r = np.moveaxis(r, (-2, -1), (0, 1))
    g = rates.emission_bare
    gb = rates.absorption_bare
    il = 0.5j * p.coupling
    om = p.omega
    half = 0.5 * (g + gb)
    d = np.zeros(r.shape, dtype=complex)

    d[0, 0] = -gb * r[0, 0] + g * r[1, 1] + il * (r[0, 3] - r[3, 0])
    d[1, 1] = gb * r[0, 0] - g * r[1, 1] + il * (r[1, 2] - r[2, 1])
    d[2, 2] = -gb * r[2, 2] + g * r[3, 3] + il * (r[2, 1] - r[1, 2])
    d[3, 3] = gb * r[2, 2] - g * r[3, 3] + il * (r[3, 0] - r[0, 3])

    d[0, 1] = (1j * om - half) * r[0, 1] + il * (r[0, 2] - r[3, 1])
    d[0, 2] = il * r[0, 1] + (1j * om - gb) * r[0, 2] + g * r[1, 3] - il * r[3, 2]
    d[0, 3] = (2j * om - half) * r[0, 3] + il * (r[0, 0] - r[3, 3])
    d[1, 2] = -half * r[1, 2] + il * (r[1, 1] - r[2, 2])
    d[1, 3] = (1j * om - g) * r[1, 3] + gb * r[0, 2] + il * (r[1, 0] - r[2, 3])
    # the coherent feed here is the conjugate ground-sym coherence; the
    # unconjugated one would break Hermiticity of the flow
    d[2, 3] = (1j * om - half) * r[2, 3] + il * (r[2, 0] - r[1, 3])
    return np.moveaxis(d, (0, 1), (-2, -1))


def phenom_rhs(rho: np.ndarray, p: SystemParams, rates: RateSet) -> np.ndarray:
    """Time derivative of the computational-basis density matrix, or of each
    matrix of a ``(..., 4, 4)`` stack.

    Uses the bath rates evaluated at the bare qubit frequency; the coupled
    Hamiltonian enters only through the coherent terms.  Only the diagonal
    and upper-triangle equations are written out; the lower triangle comes
    from d(rho)/dt being Hermitian whenever rho is, expressed through the
    dagger identity so the map stays linear on arbitrary matrices.
    """
    r = np.asarray(rho, dtype=complex)
    d = _upper_rows(r, p, rates)
    mirror = _upper_rows(np.conj(np.swapaxes(r, -1, -2)), p, rates)
    for i, j in UPPER:
        d[..., j, i] = np.conj(mirror[..., i, j])
    return d


def liouvillian(p: SystemParams, rates: RateSet) -> np.ndarray:
    """16x16 generator matrix of phenom_rhs (row-major vec); the oracle for
    ``liouvillian_from_ops``."""
    return integrate.superoperator_from_rhs(lambda m: phenom_rhs(m, p, rates))


def liouvillian_from_ops(p: SystemParams, rates: RateSet) -> np.ndarray:
    """The production generator, assembled from the qubit-2 ladder operators.

    Tests and ``selftest`` pin it against ``liouvillian``, the element-wise
    right-hand side, so neither construction can drift.
    """
    lower = np.zeros((4, 4), dtype=complex)
    lower[0, 1] = 1.0
    lower[2, 3] = 1.0
    return integrate.lindblad(hamiltonian(p), ((rates.emission_bare, lower),
                                               (rates.absorption_bare, lower.conj().T)))


def propagate(rho0: np.ndarray, p: SystemParams, rates: RateSet, times,
              entries) -> np.ndarray:
    """Exact trajectory in the computational basis: the ``(n, k)`` columns
    of ``entries`` (``integrate.propagate`` of the operator-form generator)."""
    return integrate.propagate(liouvillian_from_ops(p, rates), rho0, times,
                               entries)


def steady_state(p: SystemParams, rates: RateSet) -> np.ndarray:
    """Closed-form stationary state (computational basis).

    Nonzero entries: the four populations and the two antidiagonal
    coherences.  Vanishes under phenom_rhs identically.
    """
    g = rates.emission_bare
    gb = rates.absorption_bare
    if g + gb <= 0:
        raise ValueError("stationary state needs a nonzero damping rate")
    # homogeneous of degree 0 in (g, gb, coupling, omega): scaling all four down
    # by a power of two near g + gb is exact and keeps (g + gb)^2 finite
    e = max(math.frexp(g + gb)[1], 0)
    g, gb, lam, om = (math.ldexp(v, -e) for v in (g, gb, p.coupling, p.omega))
    lam2 = lam * lam
    om2 = om * om
    box = (gb + g) ** 2 + 2 * lam2 + 8 * om2
    den = 2 * (gb + g) ** 2 * box
    if den == 0:   # never scaled up: a tiny rate stays tiny
        what = ("(g+gbar)^2" if (gb + g) ** 2 == 0
                else "2 (g+gbar)^2 ((g+gbar)^2 + 2 coupling^2 + 8 omega^2)")
        raise ValueError(f"stationary state needs {what}, which underflows "
                         f"to 0 at the damping rate g+gbar = {g + gb:.3g}")

    p11 = (3 * g ** 3 * gb + g ** 2 * (3 * gb ** 2 + lam2 + 16 * om2)
           + g * (2 * lam2 * gb + gb ** 3) + lam2 * gb ** 2 + g ** 4) / den
    p22 = (g ** 3 * gb + g ** 2 * (3 * gb ** 2 + lam2)
           + g * gb * (3 * gb ** 2 + 2 * (lam2 + 8 * om2))
           + gb ** 2 * (gb ** 2 + lam2)) / den
    p33 = (3 * g ** 3 * gb + g ** 2 * (3 * gb ** 2 + lam2)
           + g * gb * (gb ** 2 + 2 * (lam2 + 8 * om2))
           + lam2 * gb ** 2 + g ** 4) / den
    p44 = (g ** 3 * gb + g ** 2 * (3 * gb ** 2 + lam2)
           + gb ** 2 * (gb ** 2 + lam2 + 16 * om2)
           + g * (2 * lam2 * gb + 3 * gb ** 3)) / den
    c_inner = 1j * lam * (gb - g) / (2 * box)
    # the real part's sign follows from stationarity of the outer-coherence
    # equation: (2i om - (g+gb)/2) c_outer + i lam (p11 - p44)/2 = 0
    c_outer = (2 * lam * om * (gb - g) / ((gb + g) * box)
               + 1j * lam * (g - gb) / (2 * box))

    out = np.zeros((4, 4), dtype=complex)
    out[0, 0], out[1, 1], out[2, 2], out[3, 3] = p11, p22, p33, p44
    out[1, 2] = c_inner
    out[2, 1] = np.conj(c_inner)
    out[0, 3] = c_outer
    out[3, 0] = np.conj(c_outer)
    return out


def steady_state_dressed(p: SystemParams, rates: RateSet,
                         frame: DressedFrame) -> np.ndarray:
    """Stationary state rotated into the dressed basis.

    Its surviving ground-top and antisym-sym coherences are what certify
    that this state is not thermal.
    """
    return frame.to_dressed(steady_state(p, rates))
