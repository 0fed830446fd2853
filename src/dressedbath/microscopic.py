"""Dressed-basis master equation: closed-form solution and its cross-check.

The dissipator couples dressed populations through two emission/absorption
channels and lets each coherence evolve independently or in one of two
2x2 blocks.  That structure admits closed-form solutions, implemented in
``propagate_analytic``, the production route.  ``liouvillian`` assembles
the same generator from first principles (jump operators built numerically
from the eigenvectors, detailed-balance-weighted reverse channels included);
integrated with ``integrate.propagate`` it is the independent oracle that
``selftest`` and the tests hold the closed forms to.

All states in this module are 4x4 complex matrices in the dressed basis.
"""

from __future__ import annotations

import math

import numpy as np

from . import integrate
from .linalg import ROUNDING_TOL, THERMAL_TOL, UPPER
from .model import KB_OVER_HBAR, DressedFrame, RateSet, SystemParams


class DegenerateRates(Exception):
    pass


def channel_sums(rates: RateSet):
    """Total relaxation rate of the low and of the high dressed channel."""
    s_low = rates.decay_low + rates.excitation_low
    s_high = rates.decay_high + rates.excitation_high
    return s_low, s_high


def qubit2_x_dressed(frame: DressedFrame) -> np.ndarray:
    """Qubit-2 x operator rotated into the dressed basis."""
    sx2 = np.zeros((4, 4), dtype=complex)
    sx2[0, 1] = sx2[1, 0] = 1.0
    sx2[2, 3] = sx2[3, 2] = 1.0
    return frame.to_dressed(sx2)


def jump_operators(frame: DressedFrame):
    """The two downward jump operators, one per Bohr frequency.

    Matrix elements are read off the rotated coupling operator rather than
    taken from closed-form amplitudes, so this path stays independent of
    the analytic solution it is used to validate.
    """
    sx = qubit2_x_dressed(frame)
    low = np.zeros((4, 4), dtype=complex)
    low[0, 1] = sx[0, 1]   # antisym -> ground
    low[2, 3] = sx[2, 3]   # top -> sym
    high = np.zeros((4, 4), dtype=complex)
    high[0, 2] = sx[0, 2]  # sym -> ground
    high[1, 3] = sx[1, 3]  # top -> antisym
    return low, high


def liouvillian(rates: RateSet, frame: DressedFrame) -> np.ndarray:
    """Full generator (16x16, row-major vec) in the dressed basis.

    Trace-annihilating by construction: every Lindblad term maps any matrix
    to a traceless one, and so does the commutator.
    """
    h = np.diag(np.asarray(frame.energies, dtype=complex))
    low, high = jump_operators(frame)
    return integrate.lindblad(h, [(rates.emission_low, low),
                                  (rates.emission_high, high),
                                  (rates.absorption_low, low.conj().T),
                                  (rates.absorption_high, high.conj().T)])


def propagate_analytic(rho0: np.ndarray, rates: RateSet, frame: DressedFrame,
                       times) -> np.ndarray:
    """Closed-form dressed-basis evolution on an arbitrary time grid.

    Populations relax through the two channels; the ground-antisym and
    sym-top coherences mix pairwise, the remaining two just rotate and
    decay.  With both channel rates zero the evolution is purely unitary
    (frozen populations, rotating coherences); a single vanishing channel
    has no closed form here and raises DegenerateRates.
    """
    t = np.atleast_1d(np.asarray(times, dtype=float))
    scalar = np.isscalar(times) or getattr(times, "ndim", 1) == 0
    if np.any(t < 0):
        raise ValueError("times must be non-negative")
    rho0 = np.asarray(rho0, dtype=complex)

    s1, s2 = channel_sums(rates)
    if s1 == 0.0 and s2 == 0.0:
        out = _unitary_branch(rho0, frame, t)
        return out[0] if scalar else out
    if s1 == 0.0 or s2 == 0.0:
        raise DegenerateRates("one relaxation channel is frozen; "
                              "no closed form for this case")

    # overflowing rates make inf and nan here; validation reports the
    # non-finite snapshots (NotFinite), so numpy need not warn first
    with np.errstate(over="ignore", invalid="ignore"):
        cl, ch = rates.decay_low, rates.decay_high
        el, eh = rates.excitation_low, rates.excitation_high
        k = s1 * s2
        e1 = np.exp(-s1 * t)
        e2 = np.exp(-s2 * t)
        e12 = e1 * e2
        pa, pb, pc, pd = (rho0[i, i].real for i in range(4))

        out = np.zeros((len(t), 4, 4), dtype=complex)
        out[:, 0, 0] = (cl * ch
                        + e1 * (el * ch * (pa + pc) - cl * ch * (pb + pd))
                        + e2 * (cl * eh * (pa + pb) - cl * ch * (pc + pd))
                        + e12 * (el * eh * pa - cl * eh * pb - el * ch * pc + cl * ch * pd)) / k
        out[:, 1, 1] = (el * ch
                        + e1 * (-el * ch * (pa + pc) + cl * ch * (pb + pd))
                        + e2 * (el * eh * (pa + pb) - el * ch * (pc + pd))
                        + e12 * (-el * eh * pa + cl * eh * pb + el * ch * pc - cl * ch * pd)) / k
        out[:, 2, 2] = (cl * eh
                        + e1 * (el * eh * (pa + pc) - cl * eh * (pb + pd))
                        + e2 * (-cl * eh * (pa + pb) + cl * ch * (pc + pd))
                        + e12 * (-el * eh * pa + cl * eh * pb + el * ch * pc - cl * ch * pd)) / k
        out[:, 3, 3] = (el * eh
                        + e1 * (-el * eh * (pa + pc) + cl * eh * (pb + pd))
                        + e2 * (-el * eh * (pa + pb) + el * ch * (pc + pd))
                        + e12 * (el * eh * pa - cl * eh * pb - el * ch * pc + cl * ch * pd)) / k

        w_low, w_high = frame.bohr_low, frame.bohr_high
        splitting = w_low + w_high
        half_total = 0.5 * (s1 + s2)

        ab0, cd0 = rho0[0, 1], rho0[2, 3]
        ac0, bd0 = rho0[0, 2], rho0[1, 3]
        # an X-shaped start has none of these four coherences: they stay +0
        if ab0 != 0 or cd0 != 0 or ac0 != 0 or bd0 != 0:
            pre_low = _decaying_phase(w_low, 0.5 * s1, t) / s2
            out[:, 0, 1] = pre_low * ((ch + e2 * eh) * ab0 + (1.0 - e2) * ch * cd0)
            out[:, 2, 3] = pre_low * ((1.0 - e2) * eh * ab0 + (eh + e2 * ch) * cd0)
            pre_high = _decaying_phase(w_high, 0.5 * s2, t) / s1
            out[:, 0, 2] = pre_high * ((cl + e1 * el) * ac0 - (1.0 - e1) * cl * bd0)
            out[:, 1, 3] = pre_high * (-(1.0 - e1) * el * ac0 + (el + e1 * cl) * bd0)
        out[:, 0, 3] = _decaying_phase(splitting, half_total, t) * rho0[0, 3]
        out[:, 1, 2] = _decaying_phase(w_high - w_low, half_total, t) * rho0[1, 2]

    for i, j in UPPER:
        out[:, j, i] = np.conj(out[:, i, j])
    return out[0] if scalar else out


def _decaying_phase(freq, rate, t):
    """``exp((1j freq - rate) t)``; 0, not nan, where ``freq t`` is past the
    double range but the decay ``exp(-rate t)`` is already exactly 0."""
    out = np.exp((1j * freq - rate) * t)
    bad = np.flatnonzero(~np.isfinite(out))
    out[bad[np.exp(-rate * t[bad]) == 0.0]] = 0.0
    return out


def _unitary_branch(rho0, frame, t):
    e = np.asarray(frame.energies, dtype=float)
    # a phase past the double range is nan, which validation reports (NotFinite)
    with np.errstate(over="ignore", invalid="ignore"):
        phases = np.exp(-1j * np.subtract.outer(e, e)[None, :, :] * t[:, None, None])
    return phases * rho0[None, :, :]


def steady_state(rates: RateSet) -> np.ndarray:
    """Stationary dressed-basis state from the channel rate ratios."""
    s1, s2 = channel_sums(rates)
    if s1 == 0.0 or s2 == 0.0:
        raise DegenerateRates("stationary state undefined without both channels")
    # each channel's rates enter only as ratios to its own sum; scaling a
    # channel by a power of two is exact and keeps the products finite
    lo, hi = -math.frexp(s1)[1], -math.frexp(s2)[1]
    cl, el, s1 = (math.ldexp(r, lo) for r in (rates.decay_low, rates.excitation_low, s1))
    ch, eh, s2 = (math.ldexp(r, hi) for r in (rates.decay_high, rates.excitation_high, s2))
    pops = np.array([cl * ch, el * ch, cl * eh, el * eh]) / (s1 * s2)
    return np.diag(pops).astype(complex)


def gibbs_state(frame: DressedFrame, temperature: float) -> np.ndarray:
    """Thermal state over the dressed energies; the second, independent route
    to the stationary state."""
    if temperature == 0:
        pops = np.array([1.0, 0.0, 0.0, 0.0])
    else:
        # energies above the ground state from the Bohr frequencies: the
        # differences of ``frame.energies`` cancel when coupling >> omega
        e = np.array([0.0, frame.bohr_low, frame.bohr_high,
                      frame.bohr_low + frame.bohr_high])
        # a cold enough bath overflows e / kT to inf, and exp(-inf) = 0 is right
        with np.errstate(over="ignore"):
            w = np.exp(-e / (KB_OVER_HBAR * temperature))
        pops = w / w.sum()
    return np.diag(pops).astype(complex)


def thermal_stationarity(p: SystemParams, rates: RateSet, frame: DressedFrame,
                         generator: np.ndarray):
    """Whether the rate-ratio stationary state is the Gibbs state at
    ``p.temperature`` and ``generator`` annihilates it: ``selftest``'s check.

    Returns the verdict and the largest entry of the generator residual.
    """
    ss = steady_state(rates)
    residual = np.abs(generator @ ss.reshape(-1)).max()
    # the dissipator scales with the channel sums, which a hot bath lifts
    # far above gamma0
    thermal = (np.abs(ss - gibbs_state(frame, p.temperature)).max() <= THERMAL_TOL
               and residual <= ROUNDING_TOL * max(channel_sums(rates)))
    return thermal, residual
