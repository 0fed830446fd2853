"""Dressed-basis master equation: closed-form solution and its cross-check.

The bath exchanges quanta at the two Bohr frequencies, so the dressed ladder
is two independent two-level channels; ``propagate_analytic``, the
production route, is the product of their closed forms.  ``liouvillian``
assembles the same generator from first principles (jump operators built
numerically from the eigenvectors, detailed-balance-weighted reverse
channels included); integrated with ``integrate.propagate`` it is the
independent oracle that ``selftest`` and the tests hold the closed forms to.
"""

from __future__ import annotations

import math

import numpy as np

from . import integrate
from .linalg import ROUNDING_TOL, THERMAL_TOL, columns, width
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
    to a traceless one, and so does the commutator.  The Hamiltonian is the
    dressed energies less omega, which leaves the commutator unchanged but
    keeps the antisym-sym frequency the coupling itself.
    """
    half = 0.5 * (frame.bohr_low + frame.bohr_high)
    h = np.diag(np.array([-half, -0.5 * frame.gap, 0.5 * frame.gap, half],
                         dtype=complex))
    low, high = jump_operators(frame)
    return integrate.lindblad(h, [(rates.emission_low, low),
                                  (rates.emission_high, high),
                                  (rates.absorption_low, low.conj().T),
                                  (rates.absorption_high, high.conj().T)])


def propagate_analytic(rho0: np.ndarray, rates: RateSet, frame: DressedFrame,
                       times) -> np.ndarray:
    """Closed-form dressed-basis evolution on a time grid, as the ``(n, k)``
    coordinates of ``linalg.MAP``, ``k`` the ``linalg.width`` of ``rho0``'s.

    State k = 2h + l holds l = k % 2 quanta of the low channel
    (ground-antisym, sym-top) and h = k // 2 of the high one (ground-sym,
    antisym-top); the channels relax independently.  One with down rate c
    and up rate e, s = c + e, moves ``f (c p_up - e p_down)`` of population
    down, ``f = (1 - exp(-s t)) / s`` (t for a frozen channel, s = 0).  A
    coherence across one channel decays at half its sum and is carried by
    the other's map (the low map with the signs of the low jump operator's
    elements); one across both decays at half of both sums.  Every phase is
    a product of ``exp(i bohr_low t)`` and ``exp(i gap t)``.
    """
    t = np.atleast_1d(np.asarray(times, dtype=float))
    if np.any(t < 0):
        raise ValueError("times must be non-negative")
    rho0 = np.asarray(rho0, dtype=complex)
    n_cols = width(columns(rho0))

    cl, el = rates.decay_low, rates.excitation_low
    ch, eh = rates.decay_high, rates.excitation_high
    s_low, s_high = channel_sums(rates)
    out = np.empty((len(t), n_cols))
    # overflowing rates, and phases past the double range, make inf and nan
    # here; validation reports the non-finite snapshots (NotFinite), so numpy
    # need not warn first
    with np.errstate(over="ignore", invalid="ignore"):
        f_low, f_high = (np.divide(-np.expm1(-s * t), s, out=t.copy(), where=s != 0)
                         for s in (s_low, s_high))
        # low[h][l]: the population of state 2h + l after the low channel
        p = rho0.diagonal().real
        low = [_move(f_low, cl, el, p[k], p[k + 1]) for k in (0, 2)]
        for l in (0, 1):
            out[:, l], out[:, l + 2] = _move(f_high, ch, eh, low[0][l], low[1][l])

        phase_low = np.exp(1j * frame.bohr_low * t)
        phase_gap = np.exp(1j * frame.gap * t)
        decay_low, decay_high = np.exp(-0.5 * s_low * t), np.exp(-0.5 * s_high * t)
        both = decay_low * decay_high
        # in the order of linalg.UPPER; the four channel coherences are off-X
        coherences = [_fade(phase_low * phase_low * phase_gap, both) * rho0[0, 3],
                      _fade(phase_gap, both) * rho0[1, 2]]
        if n_cols == 16:
            pre_low = _fade(phase_low, decay_low)
            ab, cd = _move(f_high, ch, eh, rho0[0, 1], rho0[2, 3])
            pre_high = _fade(phase_low * phase_gap, decay_high)
            ac, bd = _move(f_low, cl, el, rho0[0, 2], -rho0[1, 3])
            coherences += [pre_low * ab, pre_high * ac, -pre_high * bd, pre_low * cd]
        out[:, 4:] = np.stack(coherences, axis=-1).view(float)   # Re, Im of each
    return out


def _move(f, c, e, down, up):
    """A channel's map on ``(down, up)``: ``f (c up - e down)`` moves down."""
    flow = f * (c * up - e * down)
    return down + flow, up - flow


def _fade(phase, decay):
    """``phase * decay``; 0, not nan, where the phase is past the double
    range but the decay is already exactly 0."""
    out = phase * decay
    out[decay == 0.0] = 0.0
    return out


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
