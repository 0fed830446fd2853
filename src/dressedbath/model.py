"""Two resonant dipole-coupled qubits, one of them touching a thermal bath.

The coupled Hamiltonian (units of hbar, frequencies in 1/s) keeps the
counter-rotating terms, so its eigenstates mix |0,0> with |1,1>:

  ground:  mix_plus |0,0> - mix_minus |1,1>
  antisym: (|1,0> - |0,1>) / sqrt(2)
  sym:     (|1,0> + |0,1>) / sqrt(2)
  top:     mix_minus |0,0> + mix_plus |1,1>

The bath couples through the x operator of qubit 2 and exchanges quanta at
the two transition (Bohr) frequencies of this ladder.  Downward rates follow
a Lorentzian spectral density times (1 + nbar); upward rates are tied to
them by detailed balance, gamma_up = exp(-w / (kB/hbar T)) * gamma_down.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, fields

import numpy as np

from .linalg import UPPER

# Boltzmann constant over hbar; converts Kelvin to 1/s.
KB_OVER_HBAR = 1.309193e11
# hottest bath whose kB T / hbar is a finite double (about 1.37e297 K)
MAX_TEMPERATURE = sys.float_info.max / KB_OVER_HBAR
# largest frequency magnitude, so that squares of frequencies stay finite;
# omega must be at least its inverse, so that omega squared stays nonzero
MAX_FREQUENCY = 1e150


class NonPositiveFrequency(ValueError):
    pass


@dataclass(frozen=True)
class SystemParams:
    """Physical inputs: all frequencies and rates in 1/s, temperature in K."""

    omega: float          # qubit frequency (both qubits, resonant)
    coupling: float       # qubit-qubit coupling strength
    gamma0: float         # single-qubit decay rate (spectral-density peak)
    bath_width: float     # Lorentzian half-width
    bath_center: float    # Lorentzian center frequency
    temperature: float    # bath temperature

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
        for name in ("omega", "coupling", "bath_width", "bath_center"):
            if abs(getattr(self, name)) > MAX_FREQUENCY:
                raise ValueError(f"{name} must be at most {MAX_FREQUENCY:g} 1/s "
                                 f"in magnitude, got {getattr(self, name):g}")
        if not self.omega >= 1 / MAX_FREQUENCY:
            raise ValueError(f"omega must be at least {1 / MAX_FREQUENCY:g} 1/s, "
                             f"got {self.omega:g}")
        if not self.bath_width > 0:
            raise ValueError("bath_width must be positive")
        for name in ("gamma0", "coupling", "temperature"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if not math.isfinite(KB_OVER_HBAR * self.temperature):
            raise ValueError(f"temperature must be below {MAX_TEMPERATURE:.3g} K, "
                             f"got {self.temperature:g}")


@dataclass(frozen=True)
class DressedFrame:
    """Eigen-structure of the coupled pair.

    ``energies`` ascend (ground, antisym, sym, top).  ``unitary`` columns are
    the dressed states in computational coordinates, in that order.
    ``amp_low``/``amp_high`` are the qubit-2 x-operator matrix elements
    between dressed states split by ``bohr_low``/``bohr_high``; ``amp_low``
    carries its natural negative sign.  ``gap``, the antisym-sym splitting,
    is the coupling: ``bohr_high - bohr_low`` in exact arithmetic, whose
    double difference loses about eps 2 omega / coupling of it.
    """

    energies: tuple
    mix_plus: float
    mix_minus: float
    amp_low: float
    amp_high: float
    bohr_low: float
    bohr_high: float
    gap: float
    unitary: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.unitary, dtype=complex)
        u.setflags(write=False)
        object.__setattr__(self, "unitary", u)

    def to_dressed(self, m) -> np.ndarray:
        """``U^dagger m U``: a computational-basis matrix, or each matrix of
        a ``(..., 4, 4)`` stack, in the dressed basis."""
        u = self.unitary
        return u.conj().T @ m @ u

    def to_computational_columns(self, d) -> np.ndarray:
        """``U d U^T`` (U is real) as ``(..., k)`` coordinates, from the
        dressed ``d`` at them (the basis change keeps a matrix X-shaped): the
        real map of ``U . U^T`` as fixed-order elementwise sums over its
        nonzero coefficients, so the result does not depend on BLAS."""
        out = np.zeros(d.shape)
        for n, terms in enumerate(self._real_map[:d.shape[-1]]):
            for m, c in terms:
                out[..., n] += c * d[..., m]
        return out

    @functools.cached_property
    def _real_map(self):
        """Per output coordinate, its ``(input coordinate, nonzero coefficient)``
        pairs, from its terms in ``_TERMS``."""
        u = self.unitary.real.tolist()
        return [[(m, c) for m in terms if (c := _coefficient(u, out, _COORDS[m]))]
                for out, terms in zip(_COORDS, _TERMS)]


# each coordinate as (i, j, sign): a population or Re of entry (i, j), whose
# mirror has the same value (+1), or its Im, whose mirror's is the negative (-1)
_COORDS = [(i, i, 1.0) for i in range(4)] + [(i, j, s) for i, j in UPPER for s in (1.0, -1.0)]


def _coefficient(u, out, term):
    """The coefficient of input coordinate ``term`` in output coordinate
    ``out`` of the real map of ``U . U^T``, for the real unitary ``u`` as
    nested lists."""
    (i, l, _), (j, k, t) = out, term
    return u[i][j] * u[l][k] + (t * u[i][k] * u[l][j] if j != k else 0.0)


# per output coordinate, the input coordinates of its terms that no unitary of
# dressed_frame's shape zeroes identically, 51 in all: those with a nonzero
# coefficient on a generic one (u . u^T maps Re and Im apart)
_R = math.sqrt(0.5)
_TERMS = [[m for m, term in enumerate(_COORDS) if term[2] == out[2] and _coefficient(
               [[0.8, 0, 0, 0.6], [0, -_R, _R, 0], [0, _R, _R, 0], [-0.6, 0, 0, 0.8]], out, term)]
          for out in _COORDS]


@dataclass(frozen=True)
class RateSet:
    """Bath rates for both models.

    emission_*/absorption_* are the bare bath rates at the two Bohr
    frequencies; decay_*/excitation_* fold in the squared transition
    amplitudes and are what the dressed-basis master equation uses.
    emission_bare/absorption_bare evaluate the same expressions at the
    uncoupled qubit frequency, for the phenomenological model.
    """

    emission_low: float
    emission_high: float
    absorption_low: float
    absorption_high: float
    decay_low: float
    decay_high: float
    excitation_low: float
    excitation_high: float
    emission_bare: float
    absorption_bare: float


def hamiltonian(p: SystemParams) -> np.ndarray:
    """Coupled two-qubit Hamiltonian in the computational basis."""
    half = p.coupling / 2.0
    h = np.zeros((4, 4), dtype=complex)
    h[1, 1] = p.omega
    h[2, 2] = p.omega
    h[3, 3] = 2.0 * p.omega
    h[1, 2] = h[2, 1] = half      # excitation exchange
    h[0, 3] = h[3, 0] = half      # counter-rotating pair terms
    return h


def dressed_frame(p: SystemParams) -> DressedFrame:
    splitting = math.hypot(p.coupling, 2.0 * p.omega)
    ratio = 2.0 * p.omega / splitting
    # 1 - ratio = coupling^2 / (splitting (splitting + 2 omega)); the direct
    # subtraction underflows for weak coupling
    one_minus = p.coupling ** 2 / (splitting * (splitting + 2.0 * p.omega))
    mix_plus = math.sqrt(0.5 * (1.0 + ratio))
    mix_minus = math.sqrt(0.5 * one_minus)
    amp_low = -0.5 * (math.sqrt(1.0 + ratio) + math.sqrt(one_minus))
    amp_high = 0.5 * (math.sqrt(1.0 + ratio) - math.sqrt(one_minus))

    energies = (p.omega - splitting / 2.0,
                p.omega - p.coupling / 2.0,
                p.omega + p.coupling / 2.0,
                p.omega + splitting / 2.0)

    s = 1.0 / math.sqrt(2.0)
    unitary = np.array([
        [mix_plus, 0.0, 0.0, mix_minus],
        [0.0, -s, s, 0.0],
        [0.0, s, s, 0.0],
        [-mix_minus, 0.0, 0.0, mix_plus],
    ], dtype=complex)

    bohr_high = (splitting + p.coupling) / 2.0
    # (splitting - coupling)/2 rewritten to dodge the same cancellation;
    # keeps the product of the two transition frequencies at omega^2
    bohr_low = p.omega ** 2 / bohr_high
    if bohr_low == 0:
        raise ValueError(f"the low Bohr frequency, omega^2 over the high one, underflows "
                         f"to 0 at omega = {p.omega:g}, coupling = {p.coupling:g}")
    return DressedFrame(energies, mix_plus, mix_minus, amp_low, amp_high,
                        bohr_low, bohr_high, p.coupling, unitary)


def spectral_density(p: SystemParams, freq: float) -> float:
    """Lorentzian bath coupling profile, peak value gamma0."""
    den = (freq - p.bath_center) ** 2 + p.bath_width ** 2
    num = p.gamma0 * p.bath_width ** 2
    if den == 0 or num == math.inf:   # an under- or overflow: divide by the width first
        r = (freq - p.bath_center) / p.bath_width
        return p.gamma0 / (r * r + 1.0)
    return num / den


def thermal_occupancy(freq: float, temperature: float) -> float:
    """Mean photon number of the bath mode at ``freq``; 0 at T = 0 exactly."""
    if freq <= 0:
        raise NonPositiveFrequency(f"occupancy needs a positive frequency, got {freq}")
    if temperature == 0:
        return 0.0
    x = freq / (KB_OVER_HBAR * temperature)
    if x == 0:   # so hot a bath that the occupancy, about 1/x, overflows
        return math.inf
    try:
        return 1.0 / math.expm1(x)
    except OverflowError:
        # a cold bath: past x ~ 709.8 the occupancy is exp(-x) to double
        # precision, which underflows to 0 instead of raising
        return math.exp(-x)


def _boltzmann(freq: float, temperature: float) -> float:
    if temperature == 0:
        return 0.0
    return math.exp(-freq / (KB_OVER_HBAR * temperature))


def rate_set(p: SystemParams, frame: DressedFrame | None = None) -> RateSet:
    """All bath rates for the given parameters.

    Detailed balance holds by construction: every absorption rate is its
    emission partner scaled by the Boltzmann factor of its frequency.
    """
    if frame is None:
        frame = dressed_frame(p)
    t = p.temperature

    def pair(freq):
        down = spectral_density(p, freq) * (1.0 + thermal_occupancy(freq, t))
        return down, down * _boltzmann(freq, t)

    em_low, ab_low = pair(frame.bohr_low)
    em_high, ab_high = pair(frame.bohr_high)
    em_bare, ab_bare = pair(p.omega)
    a2 = frame.amp_low ** 2
    e2 = frame.amp_high ** 2
    return RateSet(emission_low=em_low, emission_high=em_high,
                   absorption_low=ab_low, absorption_high=ab_high,
                   decay_low=a2 * em_low, decay_high=e2 * em_high,
                   excitation_low=a2 * ab_low, excitation_high=e2 * ab_high,
                   emission_bare=em_bare, absorption_bare=ab_bare)


_FAIRNESS_THRESHOLD = 0.15   # a larger bath-sample deviation flags a comparison

# occupancies below a milliphoton cannot move any rate perceptibly, so
# deviations are measured against at least this floor
OCCUPANCY_FLOOR = 1e-3


def fairness_check(p: SystemParams, frame: DressedFrame) -> list:
    """How comparable the two models' bath inputs are, as report lines, for
    ``p``, whose ``dressed_frame`` is ``frame``.

    The phenomenological model samples the bath at the bare qubit frequency;
    the dressed model samples it at the two Bohr frequencies.  If those
    samples differ appreciably the model comparison is confounded by the
    bath profile itself, so a warning line flags it; another flags damping
    within 10x of a Bohr frequency.
    """
    j_bare = spectral_density(p, p.omega)
    n_bare = thermal_occupancy(p.omega, p.temperature)
    eps = OCCUPANCY_FLOOR

    def dev_j(freq):
        if j_bare == 0.0:
            return 0.0
        return abs(spectral_density(p, freq) - j_bare) / j_bare

    def dev_n(freq):
        return abs(thermal_occupancy(freq, p.temperature) - n_bare) / max(n_bare, eps)

    devs = (dev_j(frame.bohr_low), dev_j(frame.bohr_high),
            dev_n(frame.bohr_low), dev_n(frame.bohr_high))
    out = [f"spectral density deviation at low/high Bohr frequency: "
           f"{devs[0]:.3e} / {devs[1]:.3e}",
           f"occupancy deviation at low/high Bohr frequency: "
           f"{devs[2]:.3e} / {devs[3]:.3e}"]
    if max(devs) > _FAIRNESS_THRESHOLD:
        out.append(f"WARNING: unfair comparison, deviation above {_FAIRNESS_THRESHOLD:g}")
    if p.gamma0 > 0.1 * min(frame.bohr_low, frame.bohr_high):
        out.append("WARNING: damping rate within 10x of a Bohr frequency; "
                   "weak-coupling treatment is strained")
    return out
