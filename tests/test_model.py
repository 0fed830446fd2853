import math

import numpy as np
import pytest

from dressedbath.linalg import hermitian_eigs
from dressedbath.model import (KB_OVER_HBAR, NonPositiveFrequency,
                               SystemParams, dressed_frame, fairness_check,
                               hamiltonian, rate_set, spectral_density,
                               thermal_occupancy)

FIG2 = SystemParams(omega=4e9, coupling=4e9, gamma0=5e7, bath_width=5e10,
                    bath_center=8e9, temperature=5e-4)
FIG3 = SystemParams(omega=4e9, coupling=4e9, gamma0=5e7, bath_width=5e10,
                    bath_center=8e9, temperature=1.5e-2)


def simple_params(**overrides):
    base = dict(omega=1.0, coupling=1.0, gamma0=0.2, bath_width=5.0,
                bath_center=2.0, temperature=0.0)
    base.update(overrides)
    return SystemParams(**base)


class TestSystemParams:
    def test_rejects_nonpositive_omega(self):
        with pytest.raises(ValueError):
            simple_params(omega=0.0)

    def test_rejects_negative_temperature(self):
        with pytest.raises(ValueError):
            simple_params(temperature=-1.0)

    def test_rejects_negative_coupling(self):
        with pytest.raises(ValueError):
            simple_params(coupling=-0.5)

    @pytest.mark.parametrize("field", ["omega", "coupling", "gamma0",
                                       "bath_width", "bath_center",
                                       "temperature"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            simple_params(**{field: value})

    @pytest.mark.parametrize("temperature", [1.3732e297, 1e305, 1e308])
    def test_rejects_temperature_past_overflow(self, temperature):
        # kB T / hbar overflows to inf, and the occupancy would divide by 0
        with pytest.raises(ValueError,
                           match=r"^temperature must be below 1\.37e\+297 K"):
            simple_params(temperature=temperature)

    def test_accepts_temperature_below_overflow(self):
        assert math.isfinite(KB_OVER_HBAR * simple_params(temperature=1.373e297)
                             .temperature)


class TestHamiltonian:
    def test_uncoupled_is_diagonal(self):
        h = hamiltonian(simple_params(coupling=0.0, omega=2.0))
        assert np.abs(h - np.diag([0.0, 2.0, 2.0, 4.0])).max() == 0.0

    def test_spectrum_matches_dressed_energies(self):
        for p in (simple_params(), FIG2, simple_params(omega=0.7, coupling=9.0)):
            w, _ = hermitian_eigs(hamiltonian(p) / p.omega)
            expected = np.asarray(dressed_frame(p).energies) / p.omega
            assert np.abs(w - expected).max() < 1e-12

    def test_counter_rotating_element(self):
        p = simple_params(coupling=0.8)
        assert hamiltonian(p)[0, 3] == pytest.approx(0.4)

    def test_unitary_diagonalises(self):
        for p in (simple_params(), FIG3):
            frame = dressed_frame(p)
            u = frame.unitary
            diag = u.conj().T @ hamiltonian(p) @ u
            dev = np.abs(diag - np.diag(frame.energies)).max()
            assert dev < 1e-9 * max(abs(e) for e in frame.energies)


class TestDressedFrame:
    def test_mixing_normalisation(self):
        for coupling in (0.0, 0.3, 1.0, 10.0):
            f = dressed_frame(simple_params(coupling=coupling))
            assert f.mix_plus ** 2 + f.mix_minus ** 2 == pytest.approx(1.0, abs=1e-12)
            assert f.amp_low ** 2 + f.amp_high ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_energy_sums(self):
        p = simple_params(omega=3.0, coupling=2.0)
        e = dressed_frame(p).energies
        assert e[0] + e[3] == pytest.approx(2 * p.omega, rel=1e-9)
        assert e[1] + e[2] == pytest.approx(2 * p.omega, rel=1e-9)

    def test_bohr_identities(self):
        p = simple_params(omega=2.0, coupling=3.0)
        f = dressed_frame(p)
        assert f.bohr_high - f.bohr_low == pytest.approx(p.coupling, rel=1e-9)
        assert f.bohr_low * f.bohr_high == pytest.approx(p.omega ** 2, rel=1e-9)

    def test_uncoupled_amplitudes(self):
        f = dressed_frame(simple_params(coupling=0.0))
        assert f.mix_plus == pytest.approx(1.0, abs=1e-12)
        assert f.mix_minus == pytest.approx(0.0, abs=1e-12)
        assert f.amp_low == pytest.approx(-math.sqrt(0.5), abs=1e-12)
        assert f.amp_high == pytest.approx(math.sqrt(0.5), abs=1e-12)

    def test_equal_coupling_bohr_frequencies(self):
        f = dressed_frame(simple_params(omega=1.0, coupling=1.0))
        assert f.bohr_low == pytest.approx((math.sqrt(5) - 1) / 2, rel=1e-12)
        assert f.bohr_high == pytest.approx((math.sqrt(5) + 1) / 2, rel=1e-12)

    def test_jump_amplitudes_match_eigenvectors(self):
        # the stored amplitudes must reproduce the coupling-operator matrix
        # elements between dressed states, up to a global sign per channel
        sx2 = np.zeros((4, 4))
        sx2[0, 1] = sx2[1, 0] = sx2[2, 3] = sx2[3, 2] = 1.0
        for p in (simple_params(), FIG2, simple_params(coupling=7.3, omega=0.4)):
            f = dressed_frame(p)
            sx_dressed = f.unitary.conj().T @ sx2 @ f.unitary
            assert abs(sx_dressed[0, 1] - f.amp_low) < 1e-12
            assert abs(abs(sx_dressed[2, 3]) - abs(f.amp_low)) < 1e-12
            assert abs(sx_dressed[0, 2] - f.amp_high) < 1e-12
            assert abs(sx_dressed[1, 3] - f.amp_high) < 1e-12


class TestBathFunctions:
    def test_peak_value(self):
        p = simple_params(gamma0=0.7)
        assert spectral_density(p, p.bath_center) == pytest.approx(0.7)

    def test_half_width(self):
        p = simple_params(gamma0=0.7)
        assert spectral_density(p, p.bath_center + p.bath_width) == pytest.approx(0.35)
        assert spectral_density(p, p.bath_center - p.bath_width) == pytest.approx(0.35)

    def test_strong_coupling_preset_value(self):
        # plug-in at the bare qubit frequency of the strong-coupling preset
        expected = 5e7 * (5e10) ** 2 / ((4e9 - 8e9) ** 2 + (5e10) ** 2)
        assert spectral_density(FIG2, 4e9) == pytest.approx(expected, rel=1e-15)
        assert spectral_density(FIG2, 4e9) == pytest.approx(5e7 * 0.9936, rel=1e-3)

    def test_occupancy_zero_temperature(self):
        assert thermal_occupancy(1e9, 0.0) == 0.0

    def test_occupancy_ln2_point(self):
        # frequency/temperature combination that forces nbar = 1
        t = 1.0
        w = KB_OVER_HBAR * t * math.log(2.0)
        assert thermal_occupancy(w, t) == pytest.approx(1.0, rel=1e-12)

    def test_occupancy_characteristic_value(self):
        assert thermal_occupancy(2.472e9, 1.5e-2) == pytest.approx(0.3966427, abs=1e-6)

    def test_occupancy_cold_bath_underflows(self):
        # exp(x) overflows past x ~ 709.8; the occupancy is exp(-x) there
        t = 1.0
        for x in (709.0, 710.0, 745.0):
            assert thermal_occupancy(KB_OVER_HBAR * t * x, t) == pytest.approx(
                math.exp(-x), rel=1e-12)
        assert thermal_occupancy(4e9, 1e-6) == 0.0

    def test_occupancy_rejects_nonpositive(self):
        with pytest.raises(NonPositiveFrequency):
            thermal_occupancy(0.0, 1.0)
        with pytest.raises(NonPositiveFrequency):
            thermal_occupancy(-1e9, 1.0)


class TestRateSet:
    def test_zero_temperature_has_no_excitation(self):
        p = simple_params(temperature=0.0)
        f = dressed_frame(p)
        r = rate_set(p, f)
        assert r.excitation_low == 0.0
        assert r.excitation_high == 0.0
        assert r.decay_low == pytest.approx(
            f.amp_low ** 2 * spectral_density(p, f.bohr_low), rel=1e-12)
        assert r.decay_high == pytest.approx(
            f.amp_high ** 2 * spectral_density(p, f.bohr_high), rel=1e-12)

    def test_uncoupled_splits_bare_rate(self):
        p = simple_params(coupling=0.0, temperature=0.0)
        r = rate_set(p)
        assert r.decay_low == pytest.approx(r.emission_bare / 2, rel=1e-12)
        assert r.decay_high == pytest.approx(r.emission_bare / 2, rel=1e-12)

    def test_detailed_balance_by_construction(self):
        f = dressed_frame(FIG3)
        r = rate_set(FIG3, f)
        beta = 1.0 / (KB_OVER_HBAR * FIG3.temperature)
        assert r.absorption_low / r.emission_low == pytest.approx(
            math.exp(-beta * f.bohr_low), rel=1e-12)
        assert r.absorption_high / r.emission_high == pytest.approx(
            math.exp(-beta * f.bohr_high), rel=1e-12)
        # characteristic number for the hot strong-coupling preset
        assert r.absorption_low / r.emission_low == pytest.approx(0.28398, abs=1e-4)

    def test_rates_scale_linearly_in_gamma0(self):
        p1 = simple_params(gamma0=0.25, temperature=0.3)
        p2 = simple_params(gamma0=0.75, temperature=0.3)
        r1, r2 = rate_set(p1), rate_set(p2)
        for name in ("decay_low", "decay_high", "excitation_low",
                     "excitation_high", "emission_bare", "absorption_bare"):
            assert getattr(r2, name) == pytest.approx(3 * getattr(r1, name),
                                                      rel=1e-12)

    def test_all_rates_nonnegative(self):
        for p in (FIG2, FIG3, simple_params(temperature=2.0)):
            r = rate_set(p)
            for name in ("emission_low", "emission_high", "absorption_low",
                         "absorption_high", "decay_low", "decay_high",
                         "excitation_low", "excitation_high",
                         "emission_bare", "absorption_bare"):
                assert getattr(r, name) >= 0.0


def fairness(p):
    """The fairness report lines of ``p`` and the four deviations they print
    (spectral density at the low and high Bohr frequency, then occupancy)."""
    lines = fairness_check(p, dressed_frame(p))
    devs = [float(v) for line in lines[:2] for v in line.split(": ")[1].split(" / ")]
    return lines, devs


UNFAIR = "WARNING: unfair comparison"
STRAINED = "WARNING: damping rate within 10x of a Bohr frequency"


class TestFairness:
    def test_uncoupled_is_exact(self):
        lines, devs = fairness(simple_params(coupling=0.0, temperature=0.5))
        assert devs[0] == 0.0
        assert devs[1] == 0.0
        assert devs[2] == 0.0
        assert not any(line.startswith(UNFAIR) for line in lines)

    def test_wide_bath_preset_is_fair(self):
        lines, devs = fairness(FIG2)
        assert devs[0] < 0.02
        assert devs[1] < 0.02
        assert not any(line.startswith(UNFAIR) for line in lines)

    def test_narrow_bath_is_flagged(self):
        p = SystemParams(omega=1.0, coupling=1.0, gamma0=0.2, bath_width=0.01,
                         bath_center=2.0, temperature=0.0)
        assert any(line.startswith(UNFAIR) for line in fairness(p)[0])

    def test_strong_damping_warning(self):
        p = SystemParams(omega=4e8, coupling=4e9, gamma0=5e8, bath_width=5e10,
                         bath_center=8e8, temperature=0.0)
        assert any(line.startswith(STRAINED) for line in fairness(p)[0])
