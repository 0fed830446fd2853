import math
from dataclasses import replace

import numpy as np
import pytest

from dressedbath import integrate
from dressedbath import microscopic as mic
from dressedbath.linalg import validate_density
from dressedbath.model import (KB_OVER_HBAR, RateSet, SystemParams,
                               dressed_frame, rate_set)

from conftest import random_density

FIG2 = SystemParams(omega=4e9, coupling=4e9, gamma0=5e7, bath_width=5e10,
                    bath_center=8e9, temperature=5e-4)
FIG3 = SystemParams(omega=4e9, coupling=4e9, gamma0=5e7, bath_width=5e10,
                    bath_center=8e9, temperature=1.5e-2)


def ket10_dressed(frame):
    rho = np.zeros((4, 4), dtype=complex)
    rho[2, 2] = 1.0
    return frame.to_dressed(rho)


def level_state(i):
    rho = np.zeros((4, 4), dtype=complex)
    rho[i, i] = 1.0
    return rho


class TestAnalyticPropagation:
    def test_time_zero_is_identity_map(self, rng):
        frame = dressed_frame(FIG3)
        rates = rate_set(FIG3, frame)
        rho0 = random_density(rng)
        out = mic.propagate_analytic(rho0, rates, frame, 0.0)
        assert np.abs(out - rho0).max() < 1e-14

    def test_antisym_decay_at_zero_temperature(self):
        # from the antisym level at T=0 only the low channel acts:
        # its population decays at the low-channel rate, the ground fills up
        p = SystemParams(omega=1.0, coupling=1.0, gamma0=0.2, bath_width=5.0,
                         bath_center=2.0, temperature=0.0)
        frame = dressed_frame(p)
        rates = rate_set(p, frame)
        for t in (0.0, 0.3, 1.0, 5.0):
            out = mic.propagate_analytic(level_state(1), rates, frame, t)
            assert out[1, 1].real == pytest.approx(math.exp(-rates.decay_low * t),
                                                   abs=1e-12)
            assert out[0, 0].real == pytest.approx(1 - math.exp(-rates.decay_low * t),
                                                   abs=1e-12)
            assert abs(out[2, 2]) < 1e-14 and abs(out[3, 3]) < 1e-14

    def test_relaxes_to_ground_at_zero_temperature(self):
        p = SystemParams(omega=4e8, coupling=4e9, gamma0=5e8, bath_width=5e10,
                         bath_center=8e8, temperature=0.0)
        frame = dressed_frame(p)
        rates = rate_set(p, frame)
        slow = min(rates.decay_low, rates.decay_high)
        out = mic.propagate_analytic(ket10_dressed(frame), rates, frame, 40.0 / slow)
        assert out[0, 0].real > 1 - 1e-9

    def test_populations_and_coherences_decouple(self, rng):
        frame = dressed_frame(FIG3)
        rates = rate_set(FIG3, frame)
        pops = rng.dirichlet(np.ones(4))
        rho0 = np.diag(pops).astype(complex)
        span = 10.0 / (rates.decay_low + rates.excitation_low)
        traj = mic.propagate_analytic(rho0, rates, frame,
                                      np.linspace(0, span, 50))
        off_diag = traj - np.einsum('tij,ij->tij', traj, np.eye(4))
        assert np.abs(off_diag).max() < 1e-12

    def test_ground_population_monotone_at_zero_temperature(self, rng):
        p = SystemParams(omega=1.0, coupling=2.0, gamma0=0.3, bath_width=5.0,
                         bath_center=2.0, temperature=0.0)
        frame = dressed_frame(p)
        rates = rate_set(p, frame)
        pops = rng.dirichlet(np.ones(4))
        traj = mic.propagate_analytic(np.diag(pops).astype(complex), rates,
                                      frame, np.linspace(0, 100.0, 400))
        ground = traj[:, 0, 0].real
        assert np.all(np.diff(ground) > -1e-12)

    def test_unitary_branch_when_undamped(self):
        p = SystemParams(omega=1.0, coupling=1.0, gamma0=0.0, bath_width=5.0,
                         bath_center=2.0, temperature=0.0)
        frame = dressed_frame(p)
        rates = rate_set(p, frame)
        rho0 = ket10_dressed(frame)
        t = 0.7
        out = mic.propagate_analytic(rho0, rates, frame, t)
        assert np.abs(np.diag(out) - np.diag(rho0)).max() < 1e-14
        expected_bc = rho0[1, 2] * np.exp(1j * p.coupling * t)
        assert abs(out[1, 2] - expected_bc) < 1e-12

    def test_coherence_phase_direction(self):
        # the antisym-sym coherence rotates with the positive coupling phase
        frame = dressed_frame(FIG2)
        rates = rate_set(FIG2, frame)
        rho0 = ket10_dressed(frame)
        t = 0.25 / FIG2.coupling
        out = mic.propagate_analytic(rho0, rates, frame, t)
        total = (rates.decay_low + rates.decay_high
                 + rates.excitation_low + rates.excitation_high)
        expected = rho0[1, 2] * np.exp((1j * FIG2.coupling - total / 2) * t)
        assert abs(out[1, 2] - expected) < 1e-12

    def test_phase_past_the_double_range_after_full_decay(self, rng):
        # bohr_low * 1e300 overflows, but every coherence decayed long before
        frame = dressed_frame(FIG2)
        rates = rate_set(FIG2, frame)
        rho0 = frame.to_dressed(random_density(rng))
        out = mic.propagate_analytic(rho0, rates, frame, [0.0, 1.0, 1e300])
        assert np.isfinite(out).all()
        assert np.abs(out[-1] - mic.steady_state(rates)).max() < 1e-12
        # unless the decay is not complete: then the phase stays unknown
        slow = replace(rates, decay_low=1e-320, excitation_low=0.0)
        out = mic.propagate_analytic(rho0, slow, frame, [0.0, 1e300])
        assert np.isnan(out[-1, 0, 1])

    def test_degenerate_single_channel_raises(self):
        frame = dressed_frame(FIG2)
        broken = RateSet(emission_low=0.0, emission_high=1.0,
                         absorption_low=0.0, absorption_high=0.1,
                         decay_low=0.0, decay_high=0.5,
                         excitation_low=0.0, excitation_high=0.05,
                         emission_bare=1.0, absorption_bare=0.1)
        with pytest.raises(mic.DegenerateRates):
            mic.propagate_analytic(level_state(1), broken, frame, 1.0)


class TestSteadyState:
    def test_zero_temperature_is_ground(self):
        p = SystemParams(omega=1.0, coupling=1.0, gamma0=0.2, bath_width=5.0,
                         bath_center=2.0, temperature=0.0)
        ss = mic.steady_state(rate_set(p))
        assert np.abs(ss - np.diag([1.0, 0, 0, 0])).max() < 1e-14

    def test_infinite_temperature_limit(self):
        p = SystemParams(omega=1.0, coupling=1.0, gamma0=0.2, bath_width=5.0,
                         bath_center=2.0, temperature=1e14)
        pops = np.diag(mic.steady_state(rate_set(p))).real
        assert np.abs(pops - 0.25).max() < 1e-4

    def test_hot_preset_populations(self):
        # frozen thermal populations for the hot strong-coupling preset
        pops = np.diag(mic.steady_state(rate_set(FIG3))).real
        assert pops == pytest.approx([0.751011795, 0.213270520,
                                      0.027817998, 0.007899688], abs=1e-8)

    @pytest.mark.parametrize("gamma0", [1e-300, 1e280])
    def test_free_of_the_rate_scale(self, gamma0):
        # every rate is proportional to gamma0 and the populations are ratios
        # of rates, so vanishing or huge rates must not move them
        ss = mic.steady_state(rate_set(replace(FIG3, gamma0=gamma0)))
        assert np.abs(ss - mic.steady_state(rate_set(FIG3))).max() < 1e-14

    def test_hot_bath_products_past_the_double_range(self):
        # the channel rates are about 1e305 /s at 1e296 K
        ss = mic.steady_state(rate_set(replace(FIG2, temperature=1e296)))
        assert np.abs(ss - np.eye(4) / 4).max() < 1e-15

    def test_rate_route_equals_gibbs_route(self):
        for p in (FIG2, FIG3,
                  SystemParams(omega=1.0, coupling=0.5, gamma0=0.1,
                               bath_width=4.0, bath_center=2.0, temperature=0.8)):
            frame = dressed_frame(p)
            ss = mic.steady_state(rate_set(p, frame))
            gibbs = mic.gibbs_state(frame, p.temperature)
            assert np.abs(ss - gibbs).max() < 1e-12

    def test_long_time_propagation_reaches_it(self):
        frame = dressed_frame(FIG3)
        rates = rate_set(FIG3, frame)
        slow = min(rates.decay_low + rates.excitation_low,
                   rates.decay_high + rates.excitation_high)
        out = mic.propagate_analytic(ket10_dressed(frame), rates, frame,
                                     60.0 / slow)
        assert np.abs(out - mic.steady_state(rates)).max() < 1e-12

    def test_detailed_balance_ratios(self):
        frame = dressed_frame(FIG3)
        pops = np.diag(mic.steady_state(rate_set(FIG3, frame))).real
        beta = 1.0 / (KB_OVER_HBAR * FIG3.temperature)
        assert pops[1] / pops[0] == pytest.approx(
            math.exp(-beta * frame.bohr_low), rel=1e-10)
        assert pops[2] / pops[0] == pytest.approx(
            math.exp(-beta * frame.bohr_high), rel=1e-10)
        assert pops[3] / pops[0] == pytest.approx(
            math.exp(-beta * (frame.bohr_low + frame.bohr_high)), rel=1e-10)


class TestGenerator:
    def test_annihilates_steady_state(self):
        for p in (FIG2, FIG3):
            frame = dressed_frame(p)
            rates = rate_set(p, frame)
            gen = mic.liouvillian(rates, frame)
            residual = gen @ mic.steady_state(rates).reshape(-1)
            assert np.abs(residual).max() <= 1e-9 * p.gamma0

    def test_trace_annihilating(self, rng):
        frame = dressed_frame(FIG3)
        gen = mic.liouvillian(rate_set(FIG3, frame), frame)
        for _ in range(20):
            rho = random_density(rng)
            derivative = (gen @ rho.reshape(-1)).reshape(4, 4)
            assert abs(np.trace(derivative)) < 1e-9 * FIG3.gamma0

    def test_population_equation_coefficients(self):
        # the generator's population block must reproduce the closed-form
        # rate equations, e.g. the ground row (-(excitations), decay_low,
        # decay_high, 0)
        frame = dressed_frame(FIG3)
        rates = rate_set(FIG3, frame)
        gen = mic.liouvillian(rates, frame)
        block = np.empty((4, 4))
        for j in range(4):
            col = (gen @ level_state(j).reshape(-1)).reshape(4, 4)
            block[:, j] = np.real(np.diag(col))
        el, eh = rates.excitation_low, rates.excitation_high
        cl, ch = rates.decay_low, rates.decay_high
        expected = np.array([
            [-(el + eh), cl, ch, 0.0],
            [el, -(cl + eh), 0.0, ch],
            [eh, 0.0, -(el + ch), cl],
            [0.0, eh, el, -(cl + ch)],
        ])
        assert np.abs(block - expected).max() < 1e-12 * FIG3.gamma0

    def test_balanced_rates_freeze_uniform_state(self):
        # with every absorption equal to its emission partner the maximally
        # mixed state sits exactly at the fixed point of the dissipator
        frame = dressed_frame(FIG2)
        r = rate_set(FIG2, frame)
        balanced = RateSet(
            emission_low=r.emission_low, emission_high=r.emission_high,
            absorption_low=r.emission_low, absorption_high=r.emission_high,
            decay_low=r.decay_low, decay_high=r.decay_high,
            excitation_low=r.decay_low, excitation_high=r.decay_high,
            emission_bare=r.emission_bare, absorption_bare=r.emission_bare)
        gen = mic.liouvillian(balanced, frame)
        drift = (gen @ (np.eye(4, dtype=complex) / 4).reshape(-1)).reshape(4, 4)
        assert np.abs(np.diag(drift)).max() < 1e-12 * FIG2.gamma0


class TestNumericPropagation:
    def test_zero_generator_constant(self):
        times = np.linspace(0.0, 1.0, 11)
        rho0 = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
        traj = integrate.propagate(np.zeros((16, 16), dtype=complex), rho0,
                                   times)
        assert np.abs(traj - rho0).max() == 0.0

    def test_matches_analytic_from_arbitrary_state(self, rng):
        frame = dressed_frame(FIG3)
        rates = rate_set(FIG3, frame)
        rho0 = random_density(rng)
        span = 10.0 / (rates.decay_low + rates.excitation_low)
        times = np.linspace(0.0, span, 300)
        analytic = mic.propagate_analytic(rho0, rates, frame, times)
        numeric = integrate.propagate(mic.liouvillian(rates, frame), rho0,
                                      times)
        assert np.abs(analytic - numeric).max() < 1e-8

    def test_every_snapshot_valid(self):
        frame = dressed_frame(FIG2)
        rates = rate_set(FIG2, frame)
        span = 10.0 / (rates.decay_low + rates.excitation_low)
        traj = mic.propagate_analytic(ket10_dressed(frame), rates, frame,
                                      np.linspace(0.0, span, 200))
        for snapshot in traj:
            validate_density(snapshot, herm_tol=1e-10,
                             trace_tol=1e-8, psd_tol=1e-7)

    def test_log_grid_supported(self):
        frame = dressed_frame(FIG3)
        rates = rate_set(FIG3, frame)
        span = 5.0 / (rates.decay_low + rates.excitation_low)
        times = np.concatenate([[0.0], np.geomspace(span * 1e-3, span, 40)])
        analytic = mic.propagate_analytic(ket10_dressed(frame), rates, frame, times)
        numeric = integrate.propagate(mic.liouvillian(rates, frame),
                                      ket10_dressed(frame), times)
        assert np.abs(analytic - numeric).max() < 1e-8

    def test_matches_analytic_weak_coupling(self):
        # weak-coupling presets have a huge span/period ratio; the closed
        # forms must still track the integrated generator
        for temperature in (0.005, 0.15):
            p = SystemParams(omega=5e6, coupling=4e4, gamma0=500.0,
                             bath_width=5e5, bath_center=1e7,
                             temperature=temperature)
            frame = dressed_frame(p)
            rates = rate_set(p, frame)
            span = 10.0 / (rates.decay_low + rates.excitation_low)
            times = np.linspace(0.0, span, 400)
            analytic = mic.propagate_analytic(ket10_dressed(frame), rates,
                                              frame, times)
            numeric = integrate.propagate(
                mic.liouvillian(rates, frame), ket10_dressed(frame), times)
            assert np.abs(analytic - numeric).max() < 1e-7
