from dataclasses import replace

import numpy as np
import pytest

from dressedbath import phenomenological as ph
from dressedbath.linalg import validate_density
from dressedbath.model import (RateSet, SystemParams, dressed_frame, hamiltonian,
                               rate_set)

from conftest import random_density

FIG2 = SystemParams(omega=4e9, coupling=4e9, gamma0=5e7, bath_width=5e10,
                    bath_center=8e9, temperature=5e-4)
FIG3 = SystemParams(omega=4e9, coupling=4e9, gamma0=5e7, bath_width=5e10,
                    bath_center=8e9, temperature=1.5e-2)


def manual_rates(p, emission, absorption):
    base = rate_set(p)
    return RateSet(emission_low=base.emission_low,
                   emission_high=base.emission_high,
                   absorption_low=base.absorption_low,
                   absorption_high=base.absorption_high,
                   decay_low=base.decay_low, decay_high=base.decay_high,
                   excitation_low=base.excitation_low,
                   excitation_high=base.excitation_high,
                   emission_bare=emission, absorption_bare=absorption)


def ket(i):
    rho = np.zeros((4, 4), dtype=complex)
    rho[i, i] = 1.0
    return rho


class TestRhs:
    def test_undamped_balanced_diagonal_state_is_stationary(self):
        # without damping, a diagonal state is stationary once the pair
        # populations feeding each coherence are balanced (the
        # counter-rotating term sources the outer coherence from p00 - p11,
        # the exchange term sources the inner one from p01 - p10)
        p = SystemParams(omega=1.0, coupling=1.0, gamma0=0.1, bath_width=5.0,
                         bath_center=2.0, temperature=0.0)
        rates = manual_rates(p, 0.0, 0.0)
        rho = np.diag([0.35, 0.15, 0.15, 0.35]).astype(complex)
        assert np.abs(ph.phenom_rhs(rho, p, rates)).max() == 0.0

    def test_undamped_unbalanced_diagonal_sources_coherences(self):
        p = SystemParams(omega=1.0, coupling=1.0, gamma0=0.1, bath_width=5.0,
                         bath_center=2.0, temperature=0.0)
        rates = manual_rates(p, 0.0, 0.0)
        d = ph.phenom_rhs(np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex), p, rates)
        assert d[0, 3] == pytest.approx(0.5j * p.coupling * (0.4 - 0.1), rel=1e-12)
        assert d[1, 2] == pytest.approx(0.5j * p.coupling * (0.3 - 0.2), rel=1e-12)

    def test_single_emission_rows(self):
        p = SystemParams(omega=1.0, coupling=0.8, gamma0=0.1, bath_width=5.0,
                         bath_center=2.0, temperature=0.0)
        rates = rate_set(p)
        g = rates.emission_bare
        d = ph.phenom_rhs(ket(1), p, rates)  # qubit 2 excited, qubit 1 down
        assert d[0, 0] == pytest.approx(g, rel=1e-12)
        assert d[1, 1] == pytest.approx(-g, rel=1e-12)
        assert d[1, 2] == pytest.approx(0.5j * p.coupling, rel=1e-12)

    def test_traceless_for_random_states(self, rng):
        rates = rate_set(FIG3)
        for _ in range(20):
            d = ph.phenom_rhs(random_density(rng), FIG3, rates)
            assert abs(np.trace(d)) < 1e-9 * rates.emission_bare
            assert np.abs(d - d.conj().T).max() < 1e-9 * rates.emission_bare

    def test_element_equations_match_operator_form(self, rng):
        # the written-out rows against the ladder-operator construction
        for p in (FIG2, FIG3):
            rates = rate_set(p)
            g_rows = ph.liouvillian(p, rates)
            g_ops = ph.liouvillian_from_ops(p, rates)
            scale = np.abs(g_ops).max()
            assert np.abs(g_rows - g_ops).max() <= 1e-12 * scale


class TestPropagation:
    def test_time_zero(self):
        rates = rate_set(FIG2)
        traj = ph.propagate(ket(2), FIG2, rates, np.array([0.0, 1e-12]))
        assert np.abs(traj[0] - ket(2)).max() == 0.0

    def test_decoupled_qubit2_decay(self):
        # zero coupling, zero temperature: plain exponential emptying of
        # the qubit-2 excited population
        p = SystemParams(omega=1.0, coupling=0.0, gamma0=0.3, bath_width=5.0,
                         bath_center=2.0, temperature=0.0)
        rates = rate_set(p)
        g = rates.emission_bare
        times = np.linspace(0.0, 5.0 / g, 80)
        traj = ph.propagate(ket(1), p, rates, times)
        assert np.abs(traj[:, 1, 1].real - np.exp(-g * times)).max() < 1e-9

    def test_long_time_matches_closed_form(self):
        rates = rate_set(FIG2)
        span = 50.0 / (rates.emission_bare + rates.absorption_bare)
        times = np.linspace(0.0, span, 400)
        traj = ph.propagate(ket(2), FIG2, rates, times)
        assert np.abs(traj[-1] - ph.steady_state(FIG2, rates)).max() < 1e-6

    def test_x_structure_preserved(self):
        rates = rate_set(FIG3)
        span = 10.0 / (rates.emission_bare + rates.absorption_bare)
        traj = ph.propagate(ket(2), FIG3, rates, np.linspace(0.0, span, 300))
        stray = np.abs(traj[:, [0, 0, 1, 2], [1, 2, 3, 3]]).max()
        assert stray < 1e-10

    def test_snapshots_valid(self):
        rates = rate_set(FIG3)
        span = 10.0 / (rates.emission_bare + rates.absorption_bare)
        traj = ph.propagate(ket(2), FIG3, rates, np.linspace(0.0, span, 200))
        for snapshot in traj:
            validate_density(snapshot, herm_tol=1e-10, trace_tol=1e-8,
                             psd_tol=1e-7)


class TestSteadyState:
    def test_rhs_vanishes(self):
        for p in (FIG2, FIG3):
            rates = rate_set(p)
            residual = ph.phenom_rhs(ph.steady_state(p, rates), p, rates)
            bound = 1e-12 * (rates.emission_bare + rates.absorption_bare)
            assert np.abs(residual).max() <= bound

    def test_zero_temperature_inner_coherence(self):
        # the stationary inner coherence survives at T=0, so this is not the
        # coupled pair's ground state
        p = SystemParams(omega=1.0, coupling=1.0, gamma0=0.1, bath_width=5.0,
                         bath_center=2.0, temperature=0.0)
        rates = rate_set(p)
        ss = ph.steady_state(p, rates)
        g = rates.emission_bare
        expected = -1j * p.coupling * g / (2 * (g ** 2 + 2 * p.coupling ** 2
                                                + 8 * p.omega ** 2))
        assert ss[1, 2] == pytest.approx(expected, rel=1e-12)
        assert abs(ss[1, 2]) > 0

    def test_populations_sum_to_one_across_parameters(self, rng):
        for _ in range(100):
            p = SystemParams(omega=10 ** rng.uniform(-2, 10),
                             coupling=10 ** rng.uniform(-3, 10),
                             gamma0=10 ** rng.uniform(-3, 8),
                             bath_width=10 ** rng.uniform(-2, 10),
                             bath_center=10 ** rng.uniform(-2, 10),
                             temperature=10 ** rng.uniform(-4, 2))
            ss = ph.steady_state(p, rate_set(p))
            assert abs(np.trace(ss).real - 1.0) < 1e-12

    def test_hot_bath_rates_square_past_the_double_range(self):
        # the bare rates are about 1.6e305 /s at 1e296 K
        p = replace(FIG2, temperature=1e296)
        rates = rate_set(p)
        ss = ph.steady_state(p, rates)
        assert np.abs(ss - np.eye(4) / 4).max() < 1e-15
        assert not ph.phenom_rhs(ss, p, rates).any()

    def test_balanced_rates_kill_coherences(self):
        p = FIG3
        rates = manual_rates(p, 2.5, 2.5)
        ss = ph.steady_state(p, rates)
        assert ss[1, 2].real == 0.0
        assert abs(ss[0, 3]) == 0.0


class TestDressedRewrite:
    def test_matches_null_vector_in_hamiltonian_eigenbasis(self):
        # independent of the closed form and of the dressed frame: the null
        # vector of the element-wise generator, rotated by numpy's
        # eigenvectors of the Hamiltonian (whose phases are arbitrary, so
        # only populations and coherence magnitudes are compared)
        for p in (FIG2, FIG3):
            rates = rate_set(p)
            dressed = ph.steady_state_dressed(p, rates, dressed_frame(p))
            null = np.linalg.svd(ph.liouvillian(p, rates))[2][-1].conj()
            rho = null.reshape(4, 4) / np.trace(null.reshape(4, 4))
            _, v = np.linalg.eigh(hamiltonian(p))
            oracle = v.conj().T @ rho @ v
            assert np.abs(np.abs(dressed) - np.abs(oracle)).max() < 1e-9
            assert abs(dressed[0, 3]) > 1e-6 and abs(dressed[1, 2]) > 1e-6

    def test_very_strong_coupling_zero_concurrence(self):
        from dressedbath.metrics import concurrence_general

        p = SystemParams(omega=4e8, coupling=4e9, gamma0=5e8, bath_width=5e10,
                         bath_center=8e8, temperature=0.0)
        ss = ph.steady_state(p, rate_set(p))
        assert concurrence_general(ss) == 0.0

    def test_antisym_sym_coherence_form(self):
        p = FIG3
        frame = dressed_frame(p)
        rates = rate_set(p)
        ss = ph.steady_state(p, rates)
        rewrite = ph.steady_state_dressed(p, rates, frame)
        expected = (0.5 * (ss[2, 2].real - ss[1, 1].real)
                    - 1j * ss[1, 2].imag)
        assert rewrite[1, 2] == pytest.approx(expected, rel=1e-12)
