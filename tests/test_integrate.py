import numpy as np
import pytest

from dressedbath.integrate import (StepTooLarge, propagate, rk4_step_matrix,
                                   step_bound, superoperator_from_rhs)


def test_step_bound_tracks_fastest_scale():
    assert step_bound(1e9, 1e6) == pytest.approx(1e-11)
    assert step_bound(1e3, 1e8) == pytest.approx(1e-10)


def test_rk4_matrix_is_fourth_order_taylor():
    rng = np.random.default_rng(3)
    gen = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    h = 1e-3 / np.abs(gen).max()
    expected = np.eye(16, dtype=complex)
    term = np.eye(16, dtype=complex)
    for k in range(1, 5):
        term = term @ (h * gen) / k
        expected = expected + term
    assert np.abs(rk4_step_matrix(gen, h) - expected).max() < 1e-14


def test_superoperator_matches_direct_map():
    rng = np.random.default_rng(4)
    left = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    right = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    gen = superoperator_from_rhs(lambda m: left @ m @ right)
    probe = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    direct = left @ probe @ right
    assert np.abs((gen @ probe.reshape(-1)).reshape(4, 4) - direct).max() < 1e-12


def test_rejects_non_increasing_grid():
    with pytest.raises(ValueError):
        propagate(np.zeros((16, 16)), np.eye(4) / 4, [0.0, 1.0, 1.0], 0.1)


def test_trace_leak_raises_step_too_large():
    # a generator that feeds the trace grows it past the drift bound
    leak = 0.1 * np.eye(16, dtype=complex)
    with pytest.raises(StepTooLarge):
        propagate(leak, np.eye(4, dtype=complex) / 4,
                  np.linspace(0.0, 50.0, 20), 0.5)


def test_trace_drift_reports_first_offending_point():
    # the trace grows as exp(2.2e-8 t): 8.8e-9 off at t = 0.4, 1.1e-8 at 0.5
    leak = 2.2e-8 * np.eye(16, dtype=complex)
    with pytest.raises(StepTooLarge) as err:
        propagate(leak, np.eye(4, dtype=complex) / 4, np.linspace(0.0, 1.0, 11), 0.5)
    assert str(err.value) == ("trace drifted by 1.100e-08 at t=5.000000e-01; "
                              "reduce the step bound")


def test_unitary_generator_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = a + a.conj().T
    eye = np.eye(4)
    gen = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    rho0 = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    traj = propagate(gen, rho0, np.linspace(0.0, 3.0, 40),
                     step_bound(0.0, np.abs(h).max()))
    traces = np.einsum('tii->t', traj)
    assert np.abs(traces - 1.0).max() < 1e-10
    assert np.abs(traj - np.conj(np.swapaxes(traj, 1, 2))).max() < 1e-12
