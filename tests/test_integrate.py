from dataclasses import replace

import numpy as np
import pytest

from dressedbath import phenomenological as ph
from dressedbath.cli import main
from dressedbath.integrate import TraceDrift, propagate, superoperator_from_rhs
from dressedbath.linalg import NotFinite, as_matrices
from dressedbath.metrics import concurrence_x, x_elements_from_matrix
from dressedbath.model import dressed_frame, rate_set
from dressedbath.scenarios import (figure_preset, initial_state_matrix,
                                   resolve_t_max, run_scenario)


@pytest.fixture(scope="module")
def expm():
    return pytest.importorskip("scipy.linalg").expm


def expm_trajectory(expm, generator, rho0, times):
    """The oracle: exp(t L) vec(rho0), one scipy matrix exponential per time."""
    v = rho0.reshape(-1)
    return np.array([expm(t * generator) @ v for t in times]).reshape(-1, 4, 4)


def preset_configs():
    for n in range(1, 11):
        preset = figure_preset(n)
        yield from preset if isinstance(preset, list) else [preset]


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
        propagate(np.zeros((16, 16)), np.eye(4) / 4, [0.0, 1.0, 1.0])


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_generator_is_not_finite(bad):
    gen = np.zeros((16, 16), dtype=complex)
    gen[3, 7] = bad
    with pytest.raises(NotFinite):
        propagate(gen, np.eye(4, dtype=complex) / 4, [0.0, 1.0])


def test_trace_leak_raises_trace_drift():
    # a generator that feeds the trace grows it past the drift bound; its
    # eigenvalues are all 0.1, far from the pinned-zero window
    leak = 0.1 * np.eye(16, dtype=complex)
    with pytest.raises(TraceDrift):
        propagate(leak, np.eye(4, dtype=complex) / 4, np.linspace(0.0, 50.0, 20))


def test_trace_drift_reports_first_offending_point():
    # the trace grows as exp(2.2e-8 t): 8.8e-9 off at t = 0.4, 1.1e-8 at 0.5
    leak = 2.2e-8 * np.eye(16, dtype=complex)
    with pytest.raises(TraceDrift) as err:
        propagate(leak, np.eye(4, dtype=complex) / 4, np.linspace(0.0, 1.0, 11))
    assert str(err.value) == "trace drifted by 1.100e-08 at t=5.000000e-01"


def test_unitary_generator_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = a + a.conj().T
    eye = np.eye(4)
    gen = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    rho0 = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    traj = propagate(gen, rho0, np.linspace(0.0, 3.0, 40))
    traces = np.einsum('tii->t', traj)
    assert np.abs(traces - 1.0).max() < 1e-10
    assert np.abs(traj - np.conj(np.swapaxes(traj, 1, 2))).max() < 1e-12


def test_unreachable_entries_stay_exactly_zero():
    # the phenom generator never feeds the off-X entries of an X-shaped start
    cfg = figure_preset(2)
    frame = dressed_frame(cfg.params)
    rates = rate_set(cfg.params, frame)
    times = np.linspace(0.0, resolve_t_max(cfg, rates), 50)
    traj = ph.propagate(initial_state_matrix(cfg, frame), cfg.params, rates, times)
    off_x = np.ones((4, 4), dtype=bool)
    off_x[[0, 1, 2, 3, 0, 1, 2, 3], [0, 1, 2, 3, 3, 2, 1, 0]] = False
    assert not traj[:, off_x].any()


def test_grid_may_start_late_and_be_non_uniform():
    # rho0 is the state at times[0]; the output does not depend on the grid
    cfg = figure_preset(3)
    frame = dressed_frame(cfg.params)
    rates = rate_set(cfg.params, frame)
    span = resolve_t_max(cfg, rates)
    rho0 = initial_state_matrix(cfg, frame)
    whole = ph.propagate(rho0, cfg.params, rates, np.linspace(0.0, span, 5))
    late = ph.propagate(rho0, cfg.params, rates,
                        span * np.array([1.0, 1.01, 1.5, 1.75, 2.0]))
    assert np.abs(late[[0, 2, 3, 4]] - whole[[0, 2, 3, 4]]).max() < 1e-11


@pytest.mark.parametrize("cfg", list(preset_configs()), ids=lambda c: c.label)
def test_phenom_presets_match_expm(cfg, expm):
    frame = dressed_frame(cfg.params)
    rates = rate_set(cfg.params, frame)
    times = np.linspace(0.0, resolve_t_max(cfg, rates), cfg.n_points)[::250]
    rho0 = initial_state_matrix(cfg, frame)
    gen = ph.liouvillian_from_ops(cfg.params, rates)
    exact = expm_trajectory(expm, gen, rho0, times)
    assert np.abs(propagate(gen, rho0, times) - exact).max() <= 1e-11


def test_exceptional_point_matches_expm(expm):
    # at coupling = (g + gb) / 2 the phenom generator is nearly defective:
    # its eigenvectors are ill-conditioned, the worst case for this route
    base = figure_preset(2).params
    rates = rate_set(base)
    p = replace(base, coupling=0.5 * (rates.emission_bare + rates.absorption_bare))
    rates = rate_set(p)
    gen = ph.liouvillian_from_ops(p, rates)
    assert np.linalg.cond(np.linalg.eig(gen)[1]) > 1e5
    rho0 = np.zeros((4, 4), dtype=complex)
    rho0[2, 2] = 1.0
    times = np.linspace(0.0, 10.0 / (rates.emission_bare + rates.absorption_bare), 9)
    exact = expm_trajectory(expm, gen, rho0, times)
    assert np.abs(propagate(gen, rho0, times) - exact).max() <= 1e-10


def test_long_phenom_run_ends_at_steady_state(tmp_path):
    # 10 s is about 5e8 bare lifetimes: the run must neither drift nor stall
    out_dir = tmp_path / "out"
    assert main(["evolve", "--figure", "2", "--tmax", "10", "--model", "phenom",
                 "--out", str(out_dir)]) == 0
    cfg = replace(figure_preset(2), t_max=10.0, models=("phenom",))
    final = as_matrices(run_scenario(cfg).stacks["phenom"])[-1]
    steady = ph.steady_state(cfg.params, rate_set(cfg.params))
    assert np.abs(final - steady).max() <= 1e-12

    last_row = (out_dir / "figure2_phenom.csv").read_text().splitlines()[-1]
    x, ok = x_elements_from_matrix(steady)
    assert ok
    assert abs(float(last_row.split(",")[1]) - concurrence_x(x)) <= 1e-12
