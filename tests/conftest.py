import numpy as np
import pytest

from dressedbath.metrics import XStateElements


def random_density(rng, dim=4):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_x_state(rng) -> XStateElements:
    pops = rng.dirichlet(np.ones(4))
    mag = rng.uniform(0.0, 1.0, 2)
    phase = rng.uniform(0.0, 2.0 * np.pi, 2)
    return XStateElements(
        p00=pops[0], p01=pops[1], p10=pops[2], p11=pops[3],
        outer=mag[0] * np.sqrt(pops[0] * pops[3]) * np.exp(1j * phase[0]),
        inner=mag[1] * np.sqrt(pops[1] * pops[2]) * np.exp(1j * phase[1]),
    )


def random_unitary(rng, dim=2):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def dense_stages(cfg):
    """``run_scenario``'s stages on full ``(n, 4, 4)`` stacks, the route of a
    non-X start: per model the stack, its margins, series and routes."""
    from dressedbath import microscopic, phenomenological, scenarios
    from dressedbath.linalg import (EVOLVED_HERM_TOL, EVOLVED_PSD_TOL,
                                    EVOLVED_TRACE_TOL, validate_batch)
    from dressedbath.model import dressed_frame, rate_set
    frame = dressed_frame(cfg.params)
    rates = rate_set(cfg.params, frame)
    times = np.linspace(0.0, scenarios.resolve_t_max(cfg, rates), cfg.n_points)
    rho0 = scenarios.initial_state_matrix(cfg, frame)
    out = {}
    for model in cfg.models:
        if model == "micro":
            stack = frame.to_computational(microscopic.propagate_analytic(
                frame.to_dressed(rho0), rates, frame, times))
        else:
            stack = phenomenological.propagate(rho0, cfg.params, rates, times)
        margins = validate_batch(stack, herm_tol=EVOLVED_HERM_TOL,
                                 trace_tol=EVOLVED_TRACE_TOL,
                                 psd_tol=EVOLVED_PSD_TOL)
        out[model] = (stack, margins) + scenarios._trajectory_metrics(stack,
                                                                      cfg.metrics)
    return out


def bits(a):
    """The bit patterns of a float or complex array, for exact comparison."""
    return np.ascontiguousarray(a).view(np.int64)


def outcome(fn, *args, **kwargs):
    """``fn``'s result, or the class, message and violation of the
    StateValidationError it raises."""
    from dressedbath.linalg import StateValidationError
    try:
        return fn(*args, **kwargs)
    except StateValidationError as exc:
        return type(exc), str(exc), exc.violation


def assert_run_matches_dense(cfg):
    """``run_scenario`` gives the series, routes, margins and snapshots of
    ``dense_stages``, bit for bit, or raises the same error; returns its
    trajectory, or None after an error."""
    from dressedbath.scenarios import run_scenario
    results = []
    for run in (dense_stages, run_scenario):
        try:
            results.append(run(cfg))
        except Exception as exc:   # the same error, raised by both
            results.append(exc)
    dense, traj = results
    if isinstance(dense, Exception) or isinstance(traj, Exception):
        assert (type(traj), str(traj)) == (type(dense), str(dense))
        return None
    for model, (stack, margins, series, routes) in dense.items():
        assert traj.margins[model] == margins
        np.testing.assert_array_equal(traj.routes[model], routes)
        assert list(traj.series[model]) == list(series)
        for name, column in series.items():
            np.testing.assert_array_equal(bits(traj.series[model][name]),
                                          bits(column))
        np.testing.assert_array_equal(bits(traj.states[model]), bits(stack))
    return traj
