"""An X-shaped start runs on the eight X columns of its snapshots.

Each X column equals its entry of the dense ``(n, 4, 4)`` stages to the bit,
every other dense entry is exactly +0, and ``validate_x`` gives the margins
or the error of ``validate_batch`` on the dense stack.
"""

from dataclasses import replace

import numpy as np
import pytest

from conftest import (assert_run_matches_dense, bits, outcome,
                      random_density, random_x_state)
from dressedbath import (cli, integrate, linalg, microscopic,
                         phenomenological, scenarios)
from dressedbath.linalg import (EVOLVED_HERM_TOL, EVOLVED_PSD_TOL,
                                EVOLVED_TRACE_TOL, X_ENTRIES, NotPSD,
                                TraceNotOne, as_matrices, validate_batch,
                                validate_x)
from dressedbath.model import DressedFrame, dressed_frame, rate_set
from dressedbath.scenarios import (figure_preset, initial_state_matrix,
                                   run_scenario)

X_ROWS, X_COLS = (list(c) for c in zip(*X_ENTRIES))
EVOLVED = dict(herm_tol=EVOLVED_HERM_TOL, trace_tol=EVOLVED_TRACE_TOL,
               psd_tol=EVOLVED_PSD_TOL)


def preset_configs():
    for n in range(1, 11):
        preset = figure_preset(n)
        yield from preset if isinstance(preset, list) else [preset]


def x_start_configs():
    """The 16 presets from their own start, and each preset from two seeded
    random X states on a 300-point grid."""
    rng = np.random.default_rng(31)
    for cfg in preset_configs():
        yield cfg
        for _ in range(2):
            yield replace(cfg, initial_state=random_x_state(rng).matrix(),
                          n_points=300)


CONFIGS = list(x_start_configs())


def assert_x_columns_of(cols, dense):
    np.testing.assert_array_equal(bits(cols), bits(dense[:, X_ROWS, X_COLS]))
    off_x = dense[:, linalg._OFF_X[0], linalg._OFF_X[1]]
    assert (bits(off_x) == 0).all()           # +0+0j, no signed zero
    np.testing.assert_array_equal(bits(as_matrices(cols)), bits(dense))


@pytest.mark.parametrize("cfg", CONFIGS)
def test_columns_are_the_dense_entries(cfg):
    assert len(CONFIGS) == 48
    frame = dressed_frame(cfg.params)
    rates = rate_set(cfg.params, frame)
    times = np.linspace(0.0, scenarios.resolve_t_max(cfg, rates), cfg.n_points)
    rho0 = initial_state_matrix(cfg, frame)
    dressed = microscopic.propagate_analytic(frame.to_dressed(rho0), rates,
                                             frame, times)
    micro = frame.to_computational_columns(dressed, X_ENTRIES)
    assert_x_columns_of(micro, frame.to_computational(dressed))
    gen = phenomenological.liouvillian_from_ops(cfg.params, rates)
    phenom = integrate.propagate(gen, rho0, times, X_ENTRIES)
    assert_x_columns_of(phenom, integrate.propagate(gen, rho0, times))
    for cols in (micro, phenom):
        margins = validate_x(cols, **EVOLVED)
        assert margins == validate_batch(as_matrices(cols), **EVOLVED)


@pytest.mark.parametrize("cfg", CONFIGS[::3])
def test_run_scenario_matches_dense_stages(cfg):
    traj = assert_run_matches_dense(cfg)
    assert {s.shape for s in traj.stacks.values()} == {(cfg.n_points, 8)}


def test_propagate_rejects_entries_missing_a_reached_one(rng):
    cfg = figure_preset(2)
    rates = rate_set(cfg.params)
    gen = phenomenological.liouvillian_from_ops(cfg.params, rates)
    with pytest.raises(ValueError):
        integrate.propagate(gen, random_density(rng), [0.0, 1e-9], X_ENTRIES)


# X columns of a valid state: the diagonal, (0,3), (3,0), (1,2), (2,1)
GOOD = np.array([0.4, 0.3, 0.2, 0.1, 0.05 + 0.02j, 0.05 - 0.02j, 0.1j, -0.1j])
BAD = {
    "nan": {4: np.nan},
    "inf": {0: np.inf},
    "imaginary inf": {6: complex(0.0, np.inf)},
    "trace": {0: 0.8, 1: 0.6},
    "negative block eigenvalue": {4: 0.3, 5: 0.3},
    "hermiticity": {5: 0.3},
    "hermiticity and trace": {5: 0.3, 3: 0.5},
}


def x_stack(bad_at, n=7):
    cols = np.repeat(GOOD[None], n, axis=0)
    for index, kind in bad_at.items():
        for col, value in BAD[kind].items():
            cols[index, col] = value
    return cols


@pytest.mark.parametrize("kind", list(BAD))
@pytest.mark.parametrize("index", [0, 3, 6])
def test_validate_x_raises_like_validate_batch(kind, index):
    cols = x_stack({index: kind})
    for tolerances in ({}, EVOLVED):
        result = outcome(validate_x, cols, **tolerances)
        assert isinstance(result, tuple)
        assert result == outcome(validate_batch, as_matrices(cols), **tolerances)


@pytest.mark.parametrize("bad_at, expected", [
    ({2: "negative block eigenvalue", 4: "nan"}, NotPSD),
    ({1: "inf", 3: "hermiticity"}, linalg.NotFinite),
    ({5: "hermiticity", 1: "trace"}, TraceNotOne),
])
def test_first_failing_snapshot_decides(bad_at, expected):
    cols = x_stack(bad_at)
    result = outcome(validate_x, cols)
    assert result[0] is expected
    assert result == outcome(validate_batch, as_matrices(cols))


def test_validate_x_margins_equal_validate_batch(rng):
    cols = np.array([[x.p00, x.p01, x.p10, x.p11, x.outer, np.conj(x.outer),
                      x.inner, np.conj(x.inner)]
                     for x in (random_x_state(rng) for _ in range(200))])
    cols[::7, 4] += 1e-12                  # within the evolved tolerance
    margins = validate_x(cols, **EVOLVED)
    assert margins.hermiticity > 0
    assert margins == validate_batch(as_matrices(cols), **EVOLVED)


def _refuse(*args, **kwargs):
    raise AssertionError("a dense stage ran")


def test_x_run_never_builds_the_dense_stack(monkeypatch):
    monkeypatch.setattr(DressedFrame, "to_computational", _refuse)
    monkeypatch.setattr(scenarios, "validate_batch", _refuse)
    monkeypatch.setattr(linalg, "validate_batch", _refuse)
    traj = run_scenario(figure_preset(2))
    assert {m: s.shape for m, s in traj.stacks.items()} == {
        "micro": (2000, 8), "phenom": (2000, 8)}


def test_non_x_config_start_takes_the_dense_stages(monkeypatch, tmp_path):
    calls = []

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(DressedFrame, "to_computational",
                        spy("to_computational", DressedFrame.to_computational))
    monkeypatch.setattr(scenarios, "validate_batch",
                        spy("validate_batch", scenarios.validate_batch))
    path = tmp_path / "nonx.cfg"
    path.write_text("omega = 4e9\ncoupling = 4e9\ngamma0 = 5e7\n"
                    "bath_width = 5e10\nbath_center = 8e9\ntemperature = 5e-4\n"
                    "n_points = 50\nmetrics = concurrence\n"
                    "initial_state = custom(0.25, 0.1, 0, 0, 0.1, 0.25, 0, 0, "
                    "0, 0, 0.25, 0, 0, 0, 0, 0.25)\n", encoding="utf-8")
    assert cli.main(["evolve", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 0
    assert calls.count("to_computational") == 1
    assert calls.count("validate_batch") == 2
