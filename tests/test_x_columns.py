"""An X-shaped start runs on the eight X coordinates of its snapshots, any
other start on all sixteen; the X coordinates come first in both.

Each X coordinate equals its coordinate of the dense stages (both
propagators held to all sixteen, ``linalg.width`` forced to 16) to the bit,
every other dense coordinate is exactly +0, and ``validate_eigs`` gives the
same margins or error on the X coordinates as on all sixteen, and routes
the stack of an X start to the X route.
"""

from dataclasses import replace

import numpy as np
import pytest

from conftest import (EVOLVED, assert_run_matches_dense, bits, margins_of, outcome,
                      random_x_state, run_stacks, sixteen_wide)
from dressedbath import (integrate, linalg, microscopic, phenomenological,
                         scenarios)
from dressedbath.linalg import NotPSD, TraceNotOne, as_matrices, columns, validate_eigs
from dressedbath.model import dressed_frame, rate_set
from dressedbath.scenarios import (MODELS, figure_preset, initial_state_matrix,
                                   parse_config, run_scenario)


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


def validate_dense(cols, **tolerances):
    """``validate_eigs``' margins on all sixteen columns of an X stack."""
    return margins_of(columns(as_matrices(cols)), **tolerances)


def assert_x_columns_of(cols, dense):
    np.testing.assert_array_equal(bits(cols), bits(columns(dense)[:, :8]))
    off_x = columns(dense)[:, 8:]
    assert (bits(off_x) == 0).all()           # +0, no signed zero
    np.testing.assert_array_equal(bits(as_matrices(cols)), bits(dense))


@pytest.mark.parametrize("cfg", CONFIGS)
def test_columns_are_the_dense_entries(cfg, monkeypatch):
    assert len(CONFIGS) == 48
    frame = dressed_frame(cfg.params)
    rates = rate_set(cfg.params, frame)
    times = np.linspace(0.0, scenarios.resolve_t_max(cfg, rates), cfg.n_points)
    rho0 = initial_state_matrix(cfg, frame)

    def micro_of():
        return frame.to_computational_columns(microscopic.propagate_analytic(
            frame.to_dressed(rho0), rates, frame, times))
    micro = micro_of()
    assert_x_columns_of(micro, as_matrices(sixteen_wide(monkeypatch, micro_of)))
    gen = phenomenological.liouvillian_from_ops(cfg.params, rates)
    phenom = integrate.propagate(gen, rho0, times)
    assert_x_columns_of(phenom, as_matrices(
        sixteen_wide(monkeypatch, integrate.propagate, gen, rho0, times)))
    for cols in (micro, phenom):
        assert cols.shape == (cfg.n_points, 8)
        margins, eigs = validate_eigs(cols, **EVOLVED)
        assert margins == validate_dense(cols, **EVOLVED)
        assert eigs is None


@pytest.mark.parametrize("cfg", CONFIGS[::3])
def test_run_scenario_matches_dense_stages(cfg):
    stacks = assert_run_matches_dense(cfg)
    assert {s.shape for s in stacks.values()} == {(cfg.n_points, 8)}


def test_an_x_start_that_leaves_the_x_family_carries_sixteen_columns(rng):
    """A generator that feeds off-X entries from an X start widens the
    trajectory to all sixteen columns, and they are exp(t L) vec(rho0)."""
    expm = pytest.importorskip("scipy.linalg").expm
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    jump = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    gen = integrate.lindblad(a + a.conj().T, [(0.3, jump)])
    rho0 = random_x_state(rng).matrix()
    times = np.linspace(0.0, 2.0, 9)
    cols = integrate.propagate(gen, rho0, times)
    assert cols.shape == (9, 16)
    exact = np.array([expm(t * gen) @ rho0.reshape(-1) for t in times])
    assert np.abs(as_matrices(cols) - exact.reshape(-1, 4, 4)).max() <= 1e-10


def test_a_start_with_one_tiny_off_x_pair_runs_sixteen_wide():
    """An off-X pair of 1e-300 is not zero: both models carry all sixteen
    columns and take the general route."""
    start = np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex)
    start[1, 3] = start[3, 1] = 1e-300
    cfg = replace(NON_X, initial_state=start)
    assert {s.shape for s in run_stacks(cfg).values()} == {(50, 16)}
    assert run_scenario(cfg).routes == {"micro": "general", "phenom": "general"}


# X coordinates of a valid state: the populations, Re and Im of (0,3) and of
# (1,2)
GOOD = np.array([0.4, 0.3, 0.2, 0.1, 0.05, 0.02, 0.0, 0.1])
# a stack holds Hermitian coordinates; the two Hermiticity kinds are what it
# holds of GOOD with its (3,0) entry 0.3 (alone, and with p11 0.5): the
# Hermitian part, (0,3) = (0.05 + 0.02j + 0.3) / 2
BAD = {
    "nan": {4: np.nan},
    "inf": {0: np.inf},
    "imaginary inf": {7: np.inf},
    "trace": {0: 0.8, 1: 0.6},
    "negative block eigenvalue": {4: 0.3, 5: 0.3},
    "hermiticity": {4: 0.175, 5: 0.01},
    "hermiticity and trace": {4: 0.175, 5: 0.01, 3: 0.5},
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
    """The X coordinates fail like all sixteen: same class, message,
    violation; or pass with the same margins."""
    cols = x_stack({index: kind})
    for tolerances in ({}, EVOLVED):
        result = outcome(margins_of, cols, **tolerances)
        assert isinstance(result, tuple)
        assert result == outcome(validate_dense, cols, **tolerances)


@pytest.mark.parametrize("bad_at, expected", [
    ({2: "negative block eigenvalue", 4: "nan"}, NotPSD),
    ({1: "inf", 3: "hermiticity"}, linalg.NotFinite),
    ({5: "hermiticity and trace", 1: "trace"}, TraceNotOne),
])
def test_first_failing_snapshot_decides(bad_at, expected):
    cols = x_stack(bad_at)
    result = outcome(margins_of, cols)
    assert result[0] is expected
    assert result == outcome(validate_dense, cols)


def test_validate_x_margins_equal_validate_batch(rng):
    """The X coordinates give the margins of all sixteen."""
    cols = columns(np.array([random_x_state(rng).matrix() for _ in range(200)]))[:, :8]
    cols[::7, 4] += 1e-12                  # within the evolved tolerance
    margins = margins_of(cols, **EVOLVED)
    assert margins.trace > 0
    assert margins == validate_dense(cols, **EVOLVED)


NON_X = parse_config(
    "omega = 4e9\ncoupling = 4e9\ngamma0 = 5e7\n"
    "bath_width = 5e10\nbath_center = 8e9\ntemperature = 5e-4\n"
    "n_points = 50\nmetrics = concurrence\n"
    "initial_state = custom(0.25, 0.1, 0, 0, 0.1, 0.25, 0, 0, "
    "0, 0, 0.25, 0, 0, 0, 0, 0.25)\n")
# each start shape, and the width of its run's stacks
STARTS = {"x": (replace(NON_X, initial_state="ket10"), 8), "non_x": (NON_X, 16)}


@pytest.mark.parametrize("start", list(STARTS))
def test_each_start_carries_the_columns_of_its_entries(start):
    cfg, width = STARTS[start]
    stacks = run_stacks(cfg)
    assert {m: s.shape for m, s in stacks.items()} == {
        "micro": (50, width), "phenom": (50, width)}


@pytest.mark.parametrize("start", list(STARTS))
def test_each_model_validates_its_columns_once(start, monkeypatch):
    cfg, width = STARTS[start]
    calls, read = [], scenarios.metrics.x_elements_from_columns

    def spy(cols, **tolerances):
        calls.append(("validate", cols.shape))
        return validate_eigs(cols, **tolerances)

    def read_spy(cols):
        calls.append(("read", cols.shape))
        return read(cols)

    monkeypatch.setattr(scenarios, "validate_eigs", spy)
    monkeypatch.setattr(scenarios.metrics, "x_elements_from_columns", read_spy)
    for models in (("micro",), ("phenom",), MODELS):
        calls.clear()
        run_scenario(replace(cfg, models=models))
        # one validation per model run, then one X read on the X route
        stages = ("validate", "read") if width == 8 else ("validate",)
        assert calls == [(stage, (50, width)) for stage in stages] * len(models)


def _refuse(*args, **kwargs):
    raise AssertionError("a dense stage ran")


@pytest.mark.parametrize("start", list(STARTS))
def test_run_never_builds_the_dense_stack(start, monkeypatch):
    # a concurrence-only run builds no (n, 4, 4) stack, X-shaped or not
    monkeypatch.setattr(scenarios, "as_matrices", _refuse)
    run_scenario(STARTS[start][0])
