"""One site per computation on the run path: each metric is one call on a
model run's whole stack, an X form on its X elements or a general form on
the general route, each configuration builds one dressed frame, and
each closed-form stationary state is evaluated once per configuration.  The
micro closed form writes the columns of its start's width, and a model's
stack lives only until its metrics: no series keeps it, and a ``figure`` op
stays within 1 MiB of traced memory."""

import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import bits, golden_general_configs, out_of, random_x_state, sixteen_wide
from dressedbath import metrics, microscopic, model, phenomenological, scenarios
from dressedbath.cli import main
from dressedbath.metrics import AssumptionViolated, XStateElements
from dressedbath.scenarios import (figure_preset, initial_state_matrix, resolve_t_max,
                                   run_scenario)

X_FORM = {"concurrence": "concurrence_x", "discord": "discord_approx_q2",
          "linear_entropy": "linear_entropy_q1"}
RUNS = [figure_preset(n) for n in (2, 4, 6)] + golden_general_configs()


@pytest.fixture
def calls(monkeypatch):
    """Each call of an X-form metric, of the general concurrence and of the
    linear entropy of matrices, in order: the function's name, "[general]"
    after a call on matrices, and the number of snapshots."""
    seen = []
    for name in (*X_FORM.values(), "concurrence_from_eigs"):
        def spy(first, *args, name=name, real=getattr(metrics, name)):
            if isinstance(first, XStateElements):
                seen.append((name, len(first.p00)))
            elif name == "concurrence_from_eigs":
                seen.append((name, len(first)))
            else:   # the linear entropy of matrices
                seen.append((f"{name}[general]", len(first)))
            return real(first, *args)

        monkeypatch.setattr(metrics, name, spy)
    return seen


GENERAL_FORM = {"concurrence": "concurrence_from_eigs",
                "linear_entropy": "linear_entropy_q1[general]"}


@pytest.mark.parametrize("cfg", RUNS, ids=[c.label for c in RUNS])
def test_one_x_form_call_per_metric_on_every_snapshot(cfg, calls):
    """An X run makes one X-form call per metric on all its snapshots; a
    general run makes none, and one general-form call per metric instead."""
    traj = run_scenario(cfg)
    general = "general" in cfg.label
    assert set(traj.routes.values()) == {"general" if general else "matrix_x"}
    forms = GENERAL_FORM if general else X_FORM
    assert calls == [(forms[m], cfg.n_points) for _ in cfg.models
                     for m in cfg.metrics if m in X_FORM]


@pytest.mark.parametrize("wanted", [("discord",), ("concurrence", "discord"),
                                    ("concurrence", "discord", "linear_entropy")])
def test_discord_on_a_general_row_fails_before_any_x_form_metric(wanted, calls):
    """Validation has passed every snapshot, so the first general one refuses
    discord before any metric runs, the general concurrence included."""
    with pytest.raises(AssumptionViolated):
        run_scenario(replace(golden_general_configs()[0], metrics=wanted))
    assert calls == []


@pytest.fixture
def frames(monkeypatch):
    """The parameters of each ``dressed_frame`` call, wherever the package
    looks the function up."""
    seen, real = [], model.dressed_frame

    def spy(p):
        seen.append(p)
        return real(p)

    for mod in list(sys.modules.values()):
        if (getattr(mod, "__name__", "").startswith("dressedbath")
                and getattr(mod, "dressed_frame", None) is real):
            monkeypatch.setattr(mod, "dressed_frame", spy)
    return seen


@pytest.mark.parametrize("argv, count", [
    (["figure", "2", "--points", "50"], 1),
    (["spectrum", "--figure", "3"], 1),
    (["compare", "--figure", "4"], 1),
    (["compare", "--figure", "2", "--points", "200"], 2),   # one run for sudden death
    (["figure", "9", "--points", "50"], 4),   # the preset's shared span, then three runs
    (["steady", "--figure", "2"], 1),
    (["selftest"], 3)])   # figures 1-7 are three configurations
def test_one_dressed_frame_per_configuration(argv, count, frames, tmp_path, capsys):
    assert main(argv + out_of(argv[0], tmp_path)) == 0
    assert len(frames) == count


@pytest.fixture
def steady_states(monkeypatch):
    """The module of each closed-form stationary state evaluated, in order."""
    seen = []
    for mod in (microscopic, phenomenological):
        def spy(*args, name=mod.__name__.rsplit(".", 1)[1], real=mod.steady_state):
            seen.append(name)
            return real(*args)

        monkeypatch.setattr(mod, "steady_state", spy)
    return seen


@pytest.mark.parametrize("argv, count", [
    (["compare", "--figure", "4"], 1),
    (["compare", "--figure", "2", "--points", "200"], 1),   # and a sudden-death run
    (["steady", "--figure", "2"], 1),
    (["sweep", "--figure", "2", "--axis", "temperature",
      "--values", "5e-4,5e-3,1.5e-2", "--points", "200"], 3)])
def test_each_stationary_state_once_per_configuration(argv, count, steady_states,
                                                      tmp_path, capsys):
    assert main(argv + out_of(argv[0], tmp_path)) == 0
    assert steady_states == ["microscopic", "phenomenological"] * count


def preset_configs():
    for n in range(1, 11):
        preset = figure_preset(n)
        yield from preset if isinstance(preset, list) else [preset]


@pytest.mark.parametrize("cfg", list(preset_configs()), ids=lambda c: c.label)
def test_x_columns_of_the_closed_form_are_its_x_entries(cfg, monkeypatch):
    """An X start's eight columns are the first eight of its sixteen (the
    closed form held to all sixteen), bit for bit, and the other eight are
    zeros, from the preset's start and from an X start with coherence
    phases."""
    frame = model.dressed_frame(cfg.params)
    rates = model.rate_set(cfg.params, frame)
    times = np.linspace(0.0, resolve_t_max(cfg, rates), 300)
    rng = np.random.default_rng(5)
    for start in (initial_state_matrix(cfg, frame), random_x_state(rng).matrix()):
        rho0 = frame.to_dressed(start)
        full = sixteen_wide(monkeypatch, microscopic.propagate_analytic,
                            rho0, rates, frame, times)
        x_cols = microscopic.propagate_analytic(rho0, rates, frame, times)
        assert x_cols.shape == (300, 8)
        np.testing.assert_array_equal(bits(x_cols), bits(full[:, :8]))
        assert not full[:, 8:].any()


@pytest.mark.parametrize("cfg", [replace(figure_preset(2), n_points=200),
                                 replace(golden_general_configs()[0], n_points=50)],
                         ids=("x", "non_x"))
def test_series_share_no_memory_with_a_stack(cfg, monkeypatch):
    stacks, real = [], scenarios._trajectory_metrics

    def spy(stack, *args):
        stacks.append(stack)
        return real(stack, *args)

    monkeypatch.setattr(scenarios, "_trajectory_metrics", spy)
    traj = run_scenario(replace(cfg, metrics=("concurrence", "linear_entropy",
                                              "populations")))
    assert len(stacks) == len(cfg.models)
    for series in traj.series.values():
        assert "pop_00" in series
        for column in series.values():
            assert not any(np.shares_memory(column, stack) for stack in stacks)


@pytest.mark.parametrize("number", ["2", "9"])
def test_figure_op_stays_within_one_mib(number, tmp_path, capsys):
    """The traced peak of a ``figure`` op, after one to warm up: each model's
    stack lives only from its propagation to its metrics, and the CSV text
    of one block of rows only until the next is formatted (measured 0.68 MiB
    for figure 2 and 0.80 MiB for figure 9, x86-64, numpy 2.4.6)."""
    argv = ["figure", number, "--out", str(tmp_path)]
    assert main(argv) == 0
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 ** 20
