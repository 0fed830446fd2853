"""One site per computation on the run path: each X-form metric is one call
on the X elements of a model run's whole stack, which the general route then
overwrites in its own rows, each configuration builds one dressed frame, and
each closed-form stationary state is evaluated once per configuration."""

import sys
from dataclasses import replace

import pytest

from conftest import golden_general_configs
from dressedbath import metrics, microscopic, model, phenomenological
from dressedbath.cli import main
from dressedbath.metrics import AssumptionViolated, XStateElements
from dressedbath.scenarios import figure_preset, run_scenario

X_FORM = {"concurrence": "concurrence_x", "discord": "discord_approx_q2",
          "linear_entropy": "linear_entropy_q1"}
RUNS = [figure_preset(n) for n in (2, 4, 6)] + golden_general_configs()


@pytest.fixture
def calls(monkeypatch):
    """Each call of an X-form metric on X elements, and of the general
    concurrence, in order: the function's name and the number of snapshots."""
    seen = []
    for name in (*X_FORM.values(), "concurrence_from_eigs"):
        def spy(first, *args, name=name, real=getattr(metrics, name)):
            if isinstance(first, XStateElements):
                seen.append((name, len(first.p00)))
            elif name == "concurrence_from_eigs":
                seen.append((name, len(first)))
            return real(first, *args)

        monkeypatch.setattr(metrics, name, spy)
    return seen


@pytest.mark.parametrize("cfg", RUNS, ids=[c.label for c in RUNS])
def test_one_x_form_call_per_metric_on_every_snapshot(cfg, calls):
    traj = run_scenario(cfg)
    if "general" in cfg.label:   # the general route overwrites some rows
        assert all(traj.routes[m].any() for m in cfg.models)
    x_form = [(name, n) for name, n in calls if name != "concurrence_from_eigs"]
    assert x_form == [(X_FORM[m], cfg.n_points) for _ in cfg.models
                      for m in cfg.metrics if m in X_FORM]


@pytest.mark.parametrize("wanted", [("discord",), ("concurrence", "discord"),
                                    ("concurrence", "discord", "linear_entropy")])
def test_discord_on_a_general_row_fails_before_any_x_form_metric(wanted, calls):
    """Only the first general snapshot's concurrence runs, when wanted: it
    decides before discord fails."""
    with pytest.raises(AssumptionViolated):
        run_scenario(replace(golden_general_configs()[0], metrics=wanted))
    assert calls == ([("concurrence_from_eigs", 1)] if "concurrence" in wanted else [])


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
    assert main(argv + ([] if argv == ["selftest"] else ["--out", str(tmp_path)])) == 0
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
    assert main(argv + ["--out", str(tmp_path)]) == 0
    assert steady_states == ["microscopic", "phenomenological"] * count
