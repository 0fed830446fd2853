"""Each output check must pass on a real output and fail on a corrupted copy.

    python3 -m pytest perfbench/test_checks.py -q

Runs a few cheap operations of the real program once, then hands every
check the untouched output (no errors expected) and a copy with one
deliberate fault (at least one error expected).  A check that cannot fail
is caught here.
"""

from __future__ import annotations

import copy
import pathlib
import re
import sys

import numpy as np
import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from workloads import Operation  # noqa: E402


def _ops(tmp):
    general = workloads.general_state(7, tmp / "inputs")[0]
    return {
        "figure4": Operation(("figure", "4", "--points", "200"), "figure",
                             800, detail={"number": 4}),
        "figure10": Operation(("figure", "10", "--points", "200"), "figure",
                              2400, detail={"number": 10}),
        "general": general,
        "compare": Operation(("compare", "--figure", "3"), "compare", 4000,
                             detail={"figure": 3}),
        "sweep": next(op for op in workloads.stationary()
                      if op.detail.get("axis") == "coupling"),
        "selftest": Operation(("selftest",), "selftest", 0, writes_out=False),
    }


@pytest.fixture(scope="module")
def real(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("perfbench")
    cli = run.import_program()
    out = {}
    for key, op in _ops(tmp).items():
        res = run.run_operation(cli, op, tmp, before=1.0)
        assert res.ok, res.outcome.stderr
        out[key] = (op, res.outcome)
    return out


def _errors(op, outcome):
    return checks.check(op, outcome, np.random.default_rng(0))


def _edit_file(outcome, suffix, edit):
    """Apply edit(lines) to the one file whose name ends with suffix."""
    (name,) = [n for n in outcome.files if n.endswith(suffix)]
    lines = outcome.files[name].splitlines()
    edit(lines)
    outcome.files[name] = "\n".join(lines) + "\n"


def _bump_last_row(column, delta):
    def edit(lines):
        header = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        col = lines[header].split(",").index(column)
        cells = lines[-1].split(",")
        cells[col] = repr(float(cells[col]) + delta)
        lines[-1] = ",".join(cells)
    return edit


def _bump_row(label, column, delta):
    def edit(lines):
        header = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        col = lines[header].split(",").index(column)
        i = next(i for i, l in enumerate(lines)
                 if i > header and l.split(",")[0] == label)
        cells = lines[i].split(",")
        cells[col] = repr(float(cells[col]) + delta)
        lines[i] = ",".join(cells)
    return edit


def _replace_line(old, new):
    def edit(lines):
        i = lines.index(old)
        lines[i] = new
    return edit


def _set_meta(key, value):
    def edit(lines):
        i = next(i for i, l in enumerate(lines) if l.startswith(f"# {key} = "))
        lines[i] = f"# {key} = {value}"
    return edit


def _drop_row(lines):
    del lines[-2]


def _stdout(old, new):
    def corrupt(outcome):
        assert old in outcome.stdout
        outcome.stdout = outcome.stdout.replace(old, new, 1)
    return corrupt


def _file(suffix, edit):
    return lambda outcome: _edit_file(outcome, suffix, edit)


def _drop_file(suffix):
    def corrupt(outcome):
        (name,) = [n for n in outcome.files if n.endswith(suffix)]
        del outcome.files[name]
    return corrupt


CORRUPTIONS = {
    "discord value": ("figure4", _file("_micro.csv", _bump_last_row("discord", 0.05))),
    "linear entropy value": ("figure10", _file("T0.05_phenom.csv",
                                               _bump_last_row("linear_entropy", -1e-5))),
    "concurrence value": ("general", _file("_micro.csv",
                                           _bump_last_row("concurrence", 0.02))),
    "population value": ("general", _file("_phenom.csv", _bump_last_row("pop_01", 1e-6))),
    "metadata temperature": ("figure4", _file("_phenom.csv",
                                              _set_meta("temperature", "0.00051"))),
    "metadata model": ("general", _file("_micro.csv", _set_meta("model", "phenom"))),
    "missing row": ("figure4", _file("_micro.csv", _drop_row)),
    "missing file": ("figure10", _drop_file("T0.15_micro.csv")),
    "stdout file list": ("figure4", _stdout("figure4_micro.csv", "figure4_mikro.csv")),
    "micro_thermal flag": ("compare", _file("_compare.csv",
                                            _replace_line("micro_thermal,1,,",
                                                          "micro_thermal,0,,"))),
    "phenom_thermal flag": ("compare", _file("_compare.csv",
                                             _replace_line("phenom_thermal,0,,",
                                                           "phenom_thermal,1,,"))),
    "compare micro value": ("compare", _file("_compare.csv",
                                             _bump_row("concurrence", "micro_stationary",
                                                       0.01))),
    "compare phenom value": ("compare", _file("_compare.csv",
                                              _bump_row("concurrence",
                                                        "phenom_stationary", -0.01))),
    "compare relative difference": ("compare", _file(
        "_compare.csv", _bump_row("concurrence", "relative_diff", 0.001))),
    "sweep micro value": ("sweep", _file("_sweep_coupling.csv",
                                         _bump_row("4000000000", "micro_linear_entropy",
                                                   1e-5))),
    "sweep phenom value": ("sweep", _file("_sweep_coupling.csv",
                                          _bump_row("1000000000",
                                                    "phenom_linear_entropy", 1e-5))),
    "sweep axis value": ("sweep", _file("_sweep_coupling.csv",
                                        _bump_row("16000000000", "coupling", 1e9))),
    "sweep report line": ("sweep", _stdout("phenom steady state: not thermal",
                                           "phenom steady state: thermal")),
    "selftest FAIL line": ("selftest", _stdout("PASS figure 3", "FAIL figure 3")),
}


def test_real_outputs_pass(real):
    for key, (op, outcome) in real.items():
        assert _errors(op, outcome) == [], key


@pytest.mark.parametrize("fault", sorted(CORRUPTIONS))
def test_corrupted_output_fails(real, fault):
    key, corrupt = CORRUPTIONS[fault]
    op, outcome = real[key]
    bad = copy.deepcopy(outcome)
    corrupt(bad)
    assert bad != outcome
    assert _errors(op, bad), f"{fault}: corrupted {key} output passed its checks"


def test_selftest_exit_code_checked(real):
    op, outcome = real["selftest"]
    bad = copy.deepcopy(outcome)
    bad.rc = 2
    assert _errors(op, bad)


def test_figure10_order_fails_when_temperatures_swap(real):
    op, outcome = real["figure10"]
    cfgs = checks.scenarios.figure_preset(10)
    assert checks.figure10_order_errors(cfgs, outcome.files) == []
    files = dict(outcome.files)
    for model in ("micro", "phenom"):
        cold, hot = (f"{c.label}_{model}.csv" for c in (cfgs[0], cfgs[2]))
        files[cold], files[hot] = files[hot], files[cold]
    assert len(checks.figure10_order_errors(cfgs, files)) == 2


def test_later_pass_must_repeat_the_first(real, tmp_path):
    op, outcome = real["compare"]
    changed = copy.deepcopy(outcome)
    _edit_file(changed, "_compare.csv", _set_meta("label", "other"))
    first, same, other = (run.Result(op, o, 1.0, 1.0, 1.0)
                          for o in (outcome, copy.deepcopy(outcome), changed))
    assert run.verify([[first], [same]], 0) == []
    assert run.verify([[first], [other]], 0) == [
        "pass 2: compare --figure 3 differs from pass 1"]



def test_selftest_timings_do_not_count_as_a_difference(real):
    op, outcome = real["selftest"]
    retimed = copy.deepcopy(outcome)
    retimed.stdout = re.sub(r"\d+\.\d+s\)", "9.99s)", retimed.stdout)
    assert retimed.stdout != outcome.stdout
    results = [run.Result(op, o, 1.0, 1.0, 1.0) for o in (outcome, retimed)]
    assert results[0].digest == results[1].digest


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
