import math
import os
import pathlib
import re
import subprocess
import sys
import warnings
from dataclasses import astuple, replace

import numpy as np
import pytest

from conftest import out_of, set_key
from dressedbath import cli, phenomenological
from dressedbath.cli import build_parser, main
from dressedbath.integrate import TraceDrift
from dressedbath.linalg import PSD_TOL, as_matrices
from dressedbath.model import dressed_frame, rate_set, spectral_density
from dressedbath.scenarios import parse_config, run_scenario

FAST_CONFIG = """
omega = 1e3
coupling = 1e3
gamma0 = 20
bath_width = 1e4
bath_center = 2e3
temperature = 0
n_points = 50
metrics = concurrence, linear_entropy
label = fastcli
"""


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "fast.cfg"
    path.write_text(FAST_CONFIG, encoding="utf-8")
    return path


def test_spectrum_prints_frequencies(config_file, capsys):
    assert main(["spectrum", "--config", str(config_file)]) == 0
    out = capsys.readouterr().out
    assert "bohr frequencies" in out
    assert "energy ground" in out


def test_evolve_writes_files(config_file, tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert main(["evolve", "--config", str(config_file),
                 "--out", str(out_dir)]) == 0
    files = sorted(p.name for p in out_dir.iterdir())
    assert files == ["fastcli_micro.csv", "fastcli_phenom.csv"]


def test_evolve_deterministic(config_file, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(["evolve", "--config", str(config_file), "--out", str(out_a)])
    main(["evolve", "--config", str(config_file), "--out", str(out_b)])
    for name in ("fastcli_micro.csv", "fastcli_phenom.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_model_flag_restricts_output(config_file, tmp_path):
    out_dir = tmp_path / "one"
    main(["evolve", "--config", str(config_file), "--model", "phenom",
          "--out", str(out_dir)])
    assert [p.name for p in out_dir.iterdir()] == ["fastcli_phenom.csv"]


def test_points_flag_overrides(config_file, tmp_path):
    out_dir = tmp_path / "pts"
    main(["evolve", "--config", str(config_file), "--points", "7",
          "--out", str(out_dir)])
    lines = (out_dir / "fastcli_micro.csv").read_text().splitlines()
    assert len([l for l in lines if not l.startswith("#")]) == 8  # header + 7


def test_steady_prints_metrics(config_file, capsys):
    assert main(["steady", "--config", str(config_file)]) == 0
    out = capsys.readouterr().out
    assert "micro stationary dressed populations" in out
    assert "phenom stationary concurrence" in out


def test_figure_writes_files(tmp_path, capsys):
    assert main(["figure", "2", "--points", "40", "--out", str(tmp_path)]) == 0
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["figure2_micro.csv", "figure2_phenom.csv"]


def test_compare_emits_report(config_file, tmp_path, capsys):
    assert main(["compare", "--config", str(config_file),
                 "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "relative difference" in out
    assert (tmp_path / "fastcli_compare.csv").exists()


def test_sweep_writes_matrix(config_file, tmp_path):
    assert main(["sweep", "--config", str(config_file), "--axis", "temperature",
                 "--values", "0,0.01", "--out", str(tmp_path)]) == 0
    text = (tmp_path / "fastcli_sweep_temperature.csv").read_text()
    rows = [l for l in text.splitlines() if not l.startswith("#")]
    assert len(rows) == 3


def test_missing_source_is_config_error(capsys):
    assert main(["evolve"]) == 1
    assert "configuration error" in capsys.readouterr().err


def test_bad_config_line_number(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text(FAST_CONFIG.replace("gamma0 = 20", "gamma0 = much"),
                    encoding="utf-8")
    assert main(["evolve", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "line" in err


def test_unknown_metric_is_config_error(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text(set_key(FAST_CONFIG, "metrics", "sparkle"), encoding="utf-8")
    assert main(["evolve", "--config", str(path)]) == 1
    assert "sparkle" in capsys.readouterr().err


@pytest.mark.parametrize("verb", [
    ["evolve"], ["sweep", "--axis", "temperature", "--values", "0,1"]])
@pytest.mark.parametrize("line, message", [
    ("metrics = concurrence, concurrence", "metric 'concurrence' is listed twice"),
    ("models = micro, micro", "model 'micro' is listed twice")])
def test_repeated_metric_or_model_is_config_error(tmp_path, capsys, verb, line,
                                                  message):
    path = tmp_path / "dup.cfg"
    path.write_text(set_key(FAST_CONFIG, *(s.strip() for s in line.split("="))),
                    encoding="utf-8")
    out_dir = tmp_path / "out"
    assert main(verb[:1] + ["--config", str(path), "--out", str(out_dir)]
                + verb[1:]) == 1
    assert capsys.readouterr() == ("", f"configuration error: {message}\n")
    assert not out_dir.exists()


CUSTOM_KET01 = "custom(" + ", ".join("1" if k == 5 else "0" for k in range(16)) + ")"


@pytest.mark.parametrize("text, message", [
    # omega on lines 1 and 7, n_points on lines 6 and 9: the first repeat is named
    ("omega = 1e3\ncoupling = 1e3\ngamma0 = 20\nbath_width = 1e4\n"
     "bath_center = 2e3\nn_points = 50\nomega = 1e9\ntemperature = 0\n"
     "n_points = 60\nmodels = micro\nlabel = dup\n",
     "line 7: 'omega' is already set on line 1"),
    (FAST_CONFIG + f"initial_state = {CUSTOM_KET01}\ninitial_state = ket10\n",
     "line 12: 'initial_state' is already set on line 11")],
    ids=["float_key", "initial_state"])
def test_repeated_key_is_config_error(tmp_path, capsys, text, message):
    path = tmp_path / "dup.cfg"
    path.write_text(text, encoding="utf-8")
    out_dir = tmp_path / "out"
    assert main(["evolve", "--config", str(path), "--out", str(out_dir)]) == 1
    assert capsys.readouterr() == ("", f"configuration error: {message}\n")
    assert not out_dir.exists()


def test_figure_out_of_range_is_config_error(capsys):
    assert main(["evolve", "--figure", "12"]) == 1


def test_points_beyond_cap_is_config_error(tmp_path, capsys):
    from dressedbath.scenarios import MAX_POINTS
    out_dir = tmp_path / "out"
    assert main(["figure", "2", "--points", str(MAX_POINTS + 1),
                 "--out", str(out_dir)]) == 1
    assert capsys.readouterr().err == (
        f"configuration error: n_points must be between 2 and {MAX_POINTS}, "
        f"got {MAX_POINTS + 1}\n")
    assert not out_dir.exists()


def test_invalid_custom_state_is_numeric_error(tmp_path, capsys):
    entries = ["0"] * 16
    entries[0] = "2"          # trace 2, not a state
    path = tmp_path / "bad_state.cfg"
    path.write_text(FAST_CONFIG
                    + f"\ninitial_state = custom({','.join(entries)})\n",
                    encoding="utf-8")
    assert main(["evolve", "--config", str(path)]) == 2
    assert "numerical invariant" in capsys.readouterr().err


def test_temp_flag_overrides(config_file, tmp_path):
    out_dir = tmp_path / "temp"
    main(["evolve", "--config", str(config_file), "--temp", "0.01",
          "--out", str(out_dir)])
    text = (out_dir / "fastcli_T0.01_micro.csv").read_text()
    assert "# temperature = 0.01" in text


# the six checks that selftest prints for each of figures 1-7, in order
SELFTEST_CHECKS = (
    "closed form vs integrated generator",
    "micro X elements: dressed closed form vs basis change",
    "phenom element equations vs operator form",
    "micro stationarity (Gibbs state, annihilated)",
    "phenom stationarity",
    "ground-population equation coefficients",
)
SELFTEST_LINE = re.compile(r"(PASS|FAIL) figure (\d+) (.*) \(([^()]*)\)")


def _selftest_lines(out):
    """(verdict, figure, check name, detail) of every line of selftest."""
    rows = [SELFTEST_LINE.fullmatch(line).groups() for line in out.splitlines()]
    assert [(int(fig), name) for _, fig, name, _ in rows] == [
        (n, name) for n in range(1, 8) for name in SELFTEST_CHECKS]
    return rows


def _count_calls(monkeypatch, module, name):
    """Wrap module.name (as cli sees it) and return its list of call args."""
    calls, real = [], getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)
    monkeypatch.setattr(module, name, spy)
    return calls


def _stationarity_reports_temperature(monkeypatch, failing=None):
    """Make the micro stationarity check print its run's temperature as the
    residual, and fail at temperature ``failing``; returns its call list."""
    calls, real = [], cli.microscopic.thermal_stationarity

    def fake(params, *args):
        calls.append(params.temperature)
        thermal, _ = real(params, *args)
        return thermal and params.temperature != failing, params.temperature
    monkeypatch.setattr(cli.microscopic, "thermal_stationarity", fake)
    return calls


def test_selftest_passes(monkeypatch, capsys):
    # once per configuration: figures 2-7 are two (5e-4 K and 1.5e-2 K),
    # figure 1 a third
    generators = _count_calls(monkeypatch, cli.microscopic, "liouvillian")
    propagations = _count_calls(monkeypatch, cli.integrate, "propagate")
    rate_sets = _count_calls(monkeypatch, cli, "rate_set")
    for _ in range(2):   # nothing is kept from one call to the next
        for calls in (generators, propagations, rate_sets):
            calls.clear()
        assert main(["selftest"]) == 0
        rows = _selftest_lines(capsys.readouterr().out)
        assert len(rows) == 42 and {v for v, *_ in rows} == {"PASS"}
        assert len(generators) == len(propagations) == len(rate_sets) == 3


@pytest.mark.parametrize("number", [1, 2, 3])   # selftest's three configurations
def test_selftest_check_one_is_the_complex_stack_deviation(number, monkeypatch):
    """Check 1's max deviation, read off the coordinate differences, is the
    largest entry of |difference| of the two (400, 4, 4) complex stacks, as
    a double, and its detail prints it."""
    seen = {}
    for owner, name in ((cli.microscopic, "propagate_analytic"), (cli.integrate, "propagate")):
        def spy(*args, name=name, real=getattr(owner, name)):
            seen[name] = real(*args)
            return seen[name]
        monkeypatch.setattr(owner, name, spy)
    detail = cli._selftest_checks(cli.figure_preset(number))[0][2]
    analytic, numeric = seen["propagate_analytic"], seen["propagate"]
    stacks = np.abs(as_matrices(analytic) - as_matrices(numeric)).max()
    diff = analytic - numeric
    assert np.maximum(np.abs(diff[:, :4]).max(),
                      np.hypot(diff[:, 4::2], diff[:, 5::2]).max()) == stacks
    assert detail.startswith(f"max dev {stacks:.2e}, ")


def test_selftest_runs_a_figure_of_its_own_configuration(monkeypatch, capsys):
    real = cli.figure_preset

    def preset(n):
        cfg = real(n)
        return replace(cfg, params=replace(cfg.params, temperature=1e-3)) \
            if n == 4 else cfg
    monkeypatch.setattr(cli, "figure_preset", preset)
    generators = _count_calls(monkeypatch, cli.microscopic, "liouvillian")
    temps = _stationarity_reports_temperature(monkeypatch)
    assert main(["selftest"]) == 0
    rows = _selftest_lines(capsys.readouterr().out)
    assert len(generators) == 4
    assert temps == [0.0, 5e-4, 1.5e-2, 1e-3]
    details = [detail for _, _, name, detail in rows if name == SELFTEST_CHECKS[3]]
    assert details[1:6:2] == ["residual 5.00e-04", "residual 1.00e-03",   # 2, 4, 6
                              "residual 5.00e-04"]


def test_selftest_runs_a_figure_of_its_own_time_span(monkeypatch, capsys):
    # figure 4 keeps figure 2's parameters but not its span
    real = cli.figure_preset

    def preset(n):
        return replace(real(n), t_max=1e-9) if n == 4 else real(n)
    monkeypatch.setattr(cli, "figure_preset", preset)
    generators = _count_calls(monkeypatch, cli.microscopic, "liouvillian")
    propagations = _count_calls(monkeypatch, cli.integrate, "propagate")
    assert main(["selftest"]) == 0
    rows = _selftest_lines(capsys.readouterr().out)
    assert len(rows) == 42 and {v for v, *_ in rows} == {"PASS"}
    assert len(generators) == 4
    assert propagations[3][2][-1] == 1e-9   # figure 4's grid ends at its own t_max


def test_selftest_fail_is_printed_for_every_figure_sharing_it(monkeypatch, capsys):
    temps = _stationarity_reports_temperature(monkeypatch, failing=5e-4)
    assert main(["selftest"]) == 2
    rows = _selftest_lines(capsys.readouterr().out)
    assert temps == [0.0, 5e-4, 1.5e-2]
    assert [(int(fig), name) for verdict, fig, name, _ in rows
            if verdict == "FAIL"] == [(n, SELFTEST_CHECKS[3]) for n in (2, 4, 6)]
    # each figure prints the details of the run it shares
    assert [detail for _, _, name, detail in rows if name == SELFTEST_CHECKS[3]] \
        == ["residual 0.00e+00"] + ["residual 5.00e-04", "residual 1.50e-02"] * 3


def test_compare_and_sweep_build_no_micro_generator(monkeypatch, tmp_path,
                                                    capsys):
    # both thermal verdicts are read off the closed-form stationary states;
    # the micro generator is selftest's oracle only
    generators = _count_calls(monkeypatch, cli.microscopic, "liouvillian")
    for n in range(2, 8):
        assert main(["compare", "--figure", str(n), "--out", str(tmp_path)]) == 0
    assert main(["sweep", "--figure", "2", "--axis", "temperature",
                 "--values", "5e-4,1.5e-2", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert out.count("micro steady state: thermal (detailed balance verified)\n"
                     "phenom steady state: not thermal") == 8
    assert generators == []


@pytest.mark.parametrize("argv", [
    ["compare", "--figure", "2", "--temp", "inf"],
    ["evolve", "--figure", "2", "--temp", "nan"],
])
def test_non_finite_temperature_is_config_error(argv, tmp_path, capsys):
    assert main(argv + ["--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: temperature must be finite")
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_label_outside_out_is_config_error(tmp_path, capsys):
    path = tmp_path / "escape.cfg"
    path.write_text(FAST_CONFIG.replace("label = fastcli", "label = ../escaped"),
                    encoding="utf-8")
    out_dir = tmp_path / "out"
    assert main(["evolve", "--config", str(path), "--out", str(out_dir)]) == 1
    assert "not a safe file name" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["escape.cfg"]


# spectrum and steady read no run flag and write no file; compare and sweep
# always run both models
REFUSED_FLAGS = ([(verb, flag) for verb in ("spectrum", "steady")
                  for flag in (["--model", "micro"], ["--tmax", "1"], ["--points", "5"],
                               ["--out", "."])]
                 + [(verb, ["--model", "micro"]) for verb in ("compare", "sweep")])


@pytest.mark.parametrize("verb, flag", REFUSED_FLAGS,
                         ids=[f"{verb}{flag[0]}" for verb, flag in REFUSED_FLAGS])
def test_flag_a_verb_does_not_read_is_config_error(verb, flag, tmp_path, capsys):
    out_dir = tmp_path / "out"
    axis = ["--axis", "temperature", "--values", "1e-3"] if verb == "sweep" else []
    assert main([verb, "--figure", "2", *flag, *axis, *out_of(verb, out_dir)]) == 1
    assert capsys.readouterr() == (
        "", f"configuration error: unrecognized arguments: {' '.join(flag)}\n")
    assert not out_dir.exists()


def test_closed_stdout_is_config_error(tmp_path):
    # about 130 kB of reports, past what the pipe and the stream buffer hold,
    # so the run is still writing when the reader closes
    values = ",".join(f"{v:.6g}" for v in np.geomspace(5e6, 2e8, 250))
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "dressedbath.cli", "sweep", "--figure", "5",
         "--axis", "gamma0", "--values", values, "--out", str(tmp_path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"comparison: figure5_gamma05e+06\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b"configuration error: standard output was closed\n"


@pytest.mark.parametrize("argv, written", [
    (["compare", "--figure", "4", "--temp", "0.001"],
     "figure4_T0.001_compare.csv"),
    (["sweep", "--figure", "5", "--axis", "coupling", "--values", "2e9"],
     "figure5_sweep_coupling.csv"),
])
def test_negative_dust_population_keeps_discord_finite(argv, written,
                                                       tmp_path, capsys):
    # both runs reach discord_approx_q2 with a population of -1e-17 or so
    assert main(argv + ["--out", str(tmp_path)]) == 0
    assert "stationary discord" in capsys.readouterr().out
    assert (tmp_path / written).exists()


FIGURE2_HUGE_DAMPING = """
omega = 4e9
coupling = 4e9
gamma0 = {gamma0}
bath_width = 5e10
bath_center = 8e9
temperature = {temperature}
n_points = 20
metrics = concurrence
label = huge
"""


def huge_damping_config(tmp_path, gamma0, temperature="5e-4"):
    path = tmp_path / "huge.cfg"
    path.write_text(FIGURE2_HUGE_DAMPING.format(gamma0=gamma0, temperature=temperature),
                    encoding="utf-8")
    return path


def test_non_finite_evolved_state_is_numeric_error(tmp_path, capsys):
    # a 1e4 K bath lifts the micro rates past the double range
    path = huge_damping_config(tmp_path, "1e306", temperature="1e4")
    out_dir = tmp_path / "out"
    with warnings.catch_warnings():
        # the overflow is reported once, by the exit-2 message alone
        warnings.simplefilter("error")
        assert main(["evolve", "--config", str(path), "--model", "micro",
                     "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err == ("numerical invariant violated: "
                   "matrix contains non-finite entries\n")
    assert not out_dir.exists()


@pytest.mark.parametrize("gamma0", ["1e300", "1e200"])
def test_huge_finite_micro_rates_complete(gamma0, tmp_path, capsys):
    # every rate is finite, and so is each channel's map
    path = huge_damping_config(tmp_path, gamma0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["evolve", "--config", str(path), "--model", "micro",
                     "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""
    assert (tmp_path / "huge_micro.csv").exists()


def test_underflowing_time_span_is_config_error(tmp_path, capsys):
    # the automatic span, 10 over the overflowing bare damping rate, is 0
    path = figure2_config(tmp_path, gamma0="1e300", temperature="1e100")
    out_dir = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["evolve", "--config", str(path), "--model", "phenom",
                     "--out", str(out_dir)]) == 1
    assert capsys.readouterr().err == (
        "configuration error: time span 0 s is too short for n_points = 20 "
        "strictly increasing times; set t_max\n")
    assert not out_dir.exists()


def test_overflowing_phenom_rates_are_numeric_error(tmp_path, capsys):
    # an explicit span passes the span check; the generator is not finite
    path = huge_damping_config(tmp_path, "1e300")
    out_dir = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["evolve", "--config", str(path), "--model", "phenom",
                     "--tmax", "1e-9", "--out", str(out_dir)]) == 2
    assert capsys.readouterr().err == ("numerical invariant violated: "
                                       "matrix contains non-finite entries\n")
    assert not out_dir.exists()


@pytest.mark.parametrize("argv", [
    ["evolve", "--figure", "2", "--tmax", "1e-4", "--model", "phenom"],
    ["sweep", "--figure", "3", "--axis", "gamma0", "--values", "1e6",
     "--points", "400"],
])
def test_long_phenom_span_keeps_trace(argv, tmp_path, capsys):
    # thousands of bare lifetimes and oscillation periods per run
    assert main(argv + ["--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv", [
    ["compare", "--figure", "2", "--temp", "1e-6"],
    ["evolve", "--figure", "2", "--temp", "1e-6"],
    ["sweep", "--figure", "7", "--axis", "coupling", "--values", "1e13"],
])
def test_cold_bath_occupancy_underflows(argv, tmp_path, capsys):
    # hbar omega / k_B T is far past the overflow point of exp
    assert main(argv + ["--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""


def test_hot_bath_steady_state_is_finite(capsys):
    # the bare rates, about 1.6e305 /s here, square past the double range
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["steady", "--figure", "2", "--temp", "1e296"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert "nan" not in out and "inf" not in out
    assert "(ground, antisym, sym, top): 0.25 0.25 0.25 0.25\n" in out
    assert "computational diagonal: 0.25 0.25 0.25 0.25\n" in out


def test_micro_span_past_the_phase_range(tmp_path, capsys):
    # the Bohr phase overflows long after the coherences decayed
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["evolve", "--figure", "2", "--tmax", "1e300",
                     "--model", "micro", "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""


def test_non_finite_custom_state_is_config_error(tmp_path, capsys):
    entries = ["0"] * 16
    entries[0], entries[15] = "nan", "1"
    path = tmp_path / "nan_state.cfg"
    path.write_text(FAST_CONFIG + f"\ninitial_state = custom({','.join(entries)})\n",
                    encoding="utf-8")
    assert main(["evolve", "--config", str(path), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == (
        "configuration error: matrix contains non-finite entries\n")


@pytest.mark.parametrize("label, argv, written", [
    ("my_Trial", ["evolve"], "my_Trial_T0.01_micro.csv"),
    ("run_T1e-05", ["evolve"], "run_T0.01_micro.csv"),
    (None, ["evolve", "--figure", "8"], "figure8_T0.01_micro.csv"),
])
def test_temp_relabels_only_a_temperature_suffix(label, argv, written,
                                                 config_file, tmp_path):
    if label is not None:
        config_file.write_text(FAST_CONFIG.replace("label = fastcli",
                                                   f"label = {label}"),
                               encoding="utf-8")
        argv = argv + ["--config", str(config_file)]
    out_dir = tmp_path / "out"
    assert main(argv + ["--temp", "0.01", "--points", "5", "--model", "micro",
                        "--out", str(out_dir)]) == 0
    assert [p.name for p in out_dir.iterdir()] == [written]


@pytest.mark.parametrize("case", ["missing_config", "config_is_directory",
                                  "out_under_a_file"])
def test_file_boundary_os_error_is_config_error(case, tmp_path, capsys):
    plain = tmp_path / "plain.txt"
    plain.write_text("", encoding="utf-8")
    argv, message = {
        "missing_config": (
            ["evolve", "--config", str(tmp_path / "nonexistent.cfg")],
            f"cannot read config file {tmp_path / 'nonexistent.cfg'}: "),
        "config_is_directory": (
            ["evolve", "--config", str(tmp_path)],
            f"cannot read config file {tmp_path}: "),
        "out_under_a_file": (
            ["figure", "2", "--points", "20", "--out", str(plain / "x")],
            f"cannot create output directory {plain / 'x'}: "),
    }[case]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: " + message)
    assert err.count("\n") == 1 and err.endswith("\n")
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["plain.txt"]


def test_a_failing_run_of_a_command_writes_no_file(tmp_path, monkeypatch, capsys):
    """Every run of a command ends before any file is written: the second of
    figure 9's three runs fails, and the first leaves nothing behind."""
    runs = []

    def second_fails(cfg):
        runs.append(cfg.label)
        if len(runs) == 2:
            raise TraceDrift("trace drifted by 1e-08 at t=1")
        return run_scenario(cfg)
    monkeypatch.setattr(cli, "run_scenario", second_fails)
    out_dir = tmp_path / "out"
    assert main(["figure", "9", "--points", "20", "--out", str(out_dir)]) == 2
    assert capsys.readouterr() == (
        "", "numerical invariant violated: trace drifted by 1e-08 at t=1\n")
    assert len(runs) == 2
    assert not out_dir.exists()


def test_a_directory_in_place_of_a_file_is_config_error(tmp_path, capsys):
    # in place of the first file, or of a later one after the first was
    # opened, of any verb that writes: either way the directory is all that
    # --out holds afterwards, and nothing was printed
    for argv, name in ((["figure", "2"], "figure2_micro.csv"),
                       (["figure", "2"], "figure2_phenom.csv"),
                       (["compare", "--figure", "8"], "figure8_T0.05_compare.csv"),
                       (["sweep", "--figure", "2", "--axis", "temperature",
                         "--values", "5e-4,5e-3"], "figure2_sweep_temperature.csv")):
        out_dir = tmp_path / name.removesuffix(".csv")
        (out_dir / name).mkdir(parents=True)
        assert main([*argv, "--points", "20", "--out", str(out_dir)]) == 1
        assert capsys.readouterr() == ("", "configuration error: cannot write "
                                       f"{out_dir / name}: Is a directory\n")
        assert [p.name for p in out_dir.iterdir()] == [name]


@pytest.mark.parametrize("argv, message", [
    (["spectrum", "--figure", "2", "--temp", "1e308"],
     "temperature must be below 1.37e+297 K, got 1e+308"),
    (["evolve", "--figure", "2", "--temp", "1e305"],
     "temperature must be below 1.37e+297 K, got 1e+305"),
    (["evolve", "--figure", "2", "--tmax", "inf", "--model", "phenom"],
     "t_max must be positive and finite or 'auto'"),
    (["evolve", "--figure", "2", "--tmax", "inf", "--model", "micro"],
     "t_max must be positive and finite or 'auto'"),
    # a frequency past the limit would square past the double range
    (["sweep", "--figure", "2", "--axis", "coupling", "--values", "1e200"],
     "coupling must be at most 1e+150 1/s in magnitude, got 1e+200"),
    (["sweep", "--figure", "7", "--axis", "lambda", "--values", "4e9,1.4e154"],
     "coupling must be at most 1e+150 1/s in magnitude, got 1.4e+154"),
])
def test_out_of_range_input_is_config_error(argv, message, tmp_path, capsys):
    out_dir = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + out_of(argv[0], out_dir)) == 1
    assert capsys.readouterr().err == f"configuration error: {message}\n"
    assert not out_dir.exists()


def test_repeated_main_calls_share_one_parser_without_state(tmp_path, capsys):
    build_parser.cache_clear()
    assert main(["figure", "2", "--out", str(tmp_path / "fresh")]) == 0
    parser = build_parser()
    assert main(["evolve", "--figure", "2", "--temp", "0.01",
                 "--out", str(tmp_path / "hot")]) == 0
    assert main(["figure", "99"]) == 1
    assert main(["figure", "2", "--out", str(tmp_path / "again")]) == 0
    assert build_parser() is parser
    fresh = sorted((tmp_path / "fresh").iterdir())
    again = sorted((tmp_path / "again").iterdir())
    assert [p.name for p in fresh] == [p.name for p in again] == [
        "figure2_micro.csv", "figure2_phenom.csv"]
    for a, b in zip(fresh, again):
        assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("argv, message", [
    (["evolve", "--figure", "2", "--tmax", "abc"],
     "--tmax must be a time in seconds or 'auto', got 'abc'"),
    (["sweep", "--figure", "2", "--axis", "temperature", "--values", "1e-3,abc"],
     "--values must be comma-separated numbers, got 'abc'"),
])
def test_non_numeric_flag_is_named(argv, message, tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert main(argv + ["--out", str(out_dir)]) == 1
    assert capsys.readouterr().err == f"configuration error: {message}\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("argv, message", [
    (["evolve", "--figure", "2", "--temp", "abc"],
     "argument --temp: invalid float value: 'abc'"),
    (["evolve", "--figure", "2", "--points", "1.5"],
     "argument --points: invalid int value: '1.5'"),
    (["evolve", "--figure", "x"], "argument --figure: invalid int value: 'x'"),
    (["figure", "x"], "argument number: invalid int value: 'x'"),
    # the list of choices that follows is worded differently across Pythons
    (["evolve", "--figure", "2", "--model", "both2"],
     "argument --model: invalid choice: 'both2' "),
    (["sweep", "--figure", "2", "--values", "1e-3"],
     "the following arguments are required: --axis"),
])
def test_bad_command_line_is_config_error(argv, message, tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert main(argv + ["--out", str(out_dir)]) == 1
    captured = capsys.readouterr()
    # one line: no usage text, no traceback
    assert captured.err.startswith(f"configuration error: {message}")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
    assert captured.out == ""
    assert not out_dir.exists()


def test_vanishing_damping_reads_the_same_in_every_stationary_verb(tmp_path,
                                                                   capsys):
    path = tmp_path / "undamped.cfg"
    path.write_text("omega = 4e9\ncoupling = 4e9\ngamma0 = 0\n"
                    "bath_width = 5e10\nbath_center = 8e9\ntemperature = 5e-4\n",
                    encoding="utf-8")
    out_dir = tmp_path / "out"
    for verb in (["steady"], ["compare"],
                 ["sweep", "--axis", "temperature", "--values", "1e-3"]):
        assert main(verb + ["--config", str(path), *out_of(verb[0], out_dir)]) == 1
        assert capsys.readouterr().err == (
            "configuration error: no stationary state: all rates vanish\n")
    assert not out_dir.exists()


# inputs whose (g + gbar)^2 or stationary denominator 2 (g + gbar)^2 box
# underflowed: the closed form in the damping shares divides by neither
TINY_DAMPING = {
    # figure-2 parameters at gamma0 1e-300: (g + gbar)^2 underflows to 0
    "square_underflows": ("omega = 4e9\ncoupling = 4e9\ngamma0 = 1e-300\n"
                          "bath_width = 5e10\nbath_center = 8e9\ntemperature = 5e-4\n",
                          "0.85 0.05 0.05 0.05"),
    # (g + gbar)^2 is a nonzero subnormal, but its product with the tiny box
    # underflows to 0; g + gbar = 4.09e-141
    "product_underflows": ("omega = 3.139141445936846e-27\n"
                           "coupling = 2.511313156749477e-29\n"
                           "gamma0 = 3.139141445936846e-31\n"
                           "bath_width = 3.139141445936846e-28\n"
                           "bath_center = 1.2368566110047568e+28\n"
                           "temperature = 2.425943096085021e-37\n",
                           "0.275298724 0.2493904356 0.2493904356 0.2259204047"),
    # (g + gbar)^2 is subnormal (bare emission 8.9e-161 /s); the trace was
    # off by 1.954e-10
    "square_subnormal": ("omega = 5000000.115129256\ncoupling = 40000.00092103405\n"
                         "gamma0 = 500.0000115129256\n"
                         "bath_width = 1.3068668837663398e-77\n"
                         "bath_center = 10000000.230258511\n"
                         "temperature = 1.0000000230258512\n",
                         "0.2500095478 0.2499999999 0.2499999999 0.2499904524"),
}


@pytest.mark.parametrize("case", sorted(TINY_DAMPING))
def test_steady_runs_where_the_stationary_denominator_underflowed(case, tmp_path,
                                                                  capsys):
    text, diagonal = TINY_DAMPING[case]
    path = tmp_path / "tiny.cfg"
    path.write_text(text, encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["steady", "--config", str(path)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert f"phenom stationary computational diagonal: {diagonal}\n" in out


@pytest.mark.parametrize("case", ["product_underflows", "square_subnormal"])
def test_compare_at_vanishing_rates_stops_in_its_death_time_trajectory(
        case, tmp_path, capsys):
    # the stationary states hold; the sudden-death trajectory spans 50
    # lifetimes of rates of 1e-141 /s and below (ROADMAP items 1 and 4)
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_DAMPING[case][0], encoding="utf-8")
    out_dir = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["compare", "--config", str(path), "--out", str(out_dir)]) == 2
    assert capsys.readouterr() == (
        "", "numerical invariant violated: matrix contains non-finite entries\n")
    assert not out_dir.exists()


FIGURE2 = dict(omega="4e9", coupling="4e9", gamma0="5e7", bath_width="5e10",
               bath_center="8e9", temperature="5e-4")


def figure2_config(tmp_path, **changes):
    path = tmp_path / "figure2.cfg"
    path.write_text("".join(f"{key} = {value}\n" for key, value in
                            dict(FIGURE2, **changes).items()) + "n_points = 20\n",
                    encoding="utf-8")
    return path


@pytest.mark.parametrize("field, value, message", [
    ("omega", "1e200", "omega must be at most 1e+150 1/s in magnitude, got 1e+200"),
    ("coupling", "1.4e154",
     "coupling must be at most 1e+150 1/s in magnitude, got 1.4e+154"),
    ("bath_width", "1e300",
     "bath_width must be at most 1e+150 1/s in magnitude, got 1e+300"),
    ("bath_center", "-2e150",
     "bath_center must be at most 1e+150 1/s in magnitude, got -2e+150"),
    ("omega", "1e-200", "omega must be at least 1e-150 1/s, got 1e-200"),
])
@pytest.mark.parametrize("verb", ["spectrum", "steady", "compare", "evolve"])
def test_extreme_frequency_is_config_error(field, value, message, verb,
                                           tmp_path, capsys):
    path = figure2_config(tmp_path, **{field: value})
    out_dir = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([verb, "--config", str(path), *out_of(verb, out_dir)]) == 1
    assert capsys.readouterr() == ("", f"configuration error: {message}\n")
    assert not out_dir.exists()


@pytest.mark.parametrize("verb", ["spectrum", "steady", "compare", "evolve"])
def test_underflowing_low_bohr_frequency_is_config_error(verb, tmp_path, capsys):
    # omega^2 over the high Bohr frequency, about 1e140, is below the
    # smallest subnormal double
    path = figure2_config(tmp_path, omega="1e-150", coupling="1e140")
    out_dir = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([verb, "--config", str(path), *out_of(verb, out_dir)]) == 1
    assert capsys.readouterr() == (
        "", "configuration error: the low Bohr frequency, omega^2 over the high "
        "one, underflows to 0 at omega = 1e-150, coupling = 1e+140\n")
    assert not out_dir.exists()


@pytest.mark.parametrize("verb", ["steady", "compare"])
def test_phenom_stationary_state_off_the_x_family_is_numeric_error(
        verb, tmp_path, capsys, monkeypatch):
    closed_form = phenomenological.steady_state

    def broken(p, rates):
        # the inner coherence far past its population bound sqrt(p01 p10):
        # still X-shaped, but no state
        state = closed_form(p, rates)
        state[1, 2] = state[2, 1] = 1.0
        return state

    monkeypatch.setattr(phenomenological, "steady_state", broken)
    out_dir = tmp_path / "out"
    assert main([verb, "--config", str(figure2_config(tmp_path)),
                 *out_of(verb, out_dir)]) == 2
    assert capsys.readouterr() == (
        "", "numerical invariant violated: invalid density matrix: "
        "positivity off by 9.500e-01\n")
    assert not out_dir.exists()


@pytest.mark.parametrize("argv", [
    ["steady"], ["compare"], ["sweep", "--axis", "temperature", "--values", "1e100"]])
def test_overflowing_rates_in_stationary_verbs_are_numeric_error(argv, tmp_path,
                                                                 capsys):
    # a 1e100 K bath makes every bath rate inf: no stationary value, and no
    # numpy warning first
    path = figure2_config(tmp_path, gamma0="1e300", temperature="1e100")
    out_dir = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + ["--config", str(path), *out_of(argv[0], out_dir)]) == 2
    assert capsys.readouterr() == (
        "", "numerical invariant violated: bath rates overflow the double range\n")
    assert not out_dir.exists()


def test_widest_bath_keeps_finite_rates(tmp_path, capsys):
    # gamma0 * bath_width ** 2 overflows, but the Lorentzian is at most gamma0
    path = figure2_config(tmp_path, gamma0="1e9", bath_width="1e150")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["spectrum", "--config", str(path)]) == 0
        assert main(["steady", "--config", str(path)]) == 0
    assert "J(low) = 1000000000, " in capsys.readouterr().out
    p = parse_config(path.read_text(encoding="utf-8")).params
    frame = dressed_frame(p)
    assert all(math.isfinite(r) for r in astuple(rate_set(p, frame)))
    for freq in (frame.bohr_low, frame.bohr_high, p.omega):
        r = (freq - p.bath_center) / p.bath_width
        assert spectral_density(p, freq) == p.gamma0 / (r * r + 1.0)


def test_subnormal_damping_span_is_config_error(tmp_path, capsys):
    # ten lifetimes of a 4.94e-324 /s channel overflow to an inf span
    path = figure2_config(tmp_path, gamma0="5e-324")
    out_dir = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["evolve", "--config", str(path), "--out", str(out_dir)]) == 1
    assert capsys.readouterr().err == (
        "configuration error: cannot choose a time span automatically: the "
        "relaxation rate 4.94e-324 /s is too small; set t_max\n")
    assert not out_dir.exists()


@pytest.mark.parametrize("verb", ["steady", "compare"])
def test_subnormal_temperature_is_silent(verb, tmp_path, capsys):
    # the Gibbs weights exp(-E / k_B T) are exactly 0, without an overflow warning
    path = figure2_config(tmp_path, temperature="5e-324")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([verb, "--config", str(path), *out_of(verb, tmp_path)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert "nan" not in out
    if verb == "compare":
        assert "micro steady state: thermal" in out


@pytest.mark.parametrize("big", ["1e300", "1e308"])
def test_custom_state_near_the_double_range_is_numeric_error(big, tmp_path,
                                                             capsys):
    # an off-diagonal pair near the double range: one invariant line, no
    # numpy warning, no LAPACK error
    entries = ["0.25" if k % 5 == 0 else "0" for k in range(16)]
    entries[1] = entries[4] = big
    path = figure2_config(tmp_path, initial_state=f"custom({', '.join(entries)})")
    out_dir = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["evolve", "--config", str(path), "--out", str(out_dir)]) == 2
    assert capsys.readouterr() == ("", "numerical invariant violated: invalid "
                                   f"density matrix: positivity off by {float(big):.3e}\n")
    assert not out_dir.exists()


def test_custom_state_off_hermiticity_is_numeric_error(tmp_path, capsys):
    """A custom start comes from outside the program, so its Hermiticity is
    checked where it enters: (0,1) is 0.3 and (1,0) is 0, and nothing is
    written."""
    entries = ["0.25" if k % 5 == 0 else "0" for k in range(16)]
    entries[1] = "0.3"
    path = figure2_config(tmp_path, initial_state=f"custom({', '.join(entries)})")
    out_dir = tmp_path / "out"
    assert main(["evolve", "--config", str(path), "--out", str(out_dir)]) == 2
    assert capsys.readouterr() == ("", "numerical invariant violated: invalid "
                                   "density matrix: hermiticity off by 3.000e-01\n")
    assert not out_dir.exists()


# phenom's stiff block leaves trace margin 1.74e-9 and positivity margin
# 4.25e-9, within the evolved tolerances; an X start, so every snapshot is
# exactly X-shaped
STIFF_KET01 = ("omega = 246945699.415938\ncoupling = 1388.7459458352855\n"
               "gamma0 = 12.877982839450818\nbath_width = 82740.98550637264\n"
               "bath_center = 90545461.7739884\ntemperature = 0\n"
               "initial_state = ket01\nmodels = phenom\nn_points = 400\n")


@pytest.mark.parametrize("metric", ["concurrence", "discord"])
def test_entanglement_of_a_slightly_negative_x_run_is_a_positivity_error(
        metric, tmp_path, capsys):
    """Concurrence and discord hold every snapshot to PSD_TOL, whatever its
    route; no snapshot of this run leaves the X family."""
    path = tmp_path / "stiff.cfg"
    path.write_text(STIFF_KET01 + f"metrics = {metric}\n", encoding="utf-8")
    out_dir = tmp_path / "out"
    assert main(["evolve", "--config", str(path), "--out", str(out_dir)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical invariant violated: invalid density matrix: "
                          "positivity off by ")
    assert "left the X family" not in err
    assert not out_dir.exists()


def test_linear_entropy_of_a_slightly_negative_x_run_takes_the_x_route(tmp_path,
                                                                      capsys):
    path = tmp_path / "stiff.cfg"
    path.write_text(STIFF_KET01 + "metrics = linear_entropy\n", encoding="utf-8")
    assert main(["evolve", "--config", str(path), "--out", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""
    traj = run_scenario(parse_config(path.read_text(encoding="utf-8")))
    assert traj.routes["phenom"] == "matrix_x"
    assert traj.margins["phenom"].positivity > PSD_TOL
