"""Command-line front end.

Verbs: spectrum, evolve, steady, figure, compare, sweep, selftest.
Exit codes: 0 success, 1 configuration problem, 2 numerical-invariant
violation.
"""

from __future__ import annotations

import argparse
import functools
import os
import pathlib
import re
import sys
import time
from dataclasses import fields, replace

import numpy as np

from . import integrate, metrics, microscopic, phenomenological, scenarios
from ._version import __version__
from .integrate import TraceDrift
from .linalg import ROUNDING_TOL, StateValidationError, as_matrices
from .metrics import AssumptionViolated
from .microscopic import DegenerateRates
from .model import (dressed_frame, fairness_check, rate_set,
                    spectral_density, thermal_occupancy)
from .scenarios import (ConfigError, compare_report, figure_preset,
                        parse_config, run_scenario, stationary_metrics, sweep,
                        sweep_csv, write_text, write_trajectory)

CONFIG_ERRORS = (ConfigError, ValueError)
NUMERIC_ERRORS = (StateValidationError, TraceDrift, AssumptionViolated,
                  DegenerateRates)

# the "_T<temperature>" suffix of a preset label, replaced by a --temp run
_TEMP_SUFFIX = r"_T(?:\d+\.?\d*|\.\d+)(?:e[+-]?\d+)?$"


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as a ConfigError (exit 1); its subparsers
    are of the same class."""

    def error(self, message):
        raise ConfigError(message)


def _add_common(sub, flags):
    sub.add_argument("--config", type=pathlib.Path, help="key = value file")
    sub.add_argument("--figure", type=int, help="start from a figure preset")
    if "--out" in flags:
        sub.add_argument("--out", type=pathlib.Path, default=pathlib.Path("."),
                         help="output directory for CSV files")
    if "--model" in flags:
        sub.add_argument("--model", choices=(*scenarios.MODELS, "both"))
    if "--tmax" in flags:
        sub.add_argument("--tmax", help="time span in seconds, or 'auto'")
    if "--points" in flags:
        sub.add_argument("--points", type=int, help="number of output samples")
    sub.add_argument("--temp", type=float, help="bath temperature in K")
    sub.set_defaults(model=None, tmax=None, points=None)


def _number(flag, text, what) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"{flag} must be {what}, got {text!r}") from None


def _configs_from_args(args) -> list:
    """Resolve precedence: figure preset < config file < explicit flags."""
    cfgs = None
    if args.figure is not None:
        preset = figure_preset(args.figure)
        cfgs = preset if isinstance(preset, list) else [preset]
    if args.config is not None:
        base = cfgs[0] if cfgs else None
        try:
            text = args.config.read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot read config file {args.config}: "
                              f"{exc.strerror or exc}") from exc
        cfgs = [parse_config(text, base=base)]
    if cfgs is None:
        raise ConfigError("give --figure N or --config PATH")

    if args.temp is not None:
        cfgs = [replace(c, params=replace(c.params, temperature=args.temp),
                        label=f"{re.sub(_TEMP_SUFFIX, '', c.label)}_T{args.temp:g}")
                for c in cfgs[:1]]
    out = []
    for cfg in cfgs:
        if args.tmax is not None:
            cfg = replace(cfg, t_max="auto" if args.tmax == "auto" else _number(
                "--tmax", args.tmax, "a time in seconds or 'auto'"))
        if args.points is not None:
            cfg = replace(cfg, n_points=args.points)
        if args.model is not None:
            models = ("micro", "phenom") if args.model == "both" else (args.model,)
            cfg = replace(cfg, models=models)
        out.append(cfg)
    return out


def cmd_spectrum(args):
    cfg = _configs_from_args(args)[0]
    p = cfg.params
    frame = dressed_frame(p)
    rates = rate_set(p, frame)
    print(f"parameters: omega={p.omega:g} coupling={p.coupling:g} "
          f"gamma0={p.gamma0:g} bath_width={p.bath_width:g} "
          f"bath_center={p.bath_center:g} temperature={p.temperature:g}")
    names = ("ground", "antisym", "sym", "top")
    for name, e in zip(names, frame.energies):
        print(f"energy {name}: {e:.10g}")
    print(f"bohr frequencies: low {frame.bohr_low:.10g}, high {frame.bohr_high:.10g}")
    for label, freq in (("low", frame.bohr_low), ("high", frame.bohr_high),
                        ("bare", p.omega)):
        print(f"J({label}) = {spectral_density(p, freq):.10g}, "
              f"nbar({label}) = {thermal_occupancy(freq, p.temperature):.10g}")
    print(f"decay low/high: {rates.decay_low:.10g} / {rates.decay_high:.10g}")
    print(f"excitation low/high: {rates.excitation_low:.10g} / {rates.excitation_high:.10g}")
    print(f"bare emission/absorption: {rates.emission_bare:.10g} / {rates.absorption_bare:.10g}")
    for line in fairness_check(p, frame):
        print(line)
    return 0


def cmd_evolve(args):
    """Run every configuration, then write all their files: a failing run
    leaves no file."""
    trajs = [run_scenario(cfg) for cfg in _configs_from_args(args)]
    for path in write_trajectory(trajs, args.out):
        print(f"wrote {path}")
    return 0


def cmd_steady(args):
    cfg = _configs_from_args(args)[0]
    frame = dressed_frame(cfg.params)
    stationary, micro, ss_p = stationary_metrics(cfg.params, frame,
                                                 rate_set(cfg.params, frame))
    print("micro stationary dressed populations "
          "(ground, antisym, sym, top): "
          + " ".join(f"{v:.10g}" for v in micro.diagonal().real))
    print("phenom stationary computational diagonal: "
          + " ".join(f"{ss_p[i, i].real:.10g}" for i in range(4)))
    print(f"phenom inner coherence: {ss_p[1, 2]:.10g}")
    print(f"phenom outer coherence: {ss_p[0, 3]:.10g}")
    ss_pd = frame.to_dressed(ss_p)
    print("phenom stationary in dressed basis, surviving coherences: "
          f"ground-top {abs(ss_pd[0, 3]):.6g}, antisym-sym {abs(ss_pd[1, 2]):.6g}")
    for model, values in stationary.items():
        print(f"{model} stationary concurrence {values['concurrence']:.10g}, "
              f"discord {values['discord']:.10g}, "
              f"linear entropy {values['linear_entropy']:.10g}")
    return 0


def cmd_compare(args):
    for cfg in _configs_from_args(args):
        report = compare_report(cfg)
        print(report.text(), end="")
        path = write_text(args.out, f"{cfg.label}_compare.csv", report.csv())
        print(f"wrote {path}")
    return 0


def cmd_sweep(args):
    cfg = _configs_from_args(args)[0]
    values = [_number("--values", v, "comma-separated numbers")
              for v in args.values.split(",") if v.strip()]
    reports = sweep(cfg, args.axis, values)
    path = write_text(args.out, f"{cfg.label}_sweep_{args.axis}.csv",
                      sweep_csv(cfg, args.axis, values, reports))
    for rep in reports:
        print(rep.text(), end="")
    print(f"wrote {path}")
    return 0


def _selftest_checks(cfg):
    """The six cross-validation checks of one configuration, as
    ``(name, ok, detail)`` rows.  Check 1 holds the closed form to the
    integrated generator within an absolute 1e-7; checks 2-6 pass when both
    sides agree to rounding (``linalg.ROUNDING_TOL``) at their own scale."""
    params, frame = cfg.params, dressed_frame(cfg.params)
    rates = rate_set(params, frame)
    span = scenarios.resolve_t_max(cfg, rates)
    rows = []
    start = time.perf_counter()
    times = np.linspace(0.0, span, 400)
    rho0 = frame.to_dressed(np.diag([0.0, 0.0, 1.0, 0.0]).astype(complex))
    analytic = microscopic.propagate_analytic(rho0, rates, frame, times)
    gen = microscopic.liouvillian(rates, frame)
    numeric = integrate.propagate(gen, rho0, times)
    # the largest entry of |analytic - numeric|: |dpopulation|, hypot(dRe, dIm)
    diff = analytic - numeric
    err = np.maximum(np.abs(diff[:, :4]).max(),
                     np.hypot(diff[:, 4::2], diff[:, 5::2]).max())
    elapsed = time.perf_counter() - start
    rows.append(("closed form vs integrated generator",
                 err <= 1e-7, f"max dev {err:.2e}, {elapsed:.2f}s"))

    x_dressed, held = metrics.x_elements_from_dressed(as_matrices(analytic), frame)
    # the basis change of a run from an X start
    x_comp = metrics.x_elements_from_columns(frame.to_computational_columns(analytic))
    dev = max(np.abs(getattr(x_dressed, f.name) - getattr(x_comp, f.name)).max()
              for f in fields(metrics.XStateElements))
    rows.append(("micro X elements: dressed closed form vs basis change",
                 held.all() and dev <= ROUNDING_TOL, f"max dev {dev:.2e}"))

    gen_rows = phenomenological.liouvillian(params, rates)
    gen_ops = phenomenological.liouvillian_from_ops(params, rates)
    # the printed relative deviations keep their own divisors (GOLDEN.json
    # pins the text); each verdict reads rounding at the residual's scale
    rounding = ROUNDING_TOL * np.linalg.norm(gen_ops, 1)
    dev = np.abs(gen_rows - gen_ops).max()
    rows.append(("phenom element equations vs operator form", dev <= rounding,
                 f"rel dev {dev / max(np.abs(gen_ops).max(), 1.0):.2e}"))

    thermal, resid = microscopic.thermal_stationarity(params, rates, frame, gen)
    rows.append(("micro stationarity (Gibbs state, annihilated)",
                 thermal, f"residual {resid:.2e}"))

    ssp = phenomenological.steady_state(params, rates)
    dp = np.abs(phenomenological.phenom_rhs(ssp, params, rates)).max()
    rows.append(("phenom stationarity", dp <= rounding, f"residual {dp:.2e}"))

    # observed population-equation coefficients, read off the generator:
    # row 0 (the ground population) at the columns of |j><j|, vec index 5 j
    row = gen[0, ::5].real
    expected = np.array([-(rates.excitation_low + rates.excitation_high),
                         rates.decay_low, rates.decay_high, 0.0])
    dev = np.abs(row - expected).max()
    rows.append(("ground-population equation coefficients",
                 dev <= ROUNDING_TOL * max(microscopic.channel_sums(rates)),
                 f"rel dev {dev / max(params.gamma0, 1.0):.2e}"))
    return rows


def cmd_selftest(args):
    """Cross-validate the closed forms against the assembled generators on
    figures 1-7.  Figures that share a configuration (parameters, t_max and
    models) share one run of the checks and each print its verdicts and
    details; a FAIL counts once per figure that prints it."""
    failures = 0
    runs = {}   # (params, t_max, models) -> check rows, for this call only
    for n in range(1, 8):
        cfg = figure_preset(n)
        key = (cfg.params, cfg.t_max, cfg.models)
        if key not in runs:
            runs[key] = _selftest_checks(cfg)
        for name, ok, detail in runs[key]:
            print(f"{'PASS' if ok else 'FAIL'} figure {n} {name} ({detail})")
            failures += 0 if ok else 1
    return 0 if failures == 0 else 2


@functools.cache
def build_parser():
    """The command-line parser, built on the first call and shared by every
    later ``main`` call of the process (parsing leaves it unchanged)."""
    parser = _Parser(
        prog="dressedbath",
        description="Two coupled qubits with a thermal bath on one of them: "
                    "dressed-basis vs phenomenological master equations.")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    # the flags a verb reads: spectrum and steady write no file, and compare
    # and sweep always run both models
    run = ("--out", "--model", "--tmax", "--points")
    compare = ("--out", "--tmax", "--points")
    for name, fn, flags, doc in (
            ("spectrum", cmd_spectrum, (), "print energies, rates and bath diagnostics"),
            ("evolve", cmd_evolve, run, "run a scenario and write trajectory CSV files"),
            ("steady", cmd_steady, (), "print both stationary states and their metrics"),
            ("compare", cmd_compare, compare, "stationary-value comparison of the two models"),
            ("sweep", cmd_sweep, compare, "comparison across a parameter axis")):
        sub = subs.add_parser(name, help=doc)
        _add_common(sub, flags)
        sub.set_defaults(func=fn)

    fig = subs.add_parser("figure", help="reproduce a preset plot as CSV")
    fig.add_argument("figure", type=int, metavar="number")
    fig.add_argument("--out", type=pathlib.Path, default=pathlib.Path("."))
    fig.add_argument("--points", type=int)
    fig.set_defaults(func=cmd_evolve, config=None, temp=None, tmax=None,
                     model=None)

    sweep_sub = subs.choices["sweep"]
    sweep_sub.add_argument("--axis", required=True, choices=tuple(scenarios.SWEEP_AXES))
    sweep_sub.add_argument("--values", required=True,
                           help="comma-separated axis values")

    self_sub = subs.add_parser("selftest",
                               help="run the solver cross-validation suite")
    self_sub.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        status = args.func(args)
        sys.stdout.flush()   # a closed pipe fails here, not at interpreter exit
        return status
    except BrokenPipeError:   # the interpreter's last flush goes to nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("configuration error: standard output was closed", file=sys.stderr)
        return 1
    except NUMERIC_ERRORS as exc:
        # first: linalg.NotFinite is also a ValueError
        print(f"numerical invariant violated: {exc}", file=sys.stderr)
        return 2
    except CONFIG_ERRORS as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
