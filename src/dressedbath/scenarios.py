"""Scenario presets, trajectory runs, CSV emission and model comparison.

A scenario bundles physical parameters, an initial state, a time grid and
the requested metrics/models.  Output is plain CSV with '#' metadata lines
(parameters, bath-fairness diagnostics, tool version); identical
configurations produce byte-identical files.
"""

from __future__ import annotations

import contextlib
import math
import pathlib
import re
from dataclasses import dataclass, replace

import numpy as np

from . import metrics, microscopic, phenomenological
from ._version import __version__
from .csvtext import SLOTS, _fmt, g17_slots
from .linalg import (EVOLVED_PSD_TOL, EVOLVED_TRACE_TOL, PSD_TOL, THERMAL_TOL, UPPER,
                     NotFinite, as_matrices, columns, validate_eigs, validate_density,
                     width)
from .metrics import AssumptionViolated
from .model import SystemParams, dressed_frame, fairness_check, rate_set

MODELS = ("micro", "phenom")
ROUTES = ("matrix_x", "general")   # metric routes
METRICS = ("concurrence", "discord", "linear_entropy", "populations")
INITIAL_STATES = ("ket10", "ket01", "dressed_ground")

# metric -> its X-form function, looked up in ``metrics`` at each call so that
# a wrapper on the module attribute (perfbench/spans.py) sees it
_X_FORM = {"concurrence": "concurrence_x", "discord": "discord_approx_q2",
           "linear_entropy": "linear_entropy_q1"}
STATIONARY_METRICS = tuple(_X_FORM)
_POPULATIONS = ("pop_00", "pop_01", "pop_10", "pop_11")   # the "populations" columns

DEATH_THRESHOLD = 1e-12
DEATH_RUN = 5
# at the cap the process peaked at 150 MB for `figure 2`, 178 MB for `figure 9`
# and for `evolve --figure 9 --tmax auto` (X starts; X runs stay under 200 MB) and
# at 663 MB for a non-X `evolve --config` run with three metrics (non-X runs stay
# under 930 MB), x86-64, numpy 2.4.6
MAX_POINTS = 500_000
# values per block of rows across a command's files and distinct time grids:
# the fastest of 2,048, 3,072 and 4,096 (best 28.9, 27.0 and 29.9 ms of 80 CSV
# passes of the ten figures); a `figure 9` op peaks at 0.80 MiB traced, and at
# 1.01 MiB with 4,096 (x86-64, numpy 2.4.6)
_CSV_BLOCK = 3072

# labels name output files, so they must not reach outside --out
_SAFE_LABEL = re.compile(r"[A-Za-z0-9_+-][A-Za-z0-9_.+-]*")


class ConfigError(Exception):
    pass


class OutOfRange(ConfigError):
    pass


@dataclass(frozen=True)
class ScenarioConfig:
    params: SystemParams
    initial_state: object = "ket10"   # name or custom 4x4 computational matrix
    t_max: object = "auto"            # seconds, or "auto"
    n_points: int = 2000
    metrics: tuple = METRICS
    models: tuple = MODELS
    label: str = "scenario"

    def __post_init__(self):
        if not 2 <= self.n_points <= MAX_POINTS:
            raise ConfigError(
                f"n_points must be between 2 and {MAX_POINTS}, got {self.n_points}")
        if self.t_max != "auto":
            try:
                t_max = float(self.t_max)
            except (TypeError, ValueError):
                t_max = math.nan
            if not (t_max > 0 and math.isfinite(t_max)):
                raise ConfigError("t_max must be positive and finite or 'auto'")
        if not self.models:
            raise ConfigError("at least one model must be enabled")
        for kind, names, known in (("metric", self.metrics, METRICS),
                                   ("model", self.models, MODELS)):
            for i, name in enumerate(names):
                if name not in known:
                    raise ConfigError(f"unknown {kind} {name!r}; choose from {known}")
                if name in names[:i]:
                    raise ConfigError(f"{kind} {name!r} is listed twice")
        if not _SAFE_LABEL.fullmatch(self.label):
            raise ConfigError(
                f"label {self.label!r} is not a safe file name: use letters, "
                "digits and _ . + -, and do not start with '.'")
        if isinstance(self.initial_state, str):
            if self.initial_state not in INITIAL_STATES:
                raise ConfigError(
                    f"unknown initial_state {self.initial_state!r}; "
                    f"choose from {INITIAL_STATES} or give 16 entries")
        else:
            object.__setattr__(self, "initial_state",
                               validate_density(self.initial_state))


@dataclass
class Trajectory:
    times: np.ndarray
    series: dict            # model -> column name -> np.ndarray, in CSV order
    margins: dict           # model -> linalg.Margins of its snapshots
    routes: dict            # model -> its metric route, a name in ROUTES
    config: ScenarioConfig
    fairness_lines: list


def initial_state_matrix(cfg: ScenarioConfig, frame) -> np.ndarray:
    """The configured start state as a computational-basis matrix."""
    if not isinstance(cfg.initial_state, str):
        return np.asarray(cfg.initial_state, dtype=complex)
    m = np.zeros((4, 4), dtype=complex)
    if cfg.initial_state == "ket10":
        m[2, 2] = 1.0
    elif cfg.initial_state == "ket01":
        m[1, 1] = 1.0
    else:  # dressed_ground
        ground = frame.unitary[:, 0]
        m = np.outer(ground, ground.conj())
    return m


def resolve_t_max(cfg: ScenarioConfig, rates, stationary: bool = False) -> float:
    """Time span: explicit value, or the default transient window.

    The default covers ten lifetimes of the low dressed channel (or of the
    bare damping if only the ad hoc model runs).  The comparison's
    sudden-death search stretches to fifty lifetimes of the slowest of the
    channel sums and the bare damping (``stationary``).
    """
    if cfg.t_max != "auto":
        return float(cfg.t_max)
    s_low, s_high = microscopic.channel_sums(rates)
    s_bare = rates.emission_bare + rates.absorption_bare
    if stationary:   # stationary_metrics has ruled out that all rates vanish
        lifetimes, rate = 50.0, min(s for s in (s_low, s_high, s_bare) if s > 0)
    else:
        lifetimes, rate = 10.0, s_low if "micro" in cfg.models else s_bare
    if not (rate > 0 and math.isfinite(lifetimes / rate)):
        why = "vanishes" if rate == 0 else f"{rate:.3g} /s is too small"
        raise ConfigError("cannot choose a time span automatically: "
                          f"the relaxation rate {why}; set t_max")
    return lifetimes / rate


def _trajectory_metrics(stack, wanted):
    """``run_scenario``'s stages after propagation on one model's trajectory
    (a ``_propagation`` stack): the worst margins of its snapshots, its
    metric columns and its route, a name in ROUTES.  Validation checks every
    snapshot at the evolved tolerances, positivity at ``PSD_TOL`` when an
    entanglement measure is wanted, and routes the whole stack by its width:
    an 8-wide one to the X forms, each one call on the X elements of the
    whole stack, any other to the general forms, concurrence from the
    eigenpairs validation returns.  No column holds a view of ``stack``,
    which dies after.
    """
    psd_tol = PSD_TOL if {"concurrence", "discord"} & set(wanted) else EVOLVED_PSD_TOL
    margins, eigs = validate_eigs(stack, trace_tol=EVOLVED_TRACE_TOL, psd_tol=psd_tol)
    if eigs is None:
        x = metrics.x_elements_from_columns(stack)
        cols = {m: getattr(metrics, _X_FORM[m])(x) for m in wanted if m in _X_FORM}
    elif "discord" in wanted:
        raise AssumptionViolated(
            "the discord approximation needs an X-shaped state; "
            "this trajectory left the X family")
    else:   # concurrence, linear entropy
        cols = {m: (metrics.concurrence_from_eigs(*eigs) if m == "concurrence"
                    else metrics.linear_entropy_q1(as_matrices(stack)))
                for m in wanted if m in _X_FORM}
    if "populations" in wanted:   # copies of the stack's columns
        cols.update(zip(_POPULATIONS, (stack[:, i].copy() for i in range(4))))
    return margins, cols, "matrix_x" if eigs is None else "general"


def _propagation(cfg: ScenarioConfig):
    """The frame and time grid of ``cfg``'s run, and ``stack_of``, which
    propagates a model to its ``(n, k)`` computational coordinates (8 for an
    X-shaped trajectory, which both models keep from an X start)."""
    frame = dressed_frame(cfg.params)
    rates = rate_set(cfg.params, frame)
    t_max = resolve_t_max(cfg, rates)
    times = np.linspace(0.0, t_max, cfg.n_points)
    # integrate.propagate requires a strictly increasing grid; an automatic
    # span that underflowed repeats times
    if "phenom" in cfg.models and not (np.diff(times) > 0).all():
        raise ConfigError(
            f"time span {t_max:.6g} s is too short for n_points = "
            f"{cfg.n_points} strictly increasing times; set t_max")
    rho0 = initial_state_matrix(cfg, frame)

    def stack_of(model):
        if model == "micro":   # the dressed coordinates die once rotated
            return frame.to_computational_columns(microscopic.propagate_analytic(
                frame.to_dressed(rho0), rates, frame, times))
        return phenomenological.propagate(rho0, cfg.params, rates, times)
    return frame, times, stack_of


def run_scenario(cfg: ScenarioConfig) -> Trajectory:
    """Propagate every enabled model and evaluate the requested metrics.

    Every emitted snapshot is validated (trace, positivity) at the
    evolved-state tolerances, the whole trajectory of a model at once,
    before any metric touches it; the worst margins go to ``margins``.  A
    model's stack lives only from its propagation to its metrics.
    """
    frame, times, stack_of = _propagation(cfg)
    series, margins, routes = {}, {}, {}
    for model in cfg.models:
        margins[model], series[model], routes[model] = _trajectory_metrics(
            stack_of(model), cfg.metrics)
    return Trajectory(times=times, series=series, margins=margins, routes=routes,
                      config=cfg, fairness_lines=fairness_check(cfg.params, frame))


# -- presets ----------------------------------------------------------------

_STRONG = dict(bath_width=5e10, gamma0=0.001 * 5e10)
_WEAK = dict(omega=5e6, coupling=4e4, bath_width=5e5, bath_center=1e7)
_WEAK_TEMPS = (0.005, 0.05, 0.15)

_FIGURE_METRIC = {1: "concurrence", 2: "concurrence", 3: "concurrence",
                  4: "discord", 5: "discord",
                  6: "linear_entropy", 7: "linear_entropy",
                  8: "concurrence", 9: "discord", 10: "linear_entropy"}


def _preset_params(n: int, temperature: float) -> SystemParams:
    if n == 1:
        return SystemParams(omega=4e8, coupling=10 * 4e8, gamma0=0.01 * 5e10,
                            bath_width=5e10, bath_center=2 * 4e8,
                            temperature=temperature)
    if 2 <= n <= 7:
        return SystemParams(omega=4e9, coupling=4e9, gamma0=_STRONG["gamma0"],
                            bath_width=_STRONG["bath_width"], bath_center=2 * 4e9,
                            temperature=temperature)
    gamma0 = 0.01 * 5e5 if n == 10 else 0.001 * 5e5
    return SystemParams(gamma0=gamma0, temperature=temperature, **_WEAK)


def figure_preset(n: int):
    """Scenario(s) reproducing one of the ten reference plots.

    Plots 1-7 return a single config; the weak-coupling plots 8-10 return
    three (one per bath temperature) sharing the coldest run's time span so
    the curves live on a common axis.
    """
    if not 1 <= n <= 10:
        raise OutOfRange(f"figure number must be 1..10, got {n}")
    metric = (_FIGURE_METRIC[n],)
    if n == 1:
        return ScenarioConfig(params=_preset_params(1, 0.0), metrics=metric,
                              label="figure1")
    if 2 <= n <= 7:
        temperature = 5e-4 if n in (2, 4, 6) else 1.5e-2
        return ScenarioConfig(params=_preset_params(n, temperature),
                              metrics=metric, label=f"figure{n}")
    cold = _preset_params(n, _WEAK_TEMPS[0])
    span = resolve_t_max(ScenarioConfig(params=cold, metrics=metric), rate_set(cold))
    return [ScenarioConfig(params=_preset_params(n, t), metrics=metric,
                           t_max=span, label=f"figure{n}_T{t:g}")
            for t in _WEAK_TEMPS]


# -- config files -----------------------------------------------------------

_FLOAT_KEYS = ("omega", "coupling", "gamma0", "bath_width", "bath_center",
               "temperature")


def parse_config(text: str, base: ScenarioConfig | None = None) -> ScenarioConfig:
    """Flat ``key = value`` configuration, '#' comments, scientific notation.

    Parameter keys default from ``base`` (or the figure-2 preset values must
    be given explicitly); any parse problem reports its line number.
    """
    params = dict(zip(_FLOAT_KEYS, (None,) * len(_FLOAT_KEYS)))
    if base is not None:
        for k in _FLOAT_KEYS:
            params[k] = getattr(base.params, k)
    fields, seen = {}, {}   # seen: key -> the line that set it

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        try:
            if key in seen:
                raise ValueError(f"{key!r} is already set on line {seen[key]}")
            seen[key] = lineno
            if key in _FLOAT_KEYS:
                params[key] = float(value)
            elif key == "n_points":
                fields["n_points"] = int(value)
            elif key == "t_max":
                fields["t_max"] = "auto" if value == "auto" else float(value)
            elif key in ("metrics", "models"):
                fields[key] = tuple(v.strip() for v in value.split(","))
            elif key == "label":
                fields["label"] = value
            elif key == "initial_state" and value.startswith("custom"):
                inner = value[len("custom"):].strip().strip("()")
                entries = [complex(v.replace(" ", "")) for v in inner.split(",")]
                if len(entries) != 16:
                    raise ValueError(f"custom state needs 16 entries, got {len(entries)}")
                fields["initial_state"] = np.array(entries, dtype=complex).reshape(4, 4)
            elif key == "initial_state":
                fields["initial_state"] = value
            else:
                raise ValueError(f"unknown key {key!r}")
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from exc

    missing = [k for k, v in params.items() if v is None]
    if missing:
        raise ConfigError(f"missing parameter keys: {', '.join(missing)}")
    try:
        return ScenarioConfig(params=SystemParams(**params), **fields)
    except (ValueError, ConfigError) as exc:
        raise ConfigError(str(exc)) from exc


# -- CSV --------------------------------------------------------------------

def _meta_lines(cfg: ScenarioConfig, fairness_lines, extra=()):
    out = [f"# dressedbath {__version__}", f"# label = {cfg.label}"]
    for k in _FLOAT_KEYS:
        out.append(f"# {k} = {_fmt(getattr(cfg.params, k))}")
    state = cfg.initial_state if isinstance(cfg.initial_state, str) else "custom"
    out.append(f"# initial_state = {state}")
    out += [f"# {line}" for line in fairness_lines]
    out += [f"# {line}" for line in extra]
    return out


def _csv_chunks(files):
    """The bytes of each ``(traj, model)`` file of ``files``, as ``(index,
    bytes)`` pairs: every file's ``#`` header, then its rows, block by block.
    A block holds at most ``_CSV_BLOCK`` values: its rows of every distinct
    time grid (equal grids are formatted once) and of every file's columns."""
    grids, layout = [], []   # the distinct grids; per file, its grid and columns
    for i, (traj, model) in enumerate(files):
        g = next((g for g, t in enumerate(grids) if np.array_equal(t, traj.times)), None)
        if g is None:
            g = len(grids)
            grids.append(traj.times)
        cols = traj.series[model]
        lines = _meta_lines(traj.config, traj.fairness_lines, (f"model = {model}",))
        lines.append(",".join(["t", *cols]))
        yield i, ("\n".join(lines) + "\n").encode("utf-8")
        layout.append((g, list(cols.values())))
    step = max(1, _CSV_BLOCK // (len(grids) + sum(len(cols) for _, cols in layout)))
    for a in range(0, max(map(len, grids), default=0), step):
        yield from _csv_block(grids, layout, slice(a, a + step))


def _csv_block(grids, layout, rows):
    """``(index, bytes)`` of each file's ``rows`` from one ``g17_slots`` call:
    each value's record, then its "," or line end, NULs dropped.  The records
    die on return, before the next block is formatted."""
    sizes = [len(t[rows]) for t in grids]
    slots = g17_slots(np.concatenate([t[rows] for t in grids]
                                     + [c[rows] for _, cols in layout for c in cols]))
    starts = np.cumsum([0, *sizes])   # each grid's first record
    at, out = starts[-1], []          # the first file's first record
    for i, (g, cols) in enumerate(layout):
        n, k = sizes[g], len(cols)
        table = np.empty((n, k + 1, SLOTS + 1), np.uint8)
        table[:, :, SLOTS] = np.frombuffer(b"," * k + b"\n", np.uint8)
        table[:, 0, :SLOTS] = slots[:, starts[g]:starts[g] + n].T
        table[:, 1:, :SLOTS] = slots[:, at:at + k * n].reshape(SLOTS, k, n).transpose(2, 1, 0)
        out.append((i, table.tobytes().translate(None, b"\0")))
        at += k * n
    return out


def trajectory_csv(traj: Trajectory, model: str) -> str:
    """The text that ``write_trajectory`` writes to ``traj``'s ``model`` file."""
    return b"".join(data for _, data in _csv_chunks([(traj, model)])).decode("utf-8")


def _output_dir(out_dir) -> pathlib.Path:
    out = pathlib.Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: "
                          f"{exc.strerror or exc}") from exc
    return out


def write_text(out_dir, name: str, text: str) -> pathlib.Path:
    """Write ``text`` to ``out_dir/name``, creating ``out_dir``; an OS error
    becomes a ConfigError naming the path and the reason."""
    path = _output_dir(out_dir) / name
    try:
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc
    return path


def write_trajectory(trajs, out_dir) -> list:
    """Write one CSV file per model of each trajectory of ``trajs`` into
    ``out_dir``, creating it, and return their paths.  Every file stays open
    while ``_csv_chunks`` streams its bytes; an OS error removes every file
    the call opened and becomes a ConfigError naming the path and the
    reason."""
    out = _output_dir(out_dir)
    files = [(traj, model) for traj in trajs for model in traj.config.models]
    paths = [out / f"{traj.config.label}_{model}.csv" for traj, model in files]
    with contextlib.ExitStack() as opened:
        sinks = []
        try:
            for path in paths:
                sinks.append(opened.enter_context(open(path, "wb")))
            for i, data in _csv_chunks(files):
                path = paths[i]
                sinks[i].write(data)
            for path, sink in zip(paths, sinks):   # a close flushes
                sink.close()
        except OSError as exc:
            for sink, created in zip(sinks, paths):
                with contextlib.suppress(OSError):   # its flush may fail again
                    sink.close()
                created.unlink(missing_ok=True)
            raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc
    return paths


# -- model comparison -------------------------------------------------------

def sudden_death_time(times, series, threshold=DEATH_THRESHOLD, run=DEATH_RUN):
    """First time the series stays at (numerical) zero for ``run`` points."""
    dead = np.cumsum(np.concatenate(([0], np.asarray(series) <= threshold)))
    # windows of ``run`` points, by start index, that are dead throughout
    starts = np.flatnonzero(dead[run:] - dead[:-run] == run)
    return float(times[starts[0]]) if starts.size else None


@dataclass
class CompareReport:
    config: ScenarioConfig
    stationary: dict         # model -> metric -> value
    relative_diff: dict      # metric -> (phenom - micro) / micro
    death_time: dict         # model -> time or None
    micro_thermal: bool
    phenom_thermal: bool
    fairness_lines: list

    def text(self) -> str:
        rows = [f"comparison: {self.config.label}"]
        rows += self.fairness_lines
        for metric in self.relative_diff:
            mv = self.stationary["micro"][metric]
            pv = self.stationary["phenom"][metric]
            rd = self.relative_diff[metric]
            pct = "n/a" if math.isnan(rd) else f"{100 * rd:+.2f}%"
            rows.append(f"stationary {metric}: micro {mv:.6g}, "
                        f"phenom {pv:.6g}, relative difference {pct}")
        for model in MODELS:
            t = self.death_time.get(model)
            rows.append(f"{model} concurrence sudden death: "
                        + ("none detected" if t is None else f"t = {t:.6g} s"))
        rows.append("micro steady state: "
                    + ("thermal (detailed balance verified)"
                       if self.micro_thermal else "NOT thermal"))
        rows.append("phenom steady state: "
                    + ("thermal" if self.phenom_thermal
                       else "not thermal (dressed-basis coherences survive)"))
        return "\n".join(rows) + "\n"

    def csv(self) -> str:
        lines = _meta_lines(self.config, self.fairness_lines)
        lines.append("metric,micro_stationary,phenom_stationary,relative_diff")
        for metric, rd in self.relative_diff.items():
            lines.append(",".join([metric,
                                   _fmt(self.stationary["micro"][metric]),
                                   _fmt(self.stationary["phenom"][metric]),
                                   _fmt(rd)]))
        for model in MODELS:
            t = self.death_time.get(model)
            lines.append(f"{model}_sudden_death_time,"
                         + ("nan" if t is None else _fmt(t)) + ",,")
        lines.append(f"micro_thermal,{int(self.micro_thermal)},,")
        lines.append(f"phenom_thermal,{int(self.phenom_thermal)},,")
        return "\n".join(lines) + "\n"


def stationary_metrics(params: SystemParams, frame, rates, wanted=STATIONARY_METRICS):
    """model -> metric -> value on the closed-form stationary states, and the
    two states: the micro rate-ratio one (dressed basis) and the phenom
    closed form of ``phenomenological.steady_state`` (computational basis).

    Both take a run's route, as one stack of the width ``linalg.width`` gives
    them (8: every off-X entry of both is an exact zero), validated at the
    construction tolerances.
    At coupling 0 the isolated qubit never relaxes and the phenom stationary
    state is not unique: the closed form is then its coupling -> 0+ limit.
    """
    if not all(math.isfinite(r) for r in vars(rates).values()):
        raise NotFinite("bath rates overflow the double range")
    s_low, s_high = microscopic.channel_sums(rates)
    if s_low == s_high == rates.emission_bare + rates.absorption_bare == 0:
        raise ConfigError("no stationary state: all rates vanish")
    micro = microscopic.steady_state(rates)
    phenom = phenomenological.steady_state(params, rates)
    states = np.stack([micro, phenom])
    cols = columns(states)
    cols = cols[:, :width(cols)]
    cols[0] = frame.to_computational_columns(cols[0])
    validate_eigs(cols)
    x = metrics.x_elements_from_columns(cols)
    values = {m: getattr(metrics, fn)(x) for m, fn in _X_FORM.items() if m in wanted}
    return ({model: {m: float(v[i]) for m, v in values.items()}
             for i, model in enumerate(MODELS)}, micro, phenom)


def compare_report(cfg: ScenarioConfig) -> CompareReport:
    """Stationary metric values of both models and their relative gap.

    The stationary values and states come from ``stationary_metrics``.  A
    trajectory runs only when concurrence is requested, to find each model's
    sudden death, over fifty lifetimes of the slowest mode
    (``resolve_t_max(stationary=True)``).  Micro is thermal when its
    rate-ratio stationary state is the Gibbs state (detailed balance);
    phenom is not when dressed coherences survive in its stationary state.
    ``selftest`` checks that the micro generator annihilates the former.
    """
    frame = dressed_frame(cfg.params)
    rates = rate_set(cfg.params, frame)
    wanted = [m for m in cfg.metrics if m != "populations"]
    stationary, micro, phenom = stationary_metrics(cfg.params, frame, rates, wanted)
    relative = {}
    for m in wanted:
        mv, pv = stationary["micro"][m], stationary["phenom"][m]
        relative[m] = (pv - mv) / mv if abs(mv) > 1e-300 else float("nan")

    death = {}
    if "concurrence" in cfg.metrics:
        traj = run_scenario(replace(
            cfg, models=MODELS, metrics=("concurrence",),
            t_max=resolve_t_max(cfg, rates, stationary=True)))
        death = {model: sudden_death_time(traj.times, series["concurrence"])
                 for model, series in traj.series.items()}

    gibbs = microscopic.gibbs_state(frame, cfg.params.temperature)
    micro_thermal = np.abs(micro - gibbs).max() <= THERMAL_TOL
    upper = frame.to_dressed(phenom)[tuple(zip(*UPPER))]
    phenom_thermal = np.abs(upper).max() <= THERMAL_TOL

    return CompareReport(config=cfg,
                         stationary=stationary, relative_diff=relative,
                         death_time=death, micro_thermal=micro_thermal,
                         phenom_thermal=phenom_thermal,
                         fairness_lines=fairness_check(cfg.params, frame))


SWEEP_AXES = {"temperature": "temperature", "lambda": "coupling",
              "coupling": "coupling", "gamma0": "gamma0"}


def sweep(cfg: ScenarioConfig, axis: str, values) -> list:
    """One comparison report per axis value."""
    if axis not in SWEEP_AXES:
        raise ConfigError(f"unknown sweep axis {axis!r}; "
                          f"choose from {sorted(SWEEP_AXES)}")
    values = list(values)
    if not values:
        raise ConfigError("sweep needs at least one value")
    field_name = SWEEP_AXES[axis]
    return [compare_report(replace(cfg, params=replace(cfg.params, **{field_name: float(v)}),
                                   label=f"{cfg.label}_{axis}{v:g}"))
            for v in values]


def sweep_csv(cfg: ScenarioConfig, axis: str, values, reports) -> str:
    wanted = [m for m in cfg.metrics if m != "populations"]
    cols = [axis]
    for m in wanted:
        cols += [f"micro_{m}", f"phenom_{m}", f"reldiff_{m}"]
    cols += ["micro_death_time", "phenom_death_time"]
    lines = _meta_lines(cfg, [], (f"sweep axis = {axis}",))
    lines.append(",".join(cols))
    for v, rep in zip(values, reports):
        row = [_fmt(float(v))]
        for m in wanted:
            row += [_fmt(rep.stationary["micro"][m]),
                    _fmt(rep.stationary["phenom"][m]),
                    _fmt(rep.relative_diff[m])]
        for model in MODELS:
            t = rep.death_time.get(model)
            row.append("nan" if t is None else _fmt(t))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
