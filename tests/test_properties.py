"""Property tests over the parameter space around both preset families.

A derandomised Hypothesis profile (fixed examples, no example database), so
the suite stays deterministic.  Parameters are drawn log-uniformly over
three decades either side of the strong- and the weak-coupling presets; the
temperature is that draw, 0, or a hot bath of k_B T / hbar up to 1e6 times
the qubit frequency.  The micro thermal verdict is also drawn over 150
decades either side.  Starts are X-shaped (eight X columns per snapshot) or
not (all sixteen).  One property holds the metric stage to a loop over the
snapshots of random stacks; one runs ``selftest``'s own check list over the
draws; another runs micro alone from non-X starts at small damping over
long spans.  The last property drives the command line with hostile
configuration values.
"""

import contextlib
import io
import math
import os
import pathlib
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (EVOLVED, assert_run_matches_dense, bits, out_of, outcome,
                      random_density, run_stacks, stationary_per_model,
                      trajectory_metrics_per_snapshot)
from dressedbath import cli, microscopic, phenomenological
from dressedbath.cli import main
from dressedbath.integrate import TraceDrift
from dressedbath.linalg import (EVOLVED_PSD_TOL, EVOLVED_TRACE_TOL, ROUNDING_TOL,
                                as_matrices, columns, trace_of, validate_eigs)
from dressedbath.metrics import XStateElements, concurrence_general, x_elements_from_columns
from dressedbath.model import KB_OVER_HBAR, SystemParams, dressed_frame, rate_set
from dressedbath.scenarios import (INITIAL_STATES, METRICS, STATIONARY_METRICS,
                                   ScenarioConfig, _trajectory_metrics, compare_report,
                                   resolve_t_max, run_scenario,
                                   stationary_metrics)

STRONG = dict(omega=4e9, coupling=4e9, gamma0=5e7, bath_width=5e10,
              bath_center=8e9, temperature=5e-4)
WEAK = dict(omega=5e6, coupling=4e4, gamma0=500.0, bath_width=5e5,
            bath_center=1e7, temperature=0.005)

# On a failing example Hypothesis imports libcst to write its patch, which
# warns on mypy_extensions.TypedDict; the suite turns warnings into errors,
# and this one would end the session before the failure is reported.
pytestmark = pytest.mark.filterwarnings(
    "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")

PROFILE = settings(derandomize=True, database=None, max_examples=80,
                   deadline=None)


def around(center, decades=3.0):
    return st.floats(-decades, decades).map(lambda u: center * 10.0 ** u)


@st.composite
def params(draw):
    family = draw(st.sampled_from([STRONG, WEAK]))
    values = {k: draw(around(v)) for k, v in family.items()}
    bath = draw(st.sampled_from(["preset", "zero", "hot"]))
    if bath == "zero":
        values["temperature"] = 0.0
    elif bath == "hot":
        values["temperature"] = (values["omega"] / KB_OVER_HBAR
                                 * 10.0 ** draw(st.floats(0.0, 6.0)))
    return SystemParams(**values)


@st.composite
def wide_params(draw):
    """Each preset parameter scaled by 10^U(-150, 150); the temperature 0, a
    hot bath as in ``params`` or 10^U(-300, 300) K.  Draws that
    ``SystemParams`` refuses are rejected."""
    family = draw(st.sampled_from([STRONG, WEAK]))
    values = {k: v * 10.0 ** draw(st.floats(-150.0, 150.0))
              for k, v in family.items() if k != "temperature"}
    bath = draw(st.sampled_from(["zero", "hot", "wide"]))
    values["temperature"] = (
        0.0 if bath == "zero"
        else values["omega"] / KB_OVER_HBAR * 10.0 ** draw(st.floats(0.0, 6.0))
        if bath == "hot" else 10.0 ** draw(st.floats(-300.0, 300.0)))
    try:
        return SystemParams(**values)
    except ValueError:
        assume(False)


@st.composite
def x_states(draw):
    """A random X-shaped density matrix: populations, and coherences up to
    their population bounds with random phases."""
    unit = st.floats(0.0, 1.0)
    weights = [draw(unit) for _ in range(4)]
    if sum(weights) == 0.0:
        weights[0] = 1.0
    p = np.array(weights) / sum(weights)
    outer, inner = (draw(unit) * math.sqrt(a * b)
                    * np.exp(1j * draw(st.floats(0.0, 2.0 * math.pi)))
                    for a, b in ((p[0], p[3]), (p[1], p[2])))
    return XStateElements(*p, outer=outer, inner=inner).matrix()


@st.composite
def non_x_states(draw):
    """A Ginibre state A A^dagger / tr (full rank almost surely) or a pure
    state, with an upper off-X entry above 1e-2 in magnitude."""
    unit = st.floats(-1.0, 1.0)
    size = 16 if draw(st.booleans()) else 4
    a = np.array([complex(draw(unit), draw(unit)) for _ in range(size)])
    a = a.reshape(4, size // 4)
    rho = a @ a.conj().T
    tr = np.trace(rho).real
    assume(tr > 1e-3)
    rho = rho / tr
    assume(max(abs(rho[0, 1]), abs(rho[0, 2]), abs(rho[1, 3]), abs(rho[2, 3])) > 1e-2)
    return 0.5 * (rho + rho.conj().T)


@st.composite
def configs(draw, states, metrics=METRICS):
    p = draw(params())
    wanted = draw(st.sets(st.sampled_from(metrics), min_size=1))
    cfg = ScenarioConfig(
        params=p,
        initial_state=draw(states),
        n_points=draw(st.integers(2, 120)),
        metrics=tuple(m for m in METRICS if m in wanted))
    if draw(st.booleans()):   # an explicit span around the automatic one
        span = resolve_t_max(cfg, rate_set(p)) * 10.0 ** draw(st.floats(-3.0, 2.0))
        cfg = replace(cfg, t_max=span)
    return cfg


@PROFILE
@given(configs(st.one_of(st.sampled_from(INITIAL_STATES), x_states())))
def test_x_columns_match_the_dense_stages(cfg):
    stacks = assert_run_matches_dense(cfg)
    if stacks is not None:   # every X-shaped start carries eight X columns
        assert {s.shape for s in stacks.values()} == {(cfg.n_points, 8)}


@settings(PROFILE, max_examples=50)
@given(configs(non_x_states(), ("concurrence", "linear_entropy", "populations")))
def test_non_x_start_carries_all_sixteen_columns(cfg):
    try:
        traj = run_scenario(cfg)
    except TraceDrift:   # phenom only: ROADMAP item 1
        return
    stacks = run_stacks(cfg)
    assert {s.shape for s in stacks.values()} == {(cfg.n_points, 16)}
    for model, stack in stacks.items():
        margins = traj.margins[model]
        assert stack.dtype == float   # Hermitian by construction
        assert margins.trace <= EVOLVED_TRACE_TOL
        assert margins.positivity <= EVOLVED_PSD_TOL
        if "concurrence" in cfg.metrics:
            # a stack with an off-X entry takes the general route on every
            # snapshot, however small the entry has decayed
            general = concurrence_general(as_matrices(stack))
            # measured 1.4e-16 over 400 draws of this strategy
            assert np.abs(traj.series[model]["concurrence"] - general).max() <= 1e-12


EDGE = np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex)
EDGE[0, 3] = EDGE[3, 0] = 0.25 + 1e-8         # X-shaped, eigenvalue -1e-8
NON_PSD = np.diag([0.5 + 5e-9, 0.3, 0.2, -5e-9]).astype(complex)
NON_PSD[0, 1] = NON_PSD[1, 0] = 1e-3           # not X-shaped, eigenvalue -5e-9


@st.composite
def snapshot_stacks(draw):
    """One to eight snapshots, each an X state (``x``), an X state with an
    off-X pair of 1e-12 (``tiny``), ``EDGE``, ``NON_PSD`` or a non-X state
    (``general``), as all sixteen columns or the eight X columns (which drop
    every off-X entry)."""
    rows = []
    # a failing kind fails most stacks it is in, so it is drawn less often
    kinds = st.sampled_from(["x", "tiny", "general"] * 3 + ["edge", "non_psd"])
    for kind in draw(st.lists(kinds, min_size=1, max_size=8)):
        if kind in ("x", "tiny"):
            m = draw(x_states())
            if kind == "tiny":
                m[0, 1] = m[1, 0] = 1e-12
        else:
            m = {"edge": EDGE, "non_psd": NON_PSD}.get(kind)
            m = draw(non_x_states()) if m is None else m
        rows.append(m)
    return columns(np.array(rows))[:, :draw(st.sampled_from([16, 8]))]


@PROFILE
@given(snapshot_stacks(), st.sets(st.sampled_from(METRICS), min_size=1))
def test_trajectory_metrics_is_the_per_snapshot_loop(stack, wanted):
    """The whole-stack metric stage raises what a loop over the snapshots
    raises, or gives its margins, route and every value, bit for bit."""
    wanted = tuple(m for m in METRICS if m in wanted)
    got = verdict_or_error(_trajectory_metrics, stack, wanted)
    expected = verdict_or_error(trajectory_metrics_per_snapshot, stack, wanted)
    if isinstance(expected[0], type) or isinstance(got[0], type):
        assert got == expected
        return
    (margins, series, route), (ref_margins, ref_series, ref_route) = got, expected
    assert margins == ref_margins
    assert route == ref_route
    assert list(series) == list(ref_series)
    for name, column in series.items():
        np.testing.assert_array_equal(bits(column), bits(ref_series[name]))


@st.composite
def x_column_stacks(draw):
    """One to twelve X states as eight X coordinates, each exact, off unit
    trace by up to 1e-7, with one coordinate moved by up to 1e-9, with a
    coherence past its population bound by up to 1e-6 (a negative
    eigenvalue), or with a non-finite coordinate."""
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        row = columns(draw(x_states()))[:8]
        kind = draw(st.sampled_from(["exact"] * 4 + ["trace", "noise",
                                                     "negative", "non_finite"]))
        col = draw(st.integers(0, 7))
        if kind == "trace":
            row = row * (1.0 + draw(st.floats(-1e-7, 1e-7)))
        elif kind == "noise":
            row[col] += draw(st.floats(-1e-9, 1e-9))
        elif kind == "negative":   # coordinates 4, 5 are (0, 3), 6, 7 are (1, 2)
            k, (i, j) = draw(st.sampled_from([(4, (0, 3)), (6, (1, 2))]))
            z = (math.sqrt(row[i] * row[j]) + draw(st.floats(0.0, 1e-6))) * np.exp(1j * col)
            row[k], row[k + 1] = z.real, z.imag
        elif kind == "non_finite":
            row[col] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        rows.append(row)
    return np.array(rows)


@PROFILE
@given(x_column_stacks())
def test_an_x_stack_validates_and_reads_as_its_zero_padded_form(cols):
    """Validation (margins and the X route, or the error), the X elements and
    the trace of an X stack are those of its sixteen-column form, +0 at
    every off-X coordinate, bit for bit."""
    padded = columns(as_matrices(cols))
    assert padded.shape == (len(cols), 16) and not padded[:, 8:].any()
    for tolerances in ({}, EVOLVED):
        narrow, wide = (outcome(validate_eigs, c, **tolerances) for c in (cols, padded))
        if isinstance(narrow[0], type) or isinstance(wide[0], type):
            assert repr(narrow) == repr(wide)
            continue
        assert repr(narrow[0]) == repr(wide[0])
        assert narrow[1] is wide[1] is None
    for name in XStateElements.__dataclass_fields__:
        np.testing.assert_array_equal(bits(getattr(x_elements_from_columns(cols), name)),
                                      bits(getattr(x_elements_from_columns(padded), name)))
    np.testing.assert_array_equal(bits(trace_of(cols)), bits(trace_of(padded)))


def hexed(stationary):
    """model -> metric -> the exact bits of the value, as float.hex text."""
    return {m: {k: v.hex() for k, v in d.items()} for m, d in stationary.items()}


@PROFILE
@given(params())
# a hot bath lifts the micro channel sums far above gamma0
@example(SystemParams(omega=4e8, coupling=4e11, gamma0=5e7, bath_width=5e10,
                      bath_center=8e9, temperature=305.53172832424247))
# coupling >> omega: the dressed energy differences cancel, the Bohr
# frequencies do not
@example(SystemParams(omega=93026728.78540233, coupling=2272669760355.3013,
                      gamma0=4484563.264713445, bath_width=2596328664.6365485,
                      bath_center=1223030362.3583772,
                      temperature=8.970129035512959e-07))
# a wide_params() draw with bare emission 8.9e-161 /s: over (g + gbar)^2, a
# subnormal, the phenom trace was off by 1.954e-10
@example(SystemParams(omega=5000000.115129256, coupling=40000.00092103405,
                      gamma0=500.0000115129256, bath_width=1.3068668837663398e-77,
                      bath_center=10000000.230258511,
                      temperature=1.0000000230258512))
def test_closed_form_stationary_states(p):
    frame = dressed_frame(p)
    rates = rate_set(p, frame)
    # compare reads the stationary values off the closed forms; its
    # trajectory, over a span too short to matter, serves only the
    # sudden-death times
    rep = compare_report(ScenarioConfig(params=p, metrics=STATIONARY_METRICS,
                                        n_points=2, t_max=1e-12))
    stationary = hexed(stationary_metrics(p, frame, rates)[0])
    assert hexed(rep.stationary) == stationary
    # one (2, 8) X-column read for both models gives the bits of the
    # per-model read of the full matrices
    assert stationary == hexed(stationary_per_model(p, frame, rates))

    # micro: the rate-ratio state is the Gibbs state
    assert rep.micro_thermal
    assert_phenom_closed_form(p, rates)


def assert_phenom_closed_form(p, rates):
    ss = phenomenological.steady_state(p, rates)
    assert abs(np.trace(ss) - 1.0) <= 1e-14
    # unit trace, PSD, and the X route, at the construction tolerances
    assert validate_eigs(columns(ss[None]))[1] is None
    # a closed-form state is exact to rounding: the generator residual is
    # rounding at the generator's largest column sum
    gen = phenomenological.liouvillian_from_ops(p, rates)
    assert np.abs(gen @ ss.reshape(-1)).max() <= ROUNDING_TOL * np.linalg.norm(gen, 1)


@PROFILE
@given(st.one_of(params(), wide_params()))
def test_phenom_closed_form_holds_over_the_whole_space(p):
    """Wherever the bare rates are finite and g + gbar > 0, the phenom
    stationary state has unit trace, is a state on the X route, and its
    generator annihilates it."""
    try:
        rates = rate_set(p)
    except ValueError:   # the low Bohr frequency underflows: no frame
        assume(False)
    damping = (rates.emission_bare, rates.absorption_bare)
    assume(all(math.isfinite(r) for r in damping) and sum(damping) > 0)
    assert_phenom_closed_form(p, rates)


def verdict_or_error(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


def generator_verdict(p, wanted):
    """``compare_report``'s stages before its micro verdict, then the
    verdict of the generator oracle: the rate-ratio state is the Gibbs state
    and ``microscopic.liouvillian`` annihilates it."""
    frame = dressed_frame(p)
    rates = rate_set(p, frame)
    stationary_metrics(p, frame, rates, wanted)
    return microscopic.thermal_stationarity(
        p, rates, frame, microscopic.liouvillian(rates, frame))[0]


@PROFILE
@given(st.one_of(params(), wide_params()))
# channel sums of about 1.6e-316 and a residual of one subnormal unit:
# ROUNDING_TOL * max(channel sums) rounds to 0, and the oracle's bound keeps
# 16 units of the double's resolution
@example(SystemParams(omega=2.680865464988423e+72, coupling=19571981349.342274,
                      gamma0=1.9742259454421736e+52,
                      bath_width=1.2737111370690637e-61,
                      bath_center=2.9948740163754094e+124,
                      temperature=9.125261201599285e+63))
def test_micro_verdict_is_the_generator_oracle(p):
    """``compare_report`` reads detailed balance off the closed-form
    stationary states; the generator oracle, which ``selftest`` runs, gives
    the same verdict, or both raise the same exception."""
    wanted = ("discord", "linear_entropy")   # no trajectory
    cfg = ScenarioConfig(params=p, metrics=wanted)
    assert (verdict_or_error(lambda: compare_report(cfg).micro_thermal)
            == verdict_or_error(generator_verdict, p, wanted))


@PROFILE
@given(params())
# figure 2 with 1000x the coupling: the phenom stationary residual 7.25e-05
# was held to 1e-12 of the bare channel sum, not to the generator's scale
@example(SystemParams(omega=4e9, coupling=4e12, gamma0=5e7, bath_width=5e10,
                      bath_center=8e9, temperature=5e-4))
# a 198 K bath lifts the rates far above gamma0, the scale the
# ground-population coefficients were held to
@example(SystemParams(omega=4093171969.1230164, coupling=215713720891.6306,
                      gamma0=79615.76037221703, bath_width=284581374382.84766,
                      bath_center=6277360314.58707,
                      temperature=198.07690435245792))
# channel sums 9.4e13 and 4.9e-7 /s: the integrated oracle of check 1 drifts
# off unit trace (a stiff block, ROADMAP item 1), so the draw is skipped
@example(SystemParams(omega=4043752.4378828257, coupling=3004197705706.961,
                      gamma0=5e7, bath_width=220975199481.28745,
                      bath_center=86967092.78028964,
                      temperature=3.888489094469115e-05))
# check 1 was off by 2.85e-2: the antisym-sym phase turns 2.6e11 rad over the
# span, and its frequency was a difference of two numbers near 1.3e9
@example(SystemParams(omega=1298476154.8191326, coupling=40000.0, gamma0=500.0,
                      bath_width=6294.627058970837, bath_center=100000.0,
                      temperature=1.2984761548191326))
def test_selftest_checks_hold_over_the_parameter_space(p):
    """``selftest``'s own check list away from the presets: check 1 within
    its absolute 1e-7, checks 2-6 each held to rounding at its own scale,
    pass on every draw.  A draw whose integrated oracle stops on TraceDrift
    (ROADMAP item 1) is skipped."""
    try:
        rows = cli._selftest_checks(ScenarioConfig(params=p))
    except TraceDrift:
        return
    failed = [(name, detail) for name, ok, detail in rows if not ok]
    assert not failed


@st.composite
def long_span_configs(draw):
    """A micro run from a non-X start with gamma0 down by 10^U(2, 6) and up
    to 1000 automatic spans: many radians of phase per lifetime."""
    p = draw(params())
    p = replace(p, gamma0=p.gamma0 * 10.0 ** draw(st.floats(-6.0, -2.0)))
    cfg = ScenarioConfig(params=p, initial_state=draw(non_x_states()),
                         n_points=200, metrics=("populations",), models=("micro",))
    span = resolve_t_max(cfg, rate_set(p)) * 10.0 ** draw(st.floats(0.0, 3.0))
    return replace(cfg, t_max=span)


@settings(PROFILE, max_examples=40)
@given(long_span_configs())
# ROADMAP item 2: phases that must add up each carried their own rounding
# error of about eps omega t, and positivity was off by 6.4e-2
@example(ScenarioConfig(
    params=SystemParams(omega=4.16e9, coupling=503.0, gamma0=0.67,
                        bath_width=6291.0, bath_center=2.2e5, temperature=0.005),
    initial_state=random_density(np.random.default_rng(1)), n_points=400,
    metrics=("populations",), models=("micro",)))
def test_long_span_non_x_micro_runs_stay_positive(cfg):
    assert run_scenario(cfg).margins["micro"].positivity <= EVOLVED_PSD_TOL


# -- the command line on hostile input -------------------------------------

VERBS = ("evolve", "compare", "sweep", "steady", "spectrum")
RUN_VERBS = ("evolve", "compare", "sweep")   # the verbs that take --points and --tmax
HOSTILE = ("0", "5e-324", "-1e9", "1e300", "inf", "nan", "abc")
SPANS = ("auto", "0", "-1", "1e-300", "1e300")
PREFIX = {1: "configuration error: ", 2: "numerical invariant violated: "}


@st.composite
def command_lines(draw):
    """A verb on the strong-coupling preset with up to two of its parameters
    replaced by hostile text, and ``--points`` up to 30 and a ``--tmax`` for
    the verbs that take them; a sweep takes one value, hostile or not, on a
    drawn axis.  Returns the config text and the arguments after
    ``--config``."""
    values = {k: repr(v) for k, v in STRONG.items()}
    for key in draw(st.lists(st.sampled_from(sorted(STRONG)), max_size=2,
                             unique=True)):
        values[key] = draw(st.sampled_from(HOSTILE))
    text = "".join(f"{k} = {v}\n" for k, v in values.items())
    verb = draw(st.sampled_from(VERBS))
    args = []
    if verb in RUN_VERBS:
        args += ["--points", str(draw(st.integers(-1, 30))),
                 "--tmax", draw(st.sampled_from(SPANS))]
    if verb == "sweep":
        args += ["--axis", draw(st.sampled_from(["temperature", "lambda", "gamma0"])),
                 "--values", draw(st.sampled_from(("1e-3",) + HOSTILE))]
    return text, verb, args


@settings(PROFILE, max_examples=100)
@given(command_lines())
# no damping and a 1e300 s span: the micro phases overflowed with two
# RuntimeWarnings before the one-line NotFinite verdict
@example(("".join(f"{k} = {0.0 if k == 'gamma0' else v!r}\n"
                  for k, v in STRONG.items()),
          "evolve", ["--points", "2", "--tmax", "1e300"]))
def test_command_line_fails_in_one_line(drawn):
    """Exit 0, 1 or 2; a failure is one stderr line with the prefix of its
    exit code, never a traceback or a warning (both raise here); nothing is
    written outside ``--out``, not even into the working directory."""
    text, verb, args = drawn
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as root:
        root = pathlib.Path(root)
        (root / "run.cfg").write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        os.chdir(root)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main([verb, "--config", "run.cfg", *out_of(verb, "out"), *args])
        finally:
            os.chdir(here)
        written = {p.relative_to(root).parts[0] for p in root.rglob("*")}
    assert rc in (0, 1, 2)
    assert written <= {"run.cfg", "out"}
    if rc == 0:
        assert err.getvalue() == ""
    else:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith(PREFIX[rc]), lines
