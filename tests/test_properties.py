"""Property tests over the parameter space around both preset families.

A derandomised Hypothesis profile (fixed examples, no example database), so
the suite stays deterministic.  Parameters are drawn log-uniformly over
three decades either side of the strong- and the weak-coupling presets; the
temperature is that draw, 0, or a hot bath of k_B T / hbar up to 1e6 times
the qubit frequency.  The micro thermal verdict is also drawn over 150
decades either side.  Starts are X-shaped (eight X columns per snapshot) or
not (all sixteen).  The last property drives the command line with hostile
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

from conftest import assert_run_matches_dense, stationary_per_model
from dressedbath import microscopic, phenomenological
from dressedbath.cli import NUMERIC_ERRORS, main
from dressedbath.linalg import (ENTRIES, EVOLVED_HERM_TOL, EVOLVED_PSD_TOL,
                                EVOLVED_TRACE_TOL, as_matrices, validate_density)
from dressedbath.metrics import (XStateElements, concurrence_general,
                                 x_elements_from_matrix)
from dressedbath.model import KB_OVER_HBAR, SystemParams, dressed_frame, rate_set
from dressedbath.scenarios import (INITIAL_STATES, METRICS, STATIONARY_METRICS,
                                   ScenarioConfig, compare_report,
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
    traj = assert_run_matches_dense(cfg)
    if traj is not None:   # every X-shaped start carries eight X columns
        assert {s.shape for s in traj.stacks.values()} == {(cfg.n_points, 8)}


@settings(PROFILE, max_examples=50)
@given(configs(non_x_states(), ("concurrence", "linear_entropy", "populations")))
def test_non_x_start_carries_all_sixteen_columns(cfg):
    try:
        traj = run_scenario(cfg)
    except NUMERIC_ERRORS:
        return
    assert traj.entries == ENTRIES
    assert {s.shape for s in traj.stacks.values()} == {(cfg.n_points, 16)}
    for model, stack in traj.stacks.items():
        margins = traj.margins[model]
        assert margins.hermiticity <= EVOLVED_HERM_TOL
        assert margins.trace <= EVOLVED_TRACE_TOL
        assert margins.positivity <= EVOLVED_PSD_TOL
        if "concurrence" in cfg.metrics:
            # snapshots whose off-X entries decayed below 1e-10 take the X route
            general = concurrence_general(as_matrices(stack, ENTRIES))
            # measured 1.4e-16 over 400 draws of this strategy
            assert np.abs(traj.series[model]["concurrence"] - general).max() <= 1e-12


# a closed-form state is exact to rounding: the generator residual stays
# within a few hundred roundings of the generator's largest column sum
RESIDUAL_BOUND = 1e-13


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

    ss = phenomenological.steady_state(p, rates)
    assert abs(np.trace(ss) - 1.0) <= 1e-14
    validate_density(ss)                  # Hermitian, unit trace, PSD
    assert x_elements_from_matrix(ss)[1]
    gen = phenomenological.liouvillian_from_ops(p, rates)
    norm1 = np.abs(gen).sum(axis=0).max()
    assert np.abs(gen @ ss.reshape(-1)).max() <= RESIDUAL_BOUND * norm1


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
# channel sums of about 1.6e-316: the oracle's residual bound
# 1e-9 * max(channel sums) underflows to 0, so at the function level the
# verdicts differ; compare_report first stops on the phenom steady state
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
                rc = main([verb, "--config", "run.cfg", "--out", "out", *args])
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
