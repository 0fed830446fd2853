"""Property tests over the parameter space around both preset families.

A derandomised Hypothesis profile (fixed examples, no example database), so
the suite stays deterministic.  Parameters are drawn log-uniformly over
three decades either side of the strong- and the weak-coupling presets; the
temperature is that draw, 0, or a hot bath of k_B T / hbar up to 1e6 times
the qubit frequency.  Starts are X-shaped (eight X columns per snapshot) or
not (all sixteen).
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import assert_run_matches_dense, stationary_per_model
from dressedbath import phenomenological
from dressedbath.cli import NUMERIC_ERRORS
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
    stationary = hexed(stationary_metrics(p, frame, rates))
    assert hexed(rep.stationary) == stationary
    # one (2, 8) X-column read for both models gives the bits of the
    # per-model read of the full matrices
    assert stationary == hexed(stationary_per_model(p, frame, rates))

    # micro: microscopic.thermal_stationarity, the rate-ratio state equal to
    # the Gibbs state and annihilated by microscopic.liouvillian
    assert rep.micro_thermal

    ss = phenomenological.steady_state(p, rates)
    assert abs(np.trace(ss) - 1.0) <= 1e-14
    validate_density(ss)                  # Hermitian, unit trace, PSD
    assert x_elements_from_matrix(ss)[1]
    gen = phenomenological.liouvillian_from_ops(p, rates)
    norm1 = np.abs(gen).sum(axis=0).max()
    assert np.abs(gen @ ss.reshape(-1)).max() <= RESIDUAL_BOUND * norm1
