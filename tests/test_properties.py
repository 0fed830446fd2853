"""Property tests over the parameter space around both preset families.

A derandomised Hypothesis profile (fixed examples, no example database), so
the suite stays deterministic.  Parameters are drawn log-uniformly over
three decades either side of the strong- and the weak-coupling presets.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_run_matches_dense
from dressedbath.metrics import XStateElements
from dressedbath.model import SystemParams, rate_set
from dressedbath.scenarios import (INITIAL_STATES, METRICS, ScenarioConfig,
                                   resolve_t_max)

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
    if draw(st.booleans()):
        values["temperature"] = 0.0
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
def x_configs(draw):
    p = draw(params())
    metrics = draw(st.sets(st.sampled_from(METRICS), min_size=1))
    cfg = ScenarioConfig(
        params=p,
        initial_state=draw(st.one_of(st.sampled_from(INITIAL_STATES), x_states())),
        n_points=draw(st.integers(2, 120)),
        metrics=tuple(m for m in METRICS if m in metrics))
    if draw(st.booleans()):   # an explicit span around the automatic one
        span = resolve_t_max(cfg, rate_set(p)) * 10.0 ** draw(st.floats(-3.0, 2.0))
        cfg = replace(cfg, t_max=span)
    return cfg


@PROFILE
@given(x_configs())
def test_x_columns_match_the_dense_stages(cfg):
    traj = assert_run_matches_dense(cfg)
    if traj is not None:   # every X-shaped start carries eight X columns
        assert {s.shape for s in traj.stacks.values()} == {(cfg.n_points, 8)}
