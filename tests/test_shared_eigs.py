"""A snapshot's Hermitian part reaches LAPACK at most once per model run, and
only from ``linalg.validate_eigs``: a stack with an off-X entry in any
snapshot takes the general metric route as a whole, validation decomposes
all of its snapshots in one call, and their eigenpairs feed the general
concurrence; an X-shaped stack reaches LAPACK not at all."""

import sys
from dataclasses import replace

import numpy as np
import pytest

from conftest import EVOLVED, bits, golden_general_configs, random_density, run_stacks
from dressedbath import linalg, metrics, scenarios
from dressedbath.linalg import (ROUNDING_TOL, NotPSD, TraceNotOne, as_matrices, columns,
                                validate_density, validate_eigs, width)
from dressedbath.scenarios import figure_preset, run_scenario


def seeded_draws():
    """Random full-rank and pure starts at both golden presets; the strong one
    also on a 1e-5 s span, where the off-X entries of late snapshots decay
    below 1e-10 without reaching 0."""
    rng = np.random.default_rng(17)
    for cfg in golden_general_configs()[::2]:   # full-rank strong, full-rank weak
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        for state in (random_density(rng), np.outer(psi, psi.conj())):
            yield replace(cfg, initial_state=state)
            if "strong" in cfg.label:
                yield replace(cfg, initial_state=state, t_max=1e-5)


CONFIGS = golden_general_configs() + list(seeded_draws())


@pytest.fixture
def lapack_calls(monkeypatch):
    """Each call of np.linalg.eigh or eigvalsh, in order: the code of the
    calling function and the matrices handed over."""
    calls = []
    for name in ("eigh", "eigvalsh"):
        def spy(a, *args, real=getattr(np.linalg, name), **kwargs):
            calls.append((sys._getframe(1).f_code, np.array(a).reshape(-1, 4, 4)))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
    return calls


def handed(calls):
    """The matrices of ``lapack_calls``, as one stack."""
    return np.concatenate([m for _, m in calls] or [np.empty((0, 4, 4))])


def hermitian_parts(traj, model):
    states = as_matrices(run_stacks(traj.config)[model])   # propagation calls no eigh
    return states, 0.5 * (states + states.conj().swapaxes(-1, -2))


def off_x(herm):
    """The off-X entries of each matrix of a stack."""
    return columns(herm)[:, 8:]


@pytest.mark.parametrize("cfg", CONFIGS,
                         ids=[f"{c.label}-{i}" for i, c in enumerate(CONFIGS)])
def test_each_non_x_snapshot_is_decomposed_once(cfg, lapack_calls):
    for model in scenarios.MODELS:
        one_model = replace(cfg, models=(model,))   # validates the start state
        lapack_calls.clear()
        traj = run_scenario(one_model)
        states, herm = hermitian_parts(traj, model)
        assert traj.routes[model] == "general"
        if cfg.t_max != "auto":   # near-X snapshots, off-X entries at most 1e-10
            assert (np.abs(off_x(herm)).max(axis=1) <= 1e-10).any()
        assert [code for code, _ in lapack_calls] == [linalg.validate_eigs.__code__]
        np.testing.assert_array_equal(bits(handed(lapack_calls)), bits(herm))
        np.testing.assert_array_equal(bits(traj.series[model]["concurrence"]),
                                      bits(metrics.concurrence_general(states)))


def test_exactly_x_snapshots_of_a_general_stack_take_its_route():
    """On a 1e-3 s span the micro closed form's coherences underflow to exact
    zeros: most late snapshots are exactly X-shaped inside a sixteen-wide
    stack.  They take the stack's general route, whose concurrence is that
    of the matrices alone, bit for bit, and agrees with the X form to
    rounding."""
    cfg = replace(golden_general_configs()[0], models=("micro",), t_max=1e-3)
    stack = run_stacks(cfg)["micro"]
    x_rows = ~stack[:, 8:].any(axis=1)
    assert stack.shape == (cfg.n_points, 16) and x_rows.sum() > cfg.n_points // 2
    traj = run_scenario(cfg)
    assert traj.routes["micro"] == "general"
    concurrence = traj.series["micro"]["concurrence"]
    np.testing.assert_array_equal(
        bits(concurrence), bits(metrics.concurrence_general(as_matrices(stack))))
    x_form = metrics.concurrence_x(metrics.x_elements_from_columns(stack[x_rows]))
    assert np.abs(concurrence[x_rows] - x_form).max() <= ROUNDING_TOL


@pytest.mark.parametrize("cfg", golden_general_configs(),
                         ids=[c.label for c in golden_general_configs()])
def test_matrices_are_built_only_for_linear_entropy(cfg, monkeypatch):
    """With concurrence alone, validation decomposed every general snapshot,
    so no ``(n, 4, 4)`` stack is built; linear entropy builds one per model."""
    built = []

    def spy(cols):
        built.append(len(cols))
        return as_matrices(cols)

    monkeypatch.setattr(scenarios, "as_matrices", spy)
    traj = run_scenario(replace(cfg, metrics=("concurrence",)))
    assert built == []
    assert traj.routes == dict.fromkeys(scenarios.MODELS, "general")
    run_scenario(replace(cfg, metrics=("concurrence", "linear_entropy")))
    assert built == [cfg.n_points] * len(scenarios.MODELS)


# X-shaped, with an outer coherence 1e-8 beyond its population bound: the
# smallest eigenvalue, -1e-8, which validation reads in closed form, passes
# the evolved tolerance, so the snapshot takes the X route when only linear
# entropy or populations are wanted, and fails PSD_TOL when concurrence or
# discord is
EDGE = np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex)
EDGE[0, 3] = EDGE[3, 0] = 0.25 + 1e-8
PHENOM = replace(golden_general_configs()[0], models=("phenom",))


def run_on(stack, monkeypatch, wanted=("concurrence", "linear_entropy"),
           calls=None, start=PHENOM.initial_state):
    """run_scenario of a phenom-only config whose trajectory is ``stack``,
    carried at the width of the start (an X start's eight columns drop the
    rest); ``calls``, a spy's record, is cleared once the config (and its
    start state) is validated."""
    cfg = replace(PHENOM, metrics=wanted, n_points=len(stack), initial_state=start)

    def propagate(rho0, params, rates, times):
        return columns(stack)[:, :width(columns(rho0))]

    monkeypatch.setattr(scenarios.phenomenological, "propagate", propagate)
    if calls is not None:
        calls.clear()
    return run_scenario(cfg)


def stack_of(*kinds):
    """Snapshots by kind: ``x`` and ``edge`` are X-shaped, ``tiny`` (an off-X
    pair of 1e-12), ``general`` and ``non_psd`` (smallest eigenvalue -5e-9,
    within the evolved tolerance, beyond ``PSD_TOL``) are not, and send a
    stack that carries them to the general route."""
    rng = np.random.default_rng(3)
    good_x = np.diag([0.4, 0.1, 0.3, 0.2]).astype(complex)
    tiny = good_x.copy()
    tiny[0, 1] = tiny[1, 0] = 1e-12
    non_psd = np.diag([0.5 + 5e-9, 0.3, 0.2, -5e-9]).astype(complex)
    non_psd[0, 1] = non_psd[1, 0] = 1e-3
    return np.array([{"edge": EDGE, "x": good_x, "tiny": tiny, "non_psd": non_psd,
                      "general": random_density(rng)}[k] for k in kinds])


@pytest.mark.parametrize("kinds", [("tiny", "general", "x", "general"),
                                   ("general", "tiny", "general", "tiny")])
def test_x_route_rows_among_the_decomposed_ones(kinds, monkeypatch,
                                                lapack_calls):
    """An X-shaped snapshot of a stack with a ``tiny`` one (near-X, not X) is
    decomposed with the rest, in the one call; each concurrence is that of
    its matrix alone, bit for bit."""
    stack = stack_of(*kinds)
    traj = run_on(stack, monkeypatch, calls=lapack_calls)
    assert traj.routes["phenom"] == "general"
    assert len(lapack_calls) == 1 and len(handed(lapack_calls)) == 4
    np.testing.assert_array_equal(
        bits(traj.series["phenom"]["concurrence"]),
        bits(np.concatenate([metrics.concurrence_general(m[None]) for m in stack])))


@pytest.mark.parametrize("kinds", [
    ("general", "x", "edge", "general"), ("edge", "general"), ("x", "edge"),
    ("non_psd", "edge"), ("edge", "non_psd"),
    ("general", "edge", "x", "non_psd"), ("x", "non_psd", "general", "edge")])
def test_first_non_psd_general_snapshot_decides(kinds, monkeypatch):
    """With concurrence, validation holds every snapshot to ``PSD_TOL``,
    whatever its route: the first one beyond it decides, as it does alone."""
    first = next(k for k in kinds if k in ("edge", "non_psd"))
    with pytest.raises(NotPSD) as single:
        validate_density(stack_of(first)[0])
    assert "positivity off by" in str(single.value)
    with pytest.raises(NotPSD) as err:
        run_on(stack_of(*kinds), monkeypatch)
    assert str(err.value) == str(single.value)
    assert err.value.violation == single.value.violation


def test_edge_state_passes_validation_unseen_by_lapack(lapack_calls):
    """Validation reads the edge state of an X-shaped stack in closed form at
    the evolved tolerances, with no LAPACK call; its margins are those of the
    rows one at a time."""
    cols = columns(stack_of("x", "edge"))
    margins, eigs = validate_eigs(cols, **EVOLVED)
    assert margins.positivity == pytest.approx(1e-8, rel=1e-6)
    assert eigs is None and lapack_calls == []
    singles = [validate_eigs(row[None], **EVOLVED)[0] for row in cols]
    assert margins == linalg.Margins(*np.max(singles, axis=0))


def test_later_validation_failure_wins_over_the_edge(monkeypatch):
    """Without concurrence or discord the edge state meets the evolved
    positivity bound, so a later snapshot's trace decides."""
    stack = stack_of("general", "edge", "general", "general")
    stack[3] *= 1.0 + 1e-6   # trace off by 1e-6
    with pytest.raises(TraceNotOne):
        run_on(stack, monkeypatch, ("linear_entropy",))


@pytest.mark.parametrize("kinds, expected", [
    (("x", "edge", "general"), NotPSD),
    (("edge", "general"), NotPSD),
    (("x", "general", "edge"), NotPSD),
    (("x", "general", "tiny"), metrics.AssumptionViolated),
])
def test_with_discord_the_first_general_snapshot_decides(kinds, expected,
                                                         monkeypatch):
    """A failed invariant on any snapshot outranks the discord refusal; once
    every snapshot is a state, the first general one refuses discord."""
    with pytest.raises((NotPSD, metrics.AssumptionViolated)) as err:
        run_on(stack_of(*kinds), monkeypatch, ("concurrence", "discord"))
    assert type(err.value) is expected


def assert_lapack_only_in_validation(traj, model, calls):
    """A stack with an off-X entry in any snapshot takes the general route,
    and each of its snapshots was handed to LAPACK once, in one call from
    ``linalg.validate_eigs``; an X-shaped stack takes the X route, with no
    call."""
    _, herm = hermitian_parts(traj, model)
    general = bool(off_x(herm).any())
    assert traj.routes[model] == ("general" if general else "matrix_x")
    assert [code for code, _ in calls] == ([linalg.validate_eigs.__code__] if general else [])
    if general:
        np.testing.assert_array_equal(bits(handed(calls)), bits(herm))


# X starts at a figure preset and at a seeded X state; non-X starts at a golden
# config and at one on a span long enough that most micro snapshots are exactly
# X-shaped
SITE_CONFIGS = [replace(figure_preset(2), n_points=200),
                replace(figure_preset(7), n_points=200),
                replace(PHENOM, models=scenarios.MODELS, initial_state="ket01"),
                golden_general_configs()[1],
                replace(golden_general_configs()[0], t_max=1e-3)]


@pytest.mark.parametrize("cfg", SITE_CONFIGS,
                         ids=[f"{c.label}-{i}" for i, c in enumerate(SITE_CONFIGS)])
def test_lapack_is_called_only_from_validation(cfg, lapack_calls):
    for model in cfg.models:
        one_model = replace(cfg, models=(model,))   # validates the start state
        lapack_calls.clear()
        traj = run_scenario(one_model)
        assert_lapack_only_in_validation(traj, model, lapack_calls)
        if run_stacks(one_model)[model].shape[1] == 8:
            assert lapack_calls == []


@pytest.mark.parametrize("kinds, start", [
    (("x", "tiny", "edge", "general"), PHENOM.initial_state),
    (("edge", "x", "general", "tiny"), PHENOM.initial_state),
    (("x", "x"), PHENOM.initial_state),
    (("x", "edge", "x"), "ket10"),
    (("x", "x"), "ket10")])
def test_mixed_stacks_are_decomposed_only_in_validation(kinds, start, monkeypatch,
                                                        lapack_calls):
    traj = run_on(stack_of(*kinds), monkeypatch, ("linear_entropy",),
                  lapack_calls, start)
    assert_lapack_only_in_validation(traj, "phenom", lapack_calls)
    # an X start carries no off-X column, so its tiny pair is dropped
    general = not isinstance(start, str) and bool({"general", "tiny"} & set(kinds))
    assert traj.routes["phenom"] == ("general" if general else "matrix_x")


def test_x_start_edge_state_fails_validation_in_closed_form(monkeypatch,
                                                           lapack_calls):
    """An X start carries eight columns; validation reads the edge state's
    eigenvalue -1e-8 off them in closed form, and with concurrence it fails
    ``PSD_TOL`` as the matrix itself does, with no LAPACK call."""
    with pytest.raises(NotPSD) as single:
        validate_density(EDGE)
    with pytest.raises(NotPSD) as err:
        run_on(stack_of("x", "edge", "x"), monkeypatch, ("concurrence",),
               lapack_calls, "ket10")
    assert (str(err.value), err.value.violation) == (str(single.value),
                                                     single.value.violation)
    assert lapack_calls == []


@pytest.mark.parametrize("start", [PHENOM.initial_state, "ket10"])
def test_overflowing_snapshot_fails_validation_not_the_x_read(start, monkeypatch):
    """Validation runs before the X read and the X-form metrics: a snapshot
    whose population products would overflow stops there, without a
    warning (a warning raises here)."""
    stack = stack_of("x", "x")
    stack[1] *= 1e200
    with pytest.raises(TraceNotOne):
        run_on(stack, monkeypatch, start=start)
