"""A non-X snapshot's Hermitian part reaches LAPACK once per model run:
validation's eigenpairs feed the general concurrence, and only a general-route
snapshot that validation read in closed form is decomposed afterwards."""

from dataclasses import replace

import numpy as np
import pytest

from conftest import bits, golden_general_configs, random_density
from dressedbath import metrics, scenarios
from dressedbath.linalg import (ENTRIES, EVOLVED_HERM_TOL, EVOLVED_PSD_TOL,
                                EVOLVED_TRACE_TOL, X_ENTRIES, NotPSD,
                                TraceNotOne, as_matrices, validate_columns,
                                validate_eigs)
from dressedbath.scenarios import ROUTES, run_scenario

EVOLVED = dict(herm_tol=EVOLVED_HERM_TOL, trace_tol=EVOLVED_TRACE_TOL,
               psd_tol=EVOLVED_PSD_TOL)


def seeded_draws():
    """Random full-rank and pure starts at both golden presets; the strong one
    also on a 1e-5 s span, where late snapshots, decomposed by validation,
    take the X route."""
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
def lapack_matrices(monkeypatch):
    """Every matrix handed to np.linalg.eigh or eigvalsh, in call order."""
    calls = []
    for name in ("eigh", "eigvalsh"):
        def spy(a, *args, real=getattr(np.linalg, name), **kwargs):
            calls.append(np.array(a).reshape(-1, 4, 4))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
    return calls


@pytest.mark.parametrize("cfg", CONFIGS,
                         ids=[f"{c.label}-{i}" for i, c in enumerate(CONFIGS)])
def test_each_non_x_snapshot_is_decomposed_once(cfg, lapack_matrices):
    for model in scenarios.MODELS:
        one_model = replace(cfg, models=(model,))   # validates the start state
        lapack_matrices.clear()
        traj = run_scenario(one_model)
        handed = np.concatenate(lapack_matrices)
        states = as_matrices(traj.stacks[model], traj.entries)
        herm = 0.5 * (states + states.conj().swapaxes(-1, -2))
        general = traj.routes[model] == ROUTES.index("general")
        off_x = herm.reshape(-1, 16)[:, [4 * i + j for i, j in ENTRIES
                                         if (i, j) not in X_ENTRIES]].any(axis=1)
        non_x = off_x | general
        if cfg.t_max == "auto":
            assert non_x.all()
        else:   # validation decomposed snapshots that take the X route
            assert general.any() and (off_x & ~general).any()
        assert len(handed) == non_x.sum()
        assert (sorted(m.tobytes() for m in handed)
                == sorted(m.tobytes() for m in herm[non_x]))
        np.testing.assert_array_equal(
            bits(traj.series[model]["concurrence"][general]),
            bits(metrics.concurrence_general(states[general])))


@pytest.mark.parametrize("cfg", golden_general_configs(),
                         ids=[c.label for c in golden_general_configs()])
def test_matrices_are_built_only_for_linear_entropy(cfg, monkeypatch):
    """With concurrence alone, validation decomposed every general snapshot,
    so no ``(n, 4, 4)`` stack is built; linear entropy builds one per model."""
    built = []

    def spy(cols, entries):
        built.append(len(cols))
        return as_matrices(cols, entries)

    monkeypatch.setattr(scenarios, "as_matrices", spy)
    traj = run_scenario(replace(cfg, metrics=("concurrence",)))
    assert built == []
    for model in scenarios.MODELS:
        assert (traj.routes[model] == ROUTES.index("general")).all()
    run_scenario(replace(cfg, metrics=("concurrence", "linear_entropy")))
    assert built == [cfg.n_points] * len(scenarios.MODELS)


# X-shaped, with an outer coherence 1e-8 beyond its population bound: the
# smallest eigenvalue, -1e-8, passes validation at the evolved tolerances,
# which read it in closed form, but XStateElements.valid fails, so the
# snapshot takes the general route and is decomposed there
EDGE = np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex)
EDGE[0, 3] = EDGE[3, 0] = 0.25 + 1e-8
PHENOM = replace(golden_general_configs()[0], models=("phenom",))


def run_on(stack, monkeypatch, wanted=("concurrence", "linear_entropy"),
           calls=None):
    """run_scenario of a phenom-only non-X config whose trajectory is
    ``stack``; ``calls``, a spy's record, is cleared once the config (and
    its start state) is validated."""
    monkeypatch.setattr(scenarios.phenomenological, "propagate",
                        lambda *args: stack.reshape(-1, 16))
    cfg = replace(PHENOM, metrics=wanted, n_points=len(stack))
    if calls is not None:
        calls.clear()
    return run_scenario(cfg)


def stack_of(*kinds):
    """Snapshots by kind: ``x`` and ``tiny`` take the X route, ``general`` and
    ``non_psd`` the general one; validation decomposes ``tiny`` (an off-X
    pair of 1e-12), ``general`` and ``non_psd`` (smallest eigenvalue -5e-9,
    within the evolved tolerance), not ``x`` or ``edge``."""
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
                                                lapack_matrices):
    stack = stack_of(*kinds)
    traj = run_on(stack, monkeypatch, calls=lapack_matrices)
    general = np.array([k == "general" for k in kinds])
    assert (traj.routes["phenom"] == ROUTES.index("general")).tolist() == general.tolist()
    assert len(np.concatenate(lapack_matrices)) == 4 - kinds.count("x")
    np.testing.assert_array_equal(
        bits(traj.series["phenom"]["concurrence"][general]),
        bits(metrics.concurrence_general(stack[general])))


@pytest.mark.parametrize("kinds", [
    ("general", "x", "edge", "general"), ("edge", "general"), ("x", "edge"),
    ("non_psd", "edge"), ("edge", "non_psd"),
    ("general", "edge", "x", "non_psd"), ("x", "non_psd", "general", "edge")])
def test_first_non_psd_general_snapshot_decides(kinds, monkeypatch):
    first = next(k for k in kinds if k in ("edge", "non_psd"))
    with pytest.raises(NotPSD) as single:
        metrics.concurrence_general(stack_of(first))
    assert "state eigenvalue" in str(single.value)
    assert "below tolerance" in str(single.value)
    with pytest.raises(NotPSD) as err:
        run_on(stack_of(*kinds), monkeypatch)
    assert str(err.value) == str(single.value)
    assert err.value.violation == single.value.violation


def test_edge_state_passes_validation_unseen_by_lapack():
    cols = stack_of("general", "edge").reshape(-1, 16)
    assert validate_columns(cols, ENTRIES, **EVOLVED).positivity == pytest.approx(
        1e-8, rel=1e-6)
    _, (rows, evals, vecs) = validate_eigs(cols, ENTRIES, **EVOLVED)
    assert rows.tolist() == [True, False] and len(evals) == len(vecs) == 1


def test_later_validation_failure_wins_over_the_edge(monkeypatch):
    stack = stack_of("general", "edge", "general", "general")
    stack[3] *= 1.0 + 1e-6   # trace off by 1e-6
    with pytest.raises(TraceNotOne):
        run_on(stack, monkeypatch)


@pytest.mark.parametrize("kinds, expected", [
    (("x", "edge", "general"), NotPSD),
    (("edge", "general"), NotPSD),
    (("x", "general", "edge"), metrics.AssumptionViolated),
])
def test_with_discord_the_first_general_snapshot_decides(kinds, expected,
                                                         monkeypatch):
    with pytest.raises((NotPSD, metrics.AssumptionViolated)) as err:
        run_on(stack_of(*kinds), monkeypatch, ("concurrence", "discord"))
    assert type(err.value) is expected
