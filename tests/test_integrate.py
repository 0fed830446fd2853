import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bits, random_density, run_stacks
from dressedbath import integrate
from dressedbath import microscopic as mic
from dressedbath import phenomenological as ph
from dressedbath.cli import main
from dressedbath.integrate import (TraceDrift, lindblad, propagate,
                                   superoperator_from_rhs)
from dressedbath.linalg import (EVOLVED_TRACE_TOL, MAP, ROUNDING_TOL, NotFinite,
                                as_matrices, columns, trace_of, width)
from dressedbath.metrics import concurrence_x, x_elements_from_matrix
from dressedbath.model import dressed_frame, hamiltonian, rate_set
from dressedbath.scenarios import figure_preset, initial_state_matrix, resolve_t_max


@pytest.fixture(scope="module")
def expm():
    return pytest.importorskip("scipy.linalg").expm


def expm_trajectory(expm, generator, rho0, times):
    """The oracle: exp(t L) vec(rho0), one scipy matrix exponential per time."""
    v = rho0.reshape(-1)
    return np.array([expm(t * generator) @ v for t in times]).reshape(-1, 4, 4)


def preset_configs():
    for n in range(1, 11):
        preset = figure_preset(n)
        yield from preset if isinstance(preset, list) else [preset]


def test_superoperator_matches_direct_map():
    rng = np.random.default_rng(4)
    left = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    right = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    gen = superoperator_from_rhs(lambda m: left @ m @ right)
    probe = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    direct = left @ probe @ right
    assert np.abs((gen @ probe.reshape(-1)).reshape(4, 4) - direct).max() < 1e-12


def test_rejects_non_increasing_grid():
    with pytest.raises(ValueError):
        propagate(np.zeros((16, 16)), np.eye(4) / 4, [0.0, 1.0, 1.0])


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_generator_is_not_finite(bad):
    gen = np.zeros((16, 16), dtype=complex)
    gen[3, 7] = bad
    with pytest.raises(NotFinite):
        propagate(gen, np.eye(4, dtype=complex) / 4, [0.0, 1.0])


def test_trace_leak_raises_trace_drift():
    # a generator that feeds the trace grows it past the drift bound; its
    # eigenvalues are all 0.1, far from the pinned-zero window
    leak = 0.1 * np.eye(16, dtype=complex)
    with pytest.raises(TraceDrift):
        propagate(leak, np.eye(4, dtype=complex) / 4, np.linspace(0.0, 50.0, 20))


def test_trace_drift_reports_first_offending_point():
    # the trace grows as exp(2.2e-8 t): 8.8e-9 off at t = 0.4, 1.1e-8 at 0.5
    leak = 2.2e-8 * np.eye(16, dtype=complex)
    with pytest.raises(TraceDrift) as err:
        propagate(leak, np.eye(4, dtype=complex) / 4, np.linspace(0.0, 1.0, 11))
    assert str(err.value) == "trace drifted by 1.100e-08 at t=5.000000e-01"


def test_unitary_generator_preserves_trace_and_hermiticity():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = a + a.conj().T
    eye = np.eye(4)
    gen = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    rho0 = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    traj = as_matrices(propagate(gen, rho0, np.linspace(0.0, 3.0, 40)))
    traces = np.einsum('tii->t', traj)
    assert np.abs(traces - 1.0).max() < 1e-10
    assert np.abs(traj - np.conj(np.swapaxes(traj, 1, 2))).max() < 1e-12


def test_unreachable_entries_stay_exactly_zero():
    # the phenom generator never feeds the off-X entries of an X-shaped start:
    # its trajectory is the eight X columns, +0 at every other entry
    cfg = figure_preset(2)
    frame = dressed_frame(cfg.params)
    rates = rate_set(cfg.params, frame)
    times = np.linspace(0.0, resolve_t_max(cfg, rates), 50)
    traj = ph.propagate(initial_state_matrix(cfg, frame), cfg.params, rates, times)
    assert traj.shape == (50, 8)


def test_grid_may_start_late_and_be_non_uniform():
    # rho0 is the state at times[0]; the output does not depend on the grid
    cfg = figure_preset(3)
    frame = dressed_frame(cfg.params)
    rates = rate_set(cfg.params, frame)
    span = resolve_t_max(cfg, rates)
    rho0 = initial_state_matrix(cfg, frame)
    whole = ph.propagate(rho0, cfg.params, rates, np.linspace(0.0, span, 5))
    late = ph.propagate(rho0, cfg.params, rates,
                        span * np.array([1.0, 1.01, 1.5, 1.75, 2.0]))
    assert np.abs(late[[0, 2, 3, 4]] - whole[[0, 2, 3, 4]]).max() < 1e-11


@pytest.mark.parametrize("cfg", list(preset_configs()), ids=lambda c: c.label)
def test_phenom_presets_match_expm(cfg, expm):
    frame = dressed_frame(cfg.params)
    rates = rate_set(cfg.params, frame)
    times = np.linspace(0.0, resolve_t_max(cfg, rates), cfg.n_points)[::250]
    rho0 = initial_state_matrix(cfg, frame)
    gen = ph.liouvillian_from_ops(cfg.params, rates)
    exact = expm_trajectory(expm, gen, rho0, times)
    traj = as_matrices(propagate(gen, rho0, times))
    assert np.abs(traj - exact).max() <= 1e-11


def test_exceptional_point_matches_expm(expm):
    # at coupling = (g + gb) / 2 the phenom generator is nearly defective:
    # its eigenvectors are ill-conditioned, the worst case for this route
    base = figure_preset(2).params
    rates = rate_set(base)
    p = replace(base, coupling=0.5 * (rates.emission_bare + rates.absorption_bare))
    rates = rate_set(p)
    gen = ph.liouvillian_from_ops(p, rates)
    assert np.linalg.cond(np.linalg.eig(gen)[1]) > 1e5
    rho0 = np.zeros((4, 4), dtype=complex)
    rho0[2, 2] = 1.0
    times = np.linspace(0.0, 10.0 / (rates.emission_bare + rates.absorption_bare), 9)
    exact = expm_trajectory(expm, gen, rho0, times)
    traj = as_matrices(propagate(gen, rho0, times))
    assert np.abs(traj - exact).max() <= 1e-10


def test_long_phenom_run_ends_at_steady_state(tmp_path):
    # 10 s is about 5e8 bare lifetimes: the run must neither drift nor stall
    out_dir = tmp_path / "out"
    assert main(["evolve", "--figure", "2", "--tmax", "10", "--model", "phenom",
                 "--out", str(out_dir)]) == 0
    cfg = replace(figure_preset(2), t_max=10.0, models=("phenom",))
    final = as_matrices(run_stacks(cfg)["phenom"])[-1]
    steady = ph.steady_state(cfg.params, rate_set(cfg.params))
    assert np.abs(final - steady).max() <= 1e-12

    last_row = (out_dir / "figure2_phenom.csv").read_text().splitlines()[-1]
    x = x_elements_from_matrix(steady)
    assert abs(float(last_row.split(",")[1]) - concurrence_x(x)) <= 1e-12


def lindblad_kron(h, channels):
    """The generator as ``lindblad`` assembled it with ``np.kron``: the
    bit-for-bit reference for its broadcast products."""
    eye = np.eye(4)
    gen = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for rate, op in channels:
        if rate == 0.0:
            continue
        opd = op.conj().T
        norm = opd @ op
        with np.errstate(over="ignore", invalid="ignore"):
            gen += rate * (np.kron(op, opd.T)
                           - 0.5 * (np.kron(norm, eye) + np.kron(eye, norm.T)))
    return gen


def generator_inputs(cfg):
    """The ``(h, channels)`` of the micro and of the phenom generator, as
    ``microscopic.liouvillian`` and ``liouvillian_from_ops`` pass them."""
    frame = dressed_frame(cfg.params)
    rates = rate_set(cfg.params, frame)
    low, high = mic.jump_operators(frame)
    half = 0.5 * (frame.bohr_low + frame.bohr_high)
    micro = (np.diag(np.array([-half, -0.5 * frame.gap, 0.5 * frame.gap, half],
                              dtype=complex)),
             [(rates.emission_low, low), (rates.emission_high, high),
              (rates.absorption_low, low.conj().T),
              (rates.absorption_high, high.conj().T)])
    lower = np.zeros((4, 4), dtype=complex)
    lower[0, 1] = lower[2, 3] = 1.0
    phenom = (hamiltonian(cfg.params), [(rates.emission_bare, lower),
                                        (rates.absorption_bare, lower.conj().T)])
    return frame, rates, micro, phenom


@pytest.mark.parametrize("cfg", list(preset_configs()), ids=lambda c: c.label)
def test_lindblad_is_the_kron_generator_to_the_bit(cfg):
    frame, rates, micro, phenom = generator_inputs(cfg)
    for (h, channels), production in (
            (micro, mic.liouvillian(rates, frame)),
            (phenom, ph.liouvillian_from_ops(cfg.params, rates))):
        reference = lindblad_kron(h, channels)
        np.testing.assert_array_equal(bits(lindblad(h, channels)), bits(reference))
        np.testing.assert_array_equal(bits(production), bits(reference))


def random_complex(rng, shape=(4, 4)):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def test_lindblad_is_the_kron_generator_on_random_operators():
    rng = np.random.default_rng(12)
    for _ in range(50):
        h = random_complex(rng)
        channels = [(rng.exponential(), random_complex(rng))
                    for _ in range(rng.integers(0, 5))]
        np.testing.assert_array_equal(bits(lindblad(h, channels)),
                                      bits(lindblad_kron(h, channels)))


def test_lindblad_overflow_lands_where_kron_puts_it():
    # a zero rate is skipped; 1e300 overflows some products to inf and
    # some sums of infinities to nan, in the same places in both
    rng = np.random.default_rng(13)
    h = random_complex(rng)
    ops = [1e10 * random_complex(rng) for _ in range(4)]
    channels = [(0.0, ops[0]), (1e300, ops[1]), (1e300, ops[2]), (1.0, ops[3])]
    gen = lindblad(h, channels)
    assert np.isinf(gen).any() and np.isnan(gen).any()
    np.testing.assert_array_equal(bits(gen), bits(lindblad_kron(h, channels)))
    np.testing.assert_array_equal(bits(lindblad(h, channels[:1])),
                                  bits(lindblad_kron(h, [])))
    # figure 2 with gamma0 = 1e300 and a 1e100 K bath: every bath rate is inf
    cfg = figure_preset(2)
    cfg = replace(cfg, params=replace(cfg.params, gamma0=1e300, temperature=1e100))
    for h, channels in generator_inputs(cfg)[2:]:
        gen = lindblad(h, channels)
        assert np.isnan(gen).any()
        np.testing.assert_array_equal(bits(gen), bits(lindblad_kron(h, channels)))


def superoperator_per_basis(rhs):
    """``superoperator_from_rhs`` as a loop over the 16 basis matrices, one
    ``rhs`` call each: the reference for its single call on the stack."""
    cols = []
    for k in range(16):
        basis = np.zeros((4, 4), dtype=complex)
        basis[divmod(k, 4)] = 1.0
        cols.append(np.asarray(rhs(basis), dtype=complex).reshape(-1))
    return np.array(cols).T


@pytest.mark.parametrize("cfg", list(preset_configs()), ids=lambda c: c.label)
def test_stacked_phenom_oracle_is_the_per_basis_loop(cfg):
    rates = rate_set(cfg.params)
    stacked = ph.liouvillian(cfg.params, rates)
    reference = superoperator_per_basis(lambda m: ph.phenom_rhs(m, cfg.params, rates))
    # elementwise arithmetic on a stack rounds as on one matrix; the bound
    # leaves room for a numpy build whose array loops round differently
    assert np.abs(stacked - reference).max() <= 1e-15 * np.linalg.norm(reference, 1)


def reached_in_16_passes(generator, rho0):
    """The vec entries reachable from ``rho0``, as ``propagate`` found them
    before it stopped at the fixed point: always 16 passes."""
    live = np.asarray(rho0).reshape(-1) != 0
    for _ in range(16):
        live = live | (generator[:, live] != 0).any(axis=1)
    return live


class _Reached(Exception):
    pass


def assert_propagate_reaches(generator, rho0, expected, monkeypatch):
    """``propagate`` restricts its generator to exactly the vec entries
    ``expected``."""
    reached = []

    def stop(rows, _):
        reached.append(rows.copy())
        raise _Reached
    monkeypatch.setattr(np, "ix_", stop)
    with pytest.raises(_Reached):
        propagate(generator, rho0, [0.0, 1.0])
    np.testing.assert_array_equal(reached[0], expected)


def test_reachability_stops_at_the_16_pass_closure(monkeypatch):
    rng = np.random.default_rng(14)
    for density in (0.02, 0.05, 0.1, 0.2):
        for _ in range(25):
            gen = random_complex(rng, (16, 16)) * (rng.random((16, 16)) < density)
            rho0 = np.zeros(16, dtype=complex)
            rho0[rng.choice(16, size=rng.integers(1, 4), replace=False)] = 1.0
            rho0 = rho0.reshape(4, 4)
            assert_propagate_reaches(gen, rho0, reached_in_16_passes(gen, rho0),
                                     monkeypatch)


def test_reachability_follows_a_15_step_chain(monkeypatch):
    # entry order[k] feeds only order[k + 1]: 15 growth steps reach all 16
    order = np.random.default_rng(15).permutation(16)
    gen = np.zeros((16, 16), dtype=complex)
    gen[order[1:], order[:-1]] = 1.0
    rho0 = np.zeros(16, dtype=complex)
    rho0[order[0]] = 1.0
    rho0 = rho0.reshape(4, 4)
    assert reached_in_16_passes(gen, rho0).all()
    assert_propagate_reaches(gen, rho0, np.ones(16, dtype=bool), monkeypatch)
    rho0_late = np.zeros(16, dtype=complex)
    rho0_late[order[8]] = 1.0
    expected = np.isin(np.arange(16), order[8:])
    assert_propagate_reaches(gen, rho0_late.reshape(4, 4), expected, monkeypatch)



# the complex column layout that stacks had before Hermitian coordinates: the
# X entries, then the off-X entries row by row
ENTRIES = ((0, 0), (1, 1), (2, 2), (3, 3), (0, 3), (3, 0), (1, 2), (2, 1),
           (0, 1), (0, 2), (1, 0), (1, 3), (2, 0), (2, 3), (3, 1), (3, 2))
VEC = [4 * i + j for i, j in ENTRIES]
COLUMN = {e: n for n, e in enumerate(ENTRIES)}
MIRROR = [COLUMN[j, i] for i, j in ENTRIES]


def complex_propagate(generator, rho0, times):
    """``integrate.propagate`` as it carried complex entries, each
    off-diagonal one twice, and folded every block of rows into its
    Hermitian part, ``0.5 (a + conj(b))`` of each entry ``a`` and its mirror
    ``b``; returns the folded trajectory's coordinates.  The reference that
    the real coordinates keep its outcome to."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) < 1:
        raise ValueError("need a 1-d, non-empty time grid")
    if np.any(np.diff(times) <= 0):
        raise ValueError("time grid must be strictly increasing")
    if not np.isfinite(generator).all():
        raise NotFinite("matrix contains non-finite entries")
    v = np.asarray(rho0, dtype=complex).reshape(-1)
    live = v != 0
    while (grown := live | (generator[:, live] != 0).any(axis=1)).sum() > live.sum():
        live = grown
    vec_index = VEC[:16 if live[VEC[8:]].any() else 8]
    live_cols = [COLUMN[divmod(i, 4)] for i in np.flatnonzero(live).tolist()]
    sub = generator[np.ix_(live, live)]
    lam, vecs = np.linalg.eig(sub)
    k = np.argmin(np.abs(lam))
    if abs(lam[k]) <= 16 * np.finfo(float).eps * np.linalg.norm(sub, 1):
        lam[k] = 0.0
    coef = np.linalg.solve(vecs, v[live])
    out = np.zeros((len(times), len(vec_index)), dtype=complex)
    out[0] = v[vec_index]
    rows, last = integrate._BLOCK_WORK // len(lam) ** 2, max(len(times) - 1, 1)
    for start in range(0, last, rows):
        stop = start + rows if start + rows < last else len(times)
        lo = max(start, 1)
        with np.errstate(over="ignore", invalid="ignore"):
            e = np.exp(np.multiply.outer(times[lo:stop] - times[0], lam))
            e *= coef
            out[lo:stop, live_cols] = e @ vecs.T
        drift = np.abs(trace_of(out[lo:stop]).real - 1.0)
        over = np.flatnonzero(drift > EVOLVED_TRACE_TOL)
        if len(over):
            raise TraceDrift(f"trace drifted by {drift[over[0]]:.3e} "
                             f"at t={times[lo + over[0]]:.6e}")
        block = out[start:stop]
        block += np.conj(block[:, MIRROR[:len(vec_index)]])
        block *= 0.5
    dense = np.zeros((len(times), 16), dtype=complex)
    dense[:, vec_index] = out
    return columns(dense.reshape(-1, 4, 4))[:, :len(vec_index)]


@pytest.mark.parametrize("start", ["x", "entries"])
def test_coordinates_are_the_folded_complex_trajectory(start):
    """The real coordinates are those of the complex trajectory folded into
    its Hermitian part, within 1e-15, on an X start and on an all-entries
    start."""
    cfg = figure_preset(2)
    frame = dressed_frame(cfg.params)
    rates = rate_set(cfg.params, frame)
    times = np.linspace(0.0, resolve_t_max(cfg, rates), 400)
    gen = ph.liouvillian_from_ops(cfg.params, rates)
    rho0, k = initial_state_matrix(cfg, frame), 8
    if start == "entries":
        rho0, k = random_density(np.random.default_rng(8)), 16
    cols = propagate(gen, rho0, times)
    assert cols.shape == (len(times), k) and cols.dtype == float
    assert np.abs(cols - complex_propagate(gen, rho0, times)).max() <= 1e-15


@st.composite
def stiff_search_draws(draw):
    """The search of ROADMAP item 1: a preset of figures 2-7 with omega,
    coupling, gamma0, bath_width and bath_center each scaled by 10^U(-3, 3),
    the temperature 0, the preset's or up to 1000 times hotter; the phenom
    and the micro generator on the fifty-lifetime span of ``compare``, from
    the preset's X start or a random non-X one."""
    cfg = figure_preset(draw(st.integers(2, 7)))
    p = cfg.params
    scaled = {k: getattr(p, k) * 10.0 ** draw(st.floats(-3.0, 3.0))
              for k in ("omega", "coupling", "gamma0", "bath_width", "bath_center")}
    bath = draw(st.sampled_from(["zero", "preset", "hot"]))
    scaled["temperature"] = {"zero": 0.0, "preset": p.temperature,
                             "hot": p.temperature * 10.0 ** draw(st.floats(0.0, 3.0))}[bath]
    cfg = replace(cfg, params=replace(p, **scaled), n_points=400)
    frame = dressed_frame(cfg.params)
    rates = rate_set(cfg.params, frame)
    times = np.linspace(0.0, resolve_t_max(cfg, rates, stationary=True), cfg.n_points)
    rho0 = initial_state_matrix(cfg, frame)
    if draw(st.booleans()):
        rho0 = random_density(np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))))
    if draw(st.booleans()):
        return ph.liouvillian_from_ops(cfg.params, rates), rho0, times
    return mic.liouvillian(rates, frame), frame.to_dressed(rho0), times


def term_scale(generator, rho0, times, n_cols):
    """The size of the terms that each coordinate of each snapshot sums in
    the eigen-expansion: ``|exp(t lam) coef| @ |V|^T @ |MAP|^T`` on the
    reached entries, the scale of its rounding."""
    v = rho0.reshape(-1)
    live = v != 0
    while (grown := live | (generator[:, live] != 0).any(axis=1)).sum() > live.sum():
        live = grown
    lam, vecs = np.linalg.eig(generator[np.ix_(live, live)])
    terms = np.abs(np.exp(np.multiply.outer(times - times[0], lam))
                   * np.linalg.solve(vecs, v[live]))
    return terms @ (np.abs(vecs).T @ np.abs(MAP[:n_cols, live]).T)


# a failing example makes Hypothesis import libcst, which warns on a deprecated
# mypy_extensions name; the suite would end on that warning
@pytest.mark.filterwarnings(
    "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning")
@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(stiff_search_draws())
def test_coordinates_keep_the_complex_outcome(draw):
    """On stiff, hot and cold draws, X and non-X starts, the real coordinates
    stop on the same TraceDrift as the folded complex trajectory, or are its
    coordinates to rounding, with the same non-finite snapshots (which
    validation stops on): within ``ROUNDING_TOL`` times the size of the
    terms each one sums (an ill-conditioned eigenbasis sums terms far larger
    than the coordinate, in another order than the fold), or of the smallest
    normal double, below which rounding is absolute."""
    generator, rho0, times = draw
    results = []
    for fn in (propagate, complex_propagate):
        try:
            results.append(fn(generator, rho0, times))
        except (TraceDrift, ValueError) as exc:
            results.append((type(exc), str(exc)))
    cols, reference = results
    if isinstance(reference, tuple) or isinstance(cols, tuple):
        assert isinstance(cols, tuple) and cols == reference
        return
    assert cols.shape == reference.shape
    finite = np.isfinite(cols).all(axis=1)
    np.testing.assert_array_equal(finite, np.isfinite(reference).all(axis=1))
    with np.errstate(over="ignore", invalid="ignore"):
        scale = term_scale(generator, rho0, times, cols.shape[1])[finite]
    bound = ROUNDING_TOL * np.maximum(scale, np.finfo(float).tiny)
    assert (np.abs(cols[finite] - reference[finite]) <= bound).all()


def parent_propagate(generator, rho0, times):
    """``integrate.propagate`` as it evolved and checked the whole grid in
    one array pass: the reference for its row blocks."""
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) < 1:
        raise ValueError("need a 1-d, non-empty time grid")
    if np.any(np.diff(times) <= 0):
        raise ValueError("time grid must be strictly increasing")
    if not np.isfinite(generator).all():
        raise NotFinite("matrix contains non-finite entries")
    v = np.asarray(rho0, dtype=complex).reshape(-1)
    live = v != 0
    while (grown := live | (generator[:, live] != 0).any(axis=1)).sum() > live.sum():
        live = grown
    reached = MAP[:, live]
    fed = reached.any(axis=1)
    sub = generator[np.ix_(live, live)]
    lam, vecs = np.linalg.eig(sub)
    k = np.argmin(np.abs(lam))
    if abs(lam[k]) <= 16 * np.finfo(float).eps * np.linalg.norm(sub, 1):
        lam[k] = 0.0
    coef = np.linalg.solve(vecs, v[live])
    w = vecs.T @ reached[fed].T
    out = np.zeros((len(times), width(fed)))
    out[0] = (MAP[:out.shape[1]] @ v).real
    with np.errstate(over="ignore", invalid="ignore"):
        out[1:, fed[:out.shape[1]]] = (
            (np.exp(np.outer(times[1:] - times[0], lam)) * coef) @ w).real
    drift = np.abs(trace_of(out[1:]) - 1.0)
    over = np.flatnonzero(drift > EVOLVED_TRACE_TOL)
    if len(over):
        i = over[0] + 1
        raise TraceDrift(
            f"trace drifted by {drift[i - 1]:.3e} at t={times[i]:.6e}")
    return out


def propagation_outcome(fn, *args):
    """The result's bits, or the class and message of the exception raised."""
    try:
        return bits(fn(*args)).tobytes()
    except (TraceDrift, ValueError) as exc:
        return type(exc), str(exc)


def assert_blocked_is_parent(generator, rho0, times):
    result = propagation_outcome(propagate, generator, rho0, times)
    assert result == propagation_outcome(parent_propagate, generator, rho0, times)
    return result


def block_rows(live):
    return integrate._BLOCK_WORK // live ** 2


def phenom_inputs(cfg):
    frame = dressed_frame(cfg.params)
    rates = rate_set(cfg.params, frame)
    times = np.linspace(0.0, resolve_t_max(cfg, rates), cfg.n_points)
    return (ph.liouvillian_from_ops(cfg.params, rates),
            initial_state_matrix(cfg, frame), times)


class TestBlockedPropagation:
    """The row-blocked propagation is the one-pass propagation, to the bit."""

    def test_preset_phenom_runs(self):
        configs = list(preset_configs())
        assert len(configs) == 16
        for cfg in configs:
            gen, rho0, times = phenom_inputs(cfg)
            assert isinstance(assert_blocked_is_parent(gen, rho0, times), bytes)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_selftest_micro_generator(self, n):
        cfg = figure_preset(n)
        frame = dressed_frame(cfg.params)
        rates = rate_set(cfg.params, frame)
        times = np.linspace(0.0, resolve_t_max(cfg, rates), 400)
        rho10 = np.zeros((4, 4), dtype=complex)
        rho10[2, 2] = 1.0
        assert isinstance(assert_blocked_is_parent(
            mic.liouvillian(rates, frame), frame.to_dressed(rho10), times), bytes)

    def test_random_non_x_starts(self):
        rng = np.random.default_rng(15)
        configs = list(preset_configs())
        for i in range(32):
            gen, _, times = phenom_inputs(configs[i % len(configs)])
            assert_blocked_is_parent(gen, random_density(rng), times)

    @pytest.mark.parametrize("start", ["x", "entries"])
    def test_grid_lengths_around_the_block_size(self, start):
        gen, rho0, times = phenom_inputs(figure_preset(2))
        rows = block_rows(8)
        if start == "entries":
            rho0, rows = random_density(np.random.default_rng(3)), block_rows(16)
        span = times[-1]
        rng = np.random.default_rng(rows)
        for n in (1, 2, 3, rows - 1, rows, rows + 1, rows + 2, 2 * rows + 1, 2000):
            assert_blocked_is_parent(gen, rho0, np.linspace(0.0, span, n))
            uneven = np.sort(rng.uniform(0.0, span, n))   # non-uniform grids
            assert_blocked_is_parent(gen, rho0, uneven)
            assert_blocked_is_parent(gen, rho0, np.geomspace(1e-3, span, n))

    def test_trace_drift_names_the_first_point_in_a_later_block(self):
        # the trace grows as exp(2.2e-8 t); four live entries
        leak = 2.2e-8 * np.eye(16, dtype=complex)
        times = np.linspace(0.0, 1.0, 5001)
        result = assert_blocked_is_parent(leak, np.eye(4, dtype=complex) / 4, times)
        assert result[0] is TraceDrift
        first = np.flatnonzero(np.expm1(2.2e-8 * times) > EVOLVED_TRACE_TOL)[0]
        assert first > block_rows(4)
        assert result[1].endswith(f"at t={times[first]:.6e}")

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_generator_on_a_long_grid(self, bad):
        gen, rho0, times = phenom_inputs(figure_preset(2))
        gen = gen.copy()
        gen[0, 0] = bad
        with pytest.raises(NotFinite):
            propagate(gen, rho0, times)

    def test_working_set_does_not_grow_with_the_grid(self):
        """Beyond its result, one X call holds a working set that does not
        depend on the number of grid points."""
        gen, rho0, times = phenom_inputs(figure_preset(2))
        extra = {}
        for n in (10_000, 100_000):
            grid = np.linspace(0.0, times[-1], n)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                out = propagate(gen, rho0, grid)
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            extra[n] = peak - out.nbytes
        # one-pass propagation held three result-sized temporaries
        assert extra[100_000] < 2 ** 20
        assert abs(extra[100_000] - extra[10_000]) < 2 ** 16
