import math

import numpy as np
import pytest

from dressedbath import metrics, scenarios
from dressedbath.linalg import (NotHermitian, as_matrices, columns, hermitian_eigs,
                                validate_density, validate_eigs)
from dressedbath.metrics import (XStateElements, concurrence_general,
                                 concurrence_x, discord_approx_q2,
                                 linear_entropy_q1,
                                 von_neumann_entropy, x_elements_from_dressed,
                                 x_elements_from_matrix)
from dressedbath.model import SystemParams, dressed_frame

from conftest import (EVOLVED, concurrence_mp, concurrence_spin_flip,
                      discord_oracle_q2, dressed_matrices, random_density,
                      random_unitary, random_x_state, run_stacks)


def bell_matrix():
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = m[3, 3] = m[0, 3] = m[3, 0] = 0.5
    return m


def bell_x():
    return XStateElements(p00=0.5, p01=0.0, p10=0.0, p11=0.5,
                          outer=0.5, inner=0.0)


STRONG = SystemParams(omega=4e8, coupling=4e9, gamma0=5e8, bath_width=5e10,
                      bath_center=8e8, temperature=0.0)


class TestXElements:
    def test_from_dressed_ground_state(self):
        frame = dressed_frame(STRONG)
        x, ok = x_elements_from_dressed(np.diag([1.0, 0, 0, 0]).astype(complex),
                                        frame)
        assert ok
        assert x.p00 == pytest.approx(frame.mix_plus ** 2, abs=1e-12)
        assert x.p11 == pytest.approx(frame.mix_minus ** 2, abs=1e-12)
        assert x.outer == pytest.approx(-frame.mix_plus * frame.mix_minus,
                                        abs=1e-12)
        assert x.p01 == 0.0 and x.p10 == 0.0

    def test_from_dressed_antisym_state(self):
        frame = dressed_frame(STRONG)
        x, ok = x_elements_from_dressed(np.diag([0, 1.0, 0, 0]).astype(complex),
                                        frame)
        assert ok
        assert x.p01 == pytest.approx(0.5, abs=1e-12)
        assert x.p10 == pytest.approx(0.5, abs=1e-12)
        assert x.inner == pytest.approx(-0.5, abs=1e-12)

    def test_from_dressed_maximally_mixed(self):
        frame = dressed_frame(STRONG)
        x, ok = x_elements_from_dressed(np.eye(4, dtype=complex) / 4, frame)
        assert ok
        for value in (x.p00, x.p01, x.p10, x.p11):
            assert value == pytest.approx(0.25, abs=1e-12)
        assert abs(x.outer) < 1e-14 and abs(x.inner) < 1e-14

    def test_matches_full_basis_change(self, rng):
        frame = dressed_frame(STRONG)
        u = frame.unitary
        for _ in range(30):
            pops = rng.dirichlet(np.ones(4))
            bc = (rng.uniform(0, 1) * np.sqrt(pops[1] * pops[2])
                  * np.exp(1j * rng.uniform(0, 2 * np.pi)))
            dressed = np.diag(pops).astype(complex)
            dressed[1, 2], dressed[2, 1] = bc, np.conj(bc)
            x, ok = x_elements_from_dressed(dressed, frame)
            assert ok
            comp = u @ dressed @ u.conj().T
            assert abs(x.p00 - comp[0, 0].real) < 1e-12
            assert abs(x.p01 - comp[1, 1].real) < 1e-12
            assert abs(x.p10 - comp[2, 2].real) < 1e-12
            assert abs(x.p11 - comp[3, 3].real) < 1e-12
            assert abs(x.outer - comp[0, 3]) < 1e-12
            assert abs(x.inner - comp[1, 2]) < 1e-12

    def test_ground_top_coherence_guard(self):
        frame = dressed_frame(STRONG)
        dressed = np.diag([0.5, 0.2, 0.2, 0.1]).astype(complex)
        dressed[0, 3] = dressed[3, 0] = 0.05
        _, ok = x_elements_from_dressed(dressed, frame)
        assert not ok

    def test_matrix_reader_rejects_non_x(self):
        # the reader takes every matrix; validation routes a non-X one to
        # the general route, with its eigenpairs
        m = np.eye(4, dtype=complex) / 4
        m[0, 1] = m[1, 0] = 0.05
        assert x_elements_from_matrix(m).p00 == 0.25
        assert validate_eigs(columns(m[None]))[1] is not None


def pure_states(rng, n):
    """``n`` random pure states as ``(n, 4, 4)`` projectors, and their exact
    concurrence 2|ad - bc|; the first quarter lie 1e-12..1e-4 off a product
    state."""
    psi = rng.normal(size=(n, 4)) + 1j * rng.normal(size=(n, 4))
    q = n // 4
    a, b = rng.normal(size=(2, q, 2)) + 1j * rng.normal(size=(2, q, 2))
    near = 10.0 ** rng.uniform(-12.0, -4.0, size=(q, 1))
    psi[:q] = (a[:, :, None] * b[:, None, :]).reshape(q, 4) + near * psi[:q]
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)
    exact = 2.0 * np.abs(psi[:, 0] * psi[:, 3] - psi[:, 1] * psi[:, 2])
    return np.einsum("ni,nj->nij", psi, psi.conj()), exact


def rank_two_state(rng):
    psi = rng.normal(size=(2, 4)) + 1j * rng.normal(size=(2, 4))
    psi /= np.linalg.norm(psi, axis=1, keepdims=True)
    p = rng.uniform(0.5, 1.0)
    return (p * np.outer(psi[0], psi[0].conj())
            + (1.0 - p) * np.outer(psi[1], psi[1].conj()))


class TestConcurrence:
    def test_bell_is_maximal(self):
        assert concurrence_x(bell_x()) == pytest.approx(1.0, abs=1e-12)
        assert concurrence_general(bell_matrix()) == pytest.approx(1.0, abs=1e-10)

    def test_product_state_is_zero(self):
        x = XStateElements(p00=0.0, p01=0.0, p10=1.0, p11=0.0,
                           outer=0.0, inner=0.0)
        assert concurrence_x(x) == 0.0
        m = np.zeros((4, 4), dtype=complex)
        m[2, 2] = 1.0
        assert concurrence_general(m) == pytest.approx(0.0, abs=1e-10)

    def test_dressed_ground_strong_coupling(self):
        # entangled stationary state of the very strongly coupled pair
        frame = dressed_frame(STRONG)
        x, ok = x_elements_from_dressed(np.diag([1.0, 0, 0, 0]).astype(complex),
                                        frame)
        assert ok
        lam, om = STRONG.coupling, STRONG.omega
        expected = lam / math.hypot(lam, 2 * om)
        assert concurrence_x(x) == pytest.approx(expected, abs=1e-12)
        assert concurrence_x(x) == pytest.approx(0.980581, abs=1e-6)

    def test_werner_family(self):
        for p in (0.0, 0.2, 1.0 / 3.0, 0.5, 0.8, 1.0):
            rho = p * bell_matrix() + (1 - p) * np.eye(4) / 4
            expected = max(0.0, (3 * p - 1) / 2)
            assert concurrence_general(rho) == pytest.approx(expected, abs=1e-9)

    def test_maximally_mixed_is_zero(self):
        assert concurrence_general(np.eye(4, dtype=complex) / 4) == 0.0

    def test_x_form_equals_general_form(self, rng):
        worst = 0.0
        for _ in range(1000):
            x = random_x_state(rng)
            worst = max(worst, abs(concurrence_x(x)
                                   - concurrence_general(x.matrix())))
        assert worst <= 1e-13   # measured 1.1e-15

    def test_local_unitary_invariance(self, rng):
        for _ in range(25):
            rho = random_density(rng)
            u = np.kron(random_unitary(rng), random_unitary(rng))
            rotated = u @ rho @ u.conj().T
            assert abs(concurrence_general(rho)
                       - concurrence_general(rotated)) <= 1e-13   # measured 1.6e-15

    def test_pure_states_hold_the_closed_form(self, rng):
        rho, exact = pure_states(rng, 2000)
        # measured 1.8e-15; the two-eigensolve spin-flip route is off by 2.1e-8
        assert np.abs(concurrence_general(rho) - exact).max() <= 1e-13

    @pytest.mark.parametrize("kind", ["full_rank", "rank_two"])
    def test_mixed_states_match_a_40_digit_oracle(self, rng, kind):
        make = random_density if kind == "full_rank" else rank_two_state
        stack = np.array([make(rng) for _ in range(30)])
        exact = np.array([concurrence_mp(m) for m in stack])
        # measured 8.0e-16 (full rank) and 7.8e-16 (rank two); the spin-flip
        # route is off by 2.4e-14 and 8.9e-9
        assert np.abs(concurrence_general(stack) - exact).max() <= 1e-14

    def test_agrees_with_the_spin_flip_oracle(self, rng):
        stack = np.array([random_density(rng) for _ in range(500)])
        diff = np.abs(concurrence_general(stack) - concurrence_spin_flip(stack))
        assert diff.max() <= 1e-12   # measured 7.6e-14, the oracle's own error

    def test_non_hermitian_state_comes_before_non_psd(self):
        non_psd = np.diag([0.5 + 5e-9, 0.3, 0.2, -5e-9]).astype(complex)
        skew = np.eye(4, dtype=complex) / 4
        skew[0, 1] = 1e-6
        with pytest.raises(NotHermitian, match=r"off by 1\.000e-06"):
            concurrence_general(np.array([non_psd, skew]))


class TestEntropies:
    def test_pure_state_zero(self):
        m = np.zeros((4, 4), dtype=complex)
        m[0, 0] = 1.0
        assert von_neumann_entropy(m) == 0.0

    def test_qubit_maximally_mixed(self):
        assert von_neumann_entropy(np.eye(2) / 2) == pytest.approx(1.0, abs=1e-12)

    def test_two_qubit_maximally_mixed(self):
        assert von_neumann_entropy(np.eye(4) / 4) == pytest.approx(2.0, abs=1e-12)

    def test_rejects_negative_matrix(self):
        with pytest.raises(metrics.NotPSD):
            von_neumann_entropy(np.diag([1.2, -0.2, 0.0, 0.0]))

    def test_x_spectrum_matches_eigensolver(self, rng):
        for _ in range(200):
            x = random_x_state(rng)
            closed = np.sort(metrics._x_spectrum(x))
            evals, _ = hermitian_eigs(x.matrix())
            assert np.abs(closed - evals).max() <= 1e-10

    def test_linear_entropy_pure_product(self):
        m = np.zeros((4, 4), dtype=complex)
        m[2, 2] = 1.0
        assert linear_entropy_q1(m) == pytest.approx(0.0, abs=1e-14)

    def test_linear_entropy_bell(self):
        assert linear_entropy_q1(bell_matrix()) == pytest.approx(0.5)
        assert linear_entropy_q1(bell_x()) == pytest.approx(0.5)

    def test_linear_entropy_routes_agree(self, rng):
        for _ in range(100):
            x = random_x_state(rng)
            direct = linear_entropy_q1(x)
            traced = linear_entropy_q1(x.matrix())
            assert abs(direct - traced) <= 1e-12

    def test_linear_entropy_routes_agree_off_unit_trace(self, rng):
        # an evolved snapshot may be off unit trace by up to EVOLVED_TRACE_TOL;
        # its X elements and its matrix give it one value
        for _ in range(100):
            m = random_x_state(rng).matrix() * (1.0 + 1e-9)
            direct = linear_entropy_q1(x_elements_from_matrix(m))
            assert abs(direct - linear_entropy_q1(m)) <= 1e-15

    def test_linear_entropy_range(self, rng):
        for _ in range(100):
            value = linear_entropy_q1(random_density(rng))
            assert -1e-12 <= value <= 0.5 + 1e-12


class TestDiscord:
    def test_product_diagonal_is_zero(self):
        x = XStateElements(p00=0.28, p01=0.12, p10=0.42, p11=0.18,
                           outer=0.0, inner=0.0)
        assert discord_approx_q2(x) == pytest.approx(0.0, abs=1e-12)

    def test_classically_correlated_is_zero(self):
        x = XStateElements(p00=0.4, p01=0.1, p10=0.2, p11=0.3,
                           outer=0.0, inner=0.0)
        assert discord_approx_q2(x) == pytest.approx(0.0, abs=1e-12)

    def test_bell_is_one(self):
        assert discord_approx_q2(bell_x()) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed_is_zero(self):
        x = XStateElements(p00=0.25, p01=0.25, p10=0.25, p11=0.25,
                           outer=0.0, inner=0.0)
        assert discord_approx_q2(x) == pytest.approx(0.0, abs=1e-12)

    def test_never_negative(self, rng):
        for _ in range(300):
            assert discord_approx_q2(random_x_state(rng)) >= 0.0

    def test_oracle_bell(self):
        assert discord_oracle_q2(bell_matrix(), 256) == pytest.approx(1.0, abs=1e-3)

    def test_oracle_product(self):
        q1 = np.array([[0.7, 0.1 + 0.05j], [0.1 - 0.05j, 0.3]])
        q2 = np.array([[0.4, 0.2j], [-0.2j, 0.6]])
        assert abs(discord_oracle_q2(np.kron(q1, q2), 128)) <= 1e-6

    def test_oracle_rejects_small_grid(self):
        with pytest.raises(ValueError):
            discord_oracle_q2(bell_matrix(), 32)

    def test_approx_tracks_oracle(self, rng):
        worst = 0.0
        for _ in range(200):
            x = random_x_state(rng)
            dev = abs(discord_approx_q2(x) - discord_oracle_q2(x.matrix(), 256))
            worst = max(worst, dev)
        assert worst <= 0.02


# -- the array metrics against the scalar formulas ---------------------------
# One state at a time in plain Python floats, as the formulas read; the array
# code uses numpy's own arithmetic and must agree to a few eps.

def scalar_plog2(x):
    if x <= 0.0:
        return 0.0
    return -x * math.log2(min(x, 1.0))


def scalar_concurrence_x(p00, p01, p10, p11, outer, inner):
    outer_branch = abs(outer) - math.sqrt(max(p01 * p10, 0.0))
    inner_branch = abs(inner) - math.sqrt(max(p00 * p11, 0.0))
    return 2.0 * max(0.0, outer_branch, inner_branch)


def scalar_discord_raw(p00, p01, p10, p11, outer, inner):
    s_q2 = scalar_plog2(p00 + p10) + scalar_plog2(p01 + p11)
    r_outer = math.sqrt((p00 - p11) ** 2 + 4.0 * abs(outer) ** 2)
    r_inner = math.sqrt((p01 - p10) ** 2 + 4.0 * abs(inner) ** 2)
    spectrum = (0.5 * (p00 + p11 + r_outer), 0.5 * (p00 + p11 - r_outer),
                0.5 * (p01 + p10 + r_inner), 0.5 * (p01 + p10 - r_inner))
    s_full = sum(scalar_plog2(max(v, 0.0)) for v in spectrum)
    y = 0.5 * (1.0 + math.sqrt((p00 - p11 + p01 - p10) ** 2
                               + 4.0 * (abs(outer) + abs(inner)) ** 2))
    y = min(max(y, 0.0), 1.0)
    n1 = scalar_plog2(y) + scalar_plog2(1.0 - y)

    def ratio_term(a, b):
        if a <= 0.0:
            return 0.0
        return -a * math.log2(a / (a + max(b, 0.0)))

    n2 = (ratio_term(p00, p10) + ratio_term(p01, p11)
          + ratio_term(p10, p00) + ratio_term(p11, p01))
    return s_q2 - s_full + min(n1, n2)


def scalar_discord(*row):
    value = scalar_discord_raw(*row)
    return 0.0 if value < 0.0 else value


def scalar_linear_entropy(p00, p01, p10, p11, outer, inner):
    return 2.0 * (p00 + p01) * (p10 + p11)


SCALAR = {concurrence_x: scalar_concurrence_x, discord_approx_q2: scalar_discord,
          linear_entropy_q1: scalar_linear_entropy}
# absolute bound, in eps, on array vs scalar; discord is a difference of
# entropies of order 1, so its rounding accumulates over more terms
EPS_BOUND = {concurrence_x: 2, discord_approx_q2: 8, linear_entropy_q1: 2}
EPS = np.finfo(float).eps


def x_batch(rng, n=400):
    """Random X states plus the edge cases: exact zero populations, negative
    floating-point dust, near-zero discord and clamped discord."""
    pops = rng.dirichlet(np.full(4, 0.3), size=n)
    pops[: n // 8, 3] = 0.0
    pops[n // 8: n // 4, 1] = 0.0
    pops[n // 4: n // 3, 2] = -rng.uniform(0.0, 1e-16, n // 3 - n // 4)
    mag = rng.uniform(0.0, 1.0, (n, 2))
    mag[n // 3: n // 2] *= 1e-7               # nearly product: discord ~ 0
    phase = np.exp(2j * np.pi * rng.uniform(0.0, 1.0, (n, 2)))
    outer = mag[:, 0] * np.sqrt(np.maximum(pops[:, 0] * pops[:, 3], 0.0)) * phase[:, 0]
    inner = mag[:, 1] * np.sqrt(np.maximum(pops[:, 1] * pops[:, 2], 0.0)) * phase[:, 1]
    # empty outer block with a coherence inside the 1e-9 slack: clamped
    pops[-8:] = [0.0, 0.6, 0.4, 0.0]
    outer[-8:] = np.linspace(1e-7, 2e-5, 8) * np.exp(0.3j)
    inner[-8:] = 0.0
    return XStateElements(*pops.T, outer, inner)


def scalar_rows(x):
    return zip(x.p00.tolist(), x.p01.tolist(), x.p10.tolist(), x.p11.tolist(),
               x.outer.tolist(), x.inner.tolist())


def assert_bitwise(got, expected):
    assert np.asarray(got, dtype=float).tobytes() == np.array(expected).tobytes()


def assert_matches_scalar(fn, x):
    got = fn(x)
    expected = np.array([SCALAR[fn](*row) for row in scalar_rows(x)])
    assert got.shape == expected.shape
    assert np.abs(got - expected).max() <= EPS_BOUND[fn] * EPS
    assert not np.signbit(got[got == 0.0]).any()   # no "-0" reaches a CSV


class TestArrayMetricsMatchScalar:
    @pytest.mark.parametrize("fn", [concurrence_x, discord_approx_q2,
                                    linear_entropy_q1])
    def test_random_and_edge_states(self, fn, rng):
        assert_matches_scalar(fn, x_batch(rng))

    def test_edge_cases_are_present(self, rng):
        x = x_batch(rng)
        discord = discord_approx_q2(x)
        assert (x.p10 < 0.0).any() and (x.p11 == 0.0).any()
        assert ((discord > 0.0) & (discord < 1e-9)).any()
        raw = np.array([scalar_discord_raw(*row) for row in scalar_rows(x)])
        assert (raw < -1e-9).sum() >= 8 and ((raw < 0.0) & (raw > -1e-9)).any()

    @pytest.mark.parametrize("route", ["dressed", "matrix"])
    def test_trajectory_elements(self, route):
        # the phenom discord of figure 9 sits near zero, where rounding shows
        from dressedbath.model import rate_set
        from dressedbath.scenarios import figure_preset, run_scenario
        cfg = figure_preset(9)[0]
        traj = run_scenario(cfg)
        if route == "matrix":
            extracted = [(x_elements_from_matrix(as_matrices(stack)),
                          np.full(len(stack), validate_eigs(stack, **EVOLVED)[1] is None))
                         for stack in run_stacks(cfg).values()]
        else:
            frame = dressed_frame(cfg.params)
            u = frame.unitary
            rho0 = u.conj().T @ np.diag([0, 0, 1, 0]).astype(complex) @ u
            dressed = dressed_matrices(rho0, rate_set(cfg.params, frame), frame,
                                       traj.times)
            extracted = [x_elements_from_dressed(dressed, frame)]
        for x, ok in extracted:
            assert ok.all()
            for fn in SCALAR:
                assert_matches_scalar(fn, x)

    def test_scalar_fields_give_scalar_results(self):
        assert concurrence_x(bell_x()).shape == ()
        assert discord_approx_q2(bell_x()).shape == ()

    def test_clamp_logged_once_per_call(self, caplog):
        n = 5
        pops = np.tile([0.0, 0.6, 0.4, 0.0], (n, 1))
        outer = np.array([1e-5, 2e-5, 0.0, 1.5e-5, 0.0], dtype=complex)
        x = XStateElements(*pops.T, outer, np.zeros(n, dtype=complex))
        raw = np.array([scalar_discord_raw(*row) for row in scalar_rows(x)])
        assert (raw < -1e-9).sum() == 3
        with caplog.at_level("WARNING", logger="dressedbath.metrics"):
            discord = discord_approx_q2(x)
        assert np.abs(discord).max() <= EPS_BOUND[discord_approx_q2] * EPS
        assert (discord[raw < -1e-9] == 0.0).all()
        assert len(caplog.records) == 1
        assert caplog.records[0].getMessage() == (
            "approximate discord clamped to 0 at 3 snapshot(s), "
            f"most negative {raw.min():.3e}")

    def test_no_clamp_no_log(self, caplog, rng):
        x = x_batch(rng, 80)   # its last 8 states are the clamped edge cases
        with caplog.at_level("WARNING", logger="dressedbath.metrics"):
            discord_approx_q2(XStateElements(*(v[:72] for v in vars(x).values())))
        assert caplog.records == []



# -- the stacked general route against one-state calls ------------------------

def scalar_concurrence_general(m):
    """The one-state concurrence, step by step as its formula reads: the
    singular values of tau = W^T (sy x sy) W with rho = W W^dagger."""
    sysy = np.zeros((4, 4))
    sysy[0, 3] = sysy[3, 0] = -1.0
    sysy[1, 2] = sysy[2, 1] = 1.0
    evals, vecs = np.linalg.eigh(0.5 * (m + m.conj().T))
    w = vecs * np.sqrt(np.clip(evals, 0.0, None))
    s = np.linalg.svd(w.T @ sysy @ w, compute_uv=False)
    return max(0.0, s[0] - s[1] - s[2] - s[3])


def scalar_linear_entropy_full(m):
    """2 det of the reduced state of qubit 1, from its three entries."""
    r00, r01, r11 = m[0, 0] + m[1, 1], m[0, 2] + m[1, 3], m[2, 2] + m[3, 3]
    return 2.0 * (r00.real * r11.real - np.abs(r01) ** 2)


def general_stack(rng, n=30):
    """Random full-rank, pure and X states."""
    mats = [random_density(rng) for _ in range(n)]
    for _ in range(n):
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        mats.append(np.outer(psi, psi.conj()))
    mats += [random_x_state(rng).matrix() for _ in range(n)]
    return np.array(mats)


class TestStackedGeneralRoute:
    @pytest.mark.parametrize("fn, scalar", [
        (concurrence_general, scalar_concurrence_general),
        (linear_entropy_q1, scalar_linear_entropy_full)])
    def test_bit_equal_to_one_state_calls(self, fn, scalar, rng):
        stack = general_stack(rng)
        stacked = fn(stack)
        assert stacked.shape == (len(stack),)
        singles = [fn(m[None])[0] for m in stack]
        assert_bitwise(stacked, singles)
        assert_bitwise(stacked, [fn(m) for m in stack])
        assert_bitwise(stacked, [scalar(m) for m in stack])

    def test_single_state_gives_scalar(self):
        assert concurrence_general(bell_matrix()).shape == ()
        assert linear_entropy_q1(bell_matrix()).shape == ()

    def test_first_non_psd_state_decides(self, rng):
        stack = general_stack(rng, 4)
        for i, low in ((5, -5e-9), (2, -2e-9)):
            stack[i] = np.diag([0.5 - low, 0.3, 0.2, low]).astype(complex)
        with pytest.raises(metrics.NotPSD) as single:
            concurrence_general(stack[2])
        with pytest.raises(metrics.NotPSD) as stacked:
            concurrence_general(stack)
        assert str(stacked.value) == str(single.value)
        assert stacked.value.violation == single.value.violation


class TestTrajectoryRouteErrors:
    """Validation checks the whole trajectory at once, but the first snapshot
    that fails still decides the error, as in a one-snapshot-at-a-time
    loop: positivity at ``PSD_TOL`` when concurrence or discord is wanted,
    then the discord refusal of a snapshot that is not X-shaped."""

    @staticmethod
    def stack(rng, kinds):
        good_x = random_x_state(rng).matrix()
        non_psd = np.diag([0.5 + 5e-9, 0.3, 0.2, -5e-9]).astype(complex)
        non_psd[0, 1] = non_psd[1, 0] = 1e-3           # not X-shaped
        return np.array([{"x": good_x, "general": random_density(rng),
                          "non_psd": non_psd}[k] for k in kinds])

    @pytest.mark.parametrize("kinds, wanted, expected", [
        (("x", "non_psd", "general"), ("concurrence", "discord"), metrics.NotPSD),
        (("x", "general", "non_psd"), ("concurrence", "discord"), metrics.NotPSD),
        (("x", "non_psd"), ("discord", "linear_entropy"), metrics.NotPSD),
        (("general", "x", "non_psd"), ("concurrence", "linear_entropy"),
         metrics.NotPSD),
        (("x", "general", "non_psd"), ("discord", "linear_entropy"),
         metrics.NotPSD),
        (("x", "general", "x"), ("concurrence", "discord"),
         metrics.AssumptionViolated),
    ])
    def test_first_failing_snapshot_decides(self, rng, kinds, wanted, expected):
        comp = self.stack(rng, kinds)
        with pytest.raises((metrics.NotPSD, metrics.AssumptionViolated)) as err:
            scenarios._trajectory_metrics(columns(comp), wanted)
        assert type(err.value) is expected
        if expected is metrics.NotPSD:
            with pytest.raises(metrics.NotPSD) as single:
                validate_density(comp[kinds.index("non_psd")])
            assert str(err.value) == str(single.value)
