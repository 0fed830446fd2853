import numpy as np
import pytest

from dressedbath import linalg
from dressedbath.linalg import (NotFinite, NotHermitian, NotPSD,
                                StateValidationError, hermitian_eigs,
                                partial_trace_q2, validate_batch,
                                validate_density)
from dressedbath.model import SystemParams, dressed_frame, hamiltonian

from conftest import random_density


def bell_state():
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / np.sqrt(2)
    return np.outer(v, v.conj())


class TestValidateDensity:
    def test_maximally_mixed(self):
        state = validate_density(np.eye(4) / 4)
        evals, _ = hermitian_eigs(state)
        assert np.allclose(evals, 0.25, atol=1e-14)

    def test_pure_basis_state(self):
        pure = np.diag([1.0, 0, 0, 0])
        state = validate_density(pure)
        assert isinstance(state, np.ndarray) and state.dtype == complex
        np.testing.assert_array_equal(state, pure)

    def test_constructed_violation_is_not_psd(self):
        bad = np.diag([0.6, 0.6, -0.1, -0.1]).astype(complex)
        with pytest.raises(NotPSD) as err:
            validate_density(bad)
        assert err.value.violation == pytest.approx(0.1, abs=1e-12)

    def test_trace_violation(self):
        with pytest.raises(linalg.TraceNotOne) as err:
            validate_density(np.eye(4) / 2)
        assert err.value.violation == pytest.approx(1.0, abs=1e-12)

    def test_hermiticity_violation(self):
        bad = np.diag([0.25] * 4).astype(complex)
        bad[0, 1] = 0.3
        with pytest.raises(NotHermitian) as err:
            validate_density(bad)
        assert err.value.violation == pytest.approx(0.3, abs=1e-12)

    def test_matrix_is_readonly(self):
        given = np.eye(4, dtype=complex) / 4
        state = validate_density(given)
        np.testing.assert_array_equal(state, given)
        with pytest.raises(ValueError):
            state[0, 0] = 1.0
        given[0, 0] = 1.0  # the caller's array stays its own
        assert state[0, 0] == 0.25


class TestPartialTrace:
    def test_product_state_qubit1_excited(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[2, 2] = 1.0  # |1,0><1,0|
        reduced = partial_trace_q2(rho)
        assert np.allclose(reduced, np.diag([0.0, 1.0]))

    def test_bell_reduces_to_maximally_mixed(self):
        reduced = partial_trace_q2(bell_state())
        assert np.allclose(reduced, np.eye(2) / 2, atol=1e-14)

    def test_maximally_mixed(self):
        reduced = partial_trace_q2(np.eye(4, dtype=complex) / 4)
        assert np.allclose(reduced, np.eye(2) / 2)

    def test_reduction_of_random_state_is_valid(self, rng):
        for _ in range(50):
            reduced = partial_trace_q2(random_density(rng))
            assert abs(np.trace(reduced) - 1) < 1e-12
            assert np.abs(reduced - reduced.conj().T).max() < 1e-12
            evals, _ = hermitian_eigs(reduced)
            assert evals[0] > -1e-12


class TestChangeBasis:
    def setup_method(self):
        self.params = SystemParams(omega=1.0, coupling=3.0, gamma0=0.1,
                                   bath_width=5.0, bath_center=2.0,
                                   temperature=0.0)
        self.frame = dressed_frame(self.params)

    def test_ground_state_to_computational(self):
        ground = np.diag([1.0, 0, 0, 0]).astype(complex)
        comp = self.frame.to_computational(ground)
        ap, am = self.frame.mix_plus, self.frame.mix_minus
        vec = np.array([ap, 0, 0, -am])
        assert np.abs(comp - np.outer(vec, vec)).max() < 1e-14

    def test_uncoupled_limit_ground_is_00(self):
        params = SystemParams(omega=1.0, coupling=0.0, gamma0=0.1,
                              bath_width=5.0, bath_center=2.0, temperature=0.0)
        frame = dressed_frame(params)
        ground = np.diag([1.0, 0, 0, 0]).astype(complex)
        comp = frame.to_computational(ground)
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        assert np.abs(comp - expected).max() < 1e-14

    def test_round_trip(self, rng):
        for _ in range(20):
            rho = random_density(rng)
            back = self.frame.to_computational(self.frame.to_dressed(rho))
            assert np.abs(back - rho).max() < 1e-12

    def test_spectrum_invariant(self, rng):
        rho = random_density(rng)
        w1, _ = hermitian_eigs(rho)
        w2, _ = hermitian_eigs(self.frame.to_dressed(rho))
        assert np.abs(w1 - w2).max() < 1e-10

    def test_stack_is_each_matrix(self, rng):
        stack = np.array([random_density(rng) for _ in range(6)])
        for rotate in (self.frame.to_dressed, self.frame.to_computational):
            rotated = rotate(stack)
            assert rotated.shape == stack.shape
            for m, r in zip(stack, rotated):
                assert r.tobytes() == rotate(m).tobytes()


class TestHermitianEigs:
    def test_diagonal(self):
        w, v = hermitian_eigs(np.diag([3.0, 1.0, 2.0, 0.0]).astype(complex))
        assert np.allclose(w, [0, 1, 2, 3])
        m = np.diag([3.0, 1.0, 2.0, 0.0])
        assert np.abs(m - v @ np.diag(w) @ v.conj().T).max() < 1e-12

    def test_pauli_x_tensor_identity(self):
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        m = np.kron(sx, np.eye(2))
        w, v = hermitian_eigs(m)
        assert np.allclose(w, [-1, -1, 1, 1])
        assert np.abs(m - v @ np.diag(w) @ v.conj().T).max() < 1e-10

    def test_coupled_hamiltonian_spectrum(self):
        # closed-form eigenvalues of the coupled pair at omega = coupling = 1
        params = SystemParams(omega=1.0, coupling=1.0, gamma0=0.1,
                              bath_width=1.0, bath_center=2.0, temperature=0.0)
        w, _ = hermitian_eigs(hamiltonian(params))
        root5 = np.sqrt(5.0)
        assert np.allclose(w, [1 - root5 / 2, 0.5, 1.5, 1 + root5 / 2],
                           atol=1e-12)

    def test_against_numpy_on_random_hermitian(self, rng):
        for dim in (2, 4):
            for _ in range(100):
                a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
                h = a + a.conj().T
                w, v = hermitian_eigs(h)
                assert np.abs(w - np.linalg.eigvalsh(h)).max() < 1e-10
                assert np.abs(h - v @ np.diag(w) @ v.conj().T).max() < 1e-10
                assert np.abs(v @ v.conj().T - np.eye(dim)).max() < 1e-12

    def test_rejects_non_hermitian(self):
        m = np.zeros((3, 3), dtype=complex)
        m[0, 1] = 1.0
        with pytest.raises(NotHermitian):
            hermitian_eigs(m)

    def test_degenerate_spectrum(self):
        w, v = hermitian_eigs(np.eye(4, dtype=complex) * 0.25)
        assert np.allclose(w, 0.25)
        assert np.abs(v @ v.conj().T - np.eye(4)).max() < 1e-14


class TestValidateBatch:
    """The stacked validator against single-matrix calls."""

    GOOD = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)

    @staticmethod
    def bad(kind):
        m = np.eye(4, dtype=complex) / 4
        if kind == "hermiticity":
            m[0, 1] = 0.3
        elif kind == "trace":
            m = m * 2.0
        elif kind == "positivity":
            m = np.diag([0.6, 0.6, -0.1, -0.1]).astype(complex)
        elif kind == "several":
            m[0, 1] = 0.3
            m[3, 3] = 0.5
        else:  # non-finite
            m[2, 1] = np.nan
        return m

    def stack(self, bad_at, n=7):
        out = np.repeat(self.GOOD[None], n, axis=0)
        for index, kind in bad_at.items():
            out[index] = self.bad(kind)
        return out

    @pytest.mark.parametrize("kind", ["hermiticity", "trace", "positivity",
                                      "several", "non-finite"])
    @pytest.mark.parametrize("index", [0, 3, 6])
    def test_raises_like_single_call(self, kind, index):
        with pytest.raises(StateValidationError) as single:
            validate_density(self.bad(kind))
        with pytest.raises(StateValidationError) as stacked:
            validate_batch(self.stack({index: kind}))
        assert type(stacked.value) is type(single.value)
        assert str(stacked.value) == str(single.value)
        assert stacked.value.violation == single.value.violation

    @pytest.mark.parametrize("bad_at, expected", [
        ({2: "positivity", 4: "non-finite"}, NotPSD),
        ({1: "non-finite", 3: "hermiticity"}, NotFinite),
        ({5: "hermiticity", 1: "trace"}, linalg.TraceNotOne),
    ])
    def test_first_failing_snapshot_decides(self, bad_at, expected):
        first = self.bad(bad_at[min(bad_at)])
        with pytest.raises(expected) as single:
            validate_density(first)
        with pytest.raises(expected) as stacked:
            validate_batch(self.stack(bad_at))
        assert str(stacked.value) == str(single.value)

    def test_evolved_tolerances_apply(self):
        loose = dict(herm_tol=1e-10, trace_tol=1e-8, psd_tol=1e-7)
        m = self.GOOD.copy()
        m[0, 0] += 5e-9                     # within 1e-8, beyond 1e-10
        validate_batch(m[None], **loose)
        with pytest.raises(linalg.TraceNotOne):
            validate_batch(m[None])

    def test_non_finite_is_a_value_error(self):
        with pytest.raises(ValueError, match="non-finite"):
            validate_density(self.bad("non-finite"))

    def test_rejects_bad_shapes(self):
        for shape in ((4, 4), (0, 4, 4), (3, 3, 3)):
            with pytest.raises(ValueError, match="stack"):
                validate_batch(np.zeros(shape))


def x_shaped(outer_eigs, inner_eigs, rng, sign_zero=1.0):
    """A Hermitian X-shaped 4x4 matrix whose {00,11} and {01,10} blocks have
    the given eigenvalues; its off-X entries are ``sign_zero * 0.0``."""
    m = np.full((4, 4), complex(sign_zero * 0.0, sign_zero * 0.0))
    for (i, j), eigs in (((0, 3), outer_eigs), ((1, 2), inner_eigs)):
        theta, phi = rng.uniform(0.0, np.pi), rng.uniform(0.0, 2.0 * np.pi)
        c, s = np.cos(theta / 2), np.sin(theta / 2) * np.exp(1j * phi)
        lo, hi = eigs
        m[i, i] = c * c * lo + abs(s) ** 2 * hi
        m[j, j] = abs(s) ** 2 * lo + c * c * hi
        m[i, j] = c * np.conj(s) * (hi - lo)
        m[j, i] = np.conj(m[i, j])
    return m


class TestClosedFormPositivity:
    """validate_batch reads an X-shaped snapshot's smallest eigenvalue off its
    two 2x2 blocks; LAPACK gets only the other snapshots."""

    NO_BOUNDS = dict(trace_tol=np.inf, psd_tol=np.inf)

    @pytest.fixture
    def lapack_calls(self, monkeypatch):
        """Count the matrices handed to np.linalg.eigvalsh."""
        calls = []
        real = np.linalg.eigvalsh

        def spy(a, *args, **kwargs):
            calls.append(len(a))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        return calls

    @staticmethod
    def x_stack(rng):
        tol = linalg.EVOLVED_PSD_TOL
        cases = [((0.0, 1.0), (0.0, 0.0)),            # rank 1, a zero block
                 ((0.0, 0.0), (0.0, 0.0)),            # all zero
                 ((0.0, 0.0), (0.3, 0.7)),
                 ((-tol, 0.6), (0.1, 0.3)),           # at -EVOLVED_PSD_TOL
                 ((tol, 0.6), (0.1, 0.3)),            # at +EVOLVED_PSD_TOL
                 ((0.25, 0.25), (0.25, 0.25)),        # degenerate
                 ((-1e-12, 0.5), (0.2, 0.3))]
        mats = [x_shaped(o, i, rng) for o, i in cases]
        mats += [x_shaped(o, i, rng, sign_zero=-1.0) for o, i in cases]
        for _ in range(400):
            eigs = rng.dirichlet(np.full(4, 0.5))
            eigs[rng.integers(4)] = rng.choice([0.0, -tol, tol, eigs[0]])
            mats.append(x_shaped(np.sort(eigs[:2]), np.sort(eigs[2:]), rng,
                                 sign_zero=rng.choice([-1.0, 1.0])))
        return np.array(mats)

    def test_x_stack_matches_lapack(self, rng, lapack_calls):
        stack = self.x_stack(rng)
        off_x = stack[:, linalg._OFF_X[0], linalg._OFF_X[1]]
        assert (off_x == 0).all()
        assert np.signbit(off_x.real).any() and not np.signbit(off_x.real).all()
        eps = np.finfo(float).eps
        singles = [validate_batch(m[None], **self.NO_BOUNDS).positivity
                   for m in stack]
        assert lapack_calls == []
        for m, neg in zip(stack, singles):
            expected = -np.linalg.eigvalsh(0.5 * (m + m.conj().T))[0]
            assert abs(neg - expected) <= 4 * eps * np.abs(m).max()
        assert validate_batch(stack, **self.NO_BOUNDS).positivity == max(singles)

    def test_evolved_tolerance_edges(self, rng):
        tol = linalg.EVOLVED_PSD_TOL
        loose = dict(herm_tol=linalg.EVOLVED_HERM_TOL, trace_tol=np.inf,
                     psd_tol=tol)
        validate_batch(x_shaped((-0.5 * tol, 0.6), (0.1, 0.3), rng)[None], **loose)
        with pytest.raises(NotPSD):
            validate_batch(x_shaped((-2.0 * tol, 0.6), (0.1, 0.3), rng)[None],
                           **loose)

    def test_tiny_off_x_entry_goes_to_lapack(self, rng, lapack_calls):
        stack = np.array([x_shaped((0.1, 0.4), (0.2, 0.3), rng) for _ in range(5)])
        stack[2, 0, 1] = stack[2, 1, 0] = 1e-300
        validate_batch(stack)
        assert lapack_calls == [1]

    @pytest.mark.parametrize("first, second", [(1, 3), (3, 1)])
    def test_first_failing_snapshot_decides_across_routes(self, rng, first,
                                                          second):
        # snapshot `first` fails on the LAPACK route, `second` in closed form
        stack = np.array([x_shaped((0.1, 0.4), (0.2, 0.3), rng) for _ in range(5)])
        stack[first] = x_shaped((-0.01, 0.5), (0.2, 0.31), rng)
        stack[first, 0, 1] = stack[first, 1, 0] = 1e-300
        stack[second] = x_shaped((-0.02, 0.5), (0.2, 0.32), rng)
        with pytest.raises(NotPSD) as single:
            validate_density(stack[min(first, second)])
        with pytest.raises(NotPSD) as stacked:
            validate_batch(stack)
        assert str(stacked.value) == str(single.value)
        assert stacked.value.violation == single.value.violation


class TestStackedHermitianEigs:
    def test_bit_equal_to_single_calls(self, rng):
        from conftest import random_x_state
        mats = [random_density(rng) for _ in range(20)]
        for _ in range(20):
            psi = rng.normal(size=4) + 1j * rng.normal(size=4)
            psi /= np.linalg.norm(psi)
            mats.append(np.outer(psi, psi.conj()))
        mats += [random_x_state(rng).matrix() for _ in range(20)]
        stack = np.array(mats)
        w, v = hermitian_eigs(stack)
        for m, ws, vs in zip(stack, w, v):
            w1, v1 = hermitian_eigs(m)
            assert ws.tobytes() == w1.tobytes()
            assert vs.tobytes() == v1.tobytes()
        w3, v3 = hermitian_eigs(stack.reshape(3, 20, 4, 4))
        assert w3.tobytes() == w.tobytes() and v3.tobytes() == v.tobytes()

    def test_first_non_hermitian_matrix_is_reported(self):
        stack = np.repeat(np.eye(4, dtype=complex)[None] / 4, 5, axis=0)
        stack[2, 0, 1] = 0.3
        stack[4, 0, 1] = 0.7
        with pytest.raises(NotHermitian) as err:
            hermitian_eigs(stack)
        assert err.value.violation == 0.3
        assert "off by 3.000e-01" in str(err.value)

    def test_partial_trace_of_stack(self, rng):
        stack = np.array([random_density(rng) for _ in range(6)])
        reduced = partial_trace_q2(stack)
        assert reduced.shape == (6, 2, 2)
        for m, r in zip(stack, reduced):
            assert r.tobytes() == partial_trace_q2(m).tobytes()
            expected = np.einsum("iaja->ij", m.reshape(2, 2, 2, 2))
            assert np.abs(r - expected).max() < 1e-15
