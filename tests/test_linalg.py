import numpy as np
import pytest

from dressedbath import linalg
from dressedbath.linalg import (MAP, NotFinite, NotHermitian, NotPSD,
                                StateValidationError, as_matrices, columns,
                                hermitian_eigs, partial_trace_q2, validate_density,
                                validate_eigs, width)
from dressedbath.model import SystemParams, dressed_frame, hamiltonian

from conftest import (bits, margins_of, outcome, random_density, random_x_state,
                      to_computational, validate_on_route)
from test_x_columns import BAD, EVOLVED, x_stack


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

    def test_every_violation_is_listed(self):
        bad = np.diag([0.25] * 4).astype(complex)
        bad[0, 1] = 0.3
        bad[3, 3] = 0.5
        with pytest.raises(NotHermitian) as err:
            validate_density(bad)
        assert str(err.value) == ("invalid density matrix: hermiticity off by "
                                  "3.000e-01, trace off by 2.500e-01")

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
        comp = to_computational(self.frame, ground)
        ap, am = self.frame.mix_plus, self.frame.mix_minus
        vec = np.array([ap, 0, 0, -am])
        assert np.abs(comp - np.outer(vec, vec)).max() < 1e-14

    def test_uncoupled_limit_ground_is_00(self):
        params = SystemParams(omega=1.0, coupling=0.0, gamma0=0.1,
                              bath_width=5.0, bath_center=2.0, temperature=0.0)
        frame = dressed_frame(params)
        ground = np.diag([1.0, 0, 0, 0]).astype(complex)
        comp = to_computational(frame, ground)
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        assert np.abs(comp - expected).max() < 1e-14

    def test_round_trip(self, rng):
        for _ in range(20):
            rho = random_density(rng)
            back = to_computational(self.frame, self.frame.to_dressed(rho))
            assert np.abs(back - rho).max() < 1e-12

    def test_spectrum_invariant(self, rng):
        rho = random_density(rng)
        w1, _ = hermitian_eigs(rho)
        w2, _ = hermitian_eigs(self.frame.to_dressed(rho))
        assert np.abs(w1 - w2).max() < 1e-10

    def test_stack_is_each_matrix(self, rng):
        stack = np.array([random_density(rng) for _ in range(6)])
        for rotate in (self.frame.to_dressed,
                       lambda d: to_computational(self.frame, d)):
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
        """A stack holds Hermitian parts: it fails like its failing matrix's
        Hermitian part alone, and passes where that part is a state; only the
        single call sees, and refuses, the matrix that is not Hermitian."""
        if kind in ("hermiticity", "several"):
            with pytest.raises(NotHermitian):
                validate_density(self.bad(kind))
        single = outcome(validate_density, hermitian_part(self.bad(kind)))
        stacked = outcome(validate_eigs, columns(hermitian_part(self.stack({index: kind}))))
        if kind == "hermiticity":   # its Hermitian part is a state
            assert isinstance(single, np.ndarray)
            assert isinstance(stacked[0], linalg.Margins)
        else:
            assert issubclass(single[0], StateValidationError)
            assert stacked == single

    @pytest.mark.parametrize("bad_at, expected", [
        ({2: "positivity", 4: "non-finite"}, NotPSD),
        ({1: "non-finite", 3: "hermiticity"}, NotFinite),
        ({5: "several", 1: "trace"}, linalg.TraceNotOne),
    ])
    def test_first_failing_snapshot_decides(self, bad_at, expected):
        first = self.bad(bad_at[min(bad_at)])
        with pytest.raises(expected) as single:
            validate_density(first)
        with pytest.raises(expected) as stacked:
            validate_eigs(columns(hermitian_part(self.stack(bad_at))))
        assert str(stacked.value) == str(single.value)

    def test_evolved_tolerances_apply(self):
        loose = dict(trace_tol=1e-8, psd_tol=1e-7)
        m = self.GOOD.copy()
        m[0, 0] += 5e-9                     # within 1e-8, beyond 1e-10
        validate_eigs(columns(m[None]), **loose)
        with pytest.raises(linalg.TraceNotOne):
            validate_eigs(columns(m[None]))

    def test_non_finite_is_a_value_error(self):
        with pytest.raises(ValueError, match="non-finite"):
            validate_density(self.bad("non-finite"))

    def test_rejects_bad_shapes(self):
        for shape in ((4, 4), (0, 4, 4), (3, 3, 3)):
            with pytest.raises(ValueError, match="stack"):
                validate_eigs(np.zeros(shape))


def test_validate_columns_checks_its_shape():
    good = columns(np.eye(4, dtype=complex)[None] / 4)
    x_good = good[:, :8]
    assert margins_of(good) == margins_of(x_good)
    for cols in (good[:, :15], good[:, :9], good[:, :7],   # column count
                 good[:0], x_good[:0],                      # empty
                 good.reshape(1, 4, 4), x_good.reshape(1, 1, 8)):   # 3-D
        with pytest.raises(ValueError, match=r"non-empty \(n, 8\) or \(n, 16\) stack"):
            validate_eigs(cols)


def hermitian_part(m):
    """``(M + M^H) / 2`` of a matrix or a stack, as ``validate_density``
    forms it: what a stack holds of a matrix."""
    h = 0.5 * np.asarray(m, dtype=complex)
    return h + np.conj(h).swapaxes(-1, -2)


def test_one_off_x_entry_makes_a_stack_sixteen_wide(rng):
    """The width rule on coordinates: 8 only while every off-X coordinate of
    every matrix is exactly zero, of either sign."""
    cols = columns(np.array([random_x_state(rng).matrix() for _ in range(3)]))
    assert width(cols) == width(cols[0]) == 8
    assert linalg.UPPER[2:] == tuple((i, j) for i in range(4) for j in range(i + 1, 4)
                                     if i + j != 3)
    for n in range(8, 16):
        for value, wide in ((-0.0, 8), (1e-300, 16), (5e-324, 16), (np.nan, 16)):
            one = cols.copy()
            one[1, n] = value
            assert width(one) == wide
            assert width(one[1]) == wide


def hermitian_stack(rng):
    """Exactly Hermitian matrices: dense ones, ``(A + A^H) / 2``, whose
    entries below the diagonal are the conjugates of those above to the bit,
    and X states with +0 at every off-X entry."""
    dense = [hermitian_part(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
             for _ in range(30)]
    return np.array(dense + [random_x_state(rng).matrix() for _ in range(30)])


def test_coordinates_round_trip(rng):
    """``as_matrices`` inverts ``columns`` bit for bit on Hermitian matrices,
    and ``columns`` is ``(MAP @ vec).real``."""
    stack = hermitian_stack(rng)
    cols = columns(stack)
    assert cols.dtype == float and cols.shape == (60, 16)
    np.testing.assert_array_equal(bits(as_matrices(cols)), bits(stack))
    np.testing.assert_array_equal(cols, (stack.reshape(-1, 16) @ MAP.T).real)
    np.testing.assert_array_equal(columns(stack[0]), cols[0])
    # an X stack is the first eight coordinates; the rest are +0
    x = cols[30:]
    assert not x[:, 8:].any()
    np.testing.assert_array_equal(bits(as_matrices(x[:, :8])), bits(stack[30:]))


def test_map_is_the_hermitian_part():
    """The real part of ``MAP @ vec`` is the coordinates of a matrix's
    Hermitian part, its imaginary part 0 on a Hermitian matrix; and ``MAP`` is
    invertible: sixteen real coordinates for sixteen complex entries that
    Hermiticity pairs."""
    rng = np.random.default_rng(9)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    coords = MAP @ m.reshape(-1)
    assert np.abs(coords.real - columns(hermitian_part(m))).max() <= 1e-15
    assert not (MAP @ hermitian_part(m).reshape(-1)).imag.any()
    assert np.linalg.matrix_rank(MAP) == 16


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
    """validate_eigs reads the smallest eigenvalue of each snapshot of an
    X-shaped stack off its two 2x2 blocks; LAPACK gets only the other
    stacks."""

    NO_BOUNDS = dict(trace_tol=np.inf, psd_tol=np.inf)

    @pytest.fixture
    def lapack_calls(self, monkeypatch):
        """Count the matrices handed to np.linalg.eigh and eigvalsh."""
        calls = []
        for name in ("eigh", "eigvalsh"):
            def spy(a, *args, real=getattr(np.linalg, name), **kwargs):
                calls.append(len(a))
                return real(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, spy)
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
        off_x = columns(stack)[:, 8:]
        assert (off_x == 0).all()
        assert np.signbit(off_x.real).any() and not np.signbit(off_x.real).all()
        eps = np.finfo(float).eps
        singles = [margins_of(columns(m[None]), **self.NO_BOUNDS).positivity
                   for m in stack]
        assert lapack_calls == []
        for m, neg in zip(stack, singles):
            expected = -np.linalg.eigvalsh(0.5 * (m + m.conj().T))[0]
            assert abs(neg - expected) <= 4 * eps * np.abs(m).max()
        assert margins_of(columns(stack), **self.NO_BOUNDS).positivity == max(singles)

    def test_evolved_tolerance_edges(self, rng):
        tol = linalg.EVOLVED_PSD_TOL
        loose = dict(trace_tol=np.inf, psd_tol=tol)
        validate_eigs(columns(x_shaped((-0.5 * tol, 0.6), (0.1, 0.3), rng)[None]),
                      **loose)
        with pytest.raises(NotPSD):
            validate_eigs(columns(x_shaped((-2.0 * tol, 0.6), (0.1, 0.3), rng)[None]),
                          **loose)

    def test_tiny_off_x_entry_goes_to_lapack(self, rng, lapack_calls):
        """One off-X pair of 1e-300 sends the whole stack to LAPACK, in one
        call; without it, no matrix goes."""
        stack = np.array([x_shaped((0.1, 0.4), (0.2, 0.3), rng) for _ in range(5)])
        assert validate_eigs(columns(stack))[1] is None
        assert lapack_calls == []
        stack[2, 0, 1] = stack[2, 1, 0] = 1e-300
        _, (evals, vecs) = validate_eigs(columns(stack))
        assert lapack_calls == [5]
        assert len(evals) == len(vecs) == 5

    @pytest.mark.parametrize("first, second", [(1, 3), (3, 1)])
    def test_first_failing_snapshot_decides_across_routes(self, rng, first,
                                                          second):
        # both snapshots fail, `first` with an off-X pair of 1e-300: the stack
        # goes to LAPACK with it and is read in closed form without it
        stack = np.array([x_shaped((0.1, 0.4), (0.2, 0.3), rng) for _ in range(5)])
        stack[first] = x_shaped((-0.01, 0.5), (0.2, 0.31), rng)
        stack[second] = x_shaped((-0.02, 0.5), (0.2, 0.32), rng)
        decides = min(first, second)
        with pytest.raises(NotPSD) as single:
            validate_density(stack[decides])
        with pytest.raises(NotPSD) as stacked:
            validate_eigs(columns(stack))
        assert str(stacked.value) == str(single.value)
        assert stacked.value.violation == single.value.violation
        stack[first, 0, 1] = stack[first, 1, 0] = 1e-300
        with pytest.raises(NotPSD) as stacked:
            validate_eigs(columns(stack))
        low = np.linalg.eigh(as_matrices(columns(stack[decides][None])))[0][0, 0]
        assert stacked.value.violation == -low
        assert str(stacked.value) == ("invalid density matrix: positivity off by "
                                      f"{stacked.value.violation:.3e}")


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


def validate_dense(cols, trace_tol, psd_tol):
    """``linalg.validate_eigs``' margins and route through the dense matrices:
    the route is general when a row before the first non-finite one has an
    off-X entry, and ``validate_on_route`` validates every row on it.  The
    reference for the coordinate slices and the column-by-column reductions
    of the production pass."""
    finite = np.isfinite(cols).all(axis=1)
    checked = cols[:len(cols) if finite.all() else int(np.argmin(finite))]
    general = bool(columns(as_matrices(checked))[:, 8:].any())
    return validate_on_route(cols, general, trace_tol, psd_tol), general


def margins_and_route(cols, **tolerances):
    """``validate_eigs``' margins and route, as ``validate_dense``'s."""
    margins, eigs = validate_eigs(cols, **tolerances)
    return margins, eigs is not None


def mixed_stacks(rng):
    """``(n, 16)`` stacks that mix X-shaped and non-X rows, each the
    coordinates of Hermitian parts, with edge values: signed zeros,
    subnormals, entries near the double range, an off-X pair whose Hermitian
    part is exactly zero, and a non-finite row."""
    lows = rng.uniform(-1e-8, 0.2, size=40)
    x_rows = np.array([x_shaped((low, 0.5 - low), (0.2, 0.3), rng,
                                sign_zero=rng.choice([1.0, -1.0])) for low in lows])
    dense = np.array([random_density(rng) for _ in range(40)])
    order = rng.permutation(80)
    rows = np.concatenate([x_rows, dense])[order].reshape(-1, 16)   # row-major
    yield columns(hermitian_part(rows.reshape(-1, 4, 4)))
    x = np.flatnonzero(order < 40)              # the X-shaped rows
    edge = rows.copy()
    edge[x[0], 1] = complex(1e-300, 2e-300)     # off-X, anti-Hermitian pair:
    edge[x[0], 4] = complex(-1e-300, 2e-300)    # its Hermitian part is 0
    edge[x[1], 2] = edge[x[1], 8] = 5e-324      # subnormal off-X pair, halved to 0
    edge[x[2], 0] = edge[x[2], 15] = -0.0       # signed zero diagonal
    edge[x[3], 0] = 1e308                       # near the double range
    edge[x[4], 5] = complex(-1e308, 1e308)
    edge[x[5], 3] = edge[x[5], 12] = 1e308
    edge[x[6], 1] = edge[x[6], 4] = 1e-300      # a tiny off-X pair: general
    yield columns(hermitian_part(edge.reshape(-1, 4, 4)))
    for bad in (np.nan, np.inf, complex(0.0, -np.inf)):
        stack = rows.copy()
        stack[17, 6] = bad
        yield columns(hermitian_part(stack.reshape(-1, 4, 4)))
    for row, cols, value in ((6, [5], 0.7), (8, [3, 12], 0.9)):
        stack = rows.copy()                     # trace, positivity
        stack[row, cols] = value
        yield columns(hermitian_part(stack.reshape(-1, 4, 4)))


def validation_stacks():
    """The X stacks of ``test_x_columns`` (one per bad kind and place, and
    random X states with 1e-9 noise), each also as its dense ``(n, 16)``
    stack; random dense stacks with noise; and stacks that mix X-shaped and
    non-X rows, each also as its X-shaped rows alone."""
    rng = np.random.default_rng(22)
    x_stacks = [x_stack({index: kind}) for kind in BAD for index in (0, 3, 6)]
    x_stacks += [x_stack(bad_at) for bad_at in (
        {2: "negative block eigenvalue", 4: "nan"}, {1: "inf", 3: "hermiticity"},
        {5: "hermiticity and trace", 1: "trace"})]
    for _ in range(5):
        cols = columns(np.array([random_x_state(rng).matrix() for _ in range(200)]))[:, :8]
        x_stacks.append(cols + 1e-9 * rng.normal(size=cols.shape))
    for cols in x_stacks:
        yield cols
        yield columns(as_matrices(cols))
    for _ in range(5):
        dense = columns(np.array([random_density(rng) for _ in range(50)]))
        yield dense + 1e-11 * rng.normal(size=dense.shape)
    for cols in mixed_stacks(rng):   # and their X-shaped rows alone
        yield cols
        yield cols[~cols[:, 8:].any(axis=1)]
    for n in (1, 2):                            # stacks of one and two rows
        yield x_stack({}, n=n)
        yield x_stack({0: "negative block eigenvalue"}, n=n)
    for zeros, one in ((((0, 0), (3, 3)), (1, 1)),
                       (((1, 1), (2, 2)), (0, 0))):   # a block eigenvalue -0.0
        ket = np.zeros((1, 4, 4), dtype=complex)
        ket[0][one] = 1.0
        ket[0][tuple(zip(*zeros))] = -0.0
        yield columns(ket)
        yield columns(ket)[:, :8]


def test_validate_equals_the_dense_computation():
    """Margins, routes, classes, messages and violations are those of the
    computation on the dense matrices, to the bit (``repr`` tells -0.0
    from 0.0)."""
    tolerances = [(linalg.TRACE_TOL, linalg.PSD_TOL),
                  (linalg.EVOLVED_TRACE_TOL, linalg.EVOLVED_PSD_TOL), (np.inf, np.inf)]
    results = set()
    with np.errstate(over="ignore", invalid="ignore"):
        for cols in validation_stacks():
            for trace_tol, psd_tol in tolerances:
                result = outcome(margins_and_route, cols, trace_tol=trace_tol,
                                 psd_tol=psd_tol)
                assert repr(result) == repr(outcome(validate_dense, cols, trace_tol, psd_tol))
                results.add(type(result[0]) if isinstance(result[0], linalg.Margins)
                            else result[0])
    assert results == {linalg.Margins, linalg.TraceNotOne, NotPSD, NotFinite}


def near_range_states():
    """Hermitian, unit-trace matrices with entries near the double range:
    an off-X pair (LAPACK route), an X pair and a diagonal."""
    pair, x_pair = (np.diag([0.25] * 4).astype(complex) for _ in range(2))
    pair[0, 1] = pair[1, 0] = 1e308
    x_pair[0, 3] = x_pair[3, 0] = 1e308
    return [pair, x_pair, np.diag([1e308, -1e308, 0.5, 0.5]).astype(complex)]


@pytest.mark.parametrize("matrix", near_range_states(), ids=["pair", "x", "diag"])
def test_entries_near_the_double_range_fail_positivity(matrix):
    # an entry near the double range must not overflow on the way to LAPACK
    # (which does not converge on inf) or to the closed form (which would read
    # nan and let a negative population pass)
    cols = columns(matrix[None])
    for width in (16, 8) if not matrix[0, 1] else (16,):
        with pytest.raises(NotPSD) as err:
            validate_eigs(cols[:, :width])
        assert str(err.value) == "invalid density matrix: positivity off by 1.000e+308"
        assert 0.99e308 < err.value.violation < 1.01e308


def test_mixed_stacks_fail_in_each_class():
    """Each failure class is reached on a stack that mixes X and non-X rows."""
    with np.errstate(over="ignore", invalid="ignore"):
        classes = [outcome(margins_of, stack, **EVOLVED)
                   for stack in mixed_stacks(np.random.default_rng(22))]
    kinds = [c if isinstance(c, linalg.Margins) else c[0] for c in classes]
    assert isinstance(kinds[0], linalg.Margins)
    assert kinds[2:] == [NotFinite] * 3 + [linalg.TraceNotOne, NotPSD]
