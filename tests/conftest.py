import importlib.util
import math
import pathlib
import re
import sys

import numpy as np
import pytest

from dressedbath.linalg import EVOLVED_PSD_TOL, EVOLVED_TRACE_TOL
from dressedbath.metrics import XStateElements, _plog2, von_neumann_entropy

# validation keywords of a run's evolved snapshots
EVOLVED = dict(trace_tol=EVOLVED_TRACE_TOL, psd_tol=EVOLVED_PSD_TOL)


def random_density(rng, dim=4):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_x_state(rng) -> XStateElements:
    pops = rng.dirichlet(np.ones(4))
    mag = rng.uniform(0.0, 1.0, 2)
    phase = rng.uniform(0.0, 2.0 * np.pi, 2)
    return XStateElements(
        p00=pops[0], p01=pops[1], p10=pops[2], p11=pops[3],
        outer=mag[0] * np.sqrt(pops[0] * pops[3]) * np.exp(1j * phase[0]),
        inner=mag[1] * np.sqrt(pops[1] * pops[2]) * np.exp(1j * phase[1]),
    )


def to_computational(frame, d):
    """``U d U^dagger`` of ``frame``: a dressed-basis matrix, or each matrix
    of a ``(..., 4, 4)`` stack, in the computational basis, through the
    basis change of a run on all sixteen columns."""
    from dressedbath.linalg import as_matrices, columns
    cols = frame.to_computational_columns(columns(d))
    return as_matrices(cols.reshape(-1, 16)).reshape(d.shape)


def dressed_matrices(rho0, rates, frame, times):
    """The ``(n, 4, 4)`` dressed matrices of the micro closed form on
    ``times`` (one row for a scalar time)."""
    from dressedbath.linalg import as_matrices
    from dressedbath.microscopic import propagate_analytic
    return as_matrices(propagate_analytic(rho0, rates, frame, times))


def sixteen_wide(monkeypatch, fn, *args):
    """``fn(*args)`` with both propagators held to all sixteen columns
    (``linalg.width`` replaced by 16): the dense form of an X run."""
    from dressedbath import integrate, microscopic
    with monkeypatch.context() as patch:
        for module in (integrate, microscopic):
            patch.setattr(module, "width", lambda _: 16)
        return fn(*args)


def run_stacks(cfg):
    """model -> the ``(n, k)`` stack of ``cfg``'s run, from the propagation
    that ``run_scenario`` runs (``scenarios._propagation``) on the frame and
    rates it builds."""
    from dressedbath.model import dressed_frame, rate_set
    from dressedbath.scenarios import _propagation
    frame = dressed_frame(cfg.params)
    _, stack_of = _propagation(cfg, frame, rate_set(cfg.params, frame))
    return {model: stack_of(model) for model in cfg.models}


# -- the per-term basis change and the masked entropy terms: the references of
# DressedFrame.to_computational_columns and of metrics._plog2 / _ratio_term ---

def real_map_reference(frame):
    """Per output coordinate of the real map of ``U . U^T``, its ``(input
    coordinate, nonzero coefficient)`` pairs, from all 256 pairs of
    coordinates; ``u . u^T`` maps Re (symmetric) and Im (antisymmetric) apart."""
    from dressedbath.model import _COORDS
    u = frame.unitary.real.tolist()
    return [[(m, c) for m, (j, k, t) in enumerate(_COORDS) if t == s and (
                c := u[i][j] * u[l][k] + (t * u[i][k] * u[l][j] if j != k else 0.0))]
            for i, l, s in _COORDS]


def to_computational_columns_reference(frame, d):
    """``frame.to_computational_columns(d)`` one term at a time: each output
    coordinate summed from +0 over ``real_map_reference``'s pairs in order."""
    out = np.zeros(d.shape)
    for n, terms in enumerate(real_map_reference(frame)[:d.shape[-1]]):
        for m, c in terms:
            out[..., n] += c * d[..., m]
    return out


def plog2_reference(x):
    """``metrics._plog2`` by a boolean compress and scatter: 0 at x <= 0."""
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape)
    pos = ~(x <= 0.0)
    xp = x[pos]
    out[pos] = -xp * np.log2(np.minimum(xp, 1.0))
    return out


def ratio_term_reference(a, b):
    """``metrics._ratio_term`` by a boolean compress and scatter: 0 at a <= 0."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    out = np.zeros(a.shape)
    pos = ~(a <= 0.0)
    ap = a[pos]
    out[pos] = -ap * np.log2(ap / (ap + np.maximum(b[pos], 0.0)))
    return out


# -- the X-element and partial-trace linear entropy: the references of
# metrics.linear_entropy_q1 on 8- and 16-wide stacks --------------------------

def x_columns(x) -> np.ndarray:
    """The ``(..., 8)`` coordinates of X elements: the populations, then Re
    and Im of the outer and of the inner coherence."""
    return np.stack(np.broadcast_arrays(
        x.p00, x.p01, x.p10, x.p11, np.real(x.outer), np.imag(x.outer),
        np.real(x.inner), np.imag(x.inner)), axis=-1)


def linear_entropy_x_reference(x):
    """2 P0 P1 of X elements, P0 and P1 the qubit-1 populations."""
    return 2.0 * (x.p00 + x.p01) * (x.p10 + x.p11)


def partial_trace_q2(rho) -> np.ndarray:
    """Reduced 2x2 state of qubit 1, for a computational-basis matrix or
    each matrix of a ``(..., 4, 4)`` stack."""
    m = np.asarray(rho)
    # [i, j] = m[2i, 2j] + m[2i+1, 2j+1]
    return m[..., ::2, ::2] + m[..., 1::2, 1::2]


def linear_entropy_matrix_reference(rho):
    """2 (Re r00 Re r11 - |r01|^2) of the partial trace r of a matrix or of
    each matrix of a ``(..., 4, 4)`` stack."""
    r = partial_trace_q2(rho)
    return (2.0 * (r[..., 0, 0].real * r[..., 1, 1].real - np.abs(r[..., 0, 1]) ** 2))[()]


def linear_entropy_reference(cols):
    """The linear entropy of an ``(..., 8)`` stack by the X form of its X
    elements, and of an ``(..., 16)`` one by the matrix form of its
    matrices."""
    from dressedbath.linalg import as_matrices
    from dressedbath.metrics import x_elements_from_columns
    c = np.asarray(cols, dtype=float)
    if c.shape[-1] == 8:
        return linear_entropy_x_reference(x_elements_from_columns(c))
    return linear_entropy_matrix_reference(
        as_matrices(c.reshape(-1, 16)).reshape(c.shape[:-1] + (4, 4)))


def dense_builds(monkeypatch):
    """Each ``linalg.as_matrices`` call, wherever the package looks it up, as
    the calling function's name and the number of matrices built."""
    from dressedbath import linalg
    built, real = [], linalg.as_matrices

    def spy(cols):
        built.append((sys._getframe(1).f_code.co_name, len(cols)))
        return real(cols)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "dressedbath" and getattr(module, "as_matrices", None) is real:
            monkeypatch.setattr(module, "as_matrices", spy)
    return built


def g17_texts(values):
    """The text of each value's ``csvtext.g17_slots`` record, NULs dropped."""
    from dressedbath.csvtext import g17_slots
    slots = g17_slots(values)
    lines = np.vstack([slots, np.full((1, slots.shape[1]), ord("\n"), np.uint8)])
    return lines.T.tobytes().translate(None, b"\0").decode("ascii").split("\n")[:-1]


def random_unitary(rng, dim=2):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def margins_of(cols, **tolerances):
    """The margins of ``linalg.validate_eigs``."""
    from dressedbath.linalg import validate_eigs
    return validate_eigs(cols, **tolerances)[0]


def dense_stages(cfg):
    """``run_scenario``'s stages on full ``(n, 4, 4)`` stacks, all sixteen
    columns through the basis change, validation and the metrics, as for a
    non-X start: per model the stack, its margins, series and route.  The
    margins are ``validate_eigs``' at the evolved tolerances."""
    from dressedbath import phenomenological, scenarios
    from dressedbath.linalg import as_matrices, columns
    from dressedbath.model import dressed_frame, rate_set
    frame = dressed_frame(cfg.params)
    rates = rate_set(cfg.params, frame)
    times = np.linspace(0.0, scenarios.resolve_t_max(cfg, rates), cfg.n_points)
    rho0 = scenarios.initial_state_matrix(cfg, frame)
    out = {}
    for model in cfg.models:
        if model == "micro":
            stack = to_computational(frame, dressed_matrices(
                frame.to_dressed(rho0), rates, frame, times))
        else:
            stack = as_matrices(phenomenological.propagate(rho0, cfg.params, rates, times))
        marked, series, routes = scenarios._trajectory_metrics(columns(stack), cfg.metrics)
        margins = margins_of(columns(stack), **EVOLVED)
        assert marked == margins
        out[model] = stack, margins, series, routes
    return out


def validate_on_route(cols, general, trace_tol, psd_tol):
    """``linalg.validate_eigs``' margins on the route ``general`` names, through
    the dense matrices: every row scanned for non-finite entries, every row's
    matrix formed, the trace summed off its diagonal, and the smallest
    eigenvalue of each matrix read off its two 2x2 blocks on the X route or
    taken from LAPACK's ``eigh`` (the call validation makes) on the general
    one.  Raises what validation raises."""
    from dressedbath import linalg
    from dressedbath.linalg import as_matrices
    finite = np.isfinite(cols).all(axis=1)
    first_nonfinite = len(cols) if finite.all() else int(np.argmin(finite))
    m = as_matrices(cols[:first_nonfinite])
    tr = np.abs(np.einsum("nii->n", m).real - 1.0)
    if general:
        low = np.linalg.eigh(m)[0][:, 0]
    else:
        # |z| as hypot(Re, Im): numpy's complex abs can differ in the last bit
        blocks = [(m[:, i, i].real, m[:, j, j].real,
                   np.hypot(m[:, i, j].real, m[:, i, j].imag)) for i, j in ((0, 3), (1, 2))]
        low = np.minimum(*(0.5 * (p + q) - np.hypot(0.5 * (p - q), z)
                           for p, q, z in blocks))
    neg = -low
    failing = (tr > trace_tol) | (neg > psd_tol)
    if failing.any():
        i = int(np.argmax(failing))
        failures = [(cls, name, v[i]) for cls, name, v, tol in (
            (linalg.TraceNotOne, "trace", tr, trace_tol),
            (linalg.NotPSD, "positivity", neg, psd_tol)) if v[i] > tol]
        detail = ", ".join(f"{name} off by {v:.3e}" for _, name, v in failures)
        cls, _, violation = failures[0]
        raise cls(f"invalid density matrix: {detail}", violation)
    if first_nonfinite < len(cols):
        raise linalg.NotFinite("matrix contains non-finite entries")
    return linalg.Margins(float(tr.max()), float(neg.max()))


def trajectory_metrics_per_snapshot(stack, wanted):
    """``scenarios._trajectory_metrics`` one snapshot at a time, in order, each
    on its stack's route, general when any snapshot has an off-X entry: each
    snapshot validated on that route (``validate_on_route``) at the evolved
    tolerances, positivity at ``PSD_TOL`` when concurrence or discord is
    wanted; then discord refused on a general stack; then each snapshot's
    values, the X forms of its X elements (linear entropy by
    ``linear_entropy_x_reference``) or the general concurrence and the
    partial-trace linear entropy of its matrix.  Returns the margins, series
    and route.  Every metric runs on a stack of one snapshot."""
    from dressedbath import metrics
    from dressedbath.linalg import PSD_TOL, Margins, as_matrices, columns
    tolerances = dict(EVOLVED)
    if {"concurrence", "discord"} & set(wanted):
        tolerances["psd_tol"] = PSD_TOL
    states = as_matrices(stack)
    general = bool(columns(states)[:, 8:].any())   # an off-X entry anywhere
    margins = [validate_on_route(row[None], general, **tolerances) for row in stack]
    if "discord" in wanted and general:
        raise metrics.AssumptionViolated(
            "the discord approximation needs an X-shaped state; "
            "this trajectory left the X family")
    x_form = {"concurrence": metrics.concurrence_x,
              "discord": metrics.discord_approx_q2,
              "linear_entropy": linear_entropy_x_reference}
    on_matrix = {"concurrence": metrics.concurrence_general,
                 "linear_entropy": linear_entropy_matrix_reference}
    rows = []
    for i in range(len(stack)):
        x = metrics.x_elements_from_columns(stack[i:i + 1])
        row = {m: (on_matrix[m](states[i:i + 1]) if general else x_form[m](x))
               for m in wanted if m in x_form}
        if "populations" in wanted:
            row.update(zip(("pop_00", "pop_01", "pop_10", "pop_11"),
                           (x.p00, x.p01, x.p10, x.p11)))
        rows.append(row)
    series = {name: np.concatenate([row[name] for row in rows]) for name in rows[0]}
    return (Margins(*np.max(margins, axis=0)), series,
            "general" if general else "matrix_x")


def stationary_per_model(params, frame, rates):
    """Stationary values by the per-model route: each closed form as a full
    computational matrix (the micro one through ``to_computational``),
    validated, read by ``x_elements_from_matrix`` and the X-form metrics
    (linear entropy by ``linear_entropy_x_reference``) one model at a time;
    the bitwise oracle of ``scenarios.stationary_metrics``."""
    from dressedbath import metrics, microscopic, phenomenological
    from dressedbath.linalg import columns, validate_eigs
    states = {"micro": to_computational(frame, microscopic.steady_state(rates)),
              "phenom": phenomenological.steady_state(params, rates)}
    out = {}
    for model, state in states.items():
        eigs = validate_eigs(columns(state[None]))[1]
        assert eigs is None, f"{model} stationary state is not X-shaped"
        x = metrics.x_elements_from_matrix(state)
        out[model] = {"concurrence": float(metrics.concurrence_x(x)),
                      "discord": float(metrics.discord_approx_q2(x)),
                      "linear_entropy": float(linear_entropy_x_reference(x))}
    return out


def out_of(verb, out_dir):
    """``--out out_dir`` for a verb that writes files; ``spectrum``, ``steady``
    and ``selftest`` write none and take no ``--out``."""
    return ["--out", str(out_dir)] if verb in ("figure", "evolve", "compare", "sweep") else []


def set_key(text, key, value):
    """Config ``text`` with ``key = value`` on the line that sets ``key``, or
    on a line appended if none does."""
    line = f"{key} = {value}"
    out, n = re.subn(rf"(?m)^([ \t]*){key} =.*$", lambda m: m[1] + line, text)
    return out if n else f"{text}\n{line}\n"


def golden_general_configs():
    """The four non-X ``evolve --config`` runs of ``tools/golden.py``."""
    from dressedbath.scenarios import parse_config
    path = pathlib.Path(__file__).resolve().parents[1] / "tools" / "golden.py"
    spec = importlib.util.spec_from_file_location("golden", path)
    golden = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(golden)
    return [parse_config(text) for text in golden.general_configs().values()]


def bits(a):
    """The bit patterns of a float or complex array, for exact comparison."""
    return np.ascontiguousarray(a).view(np.int64)


def outcome(fn, *args, **kwargs):
    """``fn``'s result, or the class, message and violation of the
    StateValidationError it raises."""
    from dressedbath.linalg import StateValidationError
    try:
        return fn(*args, **kwargs)
    except StateValidationError as exc:
        return type(exc), str(exc), exc.violation


def assert_run_matches_dense(cfg):
    """``run_scenario`` gives the series, routes and margins of
    ``dense_stages``, and its propagation (``run_stacks``) the snapshots,
    bit for bit, or both raise the same error; returns the run's stacks, or
    None after an error."""
    from dressedbath.linalg import as_matrices
    from dressedbath.scenarios import run_scenario
    results = []
    for run in (dense_stages, run_scenario):
        try:
            results.append(run(cfg))
        except Exception as exc:   # the same error, raised by both
            results.append(exc)
    dense, traj = results
    if isinstance(dense, Exception) or isinstance(traj, Exception):
        assert (type(traj), str(traj)) == (type(dense), str(dense))
        return None
    stacks = run_stacks(cfg)
    for model, (stack, margins, series, routes) in dense.items():
        assert traj.margins[model] == margins
        assert traj.routes[model] == routes
        assert list(traj.series[model]) == list(series)
        for name, column in series.items():
            np.testing.assert_array_equal(bits(traj.series[model][name]),
                                          bits(column))
        np.testing.assert_array_equal(
            bits(as_matrices(stacks[model])), bits(stack))
    return stacks


# -- two-eigensolve spin-flip concurrence: an oracle of concurrence_general ---

def concurrence_spin_flip(rho):
    """Wootters concurrence of one state or a ``(..., 4, 4)`` stack through
    sqrt(rho) rho~ sqrt(rho), Hermitian with the spectrum of rho rho~
    (rho~ = (sy x sy) rho* (sy x sy)): two eigensolves and the square roots
    of the second one's eigenvalues, which cost accuracy near zero (about
    3e-8 on near-pure states)."""
    m = np.asarray(rho, dtype=complex)
    sysy = np.zeros((4, 4))
    sysy[0, 3] = sysy[3, 0] = -1.0
    sysy[1, 2] = sysy[2, 1] = 1.0
    evals, vecs = np.linalg.eigh(0.5 * (m + m.conj().swapaxes(-1, -2)))
    root = ((vecs * np.sqrt(np.clip(evals, 0.0, None))[..., None, :])
            @ vecs.conj().swapaxes(-1, -2))
    product = root @ (sysy @ m.conj() @ sysy) @ root
    xi = np.linalg.eigvalsh(0.5 * (product + product.conj().swapaxes(-1, -2)))
    xi = np.sqrt(np.clip(xi[..., ::-1], 0.0, None))
    c = xi[..., 0] - xi[..., 1] - xi[..., 2] - xi[..., 3]
    return np.where(c > 0.0, c, 0.0)[()]


def concurrence_mp(rho, dps: int = 40) -> float:
    """Wootters' concurrence of one state, taken as exact, from the
    eigenvalues of rho rho~ at ``dps`` digits."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(dps):
        r = mp.matrix([[mp.mpc(complex(v)) for v in row] for row in rho])
        sysy = mp.matrix(4, 4)
        sysy[0, 3] = sysy[3, 0] = -1
        sysy[1, 2] = sysy[2, 1] = 1
        evals = mp.eig(r * sysy * r.conjugate() * sysy, left=False, right=False)
        lam = sorted((mp.sqrt(max(mp.re(e), 0)) for e in evals), reverse=True)
        return float(max(lam[0] - lam[1] - lam[2] - lam[3], 0))


# -- brute-force discord: the oracle of metrics.discord_approx_q2 --------------

def _fibonacci_directions(n: int) -> np.ndarray:
    i = np.arange(n)
    z = 1.0 - (2.0 * i + 1.0) / n
    phi = i * math.pi * (3.0 - math.sqrt(5.0))
    r = np.sqrt(np.clip(1.0 - z * z, 0.0, None))
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


def _entropy2(m: np.ndarray) -> np.ndarray:
    """Entropies of a ``(..., 2, 2)`` stack of qubit states."""
    tr = (m[..., 0, 0] + m[..., 1, 1]).real
    det = (m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]).real
    disc = np.sqrt(np.maximum(tr * tr - 4.0 * det, 0.0))
    return _plog2(0.5 * (tr + disc)) + _plog2(np.maximum(0.5 * (tr - disc), 0.0))


def discord_oracle_q2(rho, grid_n: int = 256) -> float:
    """Brute-force discord: minimise the conditional entropy of qubit 1 over
    a Fibonacci-sphere grid of projective measurements on qubit 2.

    Upper-bounds the true minimum; tightens as grid_n grows.
    """
    if grid_n < 64:
        raise ValueError("grid_n must be at least 64")
    m = np.asarray(rho, dtype=complex)
    rfold = m.reshape(2, 2, 2, 2)
    rho_q2 = np.einsum('aiaj->ij', rfold)
    s_q2 = von_neumann_entropy(rho_q2)
    s_full = von_neumann_entropy(m)

    nx, ny, nz = _fibonacci_directions(grid_n).T
    ndots = np.array([[nz, nx - 1j * ny], [nx + 1j * ny, -nz]]).transpose(2, 0, 1)
    cond = np.zeros(grid_n)
    for sign in (1.0, -1.0):
        proj = 0.5 * (np.eye(2) + sign * ndots)
        reduced = np.einsum('aibj,gji->gab', rfold, proj)
        p = (reduced[:, 0, 0] + reduced[:, 1, 1]).real
        kept = p >= 1e-14
        cond[kept] += p[kept] * _entropy2(reduced[kept] / p[kept, None, None])
    return s_q2 - s_full + float(cond.min())
