"""Output checks for every workload.

Every number is recomputed with code of this file, apart from the program,
or tested against a property the method must have; nothing is compared to a
stored copy of an earlier output.  The program supplies only its inputs: the
figure presets, the rates (`model.rate_set`) and the Boltzmann constant.

Tolerances (derivation in README.md): a program state may differ from the
exact one by STATE_EPS per entry, which is also the population tolerance.
For a 4x4 matrix that is at most DELTA = 4 STATE_EPS in operator norm, and
  concurrence:    |dC|  <= 8 sqrt(DELTA) + 8 DELTA      (CONC_TOL)
  linear entropy: |dSL| <= 4 STATE_EPS (2 + 4 STATE_EPS) (LIN_TOL)
Discord is an approximation in the program and must lie within DISCORD_TOL
of the grid minimisation here.
"""

from __future__ import annotations

import math
import pathlib
import re
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg import expm

from dressedbath import model, scenarios

import workloads

STATE_EPS = 1e-7
POP_TOL = STATE_EPS
DELTA = 4 * STATE_EPS
CONC_TOL = 8 * math.sqrt(DELTA) + 8 * DELTA
LIN_TOL = 4 * STATE_EPS * (2 + 4 * STATE_EPS)
DISCORD_TOL = 0.02
SAMPLED_ROWS = 12           # rows per trajectory CSV recomputed from scratch
PROBE_FRACTION = 0.005      # figure-10 probe time, as a share of the span

POPS = ("pop_00", "pop_01", "pop_10", "pop_11")


@dataclass
class Outcome:
    """What one CLI operation left behind."""
    rc: int
    stdout: str
    stderr: str
    files: dict          # file name -> text


# -- two-qubit algebra, computational basis |q1 q2> ---------------------------

_I2 = np.eye(2)
_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]])
_LOWER = np.array([[0, 1], [0, 0]], dtype=complex)     # |1> -> |0>
_NUM = np.diag([0.0, 1.0])
_SYSY = np.kron(_SY, _SY)


def hamiltonian(p) -> np.ndarray:
    """omega (n1 + n2) + coupling/2 sx(x)sx: dipole coupling with its
    counter-rotating terms."""
    return (p.omega * (np.kron(_NUM, _I2) + np.kron(_I2, _NUM))
            + 0.5 * p.coupling * np.kron(_SX, _SX)).astype(complex)


def _dissipator(rate, op):
    norm = op.conj().T @ op
    eye = np.eye(4)
    return rate * (np.kron(op, op.conj())
                   - 0.5 * (np.kron(norm, eye) + np.kron(eye, norm.T)))


def _generator(h, channels):
    """Lindblad generator acting on row-major vec(rho)."""
    eye = np.eye(4)
    gen = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for rate, op in channels:
        gen = gen + _dissipator(rate, op)
    return gen


def eigenframe(p):
    """Energies (ascending) and eigen-projectors of the coupled Hamiltonian."""
    energies, vecs = np.linalg.eigh(hamiltonian(p))
    projectors = [np.outer(vecs[:, i], vecs[:, i].conj()) for i in range(4)]
    return energies, projectors


def micro_generator(p) -> np.ndarray:
    """Dressed-basis master equation: the qubit-2 x operator split into its
    components at the two Bohr frequencies, downward at the emission rate
    and upward at the absorption rate of that frequency."""
    energies, proj = eigenframe(p)
    rates = model.rate_set(p)
    coupling_op = np.kron(_I2, _SX)
    low_w, high_w = energies[1] - energies[0], energies[2] - energies[0]
    low = np.zeros((4, 4), dtype=complex)
    high = np.zeros((4, 4), dtype=complex)
    for i in range(4):
        for j in range(i + 1, 4):
            gap = energies[j] - energies[i]
            part = proj[i] @ coupling_op @ proj[j]
            if abs(gap - low_w) <= 1e-6 * low_w:
                low += part
            elif abs(gap - high_w) <= 1e-6 * high_w:
                high += part
    return _generator(hamiltonian(p), [
        (rates.emission_low, low), (rates.emission_high, high),
        (rates.absorption_low, low.conj().T),
        (rates.absorption_high, high.conj().T)])


def phenom_generator(p) -> np.ndarray:
    """Coupled unitary dynamics plus local damping of qubit 2 at the bare
    qubit frequency."""
    rates = model.rate_set(p)
    lower = np.kron(_I2, _LOWER)
    return _generator(hamiltonian(p), [(rates.emission_bare, lower),
                                       (rates.absorption_bare, lower.conj().T)])


def evolve(gen, rho0, t) -> np.ndarray:
    return (expm(gen * t) @ np.asarray(rho0, dtype=complex).reshape(-1)).reshape(4, 4)


def gibbs_state(p) -> np.ndarray:
    energies, proj = eigenframe(p)
    if p.temperature == 0:
        weights = np.array([1.0, 0.0, 0.0, 0.0])
    else:
        weights = np.exp(-(energies - energies[0])
                         / (model.KB_OVER_HBAR * p.temperature))
    weights = weights / weights.sum()
    return sum(w * pr for w, pr in zip(weights, proj))


def null_state(gen) -> np.ndarray:
    """Trace-one state spanning the kernel of a generator."""
    _, _, vh = np.linalg.svd(gen / np.abs(gen).max())
    rho = vh[-1].conj().reshape(4, 4)
    rho = rho / np.trace(rho)
    return 0.5 * (rho + rho.conj().T)


# -- metrics ------------------------------------------------------------------

def concurrence(rho) -> float:
    """Wootters: square roots of the eigenvalues of rho (sy sy) rho* (sy sy)."""
    tilde = _SYSY @ rho.conj() @ _SYSY
    ev = np.sort(np.sqrt(np.clip(np.linalg.eigvals(rho @ tilde).real, 0, None)))[::-1]
    return float(max(0.0, ev[0] - ev[1] - ev[2] - ev[3]))


def reduced_q1(rho) -> np.ndarray:
    return np.einsum("aibi->ab", rho.reshape(2, 2, 2, 2))


def linear_entropy_q1(rho) -> float:
    r = reduced_q1(rho)
    return float(1.0 - np.trace(r @ r).real)


def _entropy(evals) -> float:
    v = np.clip(np.asarray(evals, dtype=float), 0.0, None)
    v = v[v > 1e-300]
    return float(-(v * np.log2(v)).sum())


def _entropy_2x2(m):
    """Entropy of stacked (unnormalised) 2x2 Hermitian blocks, per block."""
    tr = (m[:, 0, 0] + m[:, 1, 1]).real
    det = (m[:, 0, 0] * m[:, 1, 1] - m[:, 0, 1] * m[:, 1, 0]).real
    disc = np.sqrt(np.clip(tr * tr - 4 * det, 0, None))
    out = np.zeros_like(tr)
    for lam in (0.5 * (tr + disc), 0.5 * (tr - disc)):
        lam = np.clip(lam, 1e-300, None)
        out -= np.where(lam > 1e-15, lam * np.log2(lam), 0.0)
    return out


_THETA = np.linspace(0.0, math.pi / 2, 46)
_PHI = np.linspace(0.0, 2 * math.pi, 96, endpoint=False)


def _measurement_grid():
    th, ph = np.meshgrid(_THETA, _PHI, indexing="ij")
    n = np.stack([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)],
                 axis=-1).reshape(-1, 3)
    ndots = np.empty((len(n), 2, 2), dtype=complex)
    ndots[:, 0, 0], ndots[:, 1, 1] = n[:, 2], -n[:, 2]
    ndots[:, 0, 1] = n[:, 0] - 1j * n[:, 1]
    ndots[:, 1, 0] = n[:, 0] + 1j * n[:, 1]
    return [0.5 * (np.eye(2) + s * ndots) for s in (1.0, -1.0)]


_PROJECTORS = _measurement_grid()


def discord_q2(rho) -> float:
    """Discord with qubit 2 measured: S(rho_2) - S(rho) + the least
    conditional entropy of qubit 1 over a theta-phi grid of projective
    measurements (poles and equator included)."""
    r = rho.reshape(2, 2, 2, 2)
    rho2 = np.einsum("aiaj->ij", r)
    cond = np.zeros(len(_PROJECTORS[0]))
    for proj in _PROJECTORS:
        # unnormalised qubit-1 state after outcome proj: p S(m/p) = S(m) + p log p
        m = np.einsum("aibj,nji->nab", r, proj)
        p = (m[:, 0, 0] + m[:, 1, 1]).real
        safe = np.clip(p, 1e-300, None)
        cond += _entropy_2x2(m) + np.where(p > 1e-15, p * np.log2(safe), 0.0)
    return (_entropy(np.linalg.eigvalsh(rho2)) - _entropy(np.linalg.eigvalsh(rho))
            + float(cond.min()))


METRIC_ORACLES = {
    "concurrence": (concurrence, CONC_TOL),
    "linear_entropy": (linear_entropy_q1, LIN_TOL),
    "discord": (discord_q2, DISCORD_TOL),
}


def metric_errors(where, rho, values: dict) -> list:
    """Compare program values with metrics of the state rho."""
    errors = []
    for name, value in values.items():
        if name in METRIC_ORACLES:
            fn, tol = METRIC_ORACLES[name]
            expected = fn(rho)
        elif name in POPS:
            idx = POPS.index(name)
            expected, tol = rho[idx, idx].real, POP_TOL
        else:
            continue
        if not abs(value - expected) <= tol:
            errors.append(f"{where}: {name} = {value!r}, expected {expected:.12g} "
                          f"within {tol:.3g}")
    return errors


# -- CSV ------------------------------------------------------------------------

@dataclass
class Table:
    meta: dict
    header: list
    rows: list

    def column(self, name) -> np.ndarray:
        return np.array([float(r[self.header.index(name)]) for r in self.rows])


def parse_csv(text: str) -> Table:
    meta, header, rows = {}, None, []
    for line in text.splitlines():
        if line.startswith("#"):
            key, sep, value = line[1:].partition(" = ")
            if sep:
                meta[key.strip()] = value.strip()
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return Table(meta, header or [], rows)


def _meta_errors(where, table, cfg, extra=()) -> list:
    errors = []
    expect = {"label": cfg.label}
    for key in ("omega", "coupling", "gamma0", "bath_width", "bath_center",
                "temperature"):
        expect[key] = getattr(cfg.params, key)
    expect.update(extra)
    for key, value in expect.items():
        got = table.meta.get(key)
        if got is None:
            errors.append(f"{where}: metadata {key!r} missing")
        elif isinstance(value, float):
            if float(got) != value:
                errors.append(f"{where}: metadata {key} = {got}, expected {value!r}")
        elif got != value:
            errors.append(f"{where}: metadata {key} = {got}, expected {value}")
    return errors


def _wrote(stdout, names) -> list:
    written = sorted(pathlib.PurePath(w).name
                     for w in re.findall(r"^wrote (.+)$", stdout, re.M))
    return [] if written == sorted(names) else [
        f"stdout names files {written}, expected {sorted(names)}"]


# -- trajectories --------------------------------------------------------------

def _initial_matrix(cfg) -> np.ndarray:
    state = cfg.initial_state
    if not isinstance(state, str):
        return np.asarray(state, dtype=complex)
    ket = {"ket10": 2, "ket01": 1}.get(state)
    if ket is None:
        raise ValueError(f"no independent construction for {state!r}")
    m = np.zeros((4, 4), dtype=complex)
    m[ket, ket] = 1.0
    return m


def trajectory_errors(where, text, cfg, model_name, rng) -> list:
    table = parse_csv(text)
    state = cfg.initial_state if isinstance(cfg.initial_state, str) else "custom"
    errors = _meta_errors(where, table, cfg,
                          {"model": model_name, "initial_state": state})
    cols = [m for m in cfg.metrics if m != "populations"]
    if "populations" in cfg.metrics:
        cols += list(POPS)
    if table.header != ["t"] + cols:
        return errors + [f"{where}: header {table.header}, expected {['t'] + cols}"]
    if len(table.rows) != cfg.n_points:
        return errors + [f"{where}: {len(table.rows)} rows, expected {cfg.n_points}"]
    data = np.array([[float(v) for v in r] for r in table.rows])
    if not np.all(np.isfinite(data)):
        return errors + [f"{where}: non-finite values"]
    t = data[:, 0]
    step = np.diff(t)
    if t[0] != 0.0 or not np.allclose(step, step[0], rtol=1e-9, atol=0) or step[0] <= 0:
        errors.append(f"{where}: time grid is not a uniform grid rising from 0")

    # properties every row must have
    col = {c: data[:, i + 1] for i, c in enumerate(cols)}
    for name, lo, hi in (("concurrence", 0, 1), ("discord", 0, 1),
                         ("linear_entropy", 0, 0.5)):
        if name in col and not np.all((col[name] >= lo - 1e-12)
                                      & (col[name] <= hi + 1e-12)):
            errors.append(f"{where}: {name} leaves [{lo}, {hi}]")
    if "pop_00" in col:
        total = sum(col[p] for p in POPS)
        if np.abs(total - 1).max() > 1e-8 or min(col[p].min() for p in POPS) < -POP_TOL:
            errors.append(f"{where}: populations are not a distribution")

    # seeded rows recomputed from the exact solution of the master equation
    gen = (micro_generator if model_name == "micro" else phenom_generator)(cfg.params)
    rho0 = _initial_matrix(cfg)
    inner = rng.choice(np.arange(1, len(t) - 1), SAMPLED_ROWS - 2, replace=False)
    for i in [0, *sorted(inner.tolist()), len(t) - 1]:
        rho = evolve(gen, rho0, t[i])
        errors += metric_errors(f"{where} row {i}", rho,
                                {c: col[c][i] for c in cols})
    return errors


def _with_points(op, cfg):
    if "--points" not in op.argv:
        return cfg
    return replace(cfg, n_points=int(op.argv[op.argv.index("--points") + 1]))


def _run_configs(op):
    if op.kind == "figure":
        return [_with_points(op, c) for c in workloads.preset_configs(op.detail["number"])]
    return [scenarios.ScenarioConfig(
        params=model.SystemParams(**workloads.GENERAL_PRESETS[op.detail["preset"]]),
        initial_state=op.detail["rho0"], n_points=workloads.GENERAL_POINTS,
        metrics=workloads.GENERAL_METRICS, label=op.detail["label"])]


def figure10_order_errors(cfgs, files) -> list:
    """The isolated qubit's linear entropy rises with temperature in micro
    and falls with it in phenom, early in the run."""
    errors = []
    cfgs = sorted(cfgs, key=lambda c: c.params.temperature)
    for model_name, sign in (("micro", 1), ("phenom", -1)):
        tables = [parse_csv(files[f"{c.label}_{model_name}.csv"]) for c in cfgs]
        t = tables[0].column("t")
        probe = int(np.argmin(np.abs(t - PROBE_FRACTION * t[-1])))
        values = [tab.column("linear_entropy")[probe] for tab in tables]
        if not np.all(sign * np.diff(values) > 0):
            errors.append(f"figure 10 {model_name}: linear entropy at t={t[probe]:.3g} "
                          f"over temperatures {values} is not "
                          f"{'rising' if sign > 0 else 'falling'}")
    return errors


# -- stationary values -----------------------------------------------------------

def stationary_errors(where, cfg, micro: dict, phenom: dict) -> list:
    """Micro tail values against the Gibbs state, phenom ones against the
    kernel of the phenom generator."""
    return (metric_errors(f"{where} micro", gibbs_state(cfg.params), micro)
            + metric_errors(f"{where} phenom",
                            null_state(phenom_generator(cfg.params)), phenom))


def compare_errors(where, text, cfg) -> list:
    table = parse_csv(text)
    errors = _meta_errors(where, table, cfg)
    rows = {r[0]: r[1:] for r in table.rows}
    wanted = [m for m in cfg.metrics if m != "populations"]
    micro, phenom = {}, {}
    for m in wanted:
        if m not in rows:
            errors.append(f"{where}: no row for {m}")
            continue
        mv, pv, rd = (float(v) for v in rows[m])
        micro[m], phenom[m] = mv, pv
        if abs(mv) > 1e-300 and not math.isclose(rd, (pv - mv) / mv, rel_tol=1e-9,
                                                  abs_tol=1e-12):
            errors.append(f"{where}: relative difference {rd} of {m} "
                          f"does not match its columns")
    for flag, expected in (("micro_thermal", "1"), ("phenom_thermal", "0")):
        got = rows.get(flag, ["?"])[0]
        if got != expected:
            errors.append(f"{where}: {flag} = {got}, expected {expected}")
    return errors + stationary_errors(where, cfg, micro, phenom)


def sweep_errors(where, text, stdout, cfg, axis, values) -> list:
    table = parse_csv(text)
    wanted = [m for m in cfg.metrics if m != "populations"]
    header = [axis] + [f"{k}_{m}" for m in wanted
                       for k in ("micro", "phenom", "reldiff")]
    header += ["micro_death_time", "phenom_death_time"]
    if table.header != header:
        return [f"{where}: header {table.header}, expected {header}"]
    if len(table.rows) != len(values):
        return [f"{where}: {len(table.rows)} rows for {len(values)} values"]
    errors = []
    field_name = "coupling" if axis == "lambda" else axis
    for row, value in zip(table.rows, values):
        if float(row[0]) != value:
            errors.append(f"{where}: axis value {row[0]}, expected {value!r}")
        point = replace(cfg, params=replace(cfg.params, **{field_name: value}))
        micro = {m: float(row[header.index(f"micro_{m}")]) for m in wanted}
        phenom = {m: float(row[header.index(f"phenom_{m}")]) for m in wanted}
        errors += stationary_errors(f"{where} {axis}={value:g}", point, micro, phenom)
    for line in ("micro steady state: thermal (detailed balance verified)",
                 "phenom steady state: not thermal"):
        if stdout.count(line) != len(values):
            errors.append(f"{where}: expected {len(values)} report lines "
                          f"{line!r}, found {stdout.count(line)}")
    return errors


def _compare_config(op):
    cfg = scenarios.figure_preset(op.detail["figure"])
    if "temperature" in op.detail:
        t = op.detail["temperature"]
        cfg = replace(cfg, params=replace(cfg.params, temperature=t),
                      label=f"{cfg.label}_T{t:g}")
    return cfg


# -- dispatch ------------------------------------------------------------------------

def check(op, out: Outcome, rng) -> list:
    """All errors found in the output of one succeeded operation."""
    if op.kind == "selftest":
        lines = out.stdout.splitlines()
        if out.rc != 0 or not lines or not all(l.startswith("PASS ") for l in lines):
            return ["selftest: expected exit 0 and only PASS lines"]
        return []
    if op.kind in ("figure", "evolve"):
        cfgs = _run_configs(op)
        names = {f"{c.label}_{m}.csv": (c, m) for c in cfgs for m in c.models}
        if sorted(out.files) != sorted(names):
            return [f"{op.name}: files {sorted(out.files)}, expected {sorted(names)}"]
        errors = _wrote(out.stdout, names)
        for name, (cfg, model_name) in names.items():
            errors += trajectory_errors(name, out.files[name], cfg, model_name, rng)
        if op.kind == "figure" and op.detail["number"] == 10:
            errors += figure10_order_errors(cfgs, out.files)
        return errors
    if op.kind == "compare":
        cfg = _compare_config(op)
        name = f"{cfg.label}_compare.csv"
        if sorted(out.files) != [name]:
            return [f"{op.name}: files {sorted(out.files)}, expected [{name!r}]"]
        return _wrote(out.stdout, [name]) + compare_errors(name, out.files[name], cfg)
    if op.kind == "sweep":
        cfg = _with_points(op, scenarios.figure_preset(op.detail["figure"]))
        name = f"{cfg.label}_sweep_{op.detail['axis']}.csv"
        if sorted(out.files) != [name]:
            return [f"{op.name}: files {sorted(out.files)}, expected [{name!r}]"]
        return _wrote(out.stdout, [name]) + sweep_errors(
            name, out.files[name], out.stdout, cfg, op.detail["axis"],
            op.detail["values"])
    return [f"{op.name}: no check for kind {op.kind!r}"]
