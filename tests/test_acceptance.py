"""Acceptance suite: the quantitative claims the build must reproduce.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all).
Tolerances are fixed here, not tuned at runtime.
"""

import math
import time

import numpy as np

from dressedbath import integrate
from dressedbath import metrics as mx
from dressedbath import microscopic as mic
from dressedbath import phenomenological as ph
from dressedbath import scenarios
from dressedbath.linalg import as_matrices, columns, validate_eigs
from dressedbath.model import KB_OVER_HBAR, SystemParams, dressed_frame, rate_set
from dressedbath.scenarios import compare_report, figure_preset, run_scenario

from conftest import (EVOLVED, discord_oracle_q2, dressed_matrices, random_x_state,
                      run_stacks)


def ket10():
    rho = np.zeros((4, 4), dtype=complex)
    rho[2, 2] = 1.0
    return rho


def report(number, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def channel_sums(rates):
    return (rates.decay_low + rates.excitation_low,
            rates.decay_high + rates.excitation_high)


def test_criterion_1_solver_cross_validation():
    """Closed-form propagation equals the integrated first-principles
    generator on every strong-coupling preset, within 1e-7 and 10 s."""
    worst_dev, worst_time = 0.0, 0.0
    for n in range(1, 8):
        cfg = figure_preset(n)
        frame = dressed_frame(cfg.params)
        rates = rate_set(cfg.params, frame)
        start = time.perf_counter()
        span = scenarios.resolve_t_max(cfg, rates)
        times = np.linspace(0.0, span, 2000)
        rho0 = frame.unitary.conj().T @ ket10() @ frame.unitary
        analytic = mic.propagate_analytic(rho0, rates, frame, times)
        numeric = integrate.propagate(mic.liouvillian(rates, frame), rho0, times)
        elapsed = time.perf_counter() - start
        worst_dev = max(worst_dev, np.abs(analytic - numeric).max())
        worst_time = max(worst_time, elapsed)
    report(1, worst_dev <= 1e-7 and worst_time < 10.0,
           f"max deviation {worst_dev:.2e} (tol 1e-7), "
           f"slowest preset {worst_time:.2f}s (limit 10s)")


def test_criterion_2_thermal_steady_state():
    """Stationary dressed populations obey detailed balance to 1e-10."""
    worst = 0.0
    for temperature in (5e-4, 1.5e-2):
        p = SystemParams(omega=4e9, coupling=4e9, gamma0=5e7, bath_width=5e10,
                         bath_center=8e9, temperature=temperature)
        frame = dressed_frame(p)
        pops = np.diag(mic.steady_state(rate_set(p, frame))).real
        beta = 1.0 / (KB_OVER_HBAR * temperature)
        for k, freq in ((1, frame.bohr_low), (2, frame.bohr_high),
                        (3, frame.bohr_low + frame.bohr_high)):
            expected = math.exp(-beta * freq)
            worst = max(worst, abs(pops[k] / pops[0] - expected) / expected)
    report(2, worst <= 1e-10,
           f"worst detailed-balance ratio deviation {worst:.2e} (tol 1e-10)")


def test_criterion_3_phenom_steady_state_not_thermal():
    """Long-time integration reaches the closed-form stationary state, whose
    dressed-basis coherences stay well above the thermal-state level."""
    cfg = figure_preset(2)
    p = cfg.params
    frame = dressed_frame(p)
    rates = rate_set(p, frame)
    span = 50.0 / (rates.emission_bare + rates.absorption_bare)
    traj = as_matrices(ph.propagate(ket10(), p, rates, np.linspace(0.0, span, 500)))
    closed = ph.steady_state(p, rates)
    integ_dev = np.abs(traj[-1] - closed).max()

    rewrite = ph.steady_state_dressed(p, rates, frame)
    floor = 1e-4 * np.diag(closed).real.max()
    ground_top = abs(rewrite[0, 3])
    antisym_sym = abs(rewrite[1, 2])
    ok = (integ_dev <= 1e-6 and ground_top > floor and antisym_sym > floor)
    report(3, ok,
           f"integration vs closed form {integ_dev:.2e} (tol 1e-6); dressed "
           f"coherences {ground_top:.2e}/{antisym_sym:.2e} above {floor:.2e}")


def test_criterion_4_very_strong_coupling_stationary_concurrence():
    rep = compare_report(figure_preset(1))
    micro = rep.stationary["micro"]["concurrence"]
    phenom = rep.stationary["phenom"]["concurrence"]
    ok = abs(micro - 0.9806) <= 0.005 and phenom <= 1e-3
    report(4, ok, f"micro stationary concurrence {micro:.6f} "
                  f"(target 0.9806 +- 0.005), phenom {phenom:.2e} (<= 1e-3)")


def test_criterion_5_stationary_discrepancy_percentages():
    targets = {2: ("concurrence", -0.33), 3: ("concurrence", -0.51),
               4: ("discord", -0.42), 5: ("discord", +0.20)}
    rows, ok = [], True
    for n, (metric, target) in targets.items():
        rep = compare_report(figure_preset(n))
        got = rep.relative_diff[metric]
        ok = ok and abs(got - target) <= 0.05
        rows.append(f"fig{n} {metric} {100 * got:+.1f}% "
                    f"(target {100 * target:+.0f}% +- 5)")
    report(5, ok, "; ".join(rows))


def _weak_series(figure_number):
    runs = {}
    for cfg in figure_preset(figure_number):
        traj = run_scenario(cfg)
        runs[cfg.params.temperature] = traj
    return runs


def _sustained_zero(series, upto=None):
    count = 0
    stop = len(series) if upto is None else upto
    for i in range(stop):
        count = count + 1 if series[i] <= 1e-12 else 0
        if count >= 5:
            return i - 4
    return None


def test_criterion_6_weak_coupling_claims():
    # (a) entanglement sudden death at the two higher temperatures
    fig8 = _weak_series(8)
    death_ok, details = True, []
    for temperature in (0.05, 0.15):
        traj = fig8[temperature]
        for model in ("micro", "phenom"):
            series = traj.series[model]["concurrence"]
            idx = _sustained_zero(series)
            lived = series.max() > 1e-3
            dead_after = idx is not None and np.all(series[idx:] <= 1e-12)
            death_ok = death_ok and lived and dead_after
            if idx is not None:
                details.append(f"{model}@{temperature:g}K t={traj.times[idx]:.2e}")

    # (b) discord keeps oscillating instead of dying
    fig9 = _weak_series(9)
    discord_ok = True
    for temperature, traj in fig9.items():
        for model in ("micro", "phenom"):
            series = traj.series[model]["discord"]
            envelope = np.maximum.accumulate(np.abs(series)[::-1])[::-1]
            alive = np.nonzero(envelope >= 1e-3)[0]
            cut = alive[-1] + 1 if len(alive) else 0
            seg = series[:cut]
            maxima = np.sum((seg[1:-1] > seg[:-2]) & (seg[1:-1] > seg[2:])
                            & (seg[1:-1] > 1e-3))
            discord_ok = (discord_ok and _sustained_zero(series, cut) is None
                          and maxima >= 2)

    # (c) opposite temperature ordering of the qubit-1 mixedness
    fig10 = _weak_series(10)
    temps = sorted(fig10)
    n_quarter = len(fig10[temps[0]].times) // 4
    s_m = {t: fig10[t].series["micro"]["linear_entropy"] for t in temps}
    s_p = {t: fig10[t].series["phenom"]["linear_entropy"] for t in temps}
    probes = [i for i in range(1, n_quarter)
              if s_m[temps[0]][i] < s_m[temps[1]][i] < s_m[temps[2]][i]
              and s_p[temps[0]][i] > s_p[temps[1]][i] > s_p[temps[2]][i]]
    ordering_ok = len(probes) > 0
    probe_txt = (f"probe t={fig10[temps[0]].times[probes[len(probes) // 2]]:.2e}s"
                 if ordering_ok else "no probe found")

    # (d) every run ends maximally mixed
    asym_ok, worst_asym = True, 0.0
    for temperature, traj in fig10.items():
        for model in ("micro", "phenom"):
            final = traj.series[model]["linear_entropy"][-1]
            worst_asym = max(worst_asym, abs(final - 0.5))
    asym_ok = worst_asym <= 1e-3

    ok = death_ok and discord_ok and ordering_ok and asym_ok
    report(6, ok,
           f"sudden death [{', '.join(details)}]; discord oscillates with no "
           f"sustained zero; opposite mixedness ordering at {probe_txt}; "
           f"final linear entropy within {worst_asym:.1e} of 0.5")


def test_criterion_7_metric_property_suites():
    rng = np.random.default_rng(7041776)
    conc_dev = 0.0
    for _ in range(1000):
        x = random_x_state(rng)
        conc_dev = max(conc_dev, abs(mx.concurrence_x(x)
                                     - mx.concurrence_general(x.matrix())))

    from dressedbath.linalg import hermitian_eigs

    spectrum_dev = 0.0
    for _ in range(200):
        x = random_x_state(rng)
        closed = np.sort(mx._x_spectrum(x))
        evals, _ = hermitian_eigs(x.matrix())
        spectrum_dev = max(spectrum_dev, np.abs(closed - evals).max())

    discord_dev = 0.0
    for _ in range(200):
        x = random_x_state(rng)
        discord_dev = max(discord_dev,
                          abs(mx.discord_approx_q2(x)
                              - discord_oracle_q2(x.matrix(), 256)))

    snapshots = 0
    for cfg in (figure_preset(2), figure_preset(8)[1]):
        for stack in run_stacks(cfg).values():
            for snapshot in as_matrices(stack):
                validate_eigs(columns(snapshot[None]), **EVOLVED)
                snapshots += 1

    # conc_dev measured 8.3e-15
    ok = conc_dev <= 1e-13 and spectrum_dev <= 1e-10 and discord_dev <= 0.02
    report(7, ok,
           f"concurrence forms within {conc_dev:.1e} (tol 1e-13); X spectrum "
           f"within {spectrum_dev:.1e} (tol 1e-10); discord approx within "
           f"{discord_dev:.3f} of grid oracle (tol 0.02); "
           f"{snapshots} snapshots validated")


def test_criterion_8_zero_temperature_ground_state_relaxation():
    cfg = figure_preset(1)
    frame = dressed_frame(cfg.params)
    rates = rate_set(cfg.params, frame)
    slow = min(channel_sums(rates))
    rho0 = frame.unitary.conj().T @ ket10() @ frame.unitary
    final = dressed_matrices(rho0, rates, frame, 25.0 / slow)[0]
    fidelity = final[0, 0].real
    report(8, fidelity >= 1 - 1e-6,
           f"ground-state fidelity {fidelity:.10f} (>= 1 - 1e-6)")
