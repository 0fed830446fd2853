import math
from dataclasses import replace

import numpy as np
import pytest

from dressedbath import microscopic, scenarios
from dressedbath.linalg import (EVOLVED_HERM_TOL, EVOLVED_PSD_TOL,
                                EVOLVED_TRACE_TOL)
from dressedbath.model import SystemParams, dressed_frame, rate_set
from dressedbath.scenarios import (MAX_POINTS, ROUTES, CompareReport,
                                   ConfigError, OutOfRange, ScenarioConfig,
                                   compare_report, figure_preset,
                                   initial_state_matrix, parse_config,
                                   run_scenario, sudden_death_time, sweep,
                                   sweep_csv, trajectory_csv, write_trajectory)

FAST = SystemParams(omega=1e3, coupling=1e3, gamma0=20.0, bath_width=1e4,
                    bath_center=2e3, temperature=0.0)


def fast_config(**overrides):
    fields = dict(params=FAST, n_points=60, label="fast")
    fields.update(overrides)
    return ScenarioConfig(**fields)


class TestConfig:
    def test_rejects_too_few_points(self):
        with pytest.raises(ConfigError):
            fast_config(n_points=1)

    def test_rejects_points_beyond_cap(self):
        # at the boundary only: a config allocates nothing, a run would
        assert fast_config(n_points=MAX_POINTS).n_points == MAX_POINTS
        with pytest.raises(ConfigError, match=f"between 2 and {MAX_POINTS},"):
            fast_config(n_points=MAX_POINTS + 1)

    def test_rejects_unknown_metric(self):
        with pytest.raises(ConfigError) as err:
            fast_config(metrics=("concurrence", "purity"))
        assert "purity" in str(err.value)

    def test_rejects_unknown_model(self):
        with pytest.raises(ConfigError):
            fast_config(models=("exact",))

    @pytest.mark.parametrize("label", ["../escaped", "a/b", ".hidden", "",
                                       "two words", "x\\y"])
    def test_rejects_unsafe_label(self, label):
        with pytest.raises(ConfigError, match="not a safe file name"):
            fast_config(label=label)

    @pytest.mark.parametrize("label", [
        "figure8_T0.005", "figure7_coupling1e+10", "figure2_temperature0.0005",
        "figure5_gamma0-1", "gs_full_rank_strong", "fastcli_T0.01", "scenario"])
    def test_accepts_generated_labels(self, label):
        assert fast_config(label=label).label == label

    def test_rejects_bad_tmax(self):
        with pytest.raises(ConfigError):
            fast_config(t_max=-1.0)

    @pytest.mark.parametrize("t_max", [math.inf, math.nan, "inf"])
    def test_rejects_non_finite_tmax(self, t_max):
        with pytest.raises(ConfigError,
                           match="^t_max must be positive and finite or 'auto'$"):
            fast_config(t_max=t_max)

    def test_custom_initial_state_validated(self):
        with pytest.raises(Exception):
            fast_config(initial_state=np.diag([2.0, 0, 0, -1.0]))


class TestParseConfig:
    GOOD = """
    # weakly damped pair
    omega = 1e3
    coupling = 1e3
    gamma0 = 20
    bath_width = 1e4
    bath_center = 2e3
    temperature = 0
    n_points = 60
    metrics = concurrence, linear_entropy
    models = micro, phenom
    t_max = auto
    label = parsed
    """

    def test_round_trip(self):
        cfg = parse_config(self.GOOD)
        assert cfg.params.omega == 1e3
        assert cfg.params.bath_width == 1e4
        assert cfg.n_points == 60
        assert cfg.metrics == ("concurrence", "linear_entropy")
        assert cfg.label == "parsed"

    def test_error_carries_line_number(self):
        text = self.GOOD.replace("gamma0 = 20", "gamma0 = twenty")
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert "line 5" in str(err.value)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError) as err:
            parse_config(self.GOOD + "\nwidth = 3\n")
        assert "width" in str(err.value)

    def test_missing_parameter_reported(self):
        text = "\n".join(line for line in self.GOOD.splitlines()
                         if "omega" not in line or "bath" in line)
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert "omega" in str(err.value)

    def test_base_provides_defaults(self):
        cfg = parse_config("temperature = 0.5\n", base=figure_preset(2))
        assert cfg.params.temperature == 0.5
        assert cfg.params.omega == 4e9

    def test_custom_state(self):
        entries = ["0"] * 16
        entries[0] = "0.5"
        entries[5] = "0.5"
        text = self.GOOD + f"\ninitial_state = custom({', '.join(entries)})\n"
        cfg = parse_config(text)
        assert not isinstance(cfg.initial_state, str)
        assert cfg.initial_state[0, 0] == 0.5


class TestPresets:
    def test_caption_values_frozen(self):
        expected = {
            1: dict(omega=4e8, coupling=4e9, gamma0=5e8, bath_width=5e10,
                    bath_center=8e8, temperature=0.0),
            2: dict(omega=4e9, coupling=4e9, gamma0=5e7, bath_width=5e10,
                    bath_center=8e9, temperature=5e-4),
            3: dict(omega=4e9, coupling=4e9, gamma0=5e7, bath_width=5e10,
                    bath_center=8e9, temperature=1.5e-2),
        }
        expected[4] = dict(expected[2])
        expected[5] = dict(expected[3])
        expected[6] = dict(expected[2])
        expected[7] = dict(expected[3])
        for n, fields in expected.items():
            cfg = figure_preset(n)
            for key, value in fields.items():
                assert getattr(cfg.params, key) == value, (n, key)

    def test_weak_coupling_presets(self):
        for n, gamma0 in ((8, 500.0), (9, 500.0), (10, 5000.0)):
            cfgs = figure_preset(n)
            assert len(cfgs) == 3
            temps = [c.params.temperature for c in cfgs]
            assert temps == [0.005, 0.05, 0.15]
            spans = {c.t_max for c in cfgs}
            assert len(spans) == 1  # common axis across temperatures
            for c in cfgs:
                assert c.params.omega == 5e6
                assert c.params.coupling == 4e4
                assert c.params.gamma0 == gamma0
                assert c.params.bath_width == 5e5
                assert c.params.bath_center == 1e7

    def test_metric_assignment(self):
        assert figure_preset(1).metrics == ("concurrence",)
        assert figure_preset(4).metrics == ("discord",)
        assert figure_preset(10)[0].metrics == ("linear_entropy",)

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            figure_preset(0)
        with pytest.raises(OutOfRange):
            figure_preset(11)


class TestRunScenario:
    def test_two_point_grid_starts_at_initial_metrics(self):
        cfg = fast_config(n_points=2, metrics=("concurrence", "populations"))
        traj = run_scenario(cfg)
        for model in ("micro", "phenom"):
            assert traj.series[model]["concurrence"][0] == pytest.approx(0.0,
                                                                         abs=1e-12)
            assert traj.series[model]["pop_10"][0] == pytest.approx(1.0)

    def test_series_lengths_and_grid(self):
        traj = run_scenario(fast_config())
        assert len(traj.times) == 60
        assert np.all(np.diff(traj.times) > 0)
        for model in ("micro", "phenom"):
            for column in traj.series[model].values():
                assert len(column) == 60

    def test_initial_state_names(self):
        for name in ("ket10", "ket01", "dressed_ground"):
            traj = run_scenario(fast_config(initial_state=name, n_points=2,
                                            metrics=("populations",)))
            assert traj.series["phenom"]["pop_00"][0] >= 0.0

    def test_dressed_ground_is_stationary_for_micro(self):
        cfg = fast_config(initial_state="dressed_ground", n_points=40,
                          metrics=("concurrence",))
        traj = run_scenario(cfg)
        c = traj.series["micro"]["concurrence"]
        assert np.abs(c - c[0]).max() < 1e-9

    def test_models_subset(self):
        traj = run_scenario(fast_config(models=("phenom",)))
        assert set(traj.states) == {"phenom"}

    def test_undamped_run_needs_explicit_span(self):
        params = SystemParams(omega=1e3, coupling=1e3, gamma0=0.0,
                              bath_width=1e4, bath_center=2e3, temperature=0.0)
        with pytest.raises(ConfigError):
            run_scenario(fast_config(params=params))
        traj = run_scenario(fast_config(params=params, t_max=1e-2,
                                        metrics=("concurrence",)))
        # pure exchange oscillations: entanglement comes and goes undamped
        c = traj.series["micro"]["concurrence"]
        assert c.max() > 0.5
        assert abs(traj.series["micro"]["concurrence"][0]) < 1e-12


class TestSnapshotLayer:
    def test_every_micro_snapshot_takes_matrix_route(self):
        from dressedbath import metrics, microscopic
        from dressedbath.model import dressed_frame, rate_set
        frame = dressed_frame(FAST)
        rates = rate_set(FAST, frame)
        u = frame.unitary
        # a decaying ground-top dressed coherence: the dressed closed form
        # holds only on the later snapshots, the matrix route on all of them
        dressed0 = np.diag([0.4, 0.2, 0.2, 0.2]).astype(complex)
        dressed0[0, 3] = dressed0[3, 0] = 0.2
        for initial_state in (u @ dressed0 @ u.conj().T, "ket10"):
            cfg = fast_config(initial_state=initial_state, t_max=5.0,
                              metrics=("concurrence", "discord", "linear_entropy"))
            traj = run_scenario(cfg)
            for model in ("micro", "phenom"):
                assert np.all(traj.routes[model] == ROUTES.index("matrix_x"))
            rho0 = initial_state_matrix(cfg, frame)
            dressed = microscopic.propagate_analytic(
                u.conj().T @ rho0 @ u, rates, frame, traj.times)
            oracle, held = metrics.x_elements_from_dressed(dressed, frame)
            if isinstance(initial_state, str):
                assert held.all()
            else:
                assert 0 < held.sum() < len(held)
        # from |1,0>, as in the reference figures, the dressed closed form
        # is the oracle of every micro snapshot's X elements
        x, ok = metrics.x_elements_from_matrix(traj.states["micro"])
        assert ok.all()
        for name in ("p00", "p01", "p10", "p11", "outer", "inner"):
            dev = np.abs(getattr(x, name) - getattr(oracle, name)).max()
            assert dev <= 1e-12, name

    def test_non_x_state_takes_general_route(self, rng):
        from conftest import random_density
        traj = run_scenario(fast_config(initial_state=random_density(rng),
                                        n_points=20,
                                        metrics=("concurrence", "linear_entropy")))
        for model in ("micro", "phenom"):
            assert traj.routes[model][0] == ROUTES.index("general")

    def test_margins_are_worst_snapshot_values(self):
        traj = run_scenario(fast_config(n_points=200))
        for model, states in traj.states.items():
            herm = [np.abs(m - m.conj().T).max() for m in states]
            trace = [abs(np.trace(m).real - 1.0) + abs(np.trace(m).imag)
                     for m in states]
            neg = [-np.linalg.eigvalsh(0.5 * (m + m.conj().T))[0] for m in states]
            margins = traj.margins[model]
            assert margins.hermiticity == max(herm)
            assert margins.trace == max(trace)
            # X-shaped snapshots get their spectrum in closed form, which
            # agrees with LAPACK to rounding
            eps = np.finfo(float).eps
            assert margins.positivity == pytest.approx(max(neg), rel=0, abs=4 * eps)
            assert margins.hermiticity <= EVOLVED_HERM_TOL
            assert margins.trace <= EVOLVED_TRACE_TOL
            assert margins.positivity <= EVOLVED_PSD_TOL


def _einsum_to_computational(u, dressed):
    """The dense basis change that ``DressedFrame.to_computational``
    replaces, for one matrix or an ``(n, 4, 4)`` stack."""
    if dressed.ndim == 2:
        return np.einsum('ij,jk,lk->il', u, dressed, u.conj())
    return np.einsum('ij,tjk,lk->til', u, dressed, u.conj())


def _bits(a):
    return a.view(np.int64)


def preset_configs():
    for n in range(1, 11):
        preset = figure_preset(n)
        yield from preset if isinstance(preset, list) else [preset]


class TestBasisChange:
    def test_bit_equal_to_einsum_on_presets(self):
        cfgs = list(preset_configs())
        assert len(cfgs) == 16
        for cfg in cfgs:
            frame = dressed_frame(cfg.params)
            rates = rate_set(cfg.params, frame)
            times = np.linspace(0.0, scenarios.resolve_t_max(cfg, rates),
                                cfg.n_points)
            rho0 = initial_state_matrix(cfg, frame)
            dressed = microscopic.propagate_analytic(frame.to_dressed(rho0),
                                                     rates, frame, times)
            np.testing.assert_array_equal(
                _bits(frame.to_computational(dressed)),
                _bits(_einsum_to_computational(frame.unitary, dressed)))
            stationary = microscopic.steady_state(rates)
            np.testing.assert_array_equal(
                _bits(frame.to_computational(stationary)),
                _bits(_einsum_to_computational(frame.unitary, stationary)))

    @staticmethod
    def random_stacks(n_stacks=60, n=40, decades=300):
        """Seeded complex non-X stacks spanning magnitudes 1e-decades ..
        1e+decades, with exact zeros and signed zeros, each with a preset's
        frame."""
        rng = np.random.default_rng(8)
        frames = [dressed_frame(c.params) for c in preset_configs()]
        frames.append(dressed_frame(replace(FAST, coupling=0.0)))
        for trial in range(n_stacks):
            parts = (rng.standard_normal((2, n, 4, 4))
                     * 10.0 ** rng.uniform(-decades, decades, (2, n, 4, 4)))
            d = parts[0] + 1j * parts[1]
            d[rng.random((n, 4, 4)) < 0.2] = 0.0
            d[rng.random((n, 4, 4)) < 0.1] = complex(-0.0, -0.0)
            d.real[rng.random((n, 4, 4)) < 0.1] = -0.0
            d.imag[rng.random((n, 4, 4)) < 0.1] = -0.0
            yield frames[trial % len(frames)], d

    def test_bit_equal_to_einsum_on_random_stacks(self):
        for frame, d in self.random_stacks():
            assert d[:, 0, 1].any()  # not X-shaped
            with np.errstate(over="ignore", invalid="ignore"):
                fast = frame.to_computational(d)
                dense = _einsum_to_computational(frame.unitary, d)
                singles = [frame.to_computational(m) for m in d[:5]]
                dense_singles = [_einsum_to_computational(frame.unitary, m)
                                 for m in d[:5]]
            np.testing.assert_array_equal(_bits(fast), _bits(dense))
            np.testing.assert_array_equal(_bits(np.array(singles)),
                                          _bits(np.array(dense_singles)))

    def test_same_snapshots_non_finite(self):
        rng = np.random.default_rng(9)
        # magnitudes that cannot overflow, so the planted entries decide
        for frame, d in self.random_stacks(n_stacks=20, decades=10):
            for value in (np.inf, -np.inf, np.nan, complex(0.0, np.inf)):
                hit = rng.random((len(d), 4, 4)) < 0.02
                d[hit] = value
            with np.errstate(over="ignore", invalid="ignore"):
                fast = frame.to_computational(d)
                dense = _einsum_to_computational(frame.unitary, d)
            flagged = ~np.isfinite(fast).all(axis=(1, 2))
            assert 0 < flagged.sum() < len(d)
            np.testing.assert_array_equal(
                flagged, ~np.isfinite(dense).all(axis=(1, 2)))


def test_micro_span_past_the_phase_range_ends_stationary():
    cfg = replace(figure_preset(2), t_max=1e300, models=("micro",))
    traj = run_scenario(cfg)
    frame = dressed_frame(cfg.params)
    stationary = frame.to_computational(
        microscopic.steady_state(rate_set(cfg.params, frame)))
    assert np.abs(traj.states["micro"][-1] - stationary).max() < 1e-12


def _per_row_csv_rows(traj, model, cols):
    """The row-at-a-time formatting that ``trajectory_csv`` replaces."""
    row_fmt = ",".join(["%.17g"] * (1 + len(cols)))
    table = np.column_stack([traj.times] + [traj.series[model][c] for c in cols])
    return [row_fmt % tuple(row) for row in table.tolist()]


class TestCsv:
    def test_column_text_equals_per_row_formatting(self):
        traj = run_scenario(fast_config(n_points=12, metrics=(
            "concurrence", "linear_entropy", "populations")))
        special = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324,
                            -2.2250738585072014e-308 / 3, 1e-300, -1e300,
                            0.1, 1.0 / 3.0, 2.0 ** 60])
        cols = ["concurrence", "linear_entropy",
                "pop_00", "pop_01", "pop_10", "pop_11"]
        series = {m: {c: np.roll(special, k + 3 * i) for k, c in enumerate(cols)}
                  for i, m in enumerate(("micro", "phenom"))}
        traj = replace(traj, times=special[::-1].copy(), series=series)
        for model in ("micro", "phenom"):
            lines = trajectory_csv(traj, model).splitlines()
            header = lines.index("t," + ",".join(cols))
            assert lines[header + 1:] == _per_row_csv_rows(traj, model, cols)

    def test_time_column_formatted_once_per_trajectory(self, monkeypatch):
        traj = run_scenario(fast_config(metrics=("concurrence",)))
        calls = []
        real = scenarios._column_text
        monkeypatch.setattr(scenarios, "_column_text",
                            lambda col: calls.append(col) or real(col))
        micro = trajectory_csv(traj, "micro")
        phenom = trajectory_csv(traj, "phenom")
        # t and concurrence for micro, then concurrence alone for phenom
        assert len(calls) == 3
        assert calls[0] is traj.times

        def t_column(text):
            return [line.split(",")[0] for line in text.splitlines()
                    if not line.startswith("#")]
        assert t_column(micro) == t_column(phenom)

    def test_deterministic_bytes(self, tmp_path):
        cfg = fast_config()
        a = trajectory_csv(run_scenario(cfg), "micro")
        b = trajectory_csv(run_scenario(cfg), "micro")
        assert a == b

    def test_file_layout(self, tmp_path):
        cfg = fast_config(metrics=("concurrence",))
        paths = write_trajectory(run_scenario(cfg), tmp_path)
        assert sorted(p.name for p in paths) == ["fast_micro.csv",
                                                 "fast_phenom.csv"]
        lines = paths[0].read_text().splitlines()
        header = [line for line in lines if not line.startswith("#")][0]
        assert header == "t,concurrence"
        data = [line for line in lines if not line.startswith("#")][1:]
        assert len(data) == 60
        assert any("fairness" not in line and line.startswith("#")
                   for line in lines)

    def test_metadata_records_parameters(self):
        text = trajectory_csv(run_scenario(fast_config()), "phenom")
        assert "# omega = 1000" in text
        assert "# model = phenom" in text


class TestCompare:
    def test_report_structure(self):
        rep = compare_report(fast_config(metrics=("concurrence",
                                                  "linear_entropy")))
        assert isinstance(rep, CompareReport)
        assert set(rep.relative_diff) == {"concurrence", "linear_entropy"}
        assert rep.micro_thermal
        assert not rep.phenom_thermal
        text = rep.text()
        assert "stationary concurrence" in text
        assert "not thermal" in text

    def test_stationary_value_matches_closed_forms(self):
        from dressedbath.model import hamiltonian

        # FAST is at T = 0, so the micro plateau is the Hamiltonian's ground
        # state a|00> + b|01> + c|10> + d|11>, of concurrence 2|ad - bc|
        cfg = fast_config(metrics=("concurrence",))
        rep = compare_report(cfg)
        a, b, c, d = np.linalg.eigh(hamiltonian(FAST))[1][:, 0]
        expected = 2.0 * abs(a * d - b * c)
        assert expected > 0.1
        assert rep.stationary["micro"]["concurrence"] == pytest.approx(
            expected, abs=1e-9)

    def test_sudden_death_detector(self):
        times = np.linspace(0.0, 1.0, 11)
        series = np.array([0.5, 0.4, 0.0, 0.3, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        assert sudden_death_time(times, series) == pytest.approx(times[4])
        alive = np.full(11, 0.2)
        assert sudden_death_time(times, alive) is None

    @staticmethod
    def loop_death_time(times, series, threshold=1e-12, run=5):
        count = 0
        for i, v in enumerate(series):
            count = count + 1 if v <= threshold else 0
            if count >= run:
                return float(times[i - run + 1])
        return None

    def test_sudden_death_matches_point_loop(self, rng):
        n = 40
        times = np.sort(rng.uniform(0.0, 1.0, n))
        cases = [np.zeros(n), np.full(n, 0.3)]
        ending = np.full(n, 0.3)
        ending[-5:] = 0.0                           # a run ending at the last point
        exact = np.full(n, 0.3)
        exact[10:15] = 1e-12                        # exactly `run` points
        short = np.full(n, 0.3)
        short[10:14] = short[20:24] = 0.0           # runs one point short
        cases += [ending, exact, short, ending[:4], ending[:0]]
        for _ in range(300):
            series = rng.uniform(0.0, 1.0, n)
            series[rng.uniform(size=n) < rng.uniform(0.3, 0.95)] = 0.0
            cases.append(series)
        found = set()
        for series in cases:
            for run in (1, 3, 5):
                got = sudden_death_time(times, series, run=run)
                expected = self.loop_death_time(times, series, run=run)
                assert got == expected and type(got) is type(expected)
                found.add(got is None)
        assert found == {True, False}
        assert sudden_death_time(times, ending) == times[-5]
        assert sudden_death_time(times, exact) == times[10]
        assert sudden_death_time(times, short) is None


class TestSweep:
    def test_empty_values_rejected(self):
        with pytest.raises(ConfigError):
            sweep(fast_config(), "temperature", [])

    def test_unknown_axis_rejected(self):
        with pytest.raises(ConfigError):
            sweep(fast_config(), "detuning", [1.0])

    def test_single_value_equals_compare(self):
        cfg = fast_config(metrics=("concurrence",))
        reports = sweep(cfg, "temperature", [0.0])
        single = compare_report(cfg)
        assert reports[0].stationary == single.stationary

    def test_uncoupled_sweep_kills_entanglement(self):
        cfg = fast_config(metrics=("concurrence",))
        reports = sweep(cfg, "lambda", [0.0])
        assert reports[0].stationary["micro"]["concurrence"] <= 1e-12
        assert reports[0].stationary["phenom"]["concurrence"] <= 1e-12

    def test_csv_rows(self):
        cfg = fast_config(metrics=("concurrence",))
        values = [0.0, 0.01]
        reports = sweep(cfg, "temperature", values)
        text = sweep_csv(cfg, "temperature", values, reports)
        rows = [line for line in text.splitlines() if not line.startswith("#")]
        assert rows[0].startswith("temperature,micro_concurrence")
        assert len(rows) == 3
