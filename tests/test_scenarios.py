import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import (bits, dressed_matrices, g17_texts, golden_general_configs,
                      run_stacks, set_key, to_computational)
from dressedbath import microscopic, scenarios
from dressedbath.linalg import (EVOLVED_PSD_TOL, EVOLVED_TRACE_TOL, ROUNDING_TOL,
                                as_matrices, columns)
from dressedbath.model import SystemParams, dressed_frame, rate_set
from dressedbath.cli import main
from dressedbath.scenarios import (MAX_POINTS, MODELS, ROUTES,
                                   STATIONARY_METRICS, CompareReport,
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

    @pytest.mark.parametrize("key, value, message", [
        ("metrics", "concurrence, linear_entropy, concurrence",
         "metric 'concurrence' is listed twice"),
        ("models", "micro, micro", "model 'micro' is listed twice")])
    def test_repeated_name_rejected(self, key, value, message):
        with pytest.raises(ConfigError) as err:
            parse_config(set_key(self.GOOD, key, value))
        assert str(err.value) == message

    CUSTOM = "custom(" + ", ".join("0.5" if k in (0, 5) else "0" for k in range(16)) + ")"

    @pytest.mark.parametrize("first, second, message", [
        ("omega = 1e9", "", "line 15: 'omega' is already set on line 3"),
        ("initial_state = ket01", f"initial_state = {CUSTOM}",
         "line 16: 'initial_state' is already set on line 15"),
        (f"initial_state = {CUSTOM}", "initial_state = ket01",
         "line 16: 'initial_state' is already set on line 15")],
        ids=["float_key", "named_then_custom", "custom_then_named"])
    def test_repeated_key_rejected(self, first, second, message):
        with pytest.raises(ConfigError) as err:
            parse_config(f"{self.GOOD}\n{first}\n{second}\n")
        assert str(err.value) == message

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
        assert set(traj.series) == set(traj.margins) == set(traj.routes) == {"phenom"}

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
        from dressedbath import metrics
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
            dressed = dressed_matrices(u.conj().T @ rho0 @ u, rates, frame, traj.times)
            oracle, held = metrics.x_elements_from_dressed(dressed, frame)
            if isinstance(initial_state, str):
                assert held.all()
            else:
                assert 0 < held.sum() < len(held)
        # from |1,0>, as in the reference figures, the dressed closed form
        # is the oracle of every micro snapshot's X elements
        x = metrics.x_elements_from_matrix(as_matrices(run_stacks(cfg)["micro"]))
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
        cfg = fast_config(n_points=200)
        traj = run_scenario(cfg)
        for model, stack in run_stacks(cfg).items():
            states = as_matrices(stack)
            trace = [abs(np.trace(m).real - 1.0) for m in states]
            neg = [-np.linalg.eigvalsh(m)[0] for m in states]
            margins = traj.margins[model]
            assert margins.trace == max(trace)
            # X-shaped snapshots get their spectrum in closed form, which
            # agrees with LAPACK to rounding
            eps = np.finfo(float).eps
            assert margins.positivity == pytest.approx(max(neg), rel=0, abs=4 * eps)
            assert margins.trace <= EVOLVED_TRACE_TOL
            assert margins.positivity <= EVOLVED_PSD_TOL


def _einsum_to_computational(u, dressed):
    """The dense basis change ``U d U^dagger`` of the Hermitian matrices
    that the coordinates of ``dressed`` carry, for one matrix or an
    ``(n, 4, 4)`` stack, and the size of the terms each entry sums."""
    d = as_matrices(columns(dressed).reshape(-1, 16))
    dense = np.einsum('ij,tjk,lk->til', u, d, u.conj())
    scale = np.einsum('ij,tjk,lk->til', np.abs(u), np.abs(d), np.abs(u))
    return dense.reshape(dressed.shape), scale.reshape(dressed.shape)


def assert_rounding_of_einsum(frame, d):
    """``to_computational`` is the einsum to rounding: within
    ``ROUNDING_TOL`` times the size of the terms each entry sums."""
    dense, scale = _einsum_to_computational(frame.unitary, d)
    fast = to_computational(frame, d)
    assert (np.abs(fast - dense) <= ROUNDING_TOL * scale).all()


def preset_configs():
    for n in range(1, 11):
        preset = figure_preset(n)
        yield from preset if isinstance(preset, list) else [preset]


class TestBasisChange:
    """The basis change sums the real map of ``U . U^T`` over the
    coordinates; the complex einsum on the matrices sums other terms in
    another order, so the two agree to rounding."""

    def test_einsum_to_rounding_on_presets(self):
        cfgs = list(preset_configs())
        assert len(cfgs) == 16
        for cfg in cfgs:
            frame = dressed_frame(cfg.params)
            rates = rate_set(cfg.params, frame)
            times = np.linspace(0.0, scenarios.resolve_t_max(cfg, rates),
                                cfg.n_points)
            rho0 = initial_state_matrix(cfg, frame)
            assert_rounding_of_einsum(
                frame, dressed_matrices(frame.to_dressed(rho0), rates, frame, times))
            assert_rounding_of_einsum(frame, microscopic.steady_state(rates))

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

    def test_einsum_to_rounding_on_random_stacks(self):
        for frame, d in self.random_stacks():
            assert d[:, 0, 1].any()  # not X-shaped
            assert_rounding_of_einsum(frame, d)
            singles = np.array([to_computational(frame, m) for m in d[:5]])
            np.testing.assert_array_equal(bits(singles), bits(to_computational(frame, d[:5])))

    def test_same_snapshots_non_finite(self):
        rng = np.random.default_rng(9)
        # magnitudes that cannot overflow, so the planted entries decide
        for frame, d in self.random_stacks(n_stacks=20, decades=10):
            for value in (np.inf, -np.inf, np.nan, complex(0.0, np.inf)):
                hit = rng.random((len(d), 4, 4)) < 0.02
                d[hit] = value
            with np.errstate(over="ignore", invalid="ignore"):
                fast = to_computational(frame, d)
                dense = _einsum_to_computational(frame.unitary, d)[0]
            flagged = ~np.isfinite(fast).all(axis=(1, 2))
            assert 0 < flagged.sum() < len(d)
            np.testing.assert_array_equal(
                flagged, ~np.isfinite(dense).all(axis=(1, 2)))


def test_micro_span_past_the_phase_range_ends_stationary():
    cfg = replace(figure_preset(2), t_max=1e300, models=("micro",))
    frame = dressed_frame(cfg.params)
    stationary = to_computational(
        frame, microscopic.steady_state(rate_set(cfg.params, frame)))
    final = as_matrices(run_stacks(cfg)["micro"])[-1]
    assert np.abs(final - stationary).max() < 1e-12


def _per_row_csv_rows(traj, model, cols):
    """The row-at-a-time formatting that ``trajectory_csv`` replaces."""
    row_fmt = ",".join(["%.17g"] * (1 + len(cols)))
    table = np.column_stack([traj.times] + [traj.series[model][c] for c in cols])
    return [row_fmt % tuple(row) for row in table.tolist()]


def parent_column_text(column):
    """A CSV column's text as it was formatted one value per call."""
    return list(map("%.17g".__mod__, column.tolist()))


SPECIAL_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
                  2.2250738585072014e-308, 1e300, -1e300, 1e-300,
                  1.7976931348623157e308, np.inf, -np.inf, np.nan, 0.1,
                  1.0 / 3.0, -2.0 ** 60, 1e16, 123456789012345678.0]


def parent_trajectory_csv(traj, model):
    """``trajectory_csv`` as it formatted and joined one row at a time."""
    cols = list(traj.series[model])
    lines = scenarios._meta_lines(traj.config, traj.fairness_lines,
                                  (f"model = {model}",))
    lines.append(",".join(["t"] + cols))
    lines += _per_row_csv_rows(traj, model, cols)
    return "\n".join(lines) + "\n"


def preset_configs():
    """The sixteen scenario configurations of ``figure 1`` .. ``figure 10``."""
    for n in range(1, 11):
        preset = figure_preset(n)
        yield from preset if isinstance(preset, list) else [preset]


def t_column(text):
    return [line.split(",")[0] for line in text.splitlines()
            if not line.startswith("#")][1:]


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

    def test_columns_follow_the_metrics_with_populations_last(self):
        traj = run_scenario(fast_config(n_points=3, metrics=(
            "populations", "linear_entropy", "concurrence")))
        cols = ["linear_entropy", "concurrence", "pop_00", "pop_01", "pop_10", "pop_11"]
        for model in ("micro", "phenom"):
            assert list(traj.series[model]) == cols
            assert "t," + ",".join(cols) in trajectory_csv(traj, model).splitlines()

    def test_time_column_formatted_once_per_trajectory(self, monkeypatch):
        traj = run_scenario(fast_config(metrics=("concurrence",)))
        calls = []
        real = scenarios.g17_slots
        monkeypatch.setattr(scenarios, "g17_slots",
                            lambda values: calls.append(values) or real(values))
        micro = trajectory_csv(traj, "micro")
        phenom = trajectory_csv(traj, "phenom")
        # the grid once for both files, then one table of the metric column
        # per file
        assert [values is traj.times for values in calls] == [True, False, False]
        assert [np.shape(values) for values in calls[1:]] == [(1, len(traj.times))] * 2
        assert t_column(micro) == t_column(phenom) == parent_column_text(traj.times)

    @pytest.mark.parametrize("n", [1, 2, 150, 2000])
    def test_column_text_is_the_per_value_text(self, n):
        """Every value of a column, ``t`` or metric, reads as ``"%.17g" % x``."""
        special = SPECIAL_VALUES
        rng = np.random.default_rng(n)
        pool = np.concatenate([special, rng.normal(size=50),
                               10.0 ** rng.uniform(-320, 308, size=50)])
        column = rng.choice(pool, size=n)
        column[: min(n, len(special))] = special[:n]
        text = parent_column_text(column)
        assert g17_texts(column) == text
        assert g17_texts(np.stack([column[::-1], column])) == text[::-1] + text

    def test_column_text_of_every_preset_time_grid(self):
        for cfg in preset_configs():
            t_max = scenarios.resolve_t_max(cfg, rate_set(cfg.params))
            times = np.linspace(0.0, t_max, cfg.n_points)
            assert g17_texts(times) == parent_column_text(times)

    def test_presets_and_general_runs_are_the_row_join_bytes(self):
        """All ten figures and the four non-X golden runs: the column-wise
        CSV text is the row-at-a-time text, byte for byte."""
        configs = list(preset_configs()) + golden_general_configs()
        assert len(configs) == 20
        for cfg in configs:
            traj = run_scenario(cfg)
            for model in cfg.models:
                assert trajectory_csv(traj, model) == parent_trajectory_csv(traj, model)

    @pytest.mark.parametrize("values", [1, 7, 64])
    def test_row_blocks_join_to_the_row_join_bytes(self, values, monkeypatch):
        """A table written in blocks of rows, the last one short, is the
        table written at once."""
        monkeypatch.setattr(scenarios, "_CSV_VALUES", values)
        for metrics in (("concurrence",), scenarios.METRICS, ()):
            traj = run_scenario(fast_config(n_points=61, metrics=metrics))
            for model in MODELS:
                assert trajectory_csv(traj, model) == parent_trajectory_csv(traj, model)

    def test_figure_9_formats_its_shared_time_axis_once(self, tmp_path,
                                                        monkeypatch):
        calls = []
        real = scenarios.g17_slots
        monkeypatch.setattr(scenarios, "g17_slots",
                            lambda values: calls.append(values) or real(values))
        assert main(["figure", "9", "--out", str(tmp_path)]) == 0
        files = sorted(tmp_path.glob("*.csv"))
        assert len(files) == 6
        cfg = figure_preset(9)[0]
        grid = np.linspace(0.0, cfg.t_max, cfg.n_points)
        expected = parent_column_text(grid)
        for path in files:
            assert t_column(path.read_text()) == expected
        # the grid once for the three runs' six files, then one table per file
        grids = [values for values in calls if np.ndim(values) == 1]
        assert len(grids) == 1 and len(calls) == 7
        assert np.array_equal(grids[0], grid)

    def test_special_values_and_two_points_are_the_row_join_bytes(self):
        """Columns holding signed zeros, subnormals, 1e+-300, infinities and
        nan, on runs of two points with every metric and with none."""
        for metrics in (scenarios.METRICS, ()):
            traj = run_scenario(fast_config(n_points=2, metrics=metrics))
            for model in MODELS:
                assert trajectory_csv(traj, model) == parent_trajectory_csv(traj, model)
            cols = list(traj.series["micro"])
            rng = np.random.default_rng(len(cols))
            series = {m: {c: rng.choice(SPECIAL_VALUES, size=2) for c in cols}
                      for m in MODELS}
            special = replace(traj, series=series, times=np.array([-0.0, 5e-324]))
            for model in MODELS:
                assert (trajectory_csv(special, model)
                        == parent_trajectory_csv(special, model))

    def test_automatic_spans_keep_their_own_time_axes(self, tmp_path):
        assert main(["evolve", "--figure", "8", "--tmax", "auto",
                     "--out", str(tmp_path)]) == 0
        columns = set()
        for cfg in figure_preset(8):
            times = run_scenario(replace(cfg, t_max="auto")).times
            for model in MODELS:
                text = (tmp_path / f"{cfg.label}_{model}.csv").read_text()
                assert t_column(text) == parent_column_text(times)
            columns.add(tuple(parent_column_text(times)))
        assert len(columns) == 3

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

    @pytest.mark.parametrize("n", range(1, 8))
    def test_tail_mean_oracle_on_presets(self, n):
        # the former rule: the mean of the last 5% of a trajectory over fifty
        # lifetimes of the slowest channel sum or bare damping
        cfg = replace(figure_preset(n), metrics=STATIONARY_METRICS)
        span = scenarios.resolve_t_max(cfg, rate_set(cfg.params), stationary=True)
        traj = run_scenario(replace(cfg, t_max=span))
        tail = max(1, int(round(0.05 * len(traj.times))))
        rep = compare_report(cfg)
        for model in MODELS:
            for m in STATIONARY_METRICS:
                tail_mean = float(np.mean(traj.series[model][m][-tail:]))
                assert abs(tail_mean - rep.stationary[model][m]) <= 1e-12, (model, m)

    def test_phenom_slow_mode_is_stationary(self, tmp_path, capsys):
        # figure-2 parameters with a bath damping far above the coupling: the
        # phenom coupling-induced mode relaxes at about
        # coupling^2 / (2 (g + gbar)), 1.2e3 /s, far below every channel sum
        params = replace(figure_preset(2).params, coupling=7.85e6,
                         gamma0=4.94e10, temperature=2.03e-3)
        rep = compare_report(ScenarioConfig(params=params,
                                            metrics=("linear_entropy",)))
        value = rep.stationary["phenom"]["linear_entropy"]
        assert value == pytest.approx(0.4987, abs=1e-4)

        path = tmp_path / "slow.cfg"
        path.write_text("".join(f"{k} = {getattr(params, k)!r}\n" for k in (
            "omega", "coupling", "gamma0", "bath_width", "bath_center",
            "temperature")), encoding="utf-8")
        assert main(["steady", "--config", str(path)]) == 0
        (line,) = [l for l in capsys.readouterr().out.splitlines()
                   if l.startswith("phenom stationary concurrence")]
        assert line.endswith(f"linear entropy {value:.10g}")

    @pytest.mark.parametrize("n, metric", [(4, "discord"), (6, "linear_entropy")])
    def test_stationary_values_need_no_trajectory(self, n, metric, monkeypatch,
                                                  tmp_path, capsys):
        from dressedbath import integrate

        def refuse(*args, **kwargs):
            raise AssertionError("a trajectory was propagated")

        monkeypatch.setattr(integrate, "propagate", refuse)
        monkeypatch.setattr(microscopic, "propagate_analytic", refuse)
        assert main(["compare", "--figure", str(n), "--out", str(tmp_path)]) == 0
        assert f"stationary {metric}: micro" in capsys.readouterr().out

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
