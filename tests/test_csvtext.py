import numpy as np
import pytest

from conftest import g17_texts as texts
from dressedbath import csvtext
from dressedbath.scenarios import figure_preset, run_scenario

TIES = [1e15 + 0.25, 1e15 + 0.75, 2.0 ** 50 + 0.25]


@pytest.fixture
def fallback(monkeypatch):
    """The values that took ``csvtext._fmt``."""
    taken = []
    real = csvtext._fmt
    monkeypatch.setattr(csvtext, "_fmt", lambda x: taken.append(x) or real(x))
    return taken


def hard_values():
    rng = np.random.default_rng(22)
    tiny = 2.2250738585072014e-308
    powers = np.array([float(f"1e{k}") for k in range(-320, 309)])
    return np.concatenate([
        rng.integers(0, 2 ** 64, size=20_000, dtype=np.uint64).view(np.float64),
        [0.0, -0.0, 5e-324, -5e-324, tiny, -tiny, tiny / 3, tiny * (1 - 2 ** -52),
         1.7976931348623157e308, -1.7976931348623157e308, np.inf, -np.inf,
         np.nan, -np.nan],
        powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
        -powers, TIES, np.negative(TIES)])


def test_every_value_is_its_percent_17g_text(fallback):
    values = hard_values()
    assert np.isnan(values).sum() > 2 and np.isinf(values).sum() >= 2
    assert texts(values) == ["%.17g" % v for v in values.tolist()]
    # the exact decimal ties are left to CPython's correctly rounded text
    for tie in TIES:
        assert tie in fallback and -tie in fallback
    assert not np.isfinite(fallback).all()


def test_shapes_and_blocks_keep_the_value_order():
    # one pass over all the values, however many (the callers block them)
    values = hard_values()
    assert values.size > 7 * 3072   # seven of scenarios._CSV_BLOCK
    want = ["%.17g" % v for v in values.tolist()]
    assert texts(values.reshape(1, -1)) == want
    pair = 2 * (values.size // 2)
    assert texts(values[:pair].reshape(2, -1)) == want[:pair]
    assert texts(values[::-1].copy()) == want[::-1]
    assert csvtext.g17_slots(np.empty(0)).shape == (csvtext.SLOTS, 0)
    assert csvtext.g17_slots(np.empty((3, 0))).shape == (csvtext.SLOTS, 0)


def test_no_preset_value_takes_the_fallback(fallback):
    for n in range(1, 11):
        preset = figure_preset(n)
        for cfg in preset if isinstance(preset, list) else [preset]:
            traj = run_scenario(cfg)
            columns = [traj.times] + [column for model in cfg.models
                                      for column in traj.series[model].values()]
            assert texts(np.stack(columns)) == [
                "%.17g" % v for v in np.stack(columns).ravel().tolist()]
    assert fallback == []
