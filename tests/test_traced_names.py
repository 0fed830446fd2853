"""The traced benchmark run wraps functions by name; every name must resolve."""

import importlib
import importlib.util
import pathlib

import pytest

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PACKAGE, module.LAYERS


PACKAGE, LAYERS = _layers()


@pytest.mark.parametrize("key", [key for keys in LAYERS.values() for key in keys])
def test_traced_name_resolves(key):
    mod_name, qualname = key.split(":")
    owner = importlib.import_module(f"{PACKAGE}.{mod_name}")
    for part in qualname.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
