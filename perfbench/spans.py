"""Span tracing of the program's layers, installed from outside `src/`.

Each traced function is replaced by a wrapper wherever a caller looks it up:
as a module attribute (`integrate.propagate`), as a name bound by
`from .x import f` in another module's globals, or as a class attribute
(`CompareReport.csv`).  A span records its name, start, end and parent; spans
stay in compact arrays in memory and are written out when the run ends.
A layer's self time is its spans' time minus the time their child spans
cover, so the layers' self times add up to the time inside `cli.main`.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

PACKAGE = "dressedbath"

# layer -> functions wrapped for it, as "module:qualname"
LAYERS = {
    "cli": ["cli:main"],
    "scenarios.run": ["scenarios:run_scenario"],
    "scenarios.compare": ["scenarios:compare_report", "scenarios:sweep"],
    "scenarios.config": ["scenarios:parse_config", "scenarios:figure_preset"],
    "scenarios.csv": ["scenarios:trajectory_csv", "scenarios:write_trajectory",
                      "scenarios:sweep_csv", "scenarios:CompareReport.csv"],
    "model.frame_rates": ["model:dressed_frame", "model:rate_set",
                          "model:fairness_check"],
    "microscopic.propagate": ["microscopic:propagate_analytic"],
    "microscopic.generator": ["microscopic:liouvillian", "microscopic:jump_operators",
                              "microscopic:steady_state", "microscopic:gibbs_state"],
    "phenomenological.propagate": ["phenomenological:propagate"],
    "phenomenological.generator": [
        "phenomenological:liouvillian", "phenomenological:liouvillian_from_ops",
        "phenomenological:phenom_rhs", "phenomenological:steady_state",
        "phenomenological:steady_state_dressed"],
    "integrate.propagate": ["integrate:propagate"],
    "linalg.validate": ["linalg:validate_density"],
    "linalg.eigs": ["linalg:hermitian_eigs"],
    "metrics.x_form": ["metrics:x_elements_from_dressed",
                       "metrics:x_elements_from_matrix", "metrics:concurrence_x",
                       "metrics:discord_approx_q2", "metrics:linear_entropy_q1"],
    "metrics.general": ["metrics:concurrence_general", "metrics:von_neumann_entropy"],
}

# linear_entropy_q1 serves both routes; a call on a full DensityMatrix (the
# general route) gets a span name of its own, booked to metrics.general
GENERAL_LINEAR_ENTROPY_SPAN = "metrics:linear_entropy_q1[general]"
X_EXTRACTIONS = ("metrics:x_elements_from_dressed", "metrics:x_elements_from_matrix")

# per-layer metric -> (layer, what) ; what is "self_s" or "calls"
PER_LAYER = {
    "cli.self_s": ("cli", "self_s"),
    "scenarios.run_self_s": ("scenarios.run", "self_s"),
    "scenarios.compare_self_s": ("scenarios.compare", "self_s"),
    "scenarios.config_s": ("scenarios.config", "self_s"),
    "scenarios.csv_s": ("scenarios.csv", "self_s"),
    "model.frame_rates_s": ("model.frame_rates", "self_s"),
    "model.frame_rates_calls": ("model.frame_rates", "calls"),
    "microscopic.propagate_s": ("microscopic.propagate", "self_s"),
    "microscopic.generator_s": ("microscopic.generator", "self_s"),
    "phenomenological.propagate_s": ("phenomenological.propagate", "self_s"),
    "phenomenological.generator_s": ("phenomenological.generator", "self_s"),
    "integrate.propagate_s": ("integrate.propagate", "self_s"),
    "linalg.validate_s": ("linalg.validate", "self_s"),
    "linalg.validate_calls": ("linalg.validate", "calls"),
    "linalg.eigs_s": ("linalg.eigs", "self_s"),
    "linalg.eigs_calls": ("linalg.eigs", "calls"),
    "metrics.x_form_s": ("metrics.x_form", "self_s"),
    "metrics.x_form_calls": ("metrics.x_form", "calls"),
    "metrics.general_s": ("metrics.general", "self_s"),
    "metrics.general_calls": ("metrics.general", "calls"),
}
COUNTERS = ("integrate.intervals", "scenarios.csv_bytes",
            "x_attempts", "x_hits")


class Tracer:
    """Records spans of the wrapped functions; one instance per traced run."""

    def __init__(self):
        self.layer_names = list(LAYERS)
        self.span_names = [key for keys in LAYERS.values() for key in keys]
        self.span_names.append(GENERAL_LINEAR_ENTROPY_SPAN)
        self.span_layer = np.array(
            [self.layer_names.index(layer) for layer, keys in LAYERS.items()
             for _ in keys] + [self.layer_names.index("metrics.general")])
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._stack = []
        self._undo = []

    # -- recording --------------------------------------------------------------

    def _wrap(self, fn, key):
        tracer = self
        name_id = self.span_names.index(key)
        general_id = self.span_names.index(GENERAL_LINEAR_ENTROPY_SPAN)
        is_lin_entropy = key == "metrics:linear_entropy_q1"
        is_extraction = key in X_EXTRACTIONS
        counter = {"integrate:propagate": "integrate.intervals"}.get(key)
        csv_text = key in ("scenarios:trajectory_csv", "scenarios:sweep_csv",
                           "scenarios:CompareReport.csv")

        def traced(*args, **kwargs):
            nid = name_id
            if is_lin_entropy and not type(args[0]).__name__ == "XStateElements":
                nid = general_id
            idx = len(tracer.start)
            tracer.name.append(nid)
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.end.append(0.0)
            tracer._stack.append(idx)
            if is_extraction:
                tracer.counts["x_attempts"] += 1
            tracer.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = time.perf_counter()
                tracer._stack.pop()
            if is_extraction:
                tracer.counts["x_hits"] += 1
            elif counter:
                tracer.counts[counter] += result.shape[0] - 1
            elif csv_text:
                tracer.counts["scenarios.csv_bytes"] += len(result.encode("utf-8"))
            return result

        return functools.wraps(fn)(traced)

    def install(self):
        """Wrap every listed function wherever the package looks it up."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for keys in LAYERS.values():
            for key in keys:
                mod_name, qualname = key.split(":")
                owner = importlib.import_module(f"{PACKAGE}.{mod_name}")
                *cls_path, attr = qualname.split(".")
                for part in cls_path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
                wrapper = self._wrap(original, key)
                self._patch(owner, attr, wrapper)
                if not cls_path:
                    for mod in modules:
                        for name, value in list(vars(mod).items()):
                            if value is original and mod is not owner:
                                self._patch(mod, name, wrapper)

    def _patch(self, owner, name, value):
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    # -- analysis ---------------------------------------------------------------

    def mark(self) -> int:
        return len(self.start)

    def arrays(self, lo=0, hi=None):
        sl = slice(lo, hi)
        return (np.frombuffer(self.name, dtype=np.int32)[sl],
                np.frombuffer(self.start, dtype=np.float64)[sl],
                np.frombuffer(self.end, dtype=np.float64)[sl],
                np.frombuffer(self.parent, dtype=np.int32)[sl])

    def layer_totals(self, lo, hi, scale=1.0):
        """Self seconds and call counts per layer for spans lo..hi-1.

        Spans lo..hi-1 must be whole trees (one operation's spans)."""
        name, start, end, parent = self.arrays(lo, hi)
        layer = self.span_layer[name]
        dur = end - start
        child = np.zeros(len(dur))
        has_parent = parent >= lo
        np.add.at(child, parent[has_parent] - lo, dur[has_parent])
        n = len(self.layer_names)
        self_s = np.bincount(layer, weights=dur - child, minlength=n) * scale
        calls = np.bincount(layer, minlength=n)
        top = dur[parent < 0].sum() * scale
        return self_s, calls, top

    def save(self, path, meta: dict):
        name, start, end, parent = self.arrays()
        np.savez_compressed(path, name=name, start=start, end=end, parent=parent,
                            span_names=np.array(self.span_names),
                            span_layer=np.array(self.layer_names)[self.span_layer],
                            meta=np.array(repr(meta)))
