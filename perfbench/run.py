#!/usr/bin/env python3
"""Drift-corrected benchmark of the dressedbath command-line verbs.

    python3 perfbench/run.py --workload figures --seed 1 --seconds 30 --trace 0

Runs from the root of a checkout and imports the program from its `src/`.
One client in one process runs the workload's operations in sequence
(a closed loop) through `dressedbath.cli.main(argv)`, each into a fresh
temporary directory with stdout captured, and repeats whole passes until
`--seconds` have gone.  Every operation time is corrected for machine-speed
drift with the reference kernel (see refkernel.py).  Outputs of the first
pass are checked (checks.py); later passes must reproduce them byte for byte.

With `--trace 0` the last line is the JSON result with the end-to-end
metrics; with `--trace 1` the program's layers are wrapped in spans
(spans.py) and the result holds the per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import pathlib
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import numpy as np

import refkernel
import workloads

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_INTERPRETERS = 21

SETUP_CHILD = """
import sys, time
sys.path.insert(0, {src!r})
start = time.perf_counter()
import dressedbath.cli
dressedbath.cli.build_parser()
print(time.perf_counter() - start)
"""

# The drift reference for set-up: importing, in a fresh interpreter, the
# modules that dressedbath imports from outside itself.
REFERENCE_CHILD = """
import time
start = time.perf_counter()
import argparse, dataclasses, logging, math, pathlib
import numpy
print(time.perf_counter() - start)
"""
# Time of the reference import on the machine of refkernel.NOMINAL_S, about
# 2.1 times that kernel timing there; corrected set-up times are in seconds
# of that machine.
REFERENCE_NOMINAL_S = 0.085


def import_program():
    """Import dressedbath from this checkout's src/, and nothing else."""
    init = SRC / "dressedbath" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: {init.relative_to(ROOT)} not found; "
                         "run from the root of a dressedbath checkout")
    sys.path.insert(0, str(SRC))
    import dressedbath.cli
    if pathlib.Path(dressedbath.__file__).resolve() != init.resolve():
        raise SystemExit(f"perfbench: imported {dressedbath.__file__}, "
                         f"not the checkout's {init}")
    return dressedbath.cli


def time_child(code):
    """Run `code` in a fresh interpreter; it prints the time it measured."""
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def measure_setup():
    """`import dressedbath.cli` + `build_parser()`, timed inside each of
    SETUP_INTERPRETERS fresh interpreters.

    Each is drift-corrected like an operation, but by the reference import
    (REFERENCE_CHILD) timed in a fresh interpreter just before and just
    after it, not by the reference kernel: an import loads extension
    modules and unmarshals bytecode, and the machine's speed at that work
    does not follow its speed at the kernel's.  Returns the medians of the
    raw and the corrected times."""
    code = SETUP_CHILD.format(src=str(SRC))
    raw, corrected = [], []
    before = time_child(REFERENCE_CHILD)
    for _ in range(SETUP_INTERPRETERS):
        wall = time_child(code)
        after = time_child(REFERENCE_CHILD)
        raw.append(wall)
        corrected.append(wall * REFERENCE_NOMINAL_S / (0.5 * (before + after)))
        before = after
    return statistics.median(raw), statistics.median(corrected)


class Result:
    """One operation run: its output and its timings."""

    def __init__(self, op, outcome, wall, before, after, spans=(0, 0)):
        self.op = op
        self.outcome = outcome
        self.wall = wall
        self.after = after
        self.corrected = refkernel.correct(wall, before, after)
        self.digest = self._digest()
        self.spans = spans          # tracer span indices lo..hi-1 of the run

    @property
    def ok(self):
        return self.outcome.rc == 0

    def _digest(self):
        h = hashlib.sha256()
        h.update(f"{self.outcome.rc}\n".encode())
        # selftest prints how long each check took
        h.update(re.sub(r"\d+\.\d+s\)", "s)", self.outcome.stdout).encode())
        for name in sorted(self.outcome.files):
            h.update(name.encode() + b"\0" + self.outcome.files[name].encode())
        return h.hexdigest()


def run_operation(cli, op, tmp_root, before, tracer=None):
    """Run one operation; `before` is the kernel timing taken just before.

    The kernel timing taken just after it is the returned result's `after`,
    which the next operation uses as its `before`."""
    from checks import Outcome
    lo = tracer.mark() if tracer else 0
    out_dir = pathlib.Path(tempfile.mkdtemp(dir=tmp_root))
    argv = list(op.argv) + (["--out", str(out_dir)] if op.writes_out else [])
    stdout, stderr = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            rc = cli.main(argv)
        except Exception:          # a traceback is a failed operation
            traceback.print_exc()
            rc = -1
    wall = time.perf_counter() - start
    after = refkernel.timing()
    files = {p.name: p.read_text(encoding="utf-8")
             for p in sorted(out_dir.iterdir()) if p.is_file()}
    shutil.rmtree(out_dir)
    text = stdout.getvalue().replace(str(out_dir) + "/", "")
    return Result(op, Outcome(rc, text, stderr.getvalue(), files), wall, before,
                  after, (lo, tracer.mark() if tracer else 0))


def run_passes(cli, ops, seconds, tmp_root, tracer=None):
    passes = []
    kernel = refkernel.timing()
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        results = []
        for op in ops:
            res = run_operation(cli, op, tmp_root, kernel, tracer)
            if passes:
                # later passes are compared by digest; holding their files
                # would make peak memory grow with the number of passes
                res.outcome.files, res.outcome.stdout = {}, ""
            results.append(res)
            kernel = res.after
        passes.append(results)
    return passes


def verify(passes, seed):
    """Check the first pass's outputs; later passes must repeat them."""
    import checks
    errors = []
    first = passes[0]
    for i, res in enumerate(first):
        if res.ok:
            rng = np.random.default_rng([seed, 1, i])
            errors += checks.check(res.op, res.outcome, rng)
    for n, results in enumerate(passes[1:], start=2):
        for a, b in zip(first, results):
            if a.digest != b.digest:
                errors.append(f"pass {n}: {b.op.name} differs from pass 1")
    return errors


def end_to_end(passes, setup_s):
    flat = [r for results in passes for r in results]
    busy = sum(r.corrected for r in flat)
    snapshots = sum(r.op.snapshots for r in flat if r.ok)
    return {
        "setup_s": (setup_s, "s"),
        "pass_s": (statistics.median([sum(r.corrected for r in p) for p in passes]),
                   "s"),
        "snapshots_per_s": (snapshots / busy, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MB"),
    }


def per_layer(tracer, passes):
    """Per-layer metrics of the traced passes: medians over passes of the
    drift-corrected self times, and the counts of one pass."""
    import spans
    n_layers = len(tracer.layer_names)
    self_by_pass, calls_by_pass, cover = [], [], []
    for results in passes:
        self_s = np.zeros(n_layers)
        calls = np.zeros(n_layers, dtype=int)
        for res in results:
            scale = res.corrected / res.wall
            s, c, top = tracer.layer_totals(*res.spans, scale)
            self_s += s
            calls += c
            cover.append((top, res.corrected, s[tracer.layer_names.index("cli")]))
        self_by_pass.append(self_s)
        calls_by_pass.append(calls)
    self_med = np.median(np.array(self_by_pass), axis=0)
    calls = calls_by_pass[0]
    n_passes = len(passes)
    metrics = {}
    for name, (layer, what) in spans.PER_LAYER.items():
        i = tracer.layer_names.index(layer)
        if what == "self_s":
            metrics[name] = (float(self_med[i]), "s")
        else:
            metrics[name] = (int(calls[i]), "count")
    counts = {k: v // n_passes for k, v in tracer.counts.items()}
    metrics["integrate.intervals"] = (counts["integrate.intervals"], "count")
    metrics["scenarios.csv_bytes"] = (counts["scenarios.csv_bytes"], "bytes")
    attempts = counts["x_attempts"]
    metrics["metrics.x_route_hit_ratio"] = (
        counts["x_hits"] / attempts if attempts else 0.0, "ratio")
    top, total, cli_self = (sum(x) for x in zip(*cover))
    coverage = {"main_share_of_operation_time": top / total,
                "layer_share_below_cli": (top - cli_self) / total}
    return metrics, coverage


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    cli = import_program()
    import checks  # noqa: F401  (scipy loads before the timed passes)

    OUT.mkdir(exist_ok=True)
    tmp_root = pathlib.Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        setup_raw, setup_s = measure_setup()
        ops = workloads.operations(args.workload, args.seed, tmp_root / "inputs")
        tracer = None
        if args.trace:
            import spans
            tracer = spans.Tracer()
            tracer.install()
        try:
            passes = run_passes(cli, ops, args.seconds, tmp_root, tracer)
        finally:
            if tracer:
                tracer.uninstall()
        e2e = end_to_end(passes, setup_s)
        errors = verify(passes, args.seed)
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)

    flat = [r for results in passes for r in results]
    failed = [r for r in flat if not r.ok]
    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} passes of "
          f"{len(ops)} operations")
    raw_passes = [sum(r.wall for r in p) for p in passes]
    print(f"raw pass wall time: median {statistics.median(raw_passes):.4f} s; "
          f"raw setup: median {setup_raw:.4f} s")
    for i, op in enumerate(ops):
        raw = statistics.median([p[i].wall for p in passes])
        cor = statistics.median([p[i].corrected for p in passes])
        print(f"  {op.name:60.60} raw {raw:8.4f} s  corrected {cor:8.4f} s")
    for r in passes[0]:
        if r.ok:
            continue
        last = (r.outcome.stderr.strip().splitlines() or ["?"])[-1]
        print(f"failed: {r.op.name} (exit {r.outcome.rc}): {last}")
    for e in errors[:20]:
        print(f"CHECK FAILED: {e}")

    if tracer:
        metrics, coverage = per_layer(tracer, passes)
        print(f"traced pass_s (drift-corrected): {e2e['pass_s'][0]:.4f} s; "
              + ", ".join(f"{k} {v:.4f}" for k, v in coverage.items()))
        tracer.save(OUT / f"trace-{args.workload}-seed{args.seed}.npz",
                    {"workload": args.workload, "seed": args.seed,
                     "passes": len(passes), "operations": [op.name for op in ops]})
    else:
        metrics = e2e
    print(json.dumps({
        "correct": not errors,
        "attempted": len(flat),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
