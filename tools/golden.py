"""Golden output hashes: sha256 of the CSVs and stdout of the reference runs.

    python3 tools/golden.py --write    # record GOLDEN.json at the repo root
    python3 tools/golden.py --check    # rerun and compare; exit 1 on a change

The runs are `figure 1..10`, `compare --figure 2..7`, three `sweep`s on the
coarse 400-point grid, `steady --figure 1..10` and `evolve --config` on four
fixed non-X initial states (full-rank and pure, at a strong- and a
weak-coupling preset; these take the general metric route), each through
`dressedbath.cli.main` in this process with the package from `src/`.  The
hashes pin the floating-point results of one numpy/LAPACK build on one
machine; another build may legitimately differ in the last digits, so this
is a tool for checking a refactor, not a test.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import pathlib
import platform
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "GOLDEN.json"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from dressedbath import cli  # noqa: E402

SWEEPS = (
    ("2", "temperature", "5e-4,5e-3,1.5e-2"),
    ("7", "coupling", "1e9,4e9,1.6e10"),
    ("5", "gamma0", "5e6,5e7,2e8"),
)

# evolve --config runs on non-X starts: preset -> parameters, state -> entries
# (row-major, exactly Hermitian with unit trace as written)
GENERAL_PRESETS = {
    "strong": dict(omega=4e9, coupling=4e9, gamma0=5e7, bath_width=5e10,
                   bath_center=8e9, temperature=5e-4),
    "weak": dict(omega=5e6, coupling=4e4, gamma0=500.0, bath_width=5e5,
                 bath_center=1e7, temperature=0.005),
}
GENERAL_STATES = {
    "full_rank": ("0.4", "0.1+0.05j", "0.05-0.1j", "0.02",
                  "0.1-0.05j", "0.3", "0.04+0.03j", "-0.05j",
                  "0.05+0.1j", "0.04-0.03j", "0.2", "0.06",
                  "0.02", "0.05j", "0.06", "0.1"),
    # projector on (|00> + i|01> - |10> + |11>) / 2
    "pure": ("0.25", "-0.25j", "-0.25", "0.25",
             "0.25j", "0.25", "-0.25j", "0.25j",
             "-0.25", "0.25j", "0.25", "-0.25",
             "0.25", "-0.25j", "-0.25", "0.25"),
}


def general_configs() -> dict:
    """Config file name -> text of each general-route run."""
    configs = {}
    for preset, params in GENERAL_PRESETS.items():
        for kind, entries in GENERAL_STATES.items():
            label = f"general_{kind}_{preset}"
            lines = [f"{k} = {v!r}" for k, v in params.items()]
            lines += [f"initial_state = custom({', '.join(entries)})",
                      "n_points = 150",
                      "metrics = concurrence, linear_entropy, populations",
                      f"label = {label}"]
            configs[f"{label}.cfg"] = "\n".join(lines) + "\n"
    return configs


def commands() -> list:
    runs = [["figure", str(n)] for n in range(1, 11)]
    runs += [["compare", "--figure", str(n)] for n in range(2, 8)]
    runs += [["sweep", "--figure", fig, "--axis", axis, "--values", values,
              "--points", "400"] for fig, axis, values in SWEEPS]
    runs += [["steady", "--figure", str(n)] for n in range(1, 11)]
    return runs


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(argv: list) -> dict:
    """Exit code and hashes of stdout and of every file the run writes."""
    with tempfile.TemporaryDirectory() as tmp:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv + ["--out", tmp])
        stdout = out.getvalue().replace(tmp, "OUT")
        files = {p.name: sha256(p.read_bytes())
                 for p in sorted(pathlib.Path(tmp).iterdir())}
    return {"exit": code, "stdout": sha256(stdout.encode("utf-8")), "files": files}


def record() -> dict:
    runs = {" ".join(argv): run(argv) for argv in commands()}
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in general_configs().items():
            path = pathlib.Path(tmp) / name
            path.write_text(text, encoding="utf-8")
            runs[f"evolve --config {name}"] = run(["evolve", "--config", str(path)])
    return {"python": platform.python_version(), "numpy": np.__version__,
            "runs": runs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true", help="record GOLDEN.json")
    mode.add_argument("--check", action="store_true", help="compare with GOLDEN.json")
    args = parser.parse_args(argv)

    current = record()
    if args.write:
        GOLDEN.write_text(json.dumps(current, indent=1, sort_keys=True) + "\n",
                          encoding="utf-8")
        print(f"wrote {GOLDEN} ({len(current['runs'])} runs)")
        return 0

    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    changed = [name for name in golden["runs"] | current["runs"]
               if golden["runs"].get(name) != current["runs"].get(name)]
    for name in changed:
        print(f"CHANGED {name}: {golden['runs'].get(name)} -> {current['runs'].get(name)}")
    print(f"{len(current['runs']) - len(changed)} of {len(current['runs'])} runs "
          f"match {GOLDEN.name} (recorded with python {golden['python']}, "
          f"numpy {golden['numpy']}; here python {current['python']}, "
          f"numpy {current['numpy']})")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
