"""Golden output hashes: sha256 of the CSVs and stdout of the reference runs.

    python3 tools/golden.py --write    # record GOLDEN.json at the repo root
    python3 tools/golden.py --check    # rerun and compare; exit 1 on a change

The runs are `figure 1..10`, `compare --figure 2..7`, three `sweep`s on the
coarse 400-point grid and `steady --figure 1..10`, each through
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
    return {"python": platform.python_version(), "numpy": np.__version__,
            "runs": {" ".join(argv): run(argv) for argv in commands()}}


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
