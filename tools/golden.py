"""Golden output hashes: sha256 of the CSVs and stdout of the reference runs.

    python3 tools/golden.py --write      # record GOLDEN.json at the repo root
    python3 tools/golden.py --check      # rerun and compare; exit 1 on a change
    python3 tools/golden.py --diff REV   # numeric change against git revision REV
    python3 tools/golden.py --outputs DIR [--src SRC]   # keep every output

The runs are `figure 1..10`, `compare --figure 2..7`, three `sweep`s on the
coarse 400-point grid, `steady --figure 1..10`, `spectrum --figure 1..10`,
`evolve --config` on four fixed non-X initial states (full-rank and pure,
at a strong- and a weak-coupling preset; these take the general metric
route) and `selftest` (which writes no files; the elapsed times it prints are
removed from its stdout), each through `dressedbath.cli.main` in this
process with the package from `src/` (or from SRC).  The hashes pin the
floating-point results of one numpy/LAPACK build on one machine; another
build may legitimately differ in the last digits, so this is a tool for
checking a refactor, not a test.

`--diff REV` exports REV with `git archive` into a temporary directory, runs
this script's golden set against the package source of REV and of this
checkout (one subprocess each, via `--outputs`), and prints one table row per
output that differs, per column of each CSV file: the largest absolute and
relative difference over its rows (relative to the larger magnitude of the
pair).  The stdout of a run counts as one file whose single column is the
sequence of numbers in the text.  Outputs that match byte for byte are
counted, not listed.  Exit status 0 either way, 1 if the two sets of runs or
files differ in their names or exit codes.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import pathlib
import platform
import re
import subprocess
import sys
import tarfile
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "GOLDEN.json"

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

STDOUT = "stdout"
# the elapsed time in selftest's stdout, as perfbench/run.py removes it
_ELAPSED = re.compile(r"\d+\.\d+s\)")
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf")


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
    runs += [["spectrum", "--figure", str(n)] for n in range(1, 11)]
    return runs


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# the verbs that write files, and so take --out
WRITERS = ("figure", "evolve", "compare", "sweep")


def run(cli, argv: list) -> tuple:
    """Exit code, stdout and the bytes of every file the run writes
    (under ``--out``, which is appended for the verbs that write)."""
    with tempfile.TemporaryDirectory() as tmp:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv + (["--out", tmp] if argv[0] in WRITERS else []))
        stdout = out.getvalue().replace(tmp, "OUT")
        files = {p.name: p.read_bytes() for p in sorted(pathlib.Path(tmp).iterdir())}
    return code, stdout, files


def all_runs(cli):
    """Yield (run name, exit code, stdout, files) for the whole golden set."""
    for argv in commands():
        yield (" ".join(argv), *run(cli, argv))
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in general_configs().items():
            path = pathlib.Path(tmp) / name
            path.write_text(text, encoding="utf-8")
            yield (f"evolve --config {name}",
                   *run(cli, ["evolve", "--config", str(path)]))
    code, stdout, files = run(cli, ["selftest"])
    yield "selftest", code, _ELAPSED.sub("s)", stdout), files


def load_cli(src: pathlib.Path):
    sys.path.insert(0, str(src))
    return importlib.import_module("dressedbath.cli")


def record(cli) -> dict:
    import numpy as np

    runs = {name: {"exit": code, "stdout": sha256(stdout.encode("utf-8")),
                   "files": {f: sha256(data) for f, data in files.items()}}
            for name, code, stdout, files in all_runs(cli)}
    return {"python": platform.python_version(), "numpy": np.__version__,
            "runs": runs}


def write_outputs(cli, out_dir: pathlib.Path):
    """One directory per run under ``out_dir``: its files, its stdout and
    an index of run name -> (directory, exit code)."""
    index = {}
    for k, (name, code, stdout, files) in enumerate(all_runs(cli)):
        run_dir = out_dir / f"run{k:02d}"
        run_dir.mkdir(parents=True)
        (run_dir / STDOUT).write_text(stdout, encoding="utf-8")
        for fname, data in files.items():
            (run_dir / fname).write_bytes(data)
        index[name] = [run_dir.name, code]
    (out_dir / "index.json").write_text(json.dumps(index, indent=1), encoding="utf-8")


def _columns(text: str, is_stdout: bool) -> dict:
    """Column name -> list of cells; CSV comment lines are skipped."""
    if is_stdout:
        return {"numbers": _NUMBER.findall(text)}
    rows = [line.split(",") for line in text.splitlines()
            if line and not line.startswith("#")]
    header, body = rows[0], rows[1:]
    return {name: [row[i] for row in body] for i, name in enumerate(header)}


def _cell_diff(a: str, b: str):
    """(absolute, relative) difference of two cells; None if they are text
    that differs."""
    if a == b:
        return 0.0, 0.0
    try:
        x, y = float(a), float(b)
    except ValueError:
        return None
    if math.isnan(x) or math.isnan(y) or math.isinf(x) or math.isinf(y):
        return None
    diff = abs(x - y)
    return diff, diff / max(abs(x), abs(y))


def compare_file(old: str, new: str, is_stdout: bool) -> list:
    """(column, max abs, max rel) rows for one output file; max abs None
    marks a column whose shape or text differs."""
    a, b = _columns(old, is_stdout), _columns(new, is_stdout)
    rows = []
    for name in dict.fromkeys(list(a) + list(b)):
        col_a, col_b = a.get(name), b.get(name)
        if col_a is None or col_b is None or len(col_a) != len(col_b):
            rows.append((name, None, None))
            continue
        diffs = [_cell_diff(x, y) for x, y in zip(col_a, col_b)]
        if any(d is None for d in diffs):
            rows.append((name, None, None))
        else:
            rows.append((name, max((d[0] for d in diffs), default=0.0),
                         max((d[1] for d in diffs), default=0.0)))
    return rows


def diff_dirs(old_dir: pathlib.Path, new_dir: pathlib.Path) -> int:
    old_index = json.loads((old_dir / "index.json").read_text(encoding="utf-8"))
    new_index = json.loads((new_dir / "index.json").read_text(encoding="utf-8"))
    status, identical, total = 0, 0, 0
    print("| run | file | column | max abs diff | max rel diff |")
    print("| --- | --- | --- | --- | --- |")
    for name in dict.fromkeys(list(old_index) + list(new_index)):
        if name not in old_index or name not in new_index \
                or old_index[name][1] != new_index[name][1]:
            print(f"| {name} | | | run missing or exit code differs | |")
            status = 1
            continue
        old_run, new_run = old_dir / old_index[name][0], new_dir / new_index[name][0]
        names = sorted({p.name for p in old_run.iterdir()}
                       | {p.name for p in new_run.iterdir()})
        for fname in names:
            total += 1
            old_file, new_file = old_run / fname, new_run / fname
            if not (old_file.exists() and new_file.exists()):
                print(f"| {name} | {fname} | | file missing on one side | |")
                status = 1
                continue
            old_text = old_file.read_text(encoding="utf-8")
            new_text = new_file.read_text(encoding="utf-8")
            if old_text == new_text:
                identical += 1
                continue
            for column, dabs, drel in compare_file(old_text, new_text,
                                                  fname == STDOUT):
                shown = ("text differs", "") if dabs is None else \
                    (f"{dabs:.3g}", f"{drel:.3g}")
                print(f"| {name} | {fname} | {column} | {shown[0]} | {shown[1]} |")
    print(f"\n{identical} of {total} outputs (CSV files and stdout) are "
          "byte-identical and not listed; every column of a listed file is.")
    return status


def export(rev: str, dest: pathlib.Path):
    """The tree of git revision ``rev`` under ``dest``."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def diff(rev: str) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        export(rev, tmp / "rev")
        for side, src in (("old", tmp / "rev" / "src"), ("new", ROOT / "src")):
            subprocess.run([sys.executable, __file__, "--outputs", str(tmp / side),
                            "--src", str(src)], check=True)
        print(f"golden set: {rev} -> working tree of {ROOT.name}\n")
        return diff_dirs(tmp / "old", tmp / "new")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", action="store_true", help="record GOLDEN.json")
    mode.add_argument("--check", action="store_true", help="compare with GOLDEN.json")
    mode.add_argument("--diff", metavar="REV",
                      help="per-column numeric change against git revision REV")
    mode.add_argument("--outputs", type=pathlib.Path, metavar="DIR",
                      help="write every run's files and stdout under DIR")
    parser.add_argument("--src", type=pathlib.Path, default=ROOT / "src",
                        help="package source to run (default: src/ here)")
    args = parser.parse_args(argv)

    if args.diff:
        return diff(args.diff)
    cli = load_cli(args.src)
    if args.outputs:
        write_outputs(cli, args.outputs)
        return 0

    current = record(cli)
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
