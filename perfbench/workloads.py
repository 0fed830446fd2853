"""The three workloads: fixed operation lists run through `dressedbath.cli.main`.

Each operation is one CLI invocation.  Its `kind` tells the checks what the
output must satisfy, and `snapshots` is how many states the program
validates for it (points x models, summed over the scenario runs it makes).
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field

import numpy as np

SWEEP_POINTS = 400            # the coarse --points grid of the sweeps
GENERAL_POINTS = 150          # n_points of the general_state configurations

# sweeps stay inside the range where every point succeeds today: the phenom
# trace-drift fault trips for gamma0 <= 1e6 (and at 1e5 on figure 2) and for
# coupling 4e10 on figure 2; the discord domain error trips on discord
# presets at low temperature and at coupling 2e9
SWEEPS = (
    ("2", "temperature", "5e-4,5e-3,1.5e-2"),
    ("7", "coupling", "1e9,4e9,1.6e10"),
    ("5", "gamma0", "5e6,5e7,2e8"),
)

# compare --figure 4 --temp 0.001 fails on every run: metrics.discord_approx_q2
# takes log2 of a non-positive population ratio and the CLI reports the
# ValueError as a configuration error (exit 1)
KNOWN_FAULT = ("compare", "--figure", "4", "--temp", "0.001")

# the presets that general_state runs its random initial states at
GENERAL_PRESETS = {
    "strong": dict(omega=4e9, coupling=4e9, gamma0=5e7, bath_width=5e10,
                   bath_center=8e9, temperature=5e-4),
    "weak": dict(omega=5e6, coupling=4e4, gamma0=500.0, bath_width=5e5,
                 bath_center=1e7, temperature=0.005),
}
GENERAL_METRICS = ("concurrence", "linear_entropy", "populations")


@dataclass(frozen=True)
class Operation:
    argv: tuple
    kind: str                  # figure | evolve | compare | sweep | selftest
    snapshots: int
    writes_out: bool = True
    detail: dict = field(default_factory=dict, hash=False, compare=False)

    @property
    def name(self) -> str:
        return " ".join(a if "/" not in a else pathlib.Path(a).name
                        for a in self.argv)


def preset_configs(number: int) -> list:
    """The scenario configurations that `figure <number>` runs."""
    from dressedbath import scenarios
    preset = scenarios.figure_preset(number)
    return preset if isinstance(preset, list) else [preset]


def compare_snapshots(number: int, points: int | None = None) -> int:
    """Snapshots of one comparison on figure <number>'s preset, which always
    runs every model."""
    from dressedbath import scenarios
    (cfg,) = preset_configs(number)
    return (points or cfg.n_points) * len(scenarios.MODELS)


def figures():
    return [Operation(("figure", str(n)), "figure",
                      sum(c.n_points * len(c.models) for c in preset_configs(n)),
                      detail={"number": n})
            for n in range(1, 11)]


def stationary():
    ops = [Operation(("compare", "--figure", str(n)), "compare",
                     compare_snapshots(n), detail={"figure": n})
           for n in range(2, 8)]
    for fig, axis, values in SWEEPS:
        argv = ("sweep", "--figure", fig, "--axis", axis, "--values", values,
                "--points", str(SWEEP_POINTS))
        numbers = tuple(float(v) for v in values.split(","))
        ops.append(Operation(argv, "sweep",
                             len(numbers) * compare_snapshots(int(fig), SWEEP_POINTS),
                             detail={"figure": int(fig), "axis": axis,
                                     "values": numbers}))
    ops.append(Operation(("selftest",), "selftest", 0, writes_out=False))
    ops.append(Operation(KNOWN_FAULT, "compare", compare_snapshots(4),
                         detail={"figure": 4, "temperature": 0.001}))
    return ops


def _fmt_complex(z: complex) -> str:
    return f"{z.real:.17g}{z.imag:+.17g}j"


def random_full_rank(rng) -> np.ndarray:
    """Ginibre draw: A A^dagger / tr, full rank with probability one."""
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = a @ a.conj().T
    rho = rho / np.trace(rho).real
    return 0.5 * (rho + rho.conj().T)


def random_pure_non_x(rng) -> np.ndarray:
    """Projector on a Gaussian random ket, redrawn until it is clearly non-X."""
    while True:
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi = psi / np.linalg.norm(psi)
        rho = np.outer(psi, psi.conj())
        stray = max(abs(rho[0, 1]), abs(rho[0, 2]), abs(rho[1, 3]), abs(rho[2, 3]))
        if stray > 1e-2:
            return 0.5 * (rho + rho.conj().T)


def config_text(label: str, preset: str, rho: np.ndarray, seed: int, kind: str) -> str:
    from dressedbath import scenarios
    entries = ", ".join(_fmt_complex(complex(z)) for z in rho.reshape(-1))
    lines = [f"# perfbench general_state input, seed {seed}: {kind} state, "
             f"{preset}-coupling preset"]
    lines += [f"{k} = {v!r}" for k, v in GENERAL_PRESETS[preset].items()]
    lines += [f"initial_state = custom({entries})",
              "t_max = auto",
              f"n_points = {GENERAL_POINTS}",
              f"metrics = {', '.join(GENERAL_METRICS)}",
              f"models = {', '.join(scenarios.MODELS)}",
              f"label = {label}"]
    return "\n".join(lines) + "\n"


def general_state(seed: int, input_dir: pathlib.Path):
    """Write the seeded configuration files and return the evolve operations."""
    from dressedbath import scenarios
    rng = np.random.default_rng([seed, 2])
    input_dir.mkdir(parents=True, exist_ok=True)
    ops = []
    for preset in ("strong", "weak"):
        for kind, draw in (("full_rank", random_full_rank),
                           ("pure", random_pure_non_x)):
            rho = draw(rng)
            label = f"gs_{kind}_{preset}"
            path = input_dir / f"{label}.cfg"
            path.write_text(config_text(label, preset, rho, seed, kind),
                            encoding="utf-8")
            ops.append(Operation(("evolve", "--config", str(path)), "evolve",
                                 GENERAL_POINTS * len(scenarios.MODELS),
                                 detail={"label": label, "preset": preset,
                                         "rho0": rho}))
    return ops


WORKLOADS = ("figures", "general_state", "stationary")


def operations(workload: str, seed: int, input_dir: pathlib.Path):
    if workload == "figures":
        return figures()
    if workload == "general_state":
        return general_state(seed, input_dir)
    if workload == "stationary":
        return stationary()
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
