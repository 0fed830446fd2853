"""Two coupled qubits with one of them in a thermal bath.

Simulates and compares two models of the dissipation: a master equation
derived in the dressed (coupled) eigenbasis with detailed-balance-paired
rates at the two transition frequencies, and the naive construction that
adds a local damping term for the bath-facing qubit to the coupled unitary
dynamics.  Entanglement (concurrence), quantum discord and the isolated
qubit's linear entropy quantify how far the two predictions drift apart.
"""

from ._version import __version__
from .linalg import (Margins, NotFinite, NotHermitian, NotPSD,
                     StateValidationError, TraceNotOne, hermitian_eigs,
                     partial_trace_q2, validate_columns, validate_density)
from .model import (KB_OVER_HBAR, DressedFrame, FairnessReport, RateSet,
                    SystemParams, dressed_frame, fairness_check, hamiltonian,
                    rate_set, spectral_density, thermal_occupancy)
from .metrics import (AssumptionViolated, XStateElements, concurrence_general,
                      concurrence_x, discord_approx_q2, linear_entropy_q1,
                      von_neumann_entropy, x_elements_from_columns,
                      x_elements_from_dressed, x_elements_from_matrix)
from .scenarios import (CompareReport, ConfigError, OutOfRange,
                        ScenarioConfig, Trajectory, compare_report,
                        figure_preset, parse_config, run_scenario, sweep)

__all__ = [name for name in dir() if not name.startswith("_")]
