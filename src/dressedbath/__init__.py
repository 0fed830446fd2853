"""Two coupled qubits with one of them in a thermal bath.

Simulates and compares two models of the dissipation: a master equation
derived in the dressed (coupled) eigenbasis with detailed-balance-paired
rates at the two transition frequencies, and the naive construction that
adds a local damping term for the bath-facing qubit to the coupled unitary
dynamics.  Entanglement (concurrence), quantum discord and the isolated
qubit's linear entropy quantify how far the two predictions drift apart.
"""

from ._version import __version__
