"""Work extraction from steered quantum correlations.

A numerical library and CLI for a bipartite work-extraction game: Alice's
measurements steer Bob's conditional states, Bob banks the energy released
by quench/thermalize/quench cycles against rank-1 Hamiltonians built from
mutually unbiased bases. The package evaluates the closed-form ceilings for
unsteerable and general quantum strategies, simulates the protocol that
saturates the quantum one, and certifies the unsteerable ceiling with an
independent optimizer.
"""

from .bounds import BoundSet, evaluate_bounds
from .game import WorkReport, run_exact_quantum
from .lhs import OptimizerResult, optimize_single_state, qubit_oracle
from .mub import MubConstructionError, build_mub

__version__ = "0.11.1"

__all__ = [
    "BoundSet",
    "MubConstructionError",
    "OptimizerResult",
    "WorkReport",
    "build_mub",
    "evaluate_bounds",
    "optimize_single_state",
    "qubit_oracle",
    "run_exact_quantum",
]
