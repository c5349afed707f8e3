"""Cycle decompositions of finite energy landscapes under Metropolis dynamics.

Two equivalent hierarchies of the same landscape: the path cycles (sub-level
components ordered by inclusion) and the graph cycles (the recursive
partition coarsening driven by exact exit costs), together with a Monte Carlo
sampler that checks the exit-time and visit-before-exit laws both families
predict.
"""

from .energy import DEFAULT_SCALE, INFINITY, Energy
from .equivalence import (
    EquivalenceReport,
    brute_force_path_cycles,
    random_landscape,
    verify_equivalence,
)
from .errors import BasincyclesError, ValidationError
from .graphcycles import (
    DecompositionTrace,
    PartitionLevel,
    advance,
    initial_level,
    run_decomposition,
)
from .landscape import (
    Landscape,
    TransitionMatrix,
    dumps_landscape,
    exterior_boundary,
    load_landscape,
    make_landscape,
)
from .pathcycles import (
    CycleNode,
    CycleTree,
    enumerate_path_cycles,
)
from .simulate import (
    HittingTimeStats,
    SimulationSpec,
    check_exit_window,
    check_visit_before_exit,
    simulate_hitting_time,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_SCALE",
    "INFINITY",
    "Energy",
    "EquivalenceReport",
    "BasincyclesError",
    "ValidationError",
    "DecompositionTrace",
    "PartitionLevel",
    "Landscape",
    "TransitionMatrix",
    "CycleNode",
    "CycleTree",
    "HittingTimeStats",
    "SimulationSpec",
    "advance",
    "brute_force_path_cycles",
    "check_exit_window",
    "check_visit_before_exit",
    "dumps_landscape",
    "enumerate_path_cycles",
    "exterior_boundary",
    "initial_level",
    "load_landscape",
    "make_landscape",
    "random_landscape",
    "run_decomposition",
    "simulate_hitting_time",
    "verify_equivalence",
]
