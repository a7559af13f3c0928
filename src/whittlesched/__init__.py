"""Whittle-index scheduling for Markov-modulated ON/OFF downlinks.

Belief lattice and closed-form Whittle indices, the relaxed (subsidy) problem
and its randomized threshold optimum, the mean-field fluid map with exact
linearization and a spectral stability certificate, and Monte Carlo engines
for finite populations.
"""

import os

# multithreaded OpenBLAS stalled some first certificates by ~200 ms; set before numpy loads
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .belief import (
    STATIONARY,
    BeliefState,
    ChannelClass,
    ClassMix,
    belief_value,
    belief_vector,
    lattice_moves,
    lattice_position,
    lattice_states,
    off_age,
    on_age,
    step_feedback,
    step_idle,
)
from .whittle import (
    IndexTable,
    Rung,
    build_index_table,
    solve_subsidy,
    stationary_index,
    subsidy_value,
    whittle_index,
    whittle_index_oracle,
)
from .relaxed import (
    ClassPolicy,
    RelaxedSolution,
    activation_fraction,
    solve_relaxed,
)
from .fluid import (
    AnalyticBlocks,
    FluidModel,
    FluidTrajectory,
    LinearizedSystem,
    StabilityCertificate,
    analytic_blocks,
    check_state,
    fluid_trajectory,
    linearize,
    stability_certificate,
)
from .sim import (
    SimConfig,
    hitting_time,
    lattice_round,
    make_engine,
    occupancy,
    run_many,
    run_throughput,
    trajectory_deviation,
)
from .presets import PRESETS, get_preset

__version__ = "0.1.0"

__all__ = [
    "STATIONARY",
    "BeliefState",
    "ChannelClass",
    "ClassMix",
    "belief_value",
    "belief_vector",
    "lattice_moves",
    "lattice_position",
    "lattice_states",
    "off_age",
    "on_age",
    "step_feedback",
    "step_idle",
    "IndexTable",
    "Rung",
    "build_index_table",
    "solve_subsidy",
    "stationary_index",
    "subsidy_value",
    "whittle_index",
    "whittle_index_oracle",
    "ClassPolicy",
    "RelaxedSolution",
    "activation_fraction",
    "solve_relaxed",
    "AnalyticBlocks",
    "FluidModel",
    "FluidTrajectory",
    "LinearizedSystem",
    "StabilityCertificate",
    "analytic_blocks",
    "check_state",
    "fluid_trajectory",
    "linearize",
    "stability_certificate",
    "SimConfig",
    "hitting_time",
    "lattice_round",
    "make_engine",
    "occupancy",
    "run_many",
    "run_throughput",
    "trajectory_deviation",
    "PRESETS",
    "get_preset",
    "__version__",
]
