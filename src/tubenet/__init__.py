"""Tube MPC for networks of coupled linear subsystems, synthesized by LP.

Modules: polytope algebra (geometry), the network data model (model),
LP/QP solver contracts (optim), invariant-set synthesis (rci), per-subsystem
tube controllers (controller), design certificates (verify), plug-in/unplug
topology changes (pnp), closed-loop simulation (sim), built-in demo
scenarios (scenarios) and the scenario-file CLI (cli).
"""

from .controller import (
    InfeasibleStep,
    MpcConfig,
    TerminalData,
    TubeController,
    design_controller,
    solve_mpc,
    step_control,
    tighten_sets,
)
from .geometry import HPolytope, VAggregate, VPolytope
from .model import (
    Coupling,
    Network,
    Subsystem,
    build_mass_array,
    build_truck_network,
    controllability_index,
    discretize_exact,
    disturbance_set,
)
from .optim import LinearProgram, QuadraticProgram, SolveReport, ToleranceConfig, solve_lp, solve_qp
from .pnp import PnpTransaction, plug_in, unplug
from .rci import DesignFailure, RciConfig, RciDesign, synthesize_rci_from_w
from .sim import LoadStep, Metrics, SimConfig, SimTrace, compute_metrics, run

__version__ = "0.1.0"

__all__ = [
    "InfeasibleStep", "MpcConfig", "TerminalData", "TubeController",
    "design_controller", "solve_mpc",
    "step_control", "tighten_sets",
    "HPolytope", "VAggregate", "VPolytope",
    "Coupling", "Network", "Subsystem", "build_mass_array",
    "build_truck_network", "controllability_index", "discretize_exact",
    "disturbance_set",
    "LinearProgram", "QuadraticProgram", "SolveReport", "ToleranceConfig",
    "solve_lp", "solve_qp",
    "PnpTransaction", "plug_in", "unplug",
    "DesignFailure", "RciConfig", "RciDesign", "synthesize_rci_from_w",
    "LoadStep", "Metrics", "SimConfig", "SimTrace", "compute_metrics", "run",
    "__version__",
]
