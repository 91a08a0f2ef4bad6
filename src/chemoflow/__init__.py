"""Finite-element chemotaxis-fluid solver with a dynamic oxygen boundary
condition: implicit Euler in time, nested fixed-point solves per step, and a
verification suite for the discrete energy estimates."""

from .assembly import OperatorSet, build_operators
from .config import ConfigError, RunConfig, load_config
from .energy import EnergyLedger, build_ledger, discrete_gronwall, uniform_bound_scan
from .geometry import Mesh, build_disc_mesh
from .model import ModelParams, ResponseSpec, validate_params
from .step_solver import SolverOptions, StepInputs, StepSystem, outer_step, picard_inner, step_system
from .timestepping import State, TimeGrid, Trajectory, run

__version__ = "0.1.0"

__all__ = [
    "EnergyLedger",
    "ConfigError",
    "Mesh",
    "ModelParams",
    "OperatorSet",
    "ResponseSpec",
    "RunConfig",
    "SolverOptions",
    "State",
    "StepInputs",
    "StepSystem",
    "TimeGrid",
    "Trajectory",
    "build_disc_mesh",
    "build_ledger",
    "build_operators",
    "discrete_gronwall",
    "load_config",
    "outer_step",
    "picard_inner",
    "step_system",
    "run",
    "uniform_bound_scan",
    "validate_params",
    "__version__",
]
