"""Deterministic simulation engine for heterogeneous multi-agent bandits
under adversarial reward corruption, with a seeded experiment harness."""

from .adversary import (Adversary, BudgetedTargetedAdversary,
                        EpochFloodAdversary, GapFlipAdversary, make_adversary)
from .agents import (AgentState, EpochSchedule, build_schedule,
                     pool_estimates)
from .config import ExperimentConfig, load_config, load_sweep, validate_config
from .engine import RunResult, run_single
from .errors import ConfigError, DraaError, InvariantError
from .model import BanditInstance, build_instance
from .runner import execute_run, run_experiment, run_sweep

__version__ = "0.1.0"

__all__ = [
    "Adversary", "AgentState", "BanditInstance", "BudgetedTargetedAdversary",
    "ConfigError", "DraaError", "EpochFloodAdversary", "EpochSchedule",
    "ExperimentConfig", "GapFlipAdversary", "InvariantError", "RunResult",
    "build_instance", "build_schedule", "execute_run", "load_config",
    "load_sweep", "make_adversary", "pool_estimates", "run_experiment",
    "run_single", "run_sweep", "validate_config",
    "__version__",
]
