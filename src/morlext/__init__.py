"""Multi-objective RL toolkit: scalarized PPO base policies, local
parameter-space directions from brief retraining, training-free Pareto
front extension along those directions, dominance filtering,
preference-aligned fine-tuning, and front quality metrics."""

from .envs import DualGoal, EnvSpec, SpeedEnergy, make_env
from .extension import (
    CandidatePolicy,
    DirectionSet,
    LleConfig,
    PipelineResult,
    make_base_weights,
    run_pipeline,
    shift_weight,
)
from .pareto import (
    FrontPoint,
    ParetoArchive,
    dominates,
    expected_utility,
    hypervolume,
    non_dominated_filter,
    sparsity,
)
from .policy import ParameterVector, evaluate_returns, unflatten
from .ppo import PpoConfig, RolloutBuffer, compute_gae, ppo_update, train
from .distance import Matching, hungarian_distance, hungarian_solve
from .quadratic import ErrorCurve, QuadraticObjectiveFamily, lle_error_curve

__version__ = "0.1.0"

__all__ = [
    "CandidatePolicy",
    "DirectionSet",
    "DualGoal",
    "EnvSpec",
    "ErrorCurve",
    "FrontPoint",
    "LleConfig",
    "Matching",
    "ParameterVector",
    "ParetoArchive",
    "PipelineResult",
    "PpoConfig",
    "QuadraticObjectiveFamily",
    "RolloutBuffer",
    "SpeedEnergy",
    "compute_gae",
    "dominates",
    "evaluate_returns",
    "expected_utility",
    "hungarian_distance",
    "hungarian_solve",
    "hypervolume",
    "lle_error_curve",
    "make_base_weights",
    "make_env",
    "non_dominated_filter",
    "ppo_update",
    "run_pipeline",
    "shift_weight",
    "sparsity",
    "train",
    "unflatten",
]
