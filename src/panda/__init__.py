"""Penalty-based first-order bilevel optimization over entropy-regularized
zero-sum Markov games, with exact dynamic-programming verification machinery.
"""

from .envs import EnvBundle, GridSpec, SyntheticSpec, build_env, build_sentinel, build_synthetic
from .exact import best_response, ni_gap, ni_gradients, solve_ne
from .game import MarkovGame, RewardModel, TabularPolicy
from .optim import (
    OPTIMIZERS,
    OracleOptions,
    PandaConfig,
    RunRecord,
    RunResult,
    exact_metrics,
    run_alternating,
    run_oracle,
    run_panda,
    run_pbrl,
)

__all__ = [
    "EnvBundle",
    "GridSpec",
    "SyntheticSpec",
    "build_env",
    "build_sentinel",
    "build_synthetic",
    "best_response",
    "ni_gap",
    "ni_gradients",
    "solve_ne",
    "MarkovGame",
    "RewardModel",
    "TabularPolicy",
    "OPTIMIZERS",
    "OracleOptions",
    "PandaConfig",
    "RunRecord",
    "RunResult",
    "exact_metrics",
    "run_alternating",
    "run_oracle",
    "run_panda",
    "run_pbrl",
]
