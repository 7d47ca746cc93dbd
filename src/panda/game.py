"""Tabular two-player zero-sum Markov games with a parametric reward model.

A game couples a minimizing player (action set A) and a maximizing player
(action set B) on a finite state space.  Both players act simultaneously;
the stage payoff is paid by the min player to the max player.  The payoff
has a fixed base component plus a bounded learnable incentive

    r(s, a, b) = base(s, a, b) + scale * sigmoid(x(s, a, b)),

where ``x`` is the upper-level design variable.  Absorbing states self-loop
and pay nothing; the helpers at the bottom of this module produce reward
tensors with those rows masked out, which is the form every solver and
sampler in this package consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "MarkovGame",
    "RewardModel",
    "TabularPolicy",
    "effective_reward",
    "effective_reward_grad_x",
    "softmax",
    "log_softmax",
    "probs",
]

# Transition rows may deviate from probability simplices by at most this much.
ROW_SUM_TOL = 1e-9


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    out = np.empty_like(x, dtype=float)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@dataclass
class MarkovGame:
    """Finite simultaneous-move zero-sum Markov game.

    Attributes:
        transition: array of shape (S, A, B, S); ``transition[s, a, b]`` is the
            next-state distribution.
        init_dist: initial state distribution rho, shape (S,).
        absorbing: boolean mask of absorbing states, shape (S,).  Absorbing
            states must self-loop under every action pair.
        discount: gamma in [0, 1).
        tau_min: entropy temperature of the minimizing player (>0).
        tau_max: entropy temperature of the maximizing player (>0).
    """

    transition: np.ndarray
    init_dist: np.ndarray
    absorbing: np.ndarray
    discount: float
    tau_min: float
    tau_max: float
    _cum_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        self.transition = np.asarray(self.transition, dtype=float)
        self.init_dist = np.asarray(self.init_dist, dtype=float)
        self.absorbing = np.asarray(self.absorbing, dtype=bool)
        if self.transition.ndim != 4 or self.transition.shape[3] != self.transition.shape[0]:
            raise ValueError(f"transition must have shape (S,A,B,S), got {self.transition.shape}")
        S = self.transition.shape[0]
        if self.init_dist.shape != (S,) or self.absorbing.shape != (S,):
            raise ValueError("init_dist/absorbing shape mismatch with transition")
        if np.any(self.transition < 0.0):
            raise ValueError("transition has negative entries")
        row_err = np.max(np.abs(self.transition.sum(axis=3) - 1.0))
        if row_err > ROW_SUM_TOL:
            raise ValueError(f"transition rows must sum to 1 (max error {row_err:.3e})")
        if np.any(self.init_dist < 0.0) or abs(self.init_dist.sum() - 1.0) > ROW_SUM_TOL:
            raise ValueError("init_dist is not a probability vector")
        if not (0.0 <= self.discount < 1.0):
            raise ValueError(f"discount must be in [0,1), got {self.discount}")
        if self.tau_min <= 0.0 or self.tau_max <= 0.0:
            raise ValueError("entropy temperatures must be positive")
        # Absorbing states must self-loop with probability one.
        for s in np.flatnonzero(self.absorbing):
            rows = self.transition[s]  # (A, B, S)
            if np.max(np.abs(rows[..., s] - 1.0)) > ROW_SUM_TOL:
                raise ValueError(f"absorbing state {s} does not self-loop")

    @property
    def n_states(self) -> int:
        return self.transition.shape[0]

    @property
    def n_actions_min(self) -> int:
        return self.transition.shape[1]

    @property
    def n_actions_max(self) -> int:
        return self.transition.shape[2]


@dataclass
class RewardModel:
    """Stage payoff ``base + scale * sigmoid(x)`` with design variable x.

    The model is treated as immutable; :meth:`with_params` produces a view
    with new incentive parameters sharing the base tensor.
    """

    base: np.ndarray
    incentive_params: np.ndarray
    incentive_scale: float

    def __post_init__(self):
        self.base = np.asarray(self.base, dtype=float)
        self.incentive_params = np.asarray(self.incentive_params, dtype=float)
        if self.base.shape != self.incentive_params.shape:
            raise ValueError("base and incentive_params shapes differ")

    def with_params(self, x: np.ndarray) -> "RewardModel":
        return RewardModel(self.base, x, self.incentive_scale)

    def values(self) -> np.ndarray:
        """Full (S, A, B) reward tensor."""
        return self.base + self.incentive_scale * sigmoid(self.incentive_params)

    def grad_x(self) -> np.ndarray:
        """Elementwise derivative of the reward in x, shape (S, A, B)."""
        sig = sigmoid(self.incentive_params)
        return self.incentive_scale * sig * (1.0 - sig)


@dataclass
class TabularPolicy:
    """Softmax policy over per-state logits; logits[s] parameterize pi(.|s)."""

    logits: np.ndarray

    def __post_init__(self):
        self.logits = np.asarray(self.logits, dtype=float)
        if self.logits.ndim != 2:
            raise ValueError("logits must be a (S, n_actions) matrix")

    @classmethod
    def uniform(cls, n_states: int, n_actions: int) -> "TabularPolicy":
        return cls(np.zeros((n_states, n_actions)))

    def probs_all(self) -> np.ndarray:
        return softmax(self.logits)

    def log_probs_all(self) -> np.ndarray:
        return log_softmax(self.logits)

    def copy(self) -> "TabularPolicy":
        return TabularPolicy(self.logits.copy())


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax over the last axis."""
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax over the last axis."""
    z = logits - logits.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def probs(policy) -> np.ndarray:
    """Action probabilities of a TabularPolicy, or a probability array as floats."""
    if isinstance(policy, TabularPolicy):
        return policy.probs_all()
    return np.asarray(policy, dtype=float)


def effective_reward(game: MarkovGame, model: RewardModel) -> np.ndarray:
    """Reward tensor with absorbing-state rows zeroed out."""
    r = model.values()
    if r.shape != (game.n_states, game.n_actions_min, game.n_actions_max):
        raise ValueError("reward tensor shape does not match game")
    r = r.copy()
    r[game.absorbing] = 0.0
    return r


def effective_reward_grad_x(game: MarkovGame, model: RewardModel) -> np.ndarray:
    """d(effective reward)/dx tensor; identically zero on absorbing rows."""
    g = model.grad_x().copy()
    g[game.absorbing] = 0.0
    return g
