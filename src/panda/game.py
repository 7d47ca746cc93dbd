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

import math
from dataclasses import dataclass

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


class MarkovGame:
    """Finite simultaneous-move zero-sum Markov game.

    Transitions are held as padded successor lists: ``succ[s, a, b]`` lists
    the states reachable from s under (a, b) in increasing order and
    ``succ_prob[s, a, b]`` their probabilities, both of shape (S, A, B, K)
    with K the longest list (1 on a deterministic game, S on a dense one).
    Shorter lists are padded with probability 0, each pad pointing at its
    row's last real successor, so a sampler that caps its draw at the last
    entry can never land on an unreachable state.  The constructor takes a
    dense (S, A, B, S) tensor; `from_successors` takes the lists themselves,
    and `transition` rebuilds the dense tensor on demand.

    Attributes:
        succ, succ_prob: successor lists, shape (S, A, B, K).
        init_dist: initial state distribution rho, shape (S,).
        absorbing: boolean mask of absorbing states, shape (S,).  Absorbing
            states must self-loop under every action pair.
        discount: gamma in [0, 1).
        tau_min: entropy temperature of the minimizing player (>0).
        tau_max: entropy temperature of the maximizing player (>0).
    """

    def __init__(self, transition, init_dist, absorbing, discount, tau_min, tau_max):
        transition = np.asarray(transition, dtype=float)
        if transition.ndim != 4 or transition.shape[3] != transition.shape[0]:
            raise ValueError(f"transition must have shape (S,A,B,S), got {transition.shape}")
        # negative and NaN entries are kept as successors, so that `_setup`
        # rejects them with the messages a check of the dense input would give
        nonzero = transition != 0.0
        count = nonzero.sum(axis=3, keepdims=True)
        # a stable sort on "is zero" lists the successors first, in state order
        order = np.argsort(~nonzero, axis=3, kind="stable")[..., :max(1, int(count.max()))]
        pad = np.arange(order.shape[3]) >= count
        last = np.take_along_axis(order, np.maximum(count - 1, 0), axis=3)
        self._setup(np.where(pad, last, order),
                    np.where(pad, 0.0, np.take_along_axis(transition, order, axis=3)),
                    init_dist, absorbing, discount, tau_min, tau_max)

    @classmethod
    def from_successors(cls, succ, succ_prob, init_dist, absorbing, discount,
                        tau_min, tau_max) -> "MarkovGame":
        """Game from padded successor lists, never forming the dense tensor."""
        game = cls.__new__(cls)
        game._setup(succ, succ_prob, init_dist, absorbing, discount, tau_min, tau_max)
        return game

    def _setup(self, succ, succ_prob, init_dist, absorbing, discount, tau_min, tau_max):
        self.succ = np.asarray(succ, dtype=np.intp)
        self.succ_prob = np.asarray(succ_prob, dtype=float)
        self.init_dist = np.asarray(init_dist, dtype=float)
        self.absorbing = np.asarray(absorbing, dtype=bool)
        self.discount = discount
        self.tau_min = tau_min
        self.tau_max = tau_max
        if self.succ.ndim != 4 or self.succ_prob.shape != self.succ.shape:
            raise ValueError(f"successor lists must share one (S,A,B,K) shape, got "
                             f"{self.succ.shape} and {self.succ_prob.shape}")
        S, A, B, _ = self.succ.shape
        if np.any(self.succ < 0) or np.any(self.succ >= S):
            raise ValueError("successor index out of range")
        if self.init_dist.shape != (S,) or self.absorbing.shape != (S,):
            raise ValueError("init_dist/absorbing shape mismatch with transition")
        if np.any(self.succ_prob < 0.0):
            raise ValueError("transition has negative entries")
        row_err = np.max(np.abs(self.succ_prob.sum(axis=3) - 1.0))
        if not row_err <= ROW_SUM_TOL:  # NaN fails too
            raise ValueError(f"transition rows must sum to 1 (max error {row_err:.3e})")
        if np.any(self.init_dist < 0.0) or abs(self.init_dist.sum() - 1.0) > ROW_SUM_TOL:
            raise ValueError("init_dist is not a probability vector")
        if not (0.0 <= self.discount < 1.0):
            raise ValueError(f"discount must be in [0,1), got {self.discount}")
        if self.tau_min <= 0.0 or self.tau_max <= 0.0:
            raise ValueError("entropy temperatures must be positive")
        # Absorbing states must self-loop with probability one.
        s = np.arange(S)[:, None, None, None]
        stay = np.where(self.succ == s, self.succ_prob, 0.0).sum(axis=3)
        for state in np.flatnonzero(self.absorbing):
            if np.max(np.abs(stay[state] - 1.0)) > ROW_SUM_TOL:
                raise ValueError(f"absorbing state {state} does not self-loop")
        # flat targets of the three folds below, in (s, a, b, k) order
        self._pair_index = (s * S + self.succ).ravel()
        self._fold_min_index = ((s * B + np.arange(B)[:, None]) * S + self.succ).ravel()
        self._fold_max_index = ((s * A + np.arange(A)[:, None, None]) * S + self.succ).ravel()

    @property
    def n_states(self) -> int:
        return self.succ.shape[0]

    @property
    def n_actions_min(self) -> int:
        return self.succ.shape[1]

    @property
    def n_actions_max(self) -> int:
        return self.succ.shape[2]

    @property
    def transition(self) -> np.ndarray:
        """The dense (S, A, B, S) tensor, built anew on every access."""
        p = np.zeros(self.succ.shape[:3] + (self.n_states,))
        np.add.at(p, (*np.indices(self.succ.shape)[:3], self.succ), self.succ_prob)
        return p

    def expect(self, v: np.ndarray) -> np.ndarray:
        """E[v(s') | s, a, b], shape (S, A, B)."""
        return np.einsum("sabk,sabk->sab", self.succ_prob, v[self.succ])

    def _fold(self, index, weights, shape) -> np.ndarray:
        return np.bincount(index, weights=weights.ravel(),
                           minlength=math.prod(shape)).reshape(shape)

    def fold_pair(self, y: np.ndarray, z: np.ndarray) -> np.ndarray:
        """State-to-state kernel under the policy pair (y, z), shape (S, S)."""
        w = (self.succ_prob * y[:, :, None, None]) * z[:, None, :, None]
        return self._fold(self._pair_index, w, (self.n_states,) * 2)

    def fold_min(self, y: np.ndarray) -> np.ndarray:
        """Kernel of the max player's MDP against min policy y, shape (S, B, S)."""
        w = self.succ_prob * y[:, :, None, None]
        S = self.n_states
        return self._fold(self._fold_min_index, w, (S, self.n_actions_max, S))

    def fold_max(self, z: np.ndarray) -> np.ndarray:
        """Kernel of the min player's MDP against max policy z, shape (S, A, S)."""
        w = self.succ_prob * z[:, None, :, None]
        S = self.n_states
        return self._fold(self._fold_max_index, w, (S, self.n_actions_min, S))


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
