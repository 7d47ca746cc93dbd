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
import numbers
import weakref
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "MarkovGame",
    "RewardModel",
    "TabularPolicy",
    "ResponseKernel",
    "ListResponse",
    "FoldedChain",
    "ListChain",
    "effective_reward",
    "effective_reward_grad_x",
    "softmax",
    "log_softmax",
    "probs",
]

# Transition rows may deviate from probability simplices by at most this much.
ROW_SUM_TOL = 1e-9


def _is_real(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def _is_int(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _check_counts(owner, names, least=1):
    """Each named attribute of `owner` must be an integer >= `least`."""
    for name in names:
        v = getattr(owner, name)
        if not (_is_int(v) and v >= least):
            raise ValueError(f"{name} must be an integer >= {least}, got {v!r}")


def _check_reals(owner, names, positive=False):
    """Each named attribute of `owner` must be a finite real, > 0 if `positive`, else >= 0."""
    for name in names:
        v = getattr(owner, name)
        if not (_is_real(v) and math.isfinite(v) and (v > 0 if positive else v >= 0)):
            raise ValueError(f"{name} must be a finite real {'> 0' if positive else '>= 0'}, "
                             f"got {v!r}")


def _check_side(side, allowed=("min", "max")):
    if side not in allowed:
        raise ValueError(f"side must be {' or '.join(map(repr, allowed))}, got {side!r}")


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

    A game whose lists are short against its state count is *matrix-free*:
    `pair_chain` and `response_kernel` then apply the lists directly, where
    a dense game folds them into (S, S) and (S, K, S) arrays.  The rule is
    A * B * K * 8 <= S, so a state's list entries cost at most an eighth of
    a dense row: the 626-state grid (A = B = 5, K = 1) is matrix-free, the
    5-state synthetic game and its designer MDP (K = 5) are not.

    Attributes:
        succ, succ_prob: successor lists, shape (S, A, B, K).
        init_dist: initial state distribution rho, shape (S,).
        absorbing: boolean mask of absorbing states, shape (S,).  Absorbing
            states must self-loop under every action pair.
        discount: gamma in [0, 1), a real number and not a boolean.
        tau_min: entropy temperature of the minimizing player (finite, >0).
        tau_max: entropy temperature of the maximizing player (finite, >0).
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
        self.succ = np.ascontiguousarray(succ, dtype=np.intp)
        self.succ_prob = np.ascontiguousarray(succ_prob, dtype=float)
        self.init_dist = np.asarray(init_dist, dtype=float)
        self.absorbing = np.asarray(absorbing, dtype=bool)
        self.discount = discount
        self.tau_min = tau_min
        self.tau_max = tau_max
        if self.succ.ndim != 4 or self.succ_prob.shape != self.succ.shape:
            raise ValueError(f"successor lists must share one (S,A,B,K) shape, got "
                             f"{self.succ.shape} and {self.succ_prob.shape}")
        S, A, B, K = self.succ.shape
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
        if not (_is_real(discount) and 0.0 <= discount < 1.0):
            raise ValueError(f"discount must be a real in [0,1), got {discount!r}")
        _check_reals(self, ("tau_min", "tau_max"), positive=True)
        # Absorbing states must self-loop with probability one.
        s = np.arange(S)[:, None, None, None]
        stay = np.where(self.succ == s, self.succ_prob, 0.0).sum(axis=3)
        for state in np.flatnonzero(self.absorbing):
            if np.max(np.abs(stay[state] - 1.0)) > ROW_SUM_TOL:
                raise ValueError(f"absorbing state {state} does not self-loop")
        self.matrix_free = A * B * K * 8 <= S

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

    @cached_property
    def _fold_index(self):
        """Flat targets of `fold_pair` and of the max and the min player's kernels, in
        (s, a, b, k) order; built on first use, as only dense games fold."""
        S, A, B, _ = self.succ.shape
        s = np.arange(S)[:, None, None, None]
        return ((s * S + self.succ).ravel(),
                ((s * B + np.arange(B)[:, None]) * S + self.succ).ravel(),
                ((s * A + np.arange(A)[:, None, None]) * S + self.succ).ravel())

    @cached_property
    def _draws(self):
        """Sampling tables: the successor lists' `_cumulative` rows, one per flat
        (s, a, b) (None when every list has one entry), the initial support and its
        `_cumulative` row, and whether any state is absorbing; built on the first
        rollout, as only the sampler draws."""
        k = self.succ.shape[3]
        support = np.flatnonzero(self.init_dist)
        return (None if k == 1 else _cumulative(self.succ_prob.reshape(-1, k)), support,
                _cumulative(self.init_dist[support]), bool(self.absorbing.any()))

    def fold_pair(self, y: np.ndarray, z: np.ndarray) -> np.ndarray:
        """State-to-state kernel under the policy pair (y, z), shape (S, S)."""
        S = self.n_states
        return np.bincount(self._fold_index[0], weights=self._pair_weights(y, z).ravel(),
                           minlength=S * S).reshape(S, S)

    def _pair_weights(self, y, z):
        return (self.succ_prob * y[:, :, None, None]) * z[:, None, :, None]

    def pair_chain(self, y: np.ndarray, z: np.ndarray):
        """The state chain under the policy pair (y, z): a `ListChain` on a matrix-free
        game, else a `FoldedChain` over `fold_pair`."""
        if self.matrix_free:
            return ListChain(self.succ, self._pair_weights(y, z))
        return FoldedChain(self.fold_pair(y, z))

    def response_kernel(self, fixed, side):
        """`side`'s MDP, over its own actions, against the opponent's policy `fixed`:
        a `ListResponse` on a matrix-free game, else a `ResponseKernel`."""
        _check_side(side)
        if side == "max":
            w, i, k = fixed[:, :, None, None], 1, self.n_actions_max
        else:
            w, i, k = fixed[:, None, :, None], 2, self.n_actions_min
        if self.matrix_free:
            return ListResponse(self.succ, self.succ_prob * w, side, self.absorbing)
        return ResponseKernel(self._fold_index[i], (self.succ_prob * w).ravel(),
                              (self.n_states, k), self.absorbing)


class FoldedChain:
    """A state chain as its (S, S) matrix."""

    def __init__(self, matrix):
        self.matrix = matrix

    def step(self, v: np.ndarray) -> np.ndarray:
        """P v: the expectation of v one step ahead."""
        return self.matrix @ v

    def step_back(self, d: np.ndarray) -> np.ndarray:
        """P' d: the state distribution d one step later."""
        return self.matrix.T @ d


class ListChain:
    """A state chain as weighted successor lists, without its (S, S) matrix: state s
    moves to succ[s, ...] with the weights at the same places, shape (S, A, B, K)."""

    matrix = None

    def __init__(self, succ, weights):
        S = len(succ)
        self.succ, self.weights = succ.reshape(S, -1), weights.reshape(S, -1)

    def step(self, v: np.ndarray) -> np.ndarray:
        """P v: the expectation of v one step ahead."""
        return np.einsum("sj,sj->s", self.weights, v[self.succ])

    def step_back(self, d: np.ndarray) -> np.ndarray:
        """P' d: the state distribution d one step later, one `bincount` over the lists."""
        return np.bincount(self.succ.ravel(), weights=(self.weights * d[:, None]).ravel(),
                           minlength=len(d))


class ResponseKernel:
    """One player's dense (S, K, S) kernel against a fixed opponent policy, K its action
    count, built by one `bincount` of the successor-list entries over their flat
    (s, k, s') targets."""

    def __init__(self, index, weights, shape, absorbing):
        S, K = shape
        self.kernel = np.bincount(index, weights=weights, minlength=S * K * S).reshape(S, K, S)
        self.absorbing = absorbing

    def backup(self, v: np.ndarray) -> np.ndarray:
        """E[v(s') | s, k], shape (S, K)."""
        return np.einsum("skn,n->sk", self.kernel, v)

    def fold(self, pol: np.ndarray) -> np.ndarray:
        """State-to-state kernel under the responder's policy pol (S, K), shape (S, S)."""
        return np.einsum("skn,sk->sn", self.kernel, pol)

    def chain(self, pol: np.ndarray) -> FoldedChain:
        """The chain under pol, stopped at absorbing states (their rows zero)."""
        p = self.fold(pol)
        p[self.absorbing] = 0.0
        return FoldedChain(p)


class ListResponse:
    """`ResponseKernel`'s interface on the successor lists: `weights` (S, A, B, K) are the
    transition probabilities times the fixed opponent's policy."""

    def __init__(self, succ, weights, side, absorbing):
        self.succ, self.weights, self.side = succ, weights, side
        self.absorbing = absorbing

    def backup(self, v: np.ndarray) -> np.ndarray:
        """E[v(s') | s, k], shape (S, K)."""
        return np.einsum("sabk,sabk->sb" if self.side == "max" else "sabk,sabk->sa",
                         self.weights, v[self.succ])

    def chain(self, pol: np.ndarray) -> ListChain:
        """The chain under pol, stopped at absorbing states (their rows zero)."""
        w = self.weights * (pol[:, None, :, None] if self.side == "max"
                            else pol[:, :, None, None])
        w[self.absorbing] = 0.0
        return ListChain(self.succ, w)


@dataclass
class RewardModel:
    """Stage payoff ``base + scale * sigmoid(x)`` with design variable x.

    The model is treated as immutable; :meth:`with_params` produces a view
    with new incentive parameters sharing the base tensor.  Its masked
    reward tables (see `effective_reward`) are kept with it, one per game.
    The base must be finite and the scale a finite real (not a boolean).
    """

    base: np.ndarray
    incentive_params: np.ndarray
    incentive_scale: float

    def __post_init__(self):
        self.base = np.asarray(self.base, dtype=float)
        self.incentive_params = np.asarray(self.incentive_params, dtype=float)
        if self.base.shape != self.incentive_params.shape:
            raise ValueError("base and incentive_params shapes differ")
        if not np.isfinite(self.base).all():
            raise ValueError("base payoff must be finite")
        if not (_is_real(self.incentive_scale) and math.isfinite(self.incentive_scale)):
            raise ValueError(f"incentive_scale must be a finite real, got {self.incentive_scale!r}")
        self._tables = weakref.WeakKeyDictionary()

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
        """All-zero logits, as a read-only view of one zero: no per-state array."""
        return cls(np.broadcast_to(0.0, (n_states, n_actions)))


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
        return softmax(policy.logits)
    return np.asarray(policy, dtype=float)


def _cumulative(p: np.ndarray) -> np.ndarray:
    """Cumulative sums of probability rows along the last axis, +inf on each row from
    its first entry that reaches the row's total.

    That entry has positive mass, so a draw above a total rounded short of 1
    lands on an entry of positive mass: for a successor list, on its last real
    successor rather than a pad.
    """
    cum = np.cumsum(p, axis=-1)
    cum[cum >= cum[..., -1:]] = np.inf
    return cum


def effective_reward(game: MarkovGame, model: RewardModel) -> np.ndarray:
    """Reward tensor with absorbing-state rows zeroed out.

    The table is built on the first call for a (game, model) pair; every
    later call returns that same array, which is read-only.
    """
    r = model._tables.get(game)
    if r is None:
        r = model.values()
        if r.shape != (game.n_states, game.n_actions_min, game.n_actions_max):
            raise ValueError("reward tensor shape does not match game")
        r[game.absorbing] = 0.0
        r.flags.writeable = False
        model._tables[game] = r
    return r


def effective_reward_grad_x(game: MarkovGame, model: RewardModel) -> np.ndarray:
    """d(effective reward)/dx tensor; identically zero on absorbing rows."""
    g = model.grad_x().copy()
    g[game.absorbing] = 0.0
    return g
