"""Recomputations of what the panda optimizers record, written apart from the package.

The package computes its exact metrics with backward recursions, dense
``einsum`` contractions over the (S, A, B, S) transition tensor and soft
policy iteration.  The helpers here take another route to the same numbers,
so that a fault in the package cannot hide by being repeated in its check:

* transitions are held as padded successor lists built from the dense tensor;
* the upper-level objective is summed by pushing the state distribution
  forward through the horizon;
* values of a policy pair and of the two soft best responses come from
  plain value iteration, run until the value error is below ``tol``.

Policies are passed as logit matrices, so that ``p log p`` stays finite when
a probability underflows to zero.
"""

from __future__ import annotations

import numpy as np

VI_TOL = 1e-11          # value error at which value iteration stops
VI_MAX_SWEEPS = 200_000


class NotConverged(RuntimeError):
    pass


def log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


class Game:
    """The data of a zero-sum Markov game, with successor lists in place of the dense tensor."""

    def __init__(self, transition, init_dist, absorbing, discount, tau_min, tau_max):
        transition = np.asarray(transition, dtype=float)
        nonzero = transition > 0.0
        k = max(1, int(nonzero.sum(axis=-1).max()))
        # stable argsort of "is zero" puts the nonzero successors first, in state order
        self.succ = np.argsort(~nonzero, axis=-1, kind="stable")[..., :k]
        self.prob = np.take_along_axis(transition, self.succ, axis=-1)
        self.n_states = transition.shape[0]
        self.init_dist = np.asarray(init_dist, dtype=float)
        self.absorbing = np.asarray(absorbing, dtype=bool)
        self.discount = float(discount)
        self.tau_min = float(tau_min)
        self.tau_max = float(tau_max)

    def expect(self, v: np.ndarray) -> np.ndarray:
        """E[v(s') | s, a, b], shape (S, A, B)."""
        return (self.prob * v[self.succ]).sum(axis=-1)

    def push(self, weight: np.ndarray) -> np.ndarray:
        """Next-state mass from a mass on (s, a, b) triples."""
        mass = weight[..., None] * self.prob
        return np.bincount(self.succ.ravel(), weights=mass.ravel(), minlength=self.n_states)


def incentive_reward(base, scale, x, absorbing) -> np.ndarray:
    """base + scale * sigmoid(x), zero on absorbing states."""
    r = np.asarray(base, dtype=float) + scale * 0.5 * (1.0 + np.tanh(0.5 * np.asarray(x)))
    r[np.asarray(absorbing, dtype=bool)] = 0.0
    return r


def forward_return(game: Game, stage, ly, lz, horizon: int, gamma: float) -> float:
    """sum over t < horizon of gamma^t E[stage(s_t, a_t, b_t)], from the initial distribution."""
    joint = np.exp(ly)[:, :, None] * np.exp(lz)[:, None, :]
    stage = np.broadcast_to(np.asarray(stage, dtype=float), joint.shape)
    d = game.init_dist.copy()
    total = 0.0
    for t in range(horizon):
        w = d[:, None, None] * joint
        total += gamma ** t * float(np.sum(w * stage))
        d = game.push(w)
    return total


def _value_iteration(game: Game, backup, tol: float) -> np.ndarray:
    """Iterate v <- backup(v), zero on absorbing states, until the value error is below tol."""
    g = game.discount
    stop = tol * (1.0 - g) / g if g > 0 else np.inf
    live = ~game.absorbing
    v = np.zeros(game.n_states)
    for _ in range(VI_MAX_SWEEPS):
        vn = np.where(live, backup(v), 0.0)
        if np.abs(vn - v).max() <= stop:
            return vn
        v = vn
    raise NotConverged(f"value iteration did not reach {tol:g} in {VI_MAX_SWEEPS} sweeps")


def _regularized(game: Game, r, ly, lz):
    """r(s,a,b) + tau_min log y(a|s) - tau_max log z(b|s), zero on absorbing states."""
    w = r + game.tau_min * ly[:, :, None] - game.tau_max * lz[:, None, :]
    w[game.absorbing] = 0.0
    return w


def pair_value(game: Game, r, ly, lz, tol: float = VI_TOL) -> float:
    """J(y, z): the entropy-regularized discounted value of a fixed policy pair."""
    y, z = np.exp(ly), np.exp(lz)
    u = np.einsum("sa,sab,sb->s", y, _regularized(game, r, ly, lz), z)
    p = y[:, :, None] * z[:, None, :]
    v = _value_iteration(game, lambda v: u + game.discount * (p * game.expect(v)).sum(axis=(1, 2)), tol)
    return float(game.init_dist @ v)


def best_response_value(game: Game, r, l_fixed, side: str, tol: float = VI_TOL) -> float:
    """max_z J(y, z) for side="max" (l_fixed = log y), min_y J(y, z) for side="min" (l_fixed = log z)."""
    g = game.discount
    fixed = np.exp(l_fixed)
    if side == "max":
        w = r + game.tau_min * l_fixed[:, :, None]
        w[game.absorbing] = 0.0
        tau = game.tau_max

        def backup(v):
            q = np.einsum("sa,sab->sb", fixed, w + g * game.expect(v))
            m = q.max(axis=1)
            return m + tau * np.log(np.exp((q - m[:, None]) / tau).sum(axis=1))
    elif side == "min":
        w = r - game.tau_max * l_fixed[:, None, :]
        w[game.absorbing] = 0.0
        tau = game.tau_min

        def backup(v):
            q = np.einsum("sb,sab->sa", fixed, w + g * game.expect(v))
            m = q.min(axis=1)
            return m - tau * np.log(np.exp(-(q - m[:, None]) / tau).sum(axis=1))
    else:
        raise ValueError(f"side must be 'min' or 'max', got {side!r}")
    return float(game.init_dist @ _value_iteration(game, backup, tol))


def ni_gap(game: Game, r, ly, lz, tol: float = VI_TOL) -> float:
    """Nikaido-Isoda gap max_z J(y, z) - min_y J(y, z)."""
    return best_response_value(game, r, ly, "max", tol) - best_response_value(game, r, lz, "min", tol)


def agrees(recorded: float, recomputed: float, tol: float) -> bool:
    """True when the two values differ by at most tol, relative to max(1, |recomputed|)."""
    return bool(abs(recorded - recomputed) <= tol * max(1.0, abs(recomputed)))
